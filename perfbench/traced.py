"""Traced launcher: run ``repro.cli`` with spans around each layer's calls.

Usage::

    python perfbench/traced.py SPANS.json serve --port 0 --background ...

Everything after the spans path is handed to :func:`repro.cli.main`
unchanged, so the traced process is the real ``serve`` / ``cluster
serve`` process. Before ``repro`` is imported, ``os.fdatasync`` is
wrapped (the WAL binds it at import time); afterwards the public entry
point of each layer the benchmark attributes time to is replaced by a
wrapper that records one span per call:

    (span id, parent span id or -1, name, thread id, start ns, end ns)

Parents come from a per-thread stack, so a span's children are the
wrapped calls it made on its own thread. Spans are kept in memory and
written to ``SPANS.json`` when ``main`` returns, which the CLI does on a
clean SIGTERM/SIGINT shutdown. Times are ``time.perf_counter_ns``
(CLOCK_MONOTONIC on Linux), the clock the load generator also reads, so
client and server intervals can be compared directly.

The source tree is not changed; only this process's function objects are.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_ids = itertools.count()
_local = threading.local()
#: Finished spans, appended from any thread (list.append holds the GIL).
SPANS: list = []


def traced(name: str, fn):
    """Return ``fn`` wrapped so every call records a span called ``name``."""
    clock = time.perf_counter_ns
    get_ident = threading.get_ident

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        span_id = next(_ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            SPANS.append((span_id, parent, name, get_ident(), start, end))

    return wrapper


def _patch(owner, attribute: str, name: str) -> None:
    setattr(owner, attribute, traced(name, getattr(owner, attribute)))


def install() -> None:
    """Wrap each layer's public functions (call once, before ``main``)."""
    if hasattr(os, "fdatasync"):
        os.fdatasync = traced("wal.fdatasync", os.fdatasync)
    sys.path.insert(0, str(SRC))

    from repro.cluster import node as cluster_node
    from repro.cluster.store import NodeStore
    from repro.compaction.executor import CompactionExecutor
    from repro.concurrency.coordinator import BackgroundCoordinator
    from repro.core.tree import LSMTree
    from repro.core.wal import WriteAheadLog
    from repro.server import server as server_module
    from repro.server.protocol import FrameParser

    # repro.server.protocol: the server module binds the encoders by name.
    _patch(FrameParser, "feed", "protocol.parse")
    _patch(server_module, "encode_messages", "protocol.encode")
    _patch(server_module, "encode_message", "protocol.encode")
    # repro.core.tree / repro.concurrency / repro.core.wal: the commit path.
    _patch(LSMTree, "write_batch", "engine.write_batch")
    _patch(BackgroundCoordinator, "buffer_entries", "memtable.apply")
    _patch(WriteAheadLog, "append_batch", "wal.append")
    # Read path (filters, fence pointers, SimulatedDisk blocks, cache).
    _patch(LSMTree, "get", "engine.get")
    _patch(LSMTree, "scan", "engine.scan")
    # repro.compaction: table building outside a merge is a flush.
    _patch(CompactionExecutor, "build_tables", "sstable.build")
    _patch(CompactionExecutor, "merge_job", "compaction.merge")
    # repro.cluster: primary commit incl. the sync ship wait, standby apply.
    _patch(NodeStore, "write_batch", "repl.commit")
    _patch(NodeStore, "replica_apply", "repl.apply")
    _patch(cluster_node._ShardShipper, "_on_commit", "repl.ship_wait")


def main(argv: list) -> int:
    if len(argv) < 2:
        print("usage: traced.py SPANS.json <repro.cli arguments>",
              file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    install()
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(SPANS, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
