"""Per-layer numbers from spans (see ``traced.py``) and INFO counter deltas.

A span's *busy* time is its duration; its *self* time is the duration
minus the time its direct children cover (children run on the span's own
thread, nested, so their durations add up without overlap). Only spans
that start inside the timed window are counted; parents and children are
looked up among all spans, so the window edges split nothing.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

#: Root spans that serve a client request (background flush and
#: compaction spans are excluded): what ``unattributed_us_per_op`` treats
#: as server-covered time.
REQUEST_PATH = (
    "protocol.parse", "protocol.encode", "engine.write_batch",
    "engine.get", "engine.scan", "repl.commit", "repl.apply",
)

Interval = Tuple[int, int]


def load_spans(paths: Iterable[str]) -> List[list]:
    """Spans from every file; ids are per process, so each file's ids are
    offset to stay unique."""
    spans: List[list] = []
    offset = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
        top = 0
        for span_id, parent, name, thread, start, end in raw:
            top = max(top, span_id + 1)
            spans.append([
                span_id + offset,
                parent + offset if parent >= 0 else -1,
                name, thread, start, end,
            ])
        offset += top
    return spans


def in_window(spans: Sequence[list], window: Interval) -> List[list]:
    return [span for span in spans if window[0] <= span[4] < window[1]]


def aggregate(spans: Sequence[list],
              window: Interval) -> Dict[str, Dict[str, float]]:
    """name -> {calls, busy_s, self_s} over the spans inside ``window``.

    Flush time is split from compaction: ``sstable.build`` calls nested
    in a ``compaction.merge`` span are part of that compaction; the others
    are flushes and are renamed ``flush.build``.
    """
    by_id = {span[0]: span for span in spans}
    child_ns: Dict[int, int] = defaultdict(int)
    for span_id, parent, _name, _thread, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start

    def under_compaction(span: list) -> bool:
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[2] == "compaction.merge":
                return True
            parent = by_id.get(parent[1])
        return False

    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for span in in_window(spans, window):
        name = span[2]
        if name == "sstable.build":
            name = "compaction.build" if under_compaction(span) else "flush.build"
        busy = span[5] - span[4]
        row = table[name]
        row["calls"] += 1
        row["busy_s"] += busy / 1e9
        row["self_s"] += (busy - child_ns.get(span[0], 0)) / 1e9
    return dict(table)


def union(intervals: Iterable[Interval]) -> List[Interval]:
    """Sorted, disjoint cover of ``intervals``."""
    merged: List[Interval] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def uncovered_ns(client: List[Interval], server: List[Interval]) -> int:
    """Length of the client intervals that no server interval covers."""
    client, server = union(client), union(server)
    total = sum(end - start for start, end in client)
    covered = 0
    index = 0
    for start, end in client:
        while index < len(server) and server[index][1] <= start:
            index += 1
        probe = index
        while probe < len(server) and server[probe][0] < end:
            covered += min(end, server[probe][1]) - max(start, server[probe][0])
            probe += 1
    return total - covered


def info_delta(before: List[dict], after: List[dict]) -> Dict[str, float]:
    """Summed counter deltas over every server's INFO (cluster: all nodes)."""
    engine_keys = (
        "flushes", "flushed_bytes", "compactions", "compaction_bytes_written",
        "user_bytes_written", "stall_us", "slowdown_us", "gets", "scans",
        "runs_probed", "filter_probes", "filter_negatives",
        "blocks_from_cache", "blocks_from_disk",
    )
    server_keys = (
        "group_commits", "group_committed_ops", "busy_rejections",
        "slowdown_delays",
    )
    delta: Dict[str, float] = defaultdict(float)
    for old, new in zip(before, after):
        for key in engine_keys:
            delta[key] += new["engine"][key] - old["engine"][key]
        for key in server_keys:
            delta[key] += new["server"][key] - old["server"][key]
    return dict(delta)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    table: Dict[str, Dict[str, float]], counters: Dict[str, float], ops: int
) -> Dict[str, float]:
    """The per-layer metrics named in ``BENCHMARK.json`` (server side)."""

    def row(name: str) -> Dict[str, float]:
        return table.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

    def per(name: str, field: str, count: float) -> float:
        return _ratio(row(name)[field] * 1e6, count)

    wal_commits = row("wal.append")["calls"]
    gets = row("engine.get")["calls"]
    scans = row("engine.scan")["calls"]
    blocks = counters["blocks_from_cache"] + counters["blocks_from_disk"]
    return {
        "protocol.parse_self_us_per_op": per("protocol.parse", "self_s", ops),
        "protocol.encode_self_us_per_op": per("protocol.encode", "self_s", ops),
        "server.ops_per_commit": _ratio(
            counters["group_committed_ops"], counters["group_commits"]
        ),
        "server.group_commits": counters["group_commits"],
        "server.busy_rejections": counters["busy_rejections"],
        "server.slowdown_delays": counters["slowdown_delays"],
        "wal.append_self_us_per_commit": per("wal.append", "self_s", wal_commits),
        "wal.fdatasync_us_per_commit": per(
            "wal.fdatasync", "busy_s", wal_commits
        ),
        "engine.write_batch_self_us_per_op": per(
            "engine.write_batch", "self_s", ops
        ),
        "memtable.apply_self_us_per_op": per("memtable.apply", "self_s", ops),
        "engine.stall_s": (counters["stall_us"] + counters["slowdown_us"]) / 1e6,
        "flush.count": counters["flushes"],
        "flush.bytes": counters["flushed_bytes"],
        "flush.busy_s": row("flush.build")["busy_s"],
        "compaction.count": counters["compactions"],
        "compaction.bytes_written": counters["compaction_bytes_written"],
        "compaction.busy_s": row("compaction.merge")["busy_s"],
        "engine.write_amp": _ratio(
            counters["flushed_bytes"] + counters["compaction_bytes_written"],
            counters["user_bytes_written"],
        ),
        "engine.get_self_us_per_op": per("engine.get", "self_s", gets),
        "engine.scan_self_us_per_op": per("engine.scan", "self_s", scans),
        "filter.probes_per_get": _ratio(counters["filter_probes"], counters["gets"]),
        "filter.skip_rate": _ratio(
            counters["filter_negatives"], counters["filter_probes"]
        ),
        "read.runs_probed_per_get": _ratio(counters["runs_probed"], counters["gets"]),
        "read.blocks_per_get": _ratio(blocks, counters["gets"]),
        "cache.hit_rate": _ratio(counters["blocks_from_cache"], blocks),
        "repl.commit_us_per_op": per("repl.commit", "busy_s", ops),
        "repl.ship_wait_us_per_op": per("repl.ship_wait", "busy_s", ops),
        "repl.apply_us_per_call": per(
            "repl.apply", "busy_s", row("repl.apply")["calls"]
        ),
    }


def format_table(table: Dict[str, Dict[str, float]], ops: int) -> str:
    """Human-readable per-layer table, busiest self time first."""
    lines = [
        f"{'span':<22}{'calls':>9}{'busy_s':>10}{'self_s':>10}"
        f"{'self_us/op':>12}"
    ]
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        lines.append(
            f"{name:<22}{int(row['calls']):>9}{row['busy_s']:>10.3f}"
            f"{row['self_s']:>10.3f}{_ratio(row['self_s'] * 1e6, ops):>12.2f}"
        )
    return "\n".join(lines)
