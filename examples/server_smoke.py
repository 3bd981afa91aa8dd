"""End-to-end smoke test of the serving layer (run by CI).

Three phases:

1. **Real process boundary** — spawn ``python -m repro.cli serve`` as a
   subprocess over a fresh ``--wal-dir``, wait for its listening banner,
   run a pipelined client session (PUT/GET/SCAN/BATCH/DELETE/INFO)
   against it, check that the idle server burns almost no CPU (where
   ``/proc`` exists), then SIGINT it and assert a clean, orderly shutdown
   (exit code 0).
2. **Restart** — start ``serve`` again on the same ``--wal-dir`` and read
   every acknowledged write of phase 1 back (the WAL is replayed).
3. **BUSY retry path** — an in-process server whose tree is forced to
   report the write-stop backpressure state for the first few admission
   checks; the client's exponential-backoff retry must absorb the BUSY
   replies and land the write.

Exits non-zero on any failure, so it doubles as a CI job.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro import LSMConfig, LSMTree  # noqa: E402
from repro.server import KVClient, KVServer  # noqa: E402


async def pipelined_session(port: int, shards: int) -> None:
    """The round-trip CI asserts: pipelined mixed ops over one connection."""
    async with await KVClient.connect("127.0.0.1", port) as kv:
        assert await kv.ping()
        # 40 pipelined puts + interleaved reads over one connection.
        await asyncio.gather(
            *(kv.put(f"user{i:04d}", f"profile-{i}") for i in range(40))
        )
        values = await asyncio.gather(
            *(kv.get(f"user{i:04d}") for i in range(40))
        )
        assert values == [f"profile-{i}" for i in range(40)]
        assert await kv.batch(
            [("put", "batch-a", "1"), ("delete", "user0000", None)]
        ) == 2
        pairs = await kv.scan("user0000", "user0005")
        assert pairs == [(f"user{i:04d}", f"profile-{i}") for i in (1, 2, 3, 4)]
        limited = await kv.scan("user0000", "user0099", 2)
        assert limited == pairs[:2]
        await kv.delete("user0001")
        assert await kv.get("user0001") is None
        info = await kv.info()
        assert info["server"]["requests_total"] > 80
        assert info["backpressure"]["state"] in ("ok", "slowdown", "stop")
        assert info["server"]["committers"] == shards
        if shards > 1:
            assert len(info["shards"]) == shards
            # Hash routing spread the 40 keys over several shards.
            assert sum(1 for row in info["shards"] if row["puts"]) > 1
    print(f"pipelined round-trip ({shards} shard(s)): ok")


#: The largest share of one core an idle ``serve --background`` may use. Idle
#: background workers park until kicked, so the real figure is close to zero.
IDLE_CPU_LIMIT = 0.20


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid``, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        # Fields after the parenthesised command name start at field 3;
        # utime and stime are fields 14 and 15 (proc(5)).
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def check_idle_cpu(pid: int, seconds: float = 2.0) -> None:
    """Fail if the server uses over IDLE_CPU_LIMIT of a core while idle."""
    if not os.path.exists(f"/proc/{pid}/stat"):
        print("idle CPU check: skipped (no /proc)")
        return
    before = cpu_seconds(pid)
    time.sleep(seconds)
    fraction = (cpu_seconds(pid) - before) / seconds
    assert fraction <= IDLE_CPU_LIMIT, (
        f"idle server used {fraction:.0%} of a core "
        f"(limit {IDLE_CPU_LIMIT:.0%})"
    )
    print(f"idle CPU: {fraction:.1%} of a core: ok")


#: What the pipelined session leaves acknowledged: user0000 and user0001
#: deleted, the other profiles and the batch key written.
ACKED = {
    **{f"user{i:04d}": f"profile-{i}" for i in range(2, 40)},
    "user0000": None,
    "user0001": None,
    "batch-a": "1",
}


async def read_back_session(port: int) -> None:
    """Every write the first server acknowledged reads back after restart."""
    async with await KVClient.connect("127.0.0.1", port) as kv:
        keys = list(ACKED)
        values = await asyncio.gather(*(kv.get(key) for key in keys))
        assert dict(zip(keys, values)) == ACKED, "acked writes lost"
    print(f"restart read-back: {len(ACKED)} acked keys: ok")


def run_server(shards: int, wal_dir: str, drive) -> None:
    """Start the CLI server on ``wal_dir``, ``drive(pid, port)`` it, then
    SIGINT it and assert a clean shutdown."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO_ROOT, "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--background", "--shards", str(shards), "--wal-dir", wal_dir],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    try:
        banner = process.stdout.readline()
        assert "listening on" in banner, f"unexpected banner: {banner!r}"
        port = int(banner.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])
        drive(process.pid, port)
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            raise AssertionError("server did not shut down on SIGINT")
    output = process.stdout.read()
    assert process.returncode == 0, (
        f"server exited {process.returncode}; output: {output}"
    )
    assert "shutting down" in output


def subprocess_server_phase(shards: int, wal_dir: str) -> None:
    """Drive a fresh server, then restart it on the same WAL directory."""

    def first(pid: int, port: int) -> None:
        asyncio.run(pipelined_session(port, shards))
        check_idle_cpu(pid)

    def second(_pid: int, port: int) -> None:
        asyncio.run(read_back_session(port))

    run_server(shards, wal_dir, first)
    print("subprocess serve + SIGINT shutdown: ok")
    run_server(shards, wal_dir, second)
    print("restart on the same --wal-dir: ok")


async def busy_retry_phase() -> None:
    """Force the write-stop state; the client must retry through BUSY."""
    tree = LSMTree(LSMConfig(background_mode=True, num_buffers=4))
    server = KVServer(tree, owns_tree=True)

    real_backpressure = tree.backpressure
    stops_remaining = 3

    def stubbed_backpressure():
        nonlocal stops_remaining
        if stops_remaining > 0:
            stops_remaining -= 1
            state = real_backpressure()
            state["state"] = "stop"
            return state
        return real_backpressure()

    tree.backpressure = stubbed_backpressure
    await server.start()
    try:
        async with await KVClient.connect("127.0.0.1", server.port) as kv:
            await kv.put("resilient", "yes")  # absorbs 3 BUSY replies
            assert kv.busy_retries >= 1
            assert await kv.get("resilient") == "yes"
        assert server.metrics.busy_rejections >= 1
    finally:
        await server.stop()
    print("BUSY retry path: ok")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--shards", type=int, default=1,
        help="shard count passed to `serve` (default: 1, the plain tree)",
    )
    args = parser.parse_args()
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as wal_dir:
        subprocess_server_phase(args.shards, wal_dir)
    asyncio.run(busy_retry_phase())
    print(f"server smoke passed in {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
