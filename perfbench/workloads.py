"""The three serving workloads: process control, load, and answer checks.

Every workload drives real ``python -m repro.cli serve`` / ``cluster
serve`` processes in the documented durable configuration
(``--background --wal-fsync`` with a data directory, default 64 KiB x 4
memtables, no block cache) from this one load-generating process, over at
most ``CONNECTIONS`` connections in a closed loop.

Values encode their key, writer and per-key version, so every answer is
checked: a GET must return a version between the last one acked when it
was sent and the last one sent when it came back, an absent key must
return ``NONE``, and a SCAN must return exactly the expected keys, in
order, inside ``[lo, hi)``, at most ``limit`` of them. A wrong answer is
counted in :attr:`Tally.wrong`, which makes the run incorrect.
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import os
import random
import re
import shutil
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.cluster import ClusterClient
from repro.errors import ReproError
from repro.server.client import KVClient

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Closed-loop connections: one per core of the 2-core machine.
CONNECTIONS = 2
VALUE_BYTES = 100
INGEST_WINDOW = 32
READ_WINDOW = 8
READ_KEYS = 20_000
PRELOAD_BATCH = 250
SCAN_LIMIT = 50
SCAN_SPAN = 200
ZIPF_THETA = 0.99
CLUSTER_SHARDS = 8
CLUSTER_IN_FLIGHT = 16
#: Keys loaded before the timed phase: ~860 KB, about 1.7 x one 64 KiB
#: memtable per shard, so every shard has flushed data to lose or keep.
CLUSTER_PRELOAD = 8_000
#: Preload BATCH size for the cluster: ~125 keys per shard per commit.
CLUSTER_PRELOAD_BATCH = 1_000
RECENT_S = 1.0
READBACK_SAMPLE = 2_000
#: Setups timed per untraced run; ``setup_s`` is their median.
SETUPS = {"ingest": 9, "read_mix": 3, "cluster_repl": 3}
SERVE_FLAGS = ("--background", "--wal-fsync")
STOP_TIMEOUT_S = 90.0
#: Failures of one request: the reply never came or the server refused it.
REQUEST_ERRORS = (ConnectionError, OSError, asyncio.TimeoutError, ReproError)

_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")


class WrongAnswer(Exception):
    """The server returned a value the benchmark can prove wrong."""


def value_for(key: str, writer: int, version: int) -> str:
    head = f"{key}|w{writer}|v{version}|"
    return head + "x" * max(0, VALUE_BYTES - len(head))


def version_of(key: str, value: str) -> int:
    """The version ``value`` encodes for ``key``; raises on a bad value."""
    parts = value.split("|")
    if len(parts) != 4 or parts[0] != key:
        raise WrongAnswer(f"{key!r}: value {value[:60]!r} is not its own")
    try:
        writer, version = int(parts[1][1:]), int(parts[2][1:])
    except ValueError:
        raise WrongAnswer(f"{key!r}: value {value[:60]!r} is corrupt") from None
    if value != value_for(key, writer, version):
        raise WrongAnswer(f"{key!r}: value {value[:60]!r} is corrupt")
    return version


# -- processes ----------------------------------------------------------------


def server_env() -> Dict[str, str]:
    """Environment for ``repro`` processes: this checkout's sources, and a
    fixed hash seed so set and dict orders repeat from run to run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Server:
    """One ``repro.cli`` process, optionally under the traced launcher."""

    def __init__(self, args: List[str], log_path: Path,
                 spans: Optional[Path]) -> None:
        self.log_path = log_path
        self.spans = spans
        if spans is None:
            command = [sys.executable, "-m", "repro.cli", *args]
        else:
            command = [sys.executable, str(HERE / "traced.py"), str(spans),
                       *args]
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                command, cwd=HERE.parent, env=server_env(),
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            )

    def wait_listening(self, timeout_s: float = 60.0) -> Tuple[str, int]:
        """Block until the server prints its listening line."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log_path.read_text(errors="replace"))
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(f"server did not start:\n{self.log_tail()}")

    def log_tail(self) -> str:
        return self.log_path.read_text(errors="replace")[-2000:]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def terminate(self) -> None:
        """Send one SIGTERM: a second one during shutdown would kill it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)

    def wait_stopped(self) -> None:
        """Wait for a clean exit after :meth:`terminate`; raise otherwise."""
        try:
            code = self.proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError(f"server ignored SIGTERM:\n{self.log_tail()}")
        if code != 0:
            raise RuntimeError(f"server exited {code}:\n{self.log_tail()}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def stop_all(servers: List[Server]) -> float:
    """Clean shutdown of every server at once; seconds until the last exit."""
    started = time.perf_counter()
    for server in servers:
        server.terminate()
    for server in servers:
        server.wait_stopped()
    return time.perf_counter() - started


class Lab:
    """Owns one run's work directory and every process the run starts."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.servers: List[Server] = []
        self._names = itertools.count()

    def path(self, prefix: str) -> Path:
        """A fresh, unused path under the work directory."""
        return self.workdir / f"{prefix}-{next(self._names)}"

    def spawn(self, args: List[str], traced: bool) -> Server:
        base = self.path(args[0])
        spans = base.with_suffix(".spans.json") if traced else None
        server = Server(args, base.with_suffix(".log"), spans)
        self.servers.append(server)
        return server

    def cli(self, args: List[str]) -> None:
        subprocess.run(
            [sys.executable, "-m", "repro.cli", *args], cwd=HERE.parent,
            env=server_env(), check=True, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
        )

    def close(self) -> None:
        """Kill and reap whatever is still running."""
        for server in self.servers:
            server.kill()


# -- measurement record -------------------------------------------------------


@dataclass
class Tally:
    """What the load generator saw during one timed phase."""

    ops: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    examples: List[str] = field(default_factory=list)
    #: op type -> latency samples (us), one per window or per op.
    latency_us: Dict[str, List[float]] = field(default_factory=dict)
    #: Intervals (perf_counter_ns) during which a request was in flight.
    waiting: List[Tuple[int, int]] = field(default_factory=list)

    def record(self, kind: str, start_ns: int, end_ns: int) -> None:
        self.latency_us.setdefault(kind, []).append((end_ns - start_ns) / 1e3)
        self.waiting.append((start_ns, end_ns))

    def check(self, ok: bool, message: str) -> None:
        """Count a wrong answer, keeping the first few for the report."""
        if not ok:
            self.wrong += 1
            if len(self.examples) < 10:
                self.examples.append(message)


@dataclass
class Phase:
    """One measured run of a workload against one set of servers."""

    tally: Tally
    wall_s: float
    drain_s: float
    #: The timed phase as (start, end) perf_counter_ns.
    window: Tuple[int, int]
    cpu_s: float
    rss_mb: float
    info_before: List[dict]
    info_after: List[dict]
    spans: List[Path]
    lost: int = 0
    sampled: int = 0
    client_counters: Dict[str, float] = field(default_factory=dict)


async def infos(addresses: List[Tuple[str, int]]) -> List[dict]:
    out = []
    for host, port in addresses:
        client = await KVClient.connect(host, port)
        try:
            out.append(await client.info())
        finally:
            await client.close()
    return out


async def timed_setups(count: int, traced: bool, setup):
    """Run ``setup(traced)`` ``count`` times; keep the last, discard the rest.

    Returns (the kept setup, the seconds each setup took).
    """
    times = []
    for attempt in range(count):
        last = attempt == count - 1
        started = time.perf_counter()
        env = await setup(traced and last)
        times.append(time.perf_counter() - started)
        if not last:
            env.discard()
    return env, times


async def run_timed(workers, seconds: float):
    """Run the worker coroutines until ``seconds`` pass; time the phase."""
    cpu0 = os.times()
    start_ns = time.perf_counter_ns()
    deadline = time.perf_counter() + seconds
    await asyncio.gather(*(worker(deadline) for worker in workers))
    end_ns = time.perf_counter_ns()
    cpu1 = os.times()
    cpu_s = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    return (end_ns - start_ns) / 1e9, cpu_s, (start_ns, end_ns)


async def read_back(get, acked: Dict[str, str], rng: random.Random,
                    tally: Tally) -> Tuple[int, int]:
    """GET a seeded sample of acked keys; return (lost, sampled).

    Missing or stale values count as lost (reported, not asserted); a
    value that is not one this benchmark ever wrote for the key is a
    wrong answer.
    """
    sample = rng.sample(sorted(acked), min(READBACK_SAMPLE, len(acked)))
    lost = 0
    for start in range(0, len(sample), 64):
        chunk = sample[start:start + 64]
        for key, value in zip(chunk, await get(chunk)):
            if value == acked[key]:
                continue
            lost += 1
            if value is not None:
                try:
                    version_of(key, value)
                except WrongAnswer as exc:
                    tally.check(False, f"read-back {exc}")
    return lost, len(sample)


async def put_window(client: KVClient, puts: List[Tuple[str, str]],
                     tally: Tally) -> List[bool]:
    """Send one pipelined window of PUTs; BUSY/ERR retry on the slow path.

    Returns which PUTs were acked. A PUT fails on ERR, on BUSY past the
    client's retry budget, on a timeout or on a dropped connection.
    """
    tally.attempted += len(puts)
    try:
        replies = await client.request_many(
            [["PUT", key, value] for key, value in puts]
        )
    except REQUEST_ERRORS:
        tally.failed += len(puts)
        return [False] * len(puts)
    acked = []
    for (key, value), reply in zip(puts, replies):
        if reply != ["OK"]:
            try:
                await client.put(key, value)
            except REQUEST_ERRORS:
                tally.failed += 1
                acked.append(False)
                continue
        acked.append(True)
    tally.ops += sum(acked)
    return acked


# -- single-server workloads --------------------------------------------------


class Single:
    """One ``serve`` process over its own WAL directory."""

    def __init__(self, lab: Lab, wal_dir: Path, traced: bool) -> None:
        self.lab = lab
        self.wal_dir = wal_dir
        self.server = lab.spawn(
            ["serve", "--port", "0", *SERVE_FLAGS, "--wal-dir", str(wal_dir)],
            traced,
        )
        self.host, self.port = self.server.wait_listening()

    @classmethod
    def setup(cls, lab: Lab, prepare):
        """An async ``setup(traced)`` for :func:`timed_setups`: a fresh
        server on a fresh directory, ready once ``prepare`` returns."""
        async def setup(traced: bool) -> "Single":
            wal_dir = lab.path("wal")
            wal_dir.mkdir()
            single = cls(lab, wal_dir, traced)
            await prepare(single.host, single.port)
            return single
        return setup

    def discard(self) -> None:
        self.server.kill()
        shutil.rmtree(self.wal_dir, ignore_errors=True)

    async def connect(self) -> List[KVClient]:
        return [await KVClient.connect(self.host, self.port)
                for _ in range(CONNECTIONS)]

    async def measure(self, workers, seconds: float, tally: Tally) -> Phase:
        """Timed phase, INFO before/after, peak RSS, then clean shutdown."""
        before = await infos([(self.host, self.port)])
        wall_s, cpu_s, window = await run_timed(workers, seconds)
        after = await infos([(self.host, self.port)])
        rss = self.server.peak_rss_mb()
        drain_s = stop_all([self.server])
        spans = [self.server.spans] if self.server.spans else []
        return Phase(tally, wall_s, drain_s, window, cpu_s, rss, before,
                     after, spans)

    async def read_back_after_restart(self, acked: Dict[str, str],
                                      rng: random.Random,
                                      tally: Tally) -> Tuple[int, int]:
        """Restart ``serve`` on the same directory and read acked keys."""
        restarted = Single(self.lab, self.wal_dir, False)
        client = await KVClient.connect(restarted.host, restarted.port)
        try:
            async def get(keys):
                replies = await client.request_many(
                    [["GET", key] for key in keys]
                )
                return [reply[1] if reply[0] == "VALUE" else None
                        for reply in replies]
            result = await read_back(get, acked, rng, tally)
        finally:
            await client.close()
        stop_all([restarted.server])
        return result


async def ping(host: str, port: int) -> None:
    client = await KVClient.connect(host, port)
    try:
        await client.ping()
    finally:
        await client.close()


async def ingest(lab: Lab, seed: int, seconds: float, traced: bool,
                 setups: int) -> Tuple[Phase, List[float]]:
    """Uniform random PUT windows; then clean restart and read-back."""
    single, setup_s = await timed_setups(setups, traced,
                                         Single.setup(lab, ping))
    clients = await single.connect()
    tally = Tally()
    acked: Dict[str, str] = {}

    def worker(conn: int):
        rng = random.Random(f"ingest/{seed}/{conn}")
        versions: Dict[str, int] = {}

        async def run(deadline: float) -> None:
            while time.perf_counter() < deadline:
                puts = []
                for _ in range(INGEST_WINDOW):
                    key = f"i{conn}-{rng.getrandbits(48):012x}"
                    version = versions[key] = versions.get(key, -1) + 1
                    puts.append((key, value_for(key, conn, version)))
                start = time.perf_counter_ns()
                oks = await put_window(clients[conn], puts, tally)
                tally.record("put", start, time.perf_counter_ns())
                for (key, value), ok in zip(puts, oks):
                    if ok:
                        acked[key] = value
        return run

    try:
        phase = await single.measure(
            [worker(conn) for conn in range(CONNECTIONS)], seconds, tally
        )
    finally:
        for client in clients:
            await client.close()
    phase.lost, phase.sampled = await single.read_back_after_restart(
        acked, random.Random(f"readback/{seed}"), tally
    )
    return phase, setup_s


def present_key(index: int) -> str:
    return f"r{2 * index:07d}"


def absent_key(index: int) -> str:
    """Interleaved between present keys, so fence pointers cannot rule
    it out and the filters have to."""
    return f"r{2 * index + 1:07d}"


class ZipfKeys:
    """Zipfian ranks over the keyset; which key holds which rank is seeded."""

    def __init__(self, count: int, theta: float, rng: random.Random) -> None:
        weights = [1.0 / (rank ** theta) for rank in range(1, count + 1)]
        total = sum(weights)
        self.cdf = list(itertools.accumulate(w / total for w in weights))
        self.index_of_rank = list(range(count))
        rng.shuffle(self.index_of_rank)

    def draw(self, rng: random.Random) -> int:
        rank = bisect.bisect_left(self.cdf, rng.random())
        return self.index_of_rank[min(rank, len(self.cdf) - 1)]


async def preload(host: str, port: int) -> None:
    """Load the keyset in key order, then wait until background work is
    quiet.

    One BATCH in flight at a time on one connection: each BATCH is then
    one engine commit, so memtables rotate at the same keys in every run
    and the timed phase reads from the same LSM shape every time.
    """
    client = await KVClient.connect(host, port)
    try:
        for start in range(0, READ_KEYS, PRELOAD_BATCH):
            ops = []
            for index in range(start, min(start + PRELOAD_BATCH, READ_KEYS)):
                key = present_key(index)
                ops.append(("put", key, value_for(key, index % CONNECTIONS, 0)))
            await client.batch(ops)
        await wait_quiet(client)
    finally:
        await client.close()


async def wait_quiet(client: KVClient, timeout_s: float = 120.0) -> None:
    """Poll INFO until no buffer waits and flush/compaction stop moving."""
    deadline = time.monotonic() + timeout_s
    last = None
    steady = 0
    while time.monotonic() < deadline:
        info = await client.info()
        now = (info["engine"]["flushes"], info["engine"]["compactions"])
        idle = (info["backpressure"]["immutable_buffers"] == 0
                and info["backpressure"]["state"] == "ok")
        steady = steady + 1 if idle and now == last else 0
        if steady >= 2:
            return
        last = now
        await asyncio.sleep(0.1)
    raise RuntimeError("background work did not quiesce after preload")


async def read_mix(lab: Lab, seed: int, seconds: float, traced: bool,
                   setups: int) -> Tuple[Phase, List[float]]:
    """Zipfian GET / uniform SCAN / PUT windows over a preloaded keyset."""
    single, setup_s = await timed_setups(setups, traced,
                                         Single.setup(lab, preload))
    clients = await single.connect()
    keys = ZipfKeys(READ_KEYS, ZIPF_THETA, random.Random(f"zipf/{seed}"))
    acked_ver = [0] * READ_KEYS
    issued_ver = [0] * READ_KEYS
    tally = Tally()

    def check_value(index: int, low: int, value: Optional[str],
                    what: str) -> None:
        key = present_key(index)
        if value is None:
            tally.check(False, f"{what} {key}: NONE for a present key")
            return
        try:
            version = version_of(key, value)
        except WrongAnswer as exc:
            tally.check(False, f"{what} {exc}")
            return
        tally.check(low <= version <= issued_ver[index],
                    f"{what} {key}: version {version} outside "
                    f"[{low}, {issued_ver[index]}]")

    def worker(conn: int):
        rng = random.Random(f"read_mix/{seed}/{conn}")
        client = clients[conn]
        own = list(range(conn, READ_KEYS, CONNECTIONS))

        async def send(requests, kind):
            """One window; replies, with None for each failed request."""
            tally.attempted += len(requests)
            start = time.perf_counter_ns()
            try:
                replies = await client.request_many(requests)
            except REQUEST_ERRORS:
                tally.failed += len(requests)
                return [None] * len(requests)
            tally.record(kind, start, time.perf_counter_ns())
            answered = []
            for reply in replies:
                failed = reply[0] in ("ERR", "BUSY")
                tally.failed += failed
                tally.ops += not failed
                answered.append(None if failed else reply)
            return answered

        async def gets() -> None:
            wanted = [
                (rng.randrange(READ_KEYS), False) if rng.random() < 0.1
                else (keys.draw(rng), True)
                for _ in range(READ_WINDOW)
            ]
            floors = [acked_ver[index] for index, _ in wanted]
            replies = await send(
                [["GET", present_key(i) if hit else absent_key(i)]
                 for i, hit in wanted],
                "get",
            )
            for (index, hit), low, reply in zip(wanted, floors, replies):
                if reply is None:
                    continue
                if not hit:
                    tally.check(reply == ["NONE"],
                                f"GET {absent_key(index)}: {reply[:2]}")
                else:
                    check_value(index, low,
                                reply[1] if reply[0] == "VALUE" else None,
                                "GET")

        async def scans() -> None:
            requests, expected = [], []
            for _ in range(READ_WINDOW):
                first = rng.randrange(READ_KEYS)
                end = first + SCAN_SPAN
                hi = present_key(end) if end < READ_KEYS else "r~"
                requests.append(
                    ["SCAN", present_key(first), hi, str(SCAN_LIMIT)]
                )
                rows = range(first, min(first + SCAN_LIMIT, READ_KEYS))
                expected.append([(i, acked_ver[i]) for i in rows])
            replies = await send(requests, "scan")
            for request, rows, reply in zip(requests, expected, replies):
                if reply is None:
                    continue
                if reply[0] != "PAIRS" or len(reply) % 2 != 1:
                    tally.check(False, f"{request}: {reply[:2]}")
                    continue
                got = reply[1::2]
                tally.check(
                    len(got) <= SCAN_LIMIT
                    and all(request[1] <= key < request[2] for key in got)
                    and got == sorted(set(got)),
                    f"{request}: rows unsorted, out of range or over limit",
                )
                tally.check(got == [present_key(i) for i, _ in rows],
                            f"{request}: keys {got[:3]}... not the expected")
                for (index, low), value in zip(rows, reply[2::2]):
                    check_value(index, low, value, "SCAN")

        async def puts() -> None:
            # Distinct keys: a retried PUT can then never land after a
            # later version of the same key from the same window.
            indexes = rng.sample(own, READ_WINDOW)
            window = []
            for index in indexes:
                issued_ver[index] += 1
                key = present_key(index)
                window.append((key, value_for(key, conn, issued_ver[index])))
            start = time.perf_counter_ns()
            oks = await put_window(client, window, tally)
            tally.record("put", start, time.perf_counter_ns())
            for index, (key, value), ok in zip(indexes, window, oks):
                if ok:
                    acked_ver[index] = max(acked_ver[index],
                                           version_of(key, value))

        async def run(deadline: float) -> None:
            while time.perf_counter() < deadline:
                draw = rng.random()
                if draw < 0.85:
                    await gets()
                elif draw < 0.95:
                    await scans()
                else:
                    await puts()
        return run

    try:
        phase = await single.measure(
            [worker(conn) for conn in range(CONNECTIONS)], seconds, tally
        )
    finally:
        for client in clients:
            await client.close()
    return phase, setup_s


# -- cluster workload ---------------------------------------------------------


class Cluster:
    """A two-node replicated cluster under one data directory."""

    NODES = ("a", "b")

    def __init__(self, lab: Lab) -> None:
        self.lab = lab
        self.data_dir = lab.path("cluster")
        self.ports = free_ports(len(self.NODES))
        self.servers: List[Server] = []

    @property
    def addresses(self) -> List[Tuple[str, int]]:
        return [("127.0.0.1", port) for port in self.ports]

    @classmethod
    def setup(cls, lab: Lab):
        """An async ``setup(traced)`` for :func:`timed_setups`: init a
        fresh cluster and serve it, ready once every standby streams."""
        async def setup(traced: bool) -> "Cluster":
            cluster = cls(lab)
            nodes = []
            for node, port in zip(cls.NODES, cluster.ports):
                nodes += ["--node", f"{node}=127.0.0.1:{port}"]
            lab.cli(["cluster", "init", "--data-dir", str(cluster.data_dir),
                     "--shards", str(CLUSTER_SHARDS), "--replicas", *nodes])
            cluster.start(traced)
            await cluster.wait_streaming()
            await cluster.preload()
            return cluster
        return setup

    def start(self, traced: bool) -> None:
        self.servers = [
            self.lab.spawn(["cluster", "serve", "--data-dir",
                            str(self.data_dir), "--node-id", node,
                            *SERVE_FLAGS], traced)
            for node in self.NODES
        ]
        for server in self.servers:
            server.wait_listening()

    async def wait_streaming(self, timeout_s: float = 60.0) -> None:
        """Block until every shard's standby is seeded and streaming."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            states = []
            for host, port in self.addresses:
                client = await KVClient.connect(host, port)
                try:
                    health = await client.health()
                finally:
                    await client.close()
                states += [s["state"] for s in health["replication"].values()]
            if len(states) == CLUSTER_SHARDS and set(states) == {"streaming"}:
                return
            await asyncio.sleep(0.01)
        raise RuntimeError("cluster replication never reached streaming")

    async def preload(self) -> None:
        """Load :func:`cluster_preload` in key order, one
        ``ClusterClient.batch`` (one BATCH per shard) at a time, then wait
        until every node's background work is quiet."""
        client = await ClusterClient.connect(*self.addresses[0])
        try:
            items = cluster_preload()
            for start in range(0, len(items), CLUSTER_PRELOAD_BATCH):
                chunk = items[start:start + CLUSTER_PRELOAD_BATCH]
                await client.batch([("put", key, value)
                                    for key, value in chunk])
        finally:
            await client.close()
        for host, port in self.addresses:
            node = await KVClient.connect(host, port)
            try:
                await wait_quiet(node)
            finally:
                await node.close()

    def discard(self) -> None:
        for server in self.servers:
            server.kill()
        shutil.rmtree(self.data_dir, ignore_errors=True)


def cluster_preload() -> List[Tuple[str, str]]:
    """The keys every cluster is loaded with before its timed phase."""
    keys = (f"p{index:07d}" for index in range(CLUSTER_PRELOAD))
    return [(key, value_for(key, 0, 0)) for key in keys]


def free_ports(count: int) -> List[int]:
    sockets = [socket.socket() for _ in range(count)]
    try:
        for sock in sockets:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


async def cluster_repl(lab: Lab, seed: int, seconds: float, traced: bool,
                       setups: int) -> Tuple[Phase, List[float]]:
    """ClusterClient, 16 in flight: 70% PUT new keys, 30% GET recent acks."""
    cluster, setup_s = await timed_setups(setups, traced, Cluster.setup(lab))
    host, port = cluster.addresses[0]
    tally = Tally()
    # The read-back after the restart samples preloaded (flushed) keys
    # as well as the keys the timed phase writes (mostly still in WAL).
    acked: Dict[str, str] = dict(cluster_preload())
    recent: deque = deque()
    client = await ClusterClient.connect(host, port)

    def worker(slot: int):
        rng = random.Random(f"cluster_repl/{seed}/{slot}")
        counter = itertools.count()

        async def run(deadline: float) -> None:
            while time.perf_counter() < deadline:
                now = time.monotonic()
                while recent and recent[0][0] < now - RECENT_S:
                    recent.popleft()
                tally.attempted += 1
                start = time.perf_counter_ns()
                if rng.random() < 0.7 or not recent:
                    kind = "put"
                    key = f"c{slot:02d}-{next(counter):07d}"
                    value = value_for(key, slot, 0)
                    try:
                        await client.put(key, value)
                    except REQUEST_ERRORS:
                        tally.failed += 1
                        continue
                    acked[key] = value
                    recent.append((time.monotonic(), key, value))
                else:
                    kind = "get"
                    _, key, value = recent[rng.randrange(len(recent))]
                    try:
                        got = await client.get(key)
                    except REQUEST_ERRORS:
                        tally.failed += 1
                        continue
                    tally.check(got == value, f"GET {key}: {str(got)[:60]!r}")
                tally.record(kind, start, time.perf_counter_ns())
                tally.ops += 1
        return run

    try:
        before = await infos(cluster.addresses)
        moved, refreshes = client.moved_redirects, client.map_refreshes
        wall_s, cpu_s, window = await run_timed(
            [worker(slot) for slot in range(CLUSTER_IN_FLIGHT)], seconds
        )
        after = await infos(cluster.addresses)
        counters = {"moved_redirects": client.moved_redirects - moved,
                    "map_refreshes": client.map_refreshes - refreshes}
    finally:
        await client.close()
    rss = sum(server.peak_rss_mb() for server in cluster.servers)
    drain_s = stop_all(cluster.servers)
    phase = Phase(tally, wall_s, drain_s, window, cpu_s, rss, before, after,
                  [s.spans for s in cluster.servers if s.spans],
                  client_counters=counters)

    cluster.start(False)
    client = await ClusterClient.connect(host, port)
    try:
        async def get(keys):
            return await asyncio.gather(*(client.get(key) for key in keys))
        phase.lost, phase.sampled = await read_back(
            get, acked, random.Random(f"readback/{seed}"), tally
        )
    finally:
        await client.close()
    stop_all(cluster.servers)
    cluster.discard()
    return phase, setup_s


WORKLOADS = {"ingest": ingest, "read_mix": read_mix,
             "cluster_repl": cluster_repl}
