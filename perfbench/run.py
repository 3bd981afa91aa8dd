"""Out-of-process serving benchmark for ``repro`` (see ``README.md``).

Run from the repository root::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once under ``traced.py``, then prints the
per-layer table, the per-layer metrics and the tracing overhead. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is non-zero when
any answer was wrong or the benchmark could not run.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"


def declared_units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for no samples).

    The benchmark keeps its own, so that its figures do not move when the
    statistics helpers inside ``repro`` change.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def end_to_end(phase, setup_s: List[float]) -> Dict[str, float]:
    tally = phase.tally
    every = [sample for samples in tally.latency_us.values()
             for sample in samples]
    return {
        "setup_s": statistics.median(setup_s),
        "throughput_ops_s": tally.ops / phase.wall_s,
        "sustained_ops_s": tally.ops / (phase.wall_s + phase.drain_s),
        "latency_p90_us": percentile(every, 0.90),
        "server_rss_mb": phase.rss_mb,
    }


def client_view(phase) -> Dict[str, float]:
    """Per-op-type latency, error rate and acked loss, as the client saw."""
    tally = phase.tally
    out: Dict[str, float] = {}
    for kind in ("put", "get", "scan"):
        samples = tally.latency_us.get(kind, [])
        out[f"client.{kind}_p50_us"] = percentile(samples, 0.50)
        out[f"client.{kind}_p99_us"] = percentile(samples, 0.99)
    out["client.error_rate"] = tally.failed / max(1, tally.attempted)
    out["client.acked_lost_frac"] = (
        phase.lost / phase.sampled if phase.sampled else 0.0
    )
    out["loadgen.cpu_frac"] = phase.cpu_s / phase.wall_s
    return out


def report(name: str, phase, metrics: Dict[str, float]) -> None:
    units = declared_units(False)
    tally = phase.tally
    print(f"== {name}: {tally.ops} ops in {phase.wall_s:.2f} s "
          f"(+{phase.drain_s:.2f} s shutdown drain), "
          f"{tally.attempted} attempted, {tally.failed} failed, "
          f"{tally.wrong} wrong answers")
    for key, value in metrics.items():
        print(f"  {key:<32} {value:>14.4f} {units[key]}")
    for kind, samples in sorted(tally.latency_us.items()):
        unit = "op" if name.startswith("cluster_repl") else "window"
        print(f"  {kind:<5} latency per {unit}: p50 "
              f"{percentile(samples, 0.5):.0f} us, p99 "
              f"{percentile(samples, 0.99):.0f} us (n={len(samples)})")
    if phase.sampled:
        print(f"  acked_lost_frac {phase.lost / phase.sampled:.4f} "
              f"({phase.lost} of {phase.sampled} sampled acked keys missing "
              f"or stale after a clean restart; reported, not asserted)")
    for example in tally.examples:
        print(f"  WRONG: {example}")


def per_layer(workload: str, plain, traced) -> Dict[str, float]:
    """Per-layer metrics from a traced phase and its untraced twin."""
    import layers

    ops = traced.tally.ops
    spans = layers.load_spans([str(path) for path in traced.spans])
    table = layers.aggregate(spans, traced.window)
    counters = layers.info_delta(traced.info_before, traced.info_after)
    metrics = layers.layer_metrics(table, counters, ops)
    metrics["cluster.moved_redirects"] = traced.client_counters.get(
        "moved_redirects", 0)
    metrics["cluster.map_refreshes"] = traced.client_counters.get(
        "map_refreshes", 0)
    server_ns = [(span[4], span[5])
                 for span in layers.in_window(spans, traced.window)
                 if span[2] in layers.REQUEST_PATH]
    metrics["unattributed_us_per_op"] = layers.uncovered_ns(
        traced.tally.waiting, server_ns) / 1e3 / max(1, ops)
    metrics.update(client_view(plain))
    plain_tput = plain.tally.ops / plain.wall_s
    traced_tput = ops / traced.wall_s
    metrics["trace.overhead_frac"] = 1.0 - traced_tput / plain_tput
    print(f"== per-layer spans, {workload} (timed phase, {ops} ops)")
    print(layers.format_table(table, ops))
    print(f"== tracing overhead, {workload}: throughput {plain_tput:.1f} "
          f"ops/s untraced vs {traced_tput:.1f} ops/s traced "
          f"({100 * metrics['trace.overhead_frac']:.1f}% lower)")
    print(f"== per-layer metrics, {workload}")
    units = declared_units(True)
    for key, value in metrics.items():
        print(f"  {key:<36} {value:>14.4f} {units.get(key, '?')}")
    return metrics


async def measure(workload: str, seed: int, seconds: float, trace: bool,
                  lab):
    from workloads import SETUPS, WORKLOADS

    run = WORKLOADS[workload]
    if not trace:
        phase, setup_s = await run(lab, seed, seconds, False,
                                   SETUPS[workload])
        metrics = end_to_end(phase, setup_s)
        report(workload, phase, metrics)
        return [phase], metrics

    plain, setup_s = await run(lab, seed, seconds, False, 1)
    report(workload + " (untraced)", plain, end_to_end(plain, setup_s))
    traced, setup_s = await run(lab, seed, seconds, True, 1)
    report(workload + " (traced)", traced, end_to_end(traced, setup_s))
    metrics = per_layer(workload, plain, traced)
    return [plain, traced], metrics


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "read_mix", "cluster_repl"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run it from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import Lab

    def give_up(signum, _frame):
        raise SystemExit(f"perfbench: stopped by signal {signum}")

    # SIGTERM and the watchdog unwind through the finally below, so every
    # server process is killed and reaped; a hung run still ends in time.
    signal.signal(signal.SIGTERM, give_up)
    signal.signal(signal.SIGALRM, give_up)
    signal.alarm(int(120 + 2.5 * args.seconds))

    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    lab = Lab(workdir)
    try:
        phases, metrics = asyncio.run(measure(
            args.workload, args.seed, args.seconds, bool(args.trace), lab
        ))
    finally:
        lab.close()
        shutil.rmtree(workdir, ignore_errors=True)
        signal.alarm(0)
    wrong = sum(phase.tally.wrong for phase in phases)
    units = declared_units(bool(args.trace))
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(metrics))}"
        )
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": sum(phase.tally.attempted for phase in phases),
        "failed": sum(phase.tally.failed for phase in phases),
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()
        },
    }))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
