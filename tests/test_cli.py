"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

import repro
from repro import LSMTree, ShardedStore
from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_workload_defaults(self):
        args = build_parser().parse_args(["workload"])
        assert args.preset == "a"
        assert args.layout == "leveling"

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["workload", "--preset", "zz"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 7379
        assert args.num_buffers == 4
        assert args.no_group_commit is False
        assert args.shards == 1
        assert args.executor_threads is None

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--background", "--wal-fsync",
             "--no-group-commit", "--max-connections", "7",
             "--shards", "4"]
        )
        assert args.port == 0
        assert args.background is True
        assert args.wal_fsync is True
        assert args.no_group_commit is True
        assert args.max_connections == 7
        assert args.shards == 4

    def test_bench_serve_defaults(self):
        args = build_parser().parse_args(["bench-serve"])
        assert args.clients == 8
        assert args.pipeline == 8
        assert args.shards == 1

    def test_cluster_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster"])

    def test_cluster_init_collects_nodes(self):
        args = build_parser().parse_args(
            ["cluster", "init", "--data-dir", "/tmp/x", "--shards", "6",
             "--node", "a=127.0.0.1:7401", "--node", "b=127.0.0.1:7402"]
        )
        assert args.shards == 6
        assert args.node == ["a=127.0.0.1:7401", "b=127.0.0.1:7402"]

    def test_cluster_serve_flags(self):
        args = build_parser().parse_args(
            ["cluster", "serve", "--data-dir", "/tmp/x",
             "--node-id", "a", "--port", "0",
             "--join", "127.0.0.1:7401", "--background"]
        )
        assert args.node_id == "a"
        assert args.port == 0
        assert args.host is None  # defaults to the map's address
        assert args.join == "127.0.0.1:7401"
        assert args.background is True

    def test_cluster_serve_requires_identity(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cluster", "serve", "--data-dir", "/tmp/x"]
            )

    def test_cluster_migrate_flags(self):
        args = build_parser().parse_args(
            ["cluster", "migrate", "--port", "7401",
             "--shard", "3", "--to", "b"]
        )
        assert args.shard == 3
        assert args.to == "b"

    def test_cluster_rebalance_defaults(self):
        args = build_parser().parse_args(["cluster", "rebalance"])
        assert args.port == 7401
        assert args.node == []
        assert args.dry_run is False


class TestCommands:
    def test_workload_runs(self, capsys):
        code = main(
            ["workload", "--preset", "a", "--ops", "300", "--keys", "200",
             "--buffer-bytes", "2048"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "write amplification" in output
        assert "throughput" in output

    def test_workload_tiering(self, capsys):
        code = main(
            ["workload", "--preset", "write_only", "--ops", "300",
             "--keys", "200", "--layout", "tiering",
             "--buffer-bytes", "2048"]
        )
        assert code == 0
        assert "tiering" in capsys.readouterr().out

    def test_tune_prints_recommendation(self, capsys):
        code = main(
            ["tune", "--reads", "0.05", "--empty-reads", "0.0",
             "--scans", "0.0", "--writes", "0.95"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "layout" in output
        assert "size ratio" in output

    def test_robust_prints_comparison(self, capsys):
        code = main(
            ["robust", "--reads", "0.05", "--empty-reads", "0.0",
             "--scans", "0.0", "--writes", "0.95", "--eta", "1.0"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "worst-case" in output
        assert "protection" in output

    def test_layouts_compares_all(self, capsys):
        code = main(["layouts", "--keys", "1200"])
        assert code == 0
        output = capsys.readouterr().out
        for layout in ["leveling", "tiering", "lazy_leveling", "hybrid", "bush"]:
            assert layout in output

    def test_bench_serve_runs(self, capsys):
        code = main(
            ["bench-serve", "--clients", "2", "--pipeline", "2",
             "--ops", "20", "--value-bytes", "16"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "per-request" in output
        assert "group" in output
        assert "ops/commit" in output
        # Drain-inclusive ingest metric (see benchmarks/bench_e23_sharding).
        assert "sustained" in output

    def test_bench_serve_sharded_runs(self, capsys):
        code = main(
            ["bench-serve", "--clients", "2", "--pipeline", "2",
             "--ops", "20", "--value-bytes", "16", "--shards", "2"]
        )
        assert code == 0
        assert "2 shard(s)" in capsys.readouterr().out

    def test_serve_rejects_zero_shards(self):
        with pytest.raises(SystemExit):
            main(["serve", "--shards", "0"])

    def test_serve_replication_requires_wal_dir(self):
        with pytest.raises(SystemExit):
            main(["serve", "--replication", "sync"])

    def test_fault_sweep_list_prints_catalog_without_running(
        self, capsys
    ):
        code = main(["fault-sweep", "--list"])
        assert code == 0
        output = capsys.readouterr().out
        # Catalog columns, one row per failpoint, no sweep executed.
        assert "failpoint" in output
        assert "site" in output
        assert "kinds" in output
        for name in [
            "wal.sync",
            "flush.install",
            "compact.install",
            "shard.commit",
            "repl.ship",
            "repl.promote.done",
        ]:
            assert name in output
        assert "crash" in output
        assert "torn" in output
        assert "fsync-fail" in output
        # A listing, not a sweep: no run/violation reporting.
        assert "violations" not in output
        assert "crossings" not in output

    def test_cluster_init_writes_a_map_per_node(self, capsys, tmp_path):
        code = main(
            ["cluster", "init", "--data-dir", str(tmp_path),
             "--shards", "4",
             "--node", "a=127.0.0.1:7401", "--node", "b=127.0.0.1:7402"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "epoch 0" in output
        from repro.cluster import ClusterMap

        for node_id, shards in (("a", [0, 2]), ("b", [1, 3])):
            loaded = ClusterMap.load(str(tmp_path / node_id))
            assert loaded.shards_of(node_id) == shards

    def test_cluster_init_rejects_bad_node_spec(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["cluster", "init", "--data-dir", str(tmp_path),
                 "--node", "a@nowhere"]
            )
        with pytest.raises(SystemExit):
            main(["cluster", "init", "--data-dir", str(tmp_path)])

    def test_bad_mix_fails_cleanly(self):
        with pytest.raises(Exception):
            main(
                ["tune", "--reads", "0.9", "--empty-reads", "0.9",
                 "--scans", "0.0", "--writes", "0.9"]
            )


class TestImportFootprint:
    def test_cli_import_does_not_load_scipy(self):
        # Serving processes import repro.cli; scipy is only needed by the
        # robust tuner and must stay out of their startup time and RSS.
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro, repro.cli; print('scipy' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "False"


def _serve_session(wal_dir, flags, session):
    """Run ``serve`` with ``flags`` on ``wal_dir`` as a subprocess, drive it
    with the async ``session(client)``, then SIGINT it; returns the session
    result."""
    import asyncio
    import signal

    from repro.server import KVClient

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--wal-dir", str(wal_dir), *flags],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        banner = process.stdout.readline()
        assert "listening on" in banner, banner
        port = int(banner.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])

        async def drive():
            async with await KVClient.connect("127.0.0.1", port) as kv:
                return await session(kv)

        return asyncio.run(drive())
    finally:
        process.send_signal(signal.SIGINT)
        process.wait(timeout=30)
        process.stdout.close()


class TestServeRestart:
    """``serve`` restarted on the same ``--wal-dir`` replays its WAL."""

    KEYS = [f"key{i:03d}" for i in range(100)]

    @pytest.mark.parametrize(
        "flags",
        [["--shards", "1"], ["--shards", "4"],
         ["--shards", "2", "--replication", "sync"]],
        ids=["tree", "sharded", "replicated"],
    )
    def test_restart_recovers_acked_writes(self, tmp_path, flags):
        async def write(kv):
            for key in self.KEYS:
                await kv.put(key, f"v-{key}")

        async def read(kv):
            return [await kv.get(key) for key in self.KEYS]

        _serve_session(tmp_path, flags, write)
        values = _serve_session(tmp_path, flags, read)
        assert values == [f"v-{key}" for key in self.KEYS]

    def test_contradicting_shard_count_is_refused(self, tmp_path):
        sharded, single = tmp_path / "sharded", tmp_path / "single"
        ShardedStore(4, wal_dir=str(sharded)).close()
        single.mkdir()
        tree = LSMTree(wal_dir=str(single))
        tree.put("k", "v")
        tree.close()
        for wal_dir, shards in ((sharded, 2), (sharded, 1), (single, 4)):
            with pytest.raises(SystemExit, match="contradicts"):
                main(["serve", "--wal-dir", str(wal_dir), "--shards",
                      str(shards)])
