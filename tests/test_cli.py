"""Tests for the command-line interface."""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.backend.cluster import U1Cluster
from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])

    def test_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.users == 400
        assert args.days == 5.0
        assert args.seed == 2014


class TestCommands:
    def test_generate_then_summarize_and_analyze(self, tmp_path):
        out = io.StringIO()
        trace_dir = tmp_path / "trace"
        code = main(["generate", "--users", "40", "--days", "1", "--seed", "3",
                     "--out", str(trace_dir)], out=out)
        assert code == 0
        assert list(trace_dir.glob("production-*.csv"))
        assert "Unique user IDs" in out.getvalue()

        out = io.StringIO()
        assert main(["summarize", str(trace_dir)], out=out) == 0
        assert "Trace duration" in out.getvalue()

        out = io.StringIO()
        assert main(["analyze", str(trace_dir)], out=out) == 0
        assert "Table 1" in out.getvalue()

    def test_generate_anonymized(self, tmp_path):
        out = io.StringIO()
        trace_dir = tmp_path / "anon"
        code = main(["generate", "--users", "30", "--days", "1", "--seed", "4",
                     "--anonymize", "--out", str(trace_dir)], out=out)
        assert code == 0
        assert list(trace_dir.glob("production-*.csv"))

    def test_report_with_backend(self):
        out = io.StringIO()
        code = main(["report", "--users", "40", "--days", "1", "--seed", "5"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "RPC" in text or "read" in text
        assert "Gini" in text

    def test_analyze_empty_directory(self, tmp_path):
        out = io.StringIO()
        assert main(["analyze", str(tmp_path)], out=out) == 1
        assert main(["summarize", str(tmp_path)], out=out) == 1

    def test_whatif_sweeps_policies(self, tmp_path):
        import json

        out = io.StringIO()
        json_path = tmp_path / "whatif.json"
        code = main(["whatif", "--users", "40", "--days", "1", "--seed", "6",
                     "--json", str(json_path)], out=out)
        assert code == 0
        text = out.getvalue()
        for name in ("baseline", "no-dedup", "delta-updates", "tier-age"):
            assert name in text
        payload = json.loads(json_path.read_text())
        assert payload["n_policies"] >= 4
        assert payload["replay_seconds"] > 0.0
        assert payload["whatif_sweep_seconds"] > 0.0

    def test_faultsweep_evaluates_mitigations(self, tmp_path):
        import json

        out = io.StringIO()
        json_path = tmp_path / "faultsweep.json"
        code = main(["faultsweep", "--users", "40", "--days", "1",
                     "--seed", "6", "--json", str(json_path)], out=out)
        assert code == 0
        text = out.getvalue()
        for name in ("do-nothing", "retry-1", "retry-3"):
            assert name in text
        payload = json.loads(json_path.read_text())
        assert [p["policy"] for p in payload["policies"]] \
            == ["do-nothing", "retry-1", "retry-3"]
        assert payload["n_policies"] == 3
        assert payload["replay_seconds"] > 0.0
        assert payload["faultsweep_seconds"] > 0.0
        assert payload["best_policy"] in {p["policy"]
                                          for p in payload["policies"]}
        # The offline do-nothing pass reproduces the live replay's counters.
        live = payload["live_fault_counters"]
        assert live["requests_faulted"] > 0
        assert set(payload["policies"][0]["fault_counters"]) == set(live)


class TestVerifyCommand:
    @pytest.fixture
    def checkpointed_run(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        out = io.StringIO()
        code = main(["report", "--users", "40", "--days", "1", "--seed", "5",
                     "--validate", "--checkpoint-dir", str(ckpt)], out=out)
        assert code == 0
        assert "checkpoint:" in out.getvalue()
        return ckpt

    def test_clean_run_exits_zero(self, checkpointed_run):
        out = io.StringIO()
        assert main(["verify", str(checkpointed_run)], out=out) == 0
        assert "0 finding(s)" in out.getvalue()

    def test_corruption_exits_four_and_names_the_shard(self,
                                                       checkpointed_run):
        run_dir = next(p for p in checkpointed_run.iterdir() if p.is_dir())
        shards = sorted(run_dir.glob("shard-*.npz"))
        payload = bytearray(shards[0].read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        shards[0].write_bytes(bytes(payload))

        out = io.StringIO()
        assert main(["verify", str(checkpointed_run), "--json"], out=out) == 4
        report = json.loads(out.getvalue())
        assert report["findings"] == 1
        assert report["fatal"] == 0
        assert report["repairable"] == 1
        assert not report["clean"]
        (findings,) = report["runs"].values()
        assert findings[0]["code"] == "checksum-mismatch"
        assert findings[0]["path"].endswith(shards[0].name)

    def test_resume_repairs_flagged_shard(self, checkpointed_run):
        run_dir = next(p for p in checkpointed_run.iterdir() if p.is_dir())
        shards = sorted(run_dir.glob("shard-*.npz"))
        shards[0].write_bytes(b"garbage")
        out = io.StringIO()
        code = main(["report", "--users", "40", "--days", "1", "--seed", "5",
                     "--checkpoint-dir", str(checkpointed_run), "--resume"],
                    out=out)
        assert code == 0
        assert f"resumed {len(shards) - 1} shard(s), executed 1" \
            in out.getvalue()
        assert main(["verify", str(checkpointed_run)], out=io.StringIO()) == 0

    def test_empty_dir_exits_one(self, tmp_path):
        out = io.StringIO()
        assert main(["verify", str(tmp_path)], out=out) == 1
        assert "No run directories" in out.getvalue()


class TestEventsCommand:
    @pytest.fixture
    def checkpointed_run(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        code = main(["report", "--users", "40", "--days", "1", "--seed", "5",
                     "--checkpoint-dir", str(ckpt)], out=io.StringIO())
        assert code == 0
        return ckpt

    def test_events_renders_checkpoint_root(self, checkpointed_run):
        out = io.StringIO()
        assert main(["events", str(checkpointed_run)], out=out) == 0
        text = out.getvalue()
        assert "run-start" in text
        assert "run-finalize" in text
        assert "shard-complete" in text

    def test_events_json_lines_parse(self, checkpointed_run):
        out = io.StringIO()
        assert main(["events", str(checkpointed_run), "--json"], out=out) == 0
        events = [json.loads(line)
                  for line in out.getvalue().splitlines() if line]
        assert events[0]["event"] == "run-start"
        # run-finalize lands inside the merge span, whose close is last.
        assert events[-1]["event"] == "span-close"
        assert "run-finalize" in {e["event"] for e in events}

    def test_events_accepts_run_dir_and_file(self, checkpointed_run):
        run_dir = next(p for p in checkpointed_run.iterdir() if p.is_dir())
        assert main(["events", str(run_dir)], out=io.StringIO()) == 0
        assert main(["events", str(run_dir / "events.jsonl")],
                    out=io.StringIO()) == 0

    def test_events_empty_dir_exits_one(self, tmp_path):
        out = io.StringIO()
        assert main(["events", str(tmp_path)], out=out) == 1
        assert "No events.jsonl found" in out.getvalue()


class TestMetricsOption:
    @staticmethod
    def _spy_clusters(monkeypatch):
        """Record every cluster the CLI replays through."""
        clusters = []
        replay_plan = U1Cluster.replay_plan

        def spy(self, *args, **kwargs):
            clusters.append(self)
            return replay_plan(self, *args, **kwargs)

        monkeypatch.setattr(U1Cluster, "replay_plan", spy)
        return clusters

    def test_report_writes_last_replay_stats(self, tmp_path, monkeypatch):
        clusters = self._spy_clusters(monkeypatch)
        metrics_path = tmp_path / "metrics.json"
        code = main(["report", "--users", "40", "--days", "1", "--seed", "5",
                     "--metrics", str(metrics_path)], out=io.StringIO())
        assert code == 0
        (cluster,) = clusters
        assert json.loads(metrics_path.read_text()) == \
            json.loads(json.dumps(cluster.last_replay_stats))

    def test_generate_writes_last_replay_stats(self, tmp_path, monkeypatch):
        clusters = self._spy_clusters(monkeypatch)
        metrics_path = tmp_path / "metrics.json"
        code = main(["generate", "--users", "30", "--days", "1", "--seed", "4",
                     "--out", str(tmp_path / "trace"),
                     "--metrics", str(metrics_path)], out=io.StringIO())
        assert code == 0
        (cluster,) = clusters
        metrics = json.loads(metrics_path.read_text())
        assert metrics == json.loads(json.dumps(cluster.last_replay_stats))
        assert sorted(metrics["completion_order"]) == \
            list(range(metrics["n_shards"]))

    def test_interrupted_run_writes_supervision_and_interrupt(
            self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        ckpt = tmp_path / "ckpt"
        code = main(["report", "--users", "40", "--days", "1", "--seed", "5",
                     "--max-rss-mb", "1", "--checkpoint-dir", str(ckpt),
                     "--metrics", str(metrics_path)], out=io.StringIO())
        assert code == 3
        assert "0 shard(s) completed, 8 remaining" in capsys.readouterr().err
        metrics = json.loads(metrics_path.read_text())
        assert metrics["shards_interrupted"] == list(range(8))
        assert metrics["completion_order"] == []
        assert metrics["interrupt"]["reason"] == "rss"
        # The same record as the interrupted run's manifest.
        run_dir = next(p for p in ckpt.iterdir() if p.is_dir())
        manifest = json.loads((run_dir / "MANIFEST.json").read_text())
        assert metrics.pop("interrupt") == manifest["interrupt"]
        assert metrics == manifest["metrics"]
        # The resumed run's manifest describes that run alone.
        code = main(["report", "--users", "40", "--days", "1", "--seed", "5",
                     "--checkpoint-dir", str(ckpt), "--resume",
                     "--metrics", str(metrics_path)], out=io.StringIO())
        assert code == 0
        manifest = json.loads((run_dir / "MANIFEST.json").read_text())
        assert manifest["status"] == "complete"
        assert "interrupt" not in manifest
        assert manifest["metrics"]["shards_interrupted"] == []
        assert sorted(manifest["metrics"]["completion_order"]) == \
            list(range(8))


class TestGracefulInterruption:
    def test_sigterm_midrun_exits_three_then_resumes(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        argv = [sys.executable, "-m", "repro", "report",
                "--users", "1500", "--days", "6", "--seed", "7",
                "--jobs", "2", "--checkpoint-dir", str(ckpt)]
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.Popen(argv, cwd=root, env=env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        # Signal once the run is mid-replay: the write-ahead manifest is
        # written before the first shard is dispatched.  (A fixed sleep
        # raced the replay, which now finishes in about a second.)
        deadline = time.monotonic() + 60.0
        while not any(ckpt.glob("*/MANIFEST.json")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=120)
        if proc.returncode == 0:
            pytest.skip("run finished before the signal landed")
        assert proc.returncode == 3, stderr
        assert "interrupted" in stderr

        run_dir = next(p for p in ckpt.iterdir() if p.is_dir())
        manifest = json.loads((run_dir / "MANIFEST.json").read_text())
        assert manifest["status"] == "interrupted"

        out = io.StringIO()
        code = main(["report", "--users", "1500", "--days", "6", "--seed", "7",
                     "--jobs", "2", "--checkpoint-dir", str(ckpt),
                     "--resume"], out=out)
        assert code == 0
        assert "checkpoint: resumed" in out.getvalue()
        manifest = json.loads((run_dir / "MANIFEST.json").read_text())
        assert manifest["status"] == "complete"
        assert main(["verify", str(ckpt)], out=io.StringIO()) == 0
