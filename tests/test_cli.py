"""CLI tests (profile / predict / schedule / lint subcommands)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_profile_args(self):
        args = build_parser().parse_args(
            ["profile", "--model", "lenet", "--batch", "16"])
        assert args.command == "profile"
        assert args.batch == 16

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "--model", "resnet-101"])

    def test_schedule_defaults(self):
        args = build_parser().parse_args(["schedule"])
        assert args.gpus == 4 and args.device == "P40"


class TestCommands:
    def test_profile_runs(self, capsys):
        assert main(["profile", "--model", "lenet", "--batch", "16"]) == 0
        out = capsys.readouterr().out
        assert "GPU occupancy" in out
        assert "NVML utilization" in out
        assert "limiter" in out

    def test_profile_device_selection(self, capsys):
        main(["profile", "--model", "lenet", "--device", "p40"])
        assert "P40" in capsys.readouterr().out

    def test_predict_runs(self, capsys):
        rc = main(["predict", "--target", "alexnet", "--batch", "16",
                   "--train-models", "lenet",
                   "--configs-per-model", "3", "--epochs", "3",
                   "--hidden", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "predicted occupancy" in out
        assert "relative error" in out

    def test_schedule_runs(self, capsys):
        rc = main(["schedule", "--gpus", "2", "--jobs", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "occu-packing" in out
        assert "slot-packing" in out

    def test_trace_writes_json(self, tmp_path, capsys):
        import json
        out = str(tmp_path / "trace.json")
        rc = main(["trace", "--model", "lenet", "--batch", "8",
                   "--out", out])
        assert rc == 0
        trace = json.loads(open(out).read())
        assert trace["traceEvents"]

    def test_dataset_saves_npz(self, tmp_path, capsys):
        from repro.data import load_dataset
        out = str(tmp_path / "ds.npz")
        rc = main(["dataset", "--models", "lenet",
                   "--configs-per-model", "2", "--out", out])
        assert rc == 0
        assert len(load_dataset(out)) == 2


class TestLintExitCodeContract:
    """`repro lint` exit codes: 0 clean, 1 ERROR diagnostics, 2 usage."""

    @staticmethod
    def _graph_file(tmp_path, corrupt: bool) -> str:
        from repro.models import build_model
        g = build_model("lenet")
        if corrupt:
            g.nodes[1].flops = -5
        path = tmp_path / ("bad.json" if corrupt else "ok.json")
        path.write_text(g.to_json())
        return str(path)

    def test_clean_targets_exit_zero(self, tmp_path, capsys):
        ok = self._graph_file(tmp_path, corrupt=False)
        assert main(["lint", "--model", "lenet", "--registries",
                     "--graph", ok]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_error_diagnostics_exit_one(self, tmp_path, capsys):
        bad = self._graph_file(tmp_path, corrupt=True)
        assert main(["lint", "--graph", bad]) == 1
        assert "G007" in capsys.readouterr().out

    def test_no_target_is_usage_error(self, capsys):
        assert main(["lint"]) == 2
        assert "nothing to lint" in capsys.readouterr().err

    def test_missing_graph_file_is_usage_error(self, tmp_path, capsys):
        assert main(["lint", "--graph", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unknown_model_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--model", "resnet-101"])
        assert exc.value.code == 2

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        bad = self._graph_file(tmp_path, corrupt=True)
        assert main(["lint", "--graph", bad, "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"]["name"] == "repro-lint"
        assert doc["summary"]["error"] == 1
        assert [d["code"] for d in doc["diagnostics"]] == ["G007"]

    def test_self_lint_runs_clean(self, capsys):
        assert main(["lint", "--self"]) == 0
        assert "0 error(s)" in capsys.readouterr().out


class TestObsSloCommands:
    def test_slo_parser_defaults(self):
        args = build_parser().parse_args(["slo"])
        assert args.requests == 60 and args.device == "A100"
        assert args.window == 30.0 and not args.check

    def test_obs_bench_parser_defaults(self):
        args = build_parser().parse_args(
            ["bench", "--suite", "obs", "--scale", "0.5"])
        assert args.command == "bench" and args.suite == ["obs"]
        assert args.scale == 0.5 and args.out is None and not args.check

    def test_slo_check_passes_on_healthy_run(self, capsys):
        assert main(["slo", "--requests", "6", "--check"]) == 0
        out = capsys.readouterr().out
        assert "6 requests on A100" in out
        assert "serve-p99-latency" in out
        assert "serve-shed-rate" in out

    def test_slo_trace_feeds_obs_request_view(self, tmp_path, capsys):
        out = str(tmp_path / "slo_trace.json")
        assert main(["slo", "--requests", "6", "--out", out]) == 0
        capsys.readouterr()
        assert main(["obs", out, "--requests", "5"]) == 0
        text = capsys.readouterr().out
        assert "flight recorder" in text
        assert "req-" in text
        assert "serve.request" in text

    def test_obs_requests_flag_defaults_off(self, tmp_path, capsys):
        out = str(tmp_path / "slo_trace.json")
        assert main(["slo", "--requests", "4", "--out", out]) == 0
        capsys.readouterr()
        assert main(["obs", out]) == 0
        assert "flight recorder (last" not in capsys.readouterr().out
