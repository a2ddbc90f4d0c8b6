import hashlib
import json

import pytest

from fedspeech.cli import main


def run(args, capsys=None):
    code = main(args)
    return code


class TestAnalyze:
    def test_writes_reports_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert run(["analyze", "--arch", "base", "--duration", "5.5",
                    "--out", str(out)]) == 0
        payload = json.loads((out / "analyze.json").read_text())
        assert payload["grand_total"]["params"] == pytest.approx(94.79e6, rel=0.01)
        assert (out / "analyze.csv").read_text().startswith("layer_id,")

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "r"
        run(["analyze", "--arch", "base", "--duration", "5.5", "--out", str(out)])
        first = (out / "analyze.json").read_bytes(), (out / "analyze.csv").read_bytes()
        run(["analyze", "--arch", "base", "--duration", "5.5", "--out", str(out)])
        second = (out / "analyze.json").read_bytes(), (out / "analyze.csv").read_bytes()
        assert first == second

    def test_invalid_duration_exits_2(self, tmp_path, capsys):
        assert run(["analyze", "--arch", "base", "--duration", "0",
                    "--out", str(tmp_path)]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("flx: {}\n")
        assert run(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestMemory:
    def test_peak_and_series(self, tmp_path):
        out = tmp_path / "r"
        assert run(["memory", "--arch", "base", "--duration", "5.5", "--batch", "4",
                    "--out", str(out)]) == 0
        payload = json.loads((out / "memory.json").read_text())
        assert payload["peak_bytes"] == pytest.approx(2.54e9, rel=1e-6)
        series = [row["cumulative_bytes"] for row in payload["per_layer"]]
        assert series == sorted(series)

    def test_second_reference_point(self, tmp_path):
        out = tmp_path / "r"
        run(["memory", "--arch", "base", "--duration", "12", "--batch", "8",
             "--out", str(out)])
        payload = json.loads((out / "memory.json").read_text())
        assert payload["peak_bytes"] == pytest.approx(9.89e9, rel=0.15)


class TestPredictTime:
    def test_anchor_round_trip(self, tmp_path):
        out = tmp_path / "r"
        assert run(["predict-time", "--device", "a40", "--arch", "base",
                    "--duration", "5.5", "--batch", "4", "--out", str(out)]) == 0
        payload = json.loads((out / "predict_time.json").read_text())
        assert payload["seconds_per_batch"] == pytest.approx(0.27, rel=1e-9)
        assert payload["fit"] == "fits"

    def test_missing_anchor_exits_2(self, tmp_path):
        assert run(["predict-time", "--device", "rpi", "--arch", "large",
                    "--duration", "5.5", "--out", str(tmp_path)]) == 2

    def test_oom_with_flag_exits_4(self, tmp_path):
        assert run(["predict-time", "--device", "nx", "--arch", "base",
                    "--duration", "5.5", "--batch", "16", "--fail-on-oom",
                    "--out", str(tmp_path)]) == 4


class TestFlPlan:
    def test_reference_plan(self, tmp_path):
        out = tmp_path / "r"
        assert run(["fl-plan", "--clients", "10", "--rounds", "150",
                    "--device", "a40", "--batch", "4", "--out", str(out)]) == 0
        payload = json.loads((out / "fl_plan.json").read_text())
        assert payload["total_hours"] == pytest.approx(55.5, rel=0.02)
        assert payload["communication_bytes"] == pytest.approx(1.1375e12, rel=0.01)
        assert (out / "fl_partition.json").exists()
        assert (out / "fl_schedule.json").exists()

    def test_with_manifest(self, tmp_path, corpus_manifest_path):
        out = tmp_path / "r"
        assert run(["fl-plan", "--manifest", str(corpus_manifest_path),
                    "--clients", "10", "--rounds", "3", "--device", "a40",
                    "--batch", "4", "--seed", "5", "--out", str(out)]) == 0
        partition = json.loads((out / "fl_partition.json").read_text())
        counts = [c["n_utterances"] for c in partition["clients"]]
        assert sum(counts) == 195_000

    def test_malformed_manifest_exits_3(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("utterance_id\tspeaker_id\tduration_s\nu1\ts1\t-4\n")
        assert run(["fl-plan", "--manifest", str(bad), "--clients", "1",
                    "--rounds", "1", "--device", "a40", "--out", str(tmp_path)]) == 3

    def test_missing_manifest_exits_3(self, tmp_path):
        assert run(["fl-plan", "--manifest", str(tmp_path / "nope.tsv"),
                    "--clients", "1", "--rounds", "1", "--device", "a40",
                    "--out", str(tmp_path)]) == 3

    def test_duration_flag_rejected(self, tmp_path):
        # the clip length of an idealised corpus is --mean-duration
        with pytest.raises(SystemExit) as exc:
            main(["fl-plan", "--clients", "1", "--rounds", "1", "--duration", "30",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_config_precision_used_without_flag(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("workload: {precision: mixed}\n")
        args = ["fl-plan", "--clients", "2", "--rounds", "3",
                "--samples-per-client", "100", "--device", "nx", "--batch", "4"]
        plans = {}
        for name, extra in [("config", ["--config", str(cfg)]),
                            ("flag", ["--precision", "mixed"]), ("fp32", [])]:
            assert run(args + extra + ["--out", str(tmp_path / name)]) == 0
            plans[name] = json.loads((tmp_path / name / "fl_plan.json").read_text())
        assert plans["config"]["meta"]["precision"] == "mixed"
        assert plans["config"]["total_hours"] == plans["flag"]["total_hours"]
        assert plans["config"]["total_hours"] < plans["fp32"]["total_hours"]


class TestFlSim:
    def test_single_client_converges(self, tmp_path):
        out = tmp_path / "r"
        assert run(["fl-sim", "--agg", "fedavg", "--clients", "1", "--rounds", "60",
                    "--seed", "2", "--out", str(out)]) == 0
        payload = json.loads((out / "fl_sim.json").read_text())
        assert payload["final_distance_to_optimum"] < 1e-6

    def test_loss_aggregation_and_csv(self, tmp_path):
        out = tmp_path / "r"
        assert run(["fl-sim", "--agg", "loss", "--alpha", "1.0", "--clients", "10",
                    "--per-round", "4", "--rounds", "20", "--seed", "3",
                    "--out", str(out)]) == 0
        lines = (out / "fl_sim.csv").read_text().strip().splitlines()
        assert lines[0].startswith("round,")
        assert len(lines) == 21

    def test_deterministic_across_runs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["fl-sim", "--agg", "fedavg", "--clients", "8", "--rounds", "15",
                "--seed", "11"]
        run(args + ["--out", str(out_a)])
        run(args + ["--out", str(out_b)])
        assert (out_a / "fl_sim.csv").read_bytes() == (out_b / "fl_sim.csv").read_bytes()


class TestForecast:
    def test_nx_parity_window(self, tmp_path):
        out = tmp_path / "r"
        assert run(["forecast", "--device", "nx", "--reference", "a40",
                    "--batch", "4", "--precision", "fp32", "--doubling-months", "18",
                    "--out", str(out)]) == 0
        payload = json.loads((out / "forecast.json").read_text())
        assert payload["headline"] == "b4-fp32"
        assert 2026 <= payload["combos"]["b4-fp32"]["parity_year"] <= 2028
        # every anchored combination is reported
        assert set(payload["combos"]) == {"b1-fp32", "b1-mixed", "b4-fp32", "b4-mixed"}

    def test_unknown_device_exits_2(self, tmp_path):
        assert run(["forecast", "--device", "abacus", "--out", str(tmp_path)]) == 2

    def test_too_short_duration_names_the_cause(self, tmp_path, capsys):
        assert run(["forecast", "--device", "nx", "--duration", "0.01",
                    "--out", str(tmp_path)]) == 2
        assert "shorter than the kernel" in capsys.readouterr().err

    def test_duration_sets_clip_length(self, tmp_path):
        payloads = {}
        for duration in ("3", "30"):
            out = tmp_path / duration
            assert run(["forecast", "--device", "nx", "--duration", duration,
                        "--out", str(out)]) == 0
            payloads[duration] = json.loads((out / "forecast.json").read_text())
        short, long = payloads["3"], payloads["30"]
        assert (short["meta"]["duration_s"], long["meta"]["duration_s"]) == (3.0, 30.0)
        assert short["meta"]["fingerprint"] != long["meta"]["fingerprint"]
        assert long["combos"]["b4-fp32"]["slow_s"] > 5 * short["combos"]["b4-fp32"]["slow_s"]


class TestParser:
    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for cmd in ("analyze", "memory", "predict-time", "fl-plan", "fl-sim",
                    "forecast", "validate"):
            assert cmd in text


# SHA-256 of every report these commands wrote at commit 2486d38. None of
# them draws from a random stream (the full-participation schedule is
# sorted), so any change to a report is a change to the model or its output.
REPORT_DIGESTS = {
    ("analyze", "--arch", "base", "--duration", "5.5"): {
        "analyze.csv": "1a46bb1658947d332e998887b5b6be34419e1f42eef4b07757dffea00dd54ca2",
        "analyze.json": "a18d60f04e0b3bfc2b3884bd462ae52ee643e1978c6285b8729a6b58bed010e4",
        "analyze_modules.csv":
            "472fb42c49f4c5f3679d256fcf56da3def1d3e40828e1008d3fa7d878534423d",
    },
    ("memory", "--arch", "base", "--duration", "5.5", "--batch", "4"): {
        "memory.csv": "0f55151093333fd811e541995502c444ee8596bd7a33f1aea285d6eaed6c0dfc",
        "memory.json": "8358f5b48653e6b46a6339699e674b6fe2297404e169d8c71b2dde9960ebbc09",
    },
    ("predict-time", "--device", "nx", "--arch", "base", "--duration", "5.5",
     "--batch", "4", "--precision", "mixed"): {
        "predict_time.csv":
            "959f4ecb881f43895199c8d1e32dde0390ec9f8cd2ccfc857b5889cc2fbb52a7",
        "predict_time.json":
            "bbf4a06a9514eed561182204aacde1ddb7cec787953f25b7e08a147cd97dad75",
    },
    ("fl-plan", "--clients", "10", "--rounds", "150", "--device", "a40",
     "--batch", "4"): {
        "fl_partition.json":
            "2935645094a0cf98f87f1e0843cb4760140555fdd4db11117f7865d162efc21a",
        "fl_plan.csv": "600cb7da5359827e65b8dd1a100e35605832784fb9263163683d88b3aaa8ac9d",
        "fl_plan.json": "55e45b87a972e77499004b70676bd9f5f965a36f62fa9b66d736ddb8600d7d37",
        "fl_schedule.json":
            "1fcad9fe5a20ac6d200e69080e189eaf49b32fbbe738a236f8950cd8f1627ba2",
    },
}


@pytest.mark.parametrize("argv", list(REPORT_DIGESTS), ids=lambda a: a[0])
def test_reports_byte_identical_to_recorded(argv, tmp_path):
    assert run(list(argv) + ["--out", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert written == REPORT_DIGESTS[argv]
