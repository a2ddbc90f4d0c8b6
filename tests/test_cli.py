import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import typing
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import manifest_text, tie_heavy_rows
from fedspeech import (aggregation, arch, checks, cli, config, costs, devices, errors,
                       federation, manifest_cache, memory, trend)
from fedspeech.arch import Precision, WorkloadSpec, arch_to_mapping, get_preset
from fedspeech.cli import main


def run(args, capsys=None):
    code = main(args)
    return code


def explained(argv, out, capsys):
    """Run ``argv`` writing to ``out`` without and then with --explain: both
    runs print the same stdout and write the same reports, and only the
    second writes to stderr. Its stdout, stderr lines and report bytes."""
    written = []
    for flags in ([], ["--explain"]):
        assert run(argv + ["--out", str(out)] + flags) == 0
        written.append((capsys.readouterr(),
                        {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    (plain, plain_reports), (flagged, flagged_reports) = written
    assert flagged.out == plain.out and flagged_reports == plain_reports
    assert plain.err == ""
    return flagged.out, flagged.err.splitlines(), flagged_reports


def plan_reports(manifest, out, clients="3", seed="7"):
    """Exit code and report bytes of one fl-plan over ``manifest``."""
    code = run(["fl-plan", "--manifest", str(manifest), "--clients", clients,
                "--rounds", "2", "--device", "nx", "--batch", "4", "--seed", seed,
                "--out", str(out)])
    return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())} if code == 0 \
        else None


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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_duration_exits_2(self, tmp_path, capsys, value):
        assert run(["analyze", "--arch", "base", "--duration", value,
                    "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == \
            f"error: duration must be finite and > 0, got {value}\n"

    def test_more_samples_than_a_float_counts_exits_2(self, tmp_path, capsys):
        assert run(["analyze", "--duration", "1e300", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == \
            "error: 1e+300 s at 16000 Hz is more samples than a float counts exactly\n"

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

    @pytest.mark.parametrize("argv", [
        ["predict-time", "--device", "rpi", "--arch", "large", "--batch", "4"],
        ["fl-plan", "--device", "rpi", "--arch", "large", "--clients", "2", "--rounds", "1"],
    ], ids=["predict-time", "fl-plan"])
    def test_oom_without_an_anchor_exits_4_naming_both_on_one_line(self, tmp_path, capsys,
                                                                   argv):
        # the fit is checked before the time, so the finding that large does
        # not fit rpi4 is the answer, and the missing anchor rides along
        assert run(argv + ["--fail-on-oom", "--out", str(tmp_path / "r")]) == 4
        assert capsys.readouterr().err == (
            "error: large at batch 4 on 5.5 s clips does not fit on rpi4: 14.17 GB vs "
            "6.50 GB, and rpi4 has no anchor for arch='large' precision=fp32\n")
        assert not (tmp_path / "r").exists()

    def test_nan_duration_exits_2(self, tmp_path, capsys):
        assert run(["predict-time", "--device", "nx", "--duration", "nan",
                    "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == \
            "error: duration must be finite and > 0, got nan\n"

    def test_oom_with_flag_exits_4(self, tmp_path):
        assert run(["predict-time", "--device", "nx", "--arch", "base",
                    "--duration", "5.5", "--batch", "16", "--fail-on-oom",
                    "--out", str(tmp_path)]) == 4

    @pytest.mark.parametrize("argv", [
        ["--device", "a40", "--arch", "base", "--batch", "4"],
        ["--device", "agx", "--arch", "large", "--batch", "4"],
        ["--device", "nx", "--arch", "base", "--batch", "3", "--precision", "mixed",
         "--duration", "12.5"],
        ["--device", "rpi", "--arch", "base", "--batch", "16", "--duration", "30"],
    ], ids=["fits", "marginal", "between-anchors", "oom"])
    def test_explain_changes_no_report_and_no_stdout_byte(self, tmp_path, capsys, argv):
        _, lines, reports = explained(["predict-time", *argv], tmp_path / "r", capsys)
        assert [line.split(":")[1] for line in lines] == [
            " anchor", " kappa", " residency", " fit"]
        payload = json.loads(reports["predict_time.json"])
        assert f"calibrated {payload['effective_throughput_flops']:.6g} training" in lines[0]
        assert lines[3].startswith(f"explain: fit: {payload['fit']}, margin ")

    def test_explained_residency_parts_add_up_to_the_reported_residency(self, tmp_path,
                                                                        capsys):
        out = tmp_path / "r"
        assert run(["predict-time", "--device", "agx", "--arch", "large", "--batch", "4",
                    "--precision", "mixed", "--duration", "7.25", "--explain",
                    "--out", str(out)]) == 0
        payload = json.loads((out / "predict_time.json").read_text())
        workload = WorkloadSpec(7.25, batch=4, precision=Precision.MIXED)
        parts = devices.training_residency_bytes(get_preset("large"), workload,
                                                 memory.default_calibration())
        assert parts.statics + parts.runtime_floor + parts.activations \
            == parts.total == payload["residency_bytes"]
        assert parts.statics == 16 * costs.forward_flops(get_preset("large"),
                                                         workload).total_params
        budget = devices.get_profile("agx").memory_budget_bytes
        err = capsys.readouterr().err
        assert (f"residency: {parts.total / 1e9:.4f} GB = statics {parts.statics / 1e9:.4f} GB "
                f"+ runtime floor {parts.runtime_floor / 1e9:.4f} GB + activations "
                f"{parts.activations / 1e9:.4f} GB") in err
        assert f"margin {(budget - parts.total) / 1e9:+.4f} GB " \
            f"({(budget - parts.total) / budget:+.2%})" in err


@pytest.mark.parametrize("argv,builds", [
    # the default calibration's reference workload, the anchor's, the requested
    (["predict-time", "--device", "nx", "--duration", "7.25", "--batch", "2"], 3),
    # the reference workload, which is also the plan's and the anchor's; the
    # fit check's report also gives the parameter counts that size the traffic;
    # and the clients' one mean clip length in an array
    (["fl-plan", "--clients", "3", "--rounds", "2", "--device", "nx"], 2),
    # the reference workload, which is also the anchor's, the longest client
    # mean's, and one array of every distinct client mean, however many
    (["fl-plan", "--manifest", "<corpus>", "--clients", "3", "--rounds", "2",
      "--device", "nx"], 3),
    (["fl-plan", "--manifest", "<corpus>", "--clients", "3000", "--rounds", "2",
      "--device", "nx"], 3),
    # batch 1 and 4 at fp32 and mixed, each also both devices' anchor
    (["forecast", "--device", "nx"], 4),
], ids=["predict-time", "fl-plan", "fl-plan-manifest-3", "fl-plan-manifest-3000", "forecast"])
def test_one_cost_report_per_distinct_workload(argv, builds, tmp_path, monkeypatch,
                                               corpus_manifest_path):
    costs.forward_flops.cache_clear()
    memory.default_calibration.cache_clear()
    built = []
    build_layers = costs.build_layers

    def counted(arch, workload, samples):
        built.append((arch, workload, samples if isinstance(samples, int) else tuple(samples)))
        return build_layers(arch, workload, samples)

    monkeypatch.setattr(costs, "build_layers", counted)
    monkeypatch.setattr(federation, "build_layers", counted)
    argv = [str(corpus_manifest_path) if a == "<corpus>" else a for a in argv]
    assert run(argv + ["--out", str(tmp_path)]) == 0
    assert len(built) == len(set(built)) == builds


class TestFlPlan:
    def test_oom_with_flag_exits_4_with_both_figures(self, tmp_path, capsys):
        # the same line as predict-time's for the same workload and device
        assert run(["fl-plan", "--clients", "2", "--rounds", "1", "--device", "nx",
                    "--batch", "32", "--fail-on-oom", "--out", str(tmp_path / "r")]) == 4
        assert capsys.readouterr().err == ("error: base at batch 32 on 5.5 s clips does "
                                           "not fit on xavier-nx: 39.86 GB vs 6.50 GB\n")
        assert not (tmp_path / "r").exists()
        assert run(["predict-time", "--device", "nx", "--batch", "32", "--fail-on-oom",
                    "--out", str(tmp_path / "p")]) == 4
        assert capsys.readouterr().err == ("error: base at batch 32 on 5.5 s clips does "
                                           "not fit on xavier-nx: 39.86 GB vs 6.50 GB\n")

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
        assert [len(c["utterance_ids"]) for c in partition["clients"]] == counts

    def test_idealised_partition_lists_no_utterance_ids(self, tmp_path):
        assert run(["fl-plan", "--clients", "3", "--rounds", "2", "--samples-per-client",
                    "40", "--mean-duration", "2.5", "--out", str(tmp_path)]) == 0
        clients = json.loads((tmp_path / "fl_partition.json").read_text())["clients"]
        assert clients == [{"client_id": f"client_{i}", "n_utterances": 40,
                            "n_speakers": 1, "total_duration_s": 100.0}
                           for i in range(3)]

    def test_malformed_manifest_exits_3(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("utterance_id\tspeaker_id\tduration_s\nu1\ts1\t-4\n")
        assert run(["fl-plan", "--manifest", str(bad), "--clients", "1",
                    "--rounds", "1", "--device", "a40", "--out", str(tmp_path)]) == 3

    def test_samples_per_client_with_manifest_exits_2(self, tmp_path, capsys,
                                                      tie_manifest):
        assert run(["fl-plan", "--manifest", str(tie_manifest), "--samples-per-client",
                    "7", "--clients", "1", "--rounds", "1", "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == ("error: --samples-per-client sizes an idealised "
                                           "corpus; it cannot be given with --manifest\n")
        assert not (tmp_path / "r").exists()

    def test_mean_duration_with_manifest_exits_2(self, tmp_path, capsys, tie_manifest):
        assert run(["fl-plan", "--manifest", str(tie_manifest), "--mean-duration", "25",
                    "--clients", "1", "--rounds", "1", "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == ("error: --mean-duration sets the clips of an "
                                           "idealised corpus; it cannot be given with "
                                           "--manifest\n")
        assert not (tmp_path / "r").exists()

    def test_manifest_plan_fits_its_longest_client_mean_clip(self, tmp_path, capsys):
        # Every clip 25 s but one client's 2 s: base at batch 4 fits xavier-nx
        # at the 5.5 s default (marginal) and at 2 s, but not at 25 s.
        rows = [(f"s{i % 3}", f"u{i}", "x", 2000 if i % 3 == 0 else 25000)
                for i in range(30)]
        long_clips = tmp_path / "long.tsv"
        long_clips.write_text(manifest_text(rows))
        plan = ["fl-plan", "--manifest", str(long_clips), "--clients", "3", "--rounds", "2",
                "--device", "nx", "--batch", "4"]
        assert run(plan + ["--out", str(tmp_path / "a")]) == 0
        assert capsys.readouterr().out.splitlines()[0].endswith("memory fit: oom")
        assert run(plan + ["--fail-on-oom", "--out", str(tmp_path / "b")]) == 4
        # the longest client mean: two of the three clients hold only 25 s clips
        assert capsys.readouterr().err.startswith("error: base at batch 4 on 25.0 s clips "
                                                  "does not fit on xavier-nx: ")
        assert not (tmp_path / "b").exists()
        assert run(["predict-time", "--device", "nx", "--batch", "4", "--duration", "2",
                    "--out", str(tmp_path / "p")]) == 0
        assert capsys.readouterr().out.splitlines()[0].endswith("memory fit: fits")

    @pytest.mark.parametrize("corpus", [
        ["--mean-duration", "7.25"],
        ["--manifest", "<tie manifest>", "--local-epochs", "2"],
    ], ids=["idealised", "manifest"])
    def test_explain_changes_no_report_and_no_stdout_byte(self, tmp_path, capsys, monkeypatch,
                                                          tie_manifest, corpus):
        estimates = []

        def estimating(partition, schedule, *args):
            estimates.append((schedule, estimate_wall_clock(partition, schedule, *args)))
            return estimates[-1][1]

        estimate_wall_clock = cli.estimate_wall_clock
        monkeypatch.setattr(cli, "estimate_wall_clock", estimating)
        argv = ["fl-plan", "--clients", "12", "--per-round", "5", "--rounds", "40",
                "--device", "agx", "--batch", "4", "--seed", "3",
                *[str(tie_manifest) if a == "<tie manifest>" else a for a in corpus]]
        out, lines, _ = explained(argv, tmp_path / "r", capsys)
        assert [line.split(":")[1] for line in lines[:4]] == [
            " anchor", " kappa", " residency", " fit"]
        verdict = out.splitlines()[0].rsplit(" ", 1)[1]
        assert lines[3].startswith(f"explain: fit: {verdict}, margin ")

        # each round's straggler, one round at a time: the first selected of
        # the slowest, whose seconds are the round's
        schedule, estimate = estimates[-1]
        epochs = 2 if "--local-epochs" in corpus else 1
        seconds = [s * epochs for s in estimate.seconds_per_local_epoch.tolist()]
        total = estimate.total_seconds
        expected = []
        for r, selected in enumerate(schedule.selected.tolist()):
            slowest = max(selected, key=lambda c: seconds[c])
            assert seconds[slowest] == estimate.seconds_per_round[r]
            expected.append(f"explain: round {r}: straggler client_{slowest:02d}, "
                            f"{seconds[slowest]:.6g} s "
                            f"({seconds[slowest] * (100 / total):.4f}% of the total)")
        assert lines[4:] == expected
        if "--manifest" in corpus:  # the clients differ, and so do the stragglers
            assert len({line.split(",")[0].split()[-1] for line in expected}) > 3
        else:  # every client the same: the first selected of each round
            assert all(f"straggler client_{selected[0]:02d}," in line for line, selected
                       in zip(expected, schedule.selected.tolist()))

    @pytest.mark.parametrize("argv,fit", [
        (["predict-time", "--batch", "1"],
         "residency: 7.6404 GB = statics 5.0655 GB + runtime floor 0.4000 GB + activations "
         "2.1749 GB (3.2 x those retained); fit: oom, margin -1.1404 GB (-17.54%)"),
        (["fl-plan", "--clients", "2", "--rounds", "1"],
         "residency: 14.1652 GB = statics 5.0655 GB + runtime floor 0.4000 GB + activations "
         "8.6997 GB (3.2 x those retained); fit: oom, margin -7.6652 GB (-117.93%)"),
    ], ids=["predict-time", "fl-plan"])
    def test_refusal_without_an_anchor_gives_the_fit_on_its_line(self, tmp_path, capsys, argv,
                                                                 fit):
        argv = argv + ["--device", "nx", "--arch", "large", "--out", str(tmp_path / "r")]
        missing = "error: xavier-nx has no anchor for arch='large' precision=fp32"
        assert run(argv) == 2
        assert capsys.readouterr().err == missing + "\n"
        assert run(argv + ["--explain"]) == 2
        assert capsys.readouterr().err == (
            f"{missing}; {fit} of a 6.5000 GB budget; marginal within 10% of it\n")
        assert not (tmp_path / "r").exists()

    def test_a_plan_without_an_anchor_names_it_before_its_local_epochs(self, tmp_path,
                                                                       capsys):
        # the fit and the time come before the plan's own checks, as in predict-time
        assert run(["fl-plan", "--clients", "2", "--rounds", "1", "--local-epochs", "0",
                    "--device", "nx", "--arch", "large", "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == \
            "error: xavier-nx has no anchor for arch='large' precision=fp32\n"
        assert not (tmp_path / "r").exists()

    def test_explain_predicts_nothing_again(self, tmp_path, monkeypatch):
        # the plan's own prediction at the fitted workload is the one explained
        # and the one every client is timed from: the one anchor selected
        predicted = []

        def predicting(*args, _predict=cli.predict_batch_time):
            predicted.append(cli)
            return _predict(*args)

        def selecting(*args, _select=devices._select_anchor):
            predicted.append(devices)
            return _select(*args)

        monkeypatch.setattr(cli, "predict_batch_time", predicting)
        monkeypatch.setattr(devices, "_select_anchor", selecting)
        counts = []
        for flags in ([], ["--explain"]):
            predicted.clear()
            assert run(["fl-plan", "--clients", "3", "--rounds", "2", "--device", "agx",
                        "--out", str(tmp_path), *flags]) == 0
            counts.append((predicted.count(cli), predicted.count(devices)))
        assert counts == [(1, 1), (1, 1)]
        assert not hasattr(federation, "predict_batch_time")

    def test_a_client_mean_clip_shorter_than_the_conv_kernel_is_refused(self, tmp_path,
                                                                        capsys):
        # one client's 0.5 ms clips are 8 samples, under the first conv's 10;
        # the other's 5 s clips fit and give the plan's fitted workload
        rows = [(f"s{i % 2}", f"u{i}", "x", 0.5 if i % 2 else 5000) for i in range(6)]
        short_clips = tmp_path / "short.tsv"
        short_clips.write_text(manifest_text(rows))
        for flags in ([], ["--explain"]):
            assert run(["fl-plan", "--manifest", str(short_clips), "--clients", "2",
                        "--rounds", "1", "--out", str(tmp_path / "r"), *flags]) == 2
            assert capsys.readouterr().err == \
                "error: input of 8 frames is shorter than the kernel (10)\n"
            assert not (tmp_path / "r").exists()

    def test_a_plan_without_explain_finds_no_straggler(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "round_stragglers", lambda *a: pytest.fail("computed"))
        assert run(["fl-plan", "--clients", "3", "--rounds", "2", "--out", str(tmp_path)]) == 0

    def test_idealised_corpus_defaults_to_19500_clips_per_client(self, tmp_path):
        assert run(["fl-plan", "--clients", "2", "--rounds", "1", "--out", str(tmp_path)]) == 0
        plan = json.loads((tmp_path / "fl_plan.json").read_text())
        assert plan["meta"]["samples_per_client"] == 19_500

    def test_missing_manifest_exits_3(self, tmp_path, capsys):
        path = tmp_path / "nope.tsv"
        assert run(["fl-plan", "--manifest", str(path), "--clients", "1", "--rounds", "1",
                    "--device", "a40", "--out", str(tmp_path / "r")]) == 3
        assert capsys.readouterr().err == \
            f"error: cannot read manifest {path}: No such file or directory\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("header,flags,code,message", [
        ("client_id\tpath\tsentence", [], 3,
         "manifest has no duration column (duration_s, duration, or duration_ms)"),
        ("client_id\tpath\tduration", ["--clients", "0"], 2, "need at least one client"),
        ("client_id\tpath\tduration", ["--per-round", "0"], 2,
         "client counts must be >= 1"),
    ], ids=["no-duration-column", "clients-0", "per-round-0"])
    def test_manifest_plan_refused_on_one_line(self, tmp_path, capsys, header, flags, code,
                                               message):
        path = tmp_path / "m.tsv"
        path.write_text(header + "\nspk1\tclip1.mp3\t2.5\n")
        assert run(["fl-plan", "--manifest", str(path), "--clients", "1", "--rounds", "1",
                    *flags, "--out", str(tmp_path / "r")]) == code
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r").exists()

    def test_directory_as_manifest_exits_3_on_one_line(self, tmp_path, capsys):
        assert run(["fl-plan", "--manifest", str(tmp_path), "--clients", "1", "--rounds",
                    "1", "--device", "a40", "--out", str(tmp_path / "r")]) == 3
        assert capsys.readouterr().err == \
            f"error: cannot read manifest {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("kind", ["fifo", "fifo-without-a-cache", "pipe"])
    def test_manifest_that_is_not_a_regular_file_exits_3_unread(self, tmp_path, capsys,
                                                                monkeypatch, kind):
        # A plan that hashes a manifest, then parses it, reads it twice, and
        # a pipe gives its bytes once. A FIFO without a writer is refused
        # without waiting for one; the alarm ends a plan that waits.
        read = None
        if kind == "pipe":  # a writer wrote a whole manifest and went
            read, write = os.pipe()
            os.write(write, manifest_text(tie_heavy_rows()).encode())
            os.close(write)
            path = f"/proc/self/fd/{read}"
        else:
            path = str(tmp_path / "m.tsv")
            os.mkfifo(path)
        if kind == "fifo-without-a-cache":
            monkeypatch.setattr(manifest_cache, "cache_dir", lambda: None)

        class Waited(Exception):
            pass

        def waited(signum, frame):
            raise Waited("the plan waited for a writer")

        previous = signal.signal(signal.SIGALRM, waited)
        signal.alarm(5)
        try:
            code = run(["fl-plan", "--manifest", path, "--clients", "1", "--rounds", "1",
                        "--out", str(tmp_path / "r")])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            if read is not None:
                os.close(read)
        assert code == 3
        assert capsys.readouterr().err == f"error: manifest {path} is not a regular file\n"
        assert not (tmp_path / "r").exists()

    def test_duration_flag_rejected(self, tmp_path):
        # the clip length of an idealised corpus is --mean-duration
        with pytest.raises(SystemExit) as exc:
            main(["fl-plan", "--clients", "1", "--rounds", "1", "--duration", "30",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag,value,message", [
        ("--samples-per-client", "0", "utterances per client must be >= 1, got 0"),
        ("--local-epochs", "0", "local_epochs must be >= 1, got 0"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
        # counts that int64 cannot hold
        ("--samples-per-client", str(2**63),
         f"utterances per client must be <= {2**63 - 1}, got {2**63}"),
        ("--local-epochs", str(10**400), f"local_epochs must be <= {2**63 - 1}, got {10**400}"),
        # refused before the idealised partition allocates, in the schedule's words
        ("--clients", "-1", "client counts must be >= 1"),
        ("--config", "fl: {clients: -1}\n", "client counts must be >= 1"),
    ], ids=["samples-per-client", "local-epochs", "seed", "samples-past-int64",
            "local-epochs-past-int64", "clients-negative", "clients-negative-in-config"])
    def test_bad_count_exits_2_on_one_line(self, tmp_path, capsys, flag, value, message):
        if flag == "--config":  # the config's count, which --clients would override
            (tmp_path / "c.yaml").write_text(value)
            args = [flag, str(tmp_path / "c.yaml")]
        else:
            args = ["--clients", "2", flag, value]
        assert run(["fl-plan", "--rounds", "1", *args, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r").exists()

    def test_nan_mean_duration_exits_2(self, tmp_path, capsys):
        assert run(["fl-plan", "--clients", "2", "--rounds", "1", "--mean-duration",
                    "nan", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == \
            "error: duration must be finite and > 0, got nan\n"

    def test_duplicate_utterance_id_exits_3(self, tmp_path, capsys):
        rows = tie_heavy_rows()
        rows[40] = rows[40][:1] + (rows[7][1],) + rows[40][2:]
        bad = tmp_path / "dup.tsv"
        bad.write_text(manifest_text(rows))
        assert run(["fl-plan", "--manifest", str(bad), "--clients", "1",
                    "--rounds", "1", "--device", "a40", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: line 42: duplicate utterance id {rows[7][1]!r}\n"

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

    def test_config_workload_sets_idealised_clip_and_sample_rate(self, tmp_path):
        plan = ["fl-plan", "--clients", "3", "--rounds", "2", "--samples-per-client", "50",
                "--device", "nx"]

        def reports(name, text=None, flags=()):
            out = tmp_path / name
            extra = list(flags)
            if text is not None:
                (tmp_path / f"{name}.yaml").write_text(text)
                extra += ["--config", str(tmp_path / f"{name}.yaml")]
            assert run(plan + extra + ["--out", str(out)]) == 0
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        default = reports("default")
        clip = reports("clip", "workload: {duration_s: 20.0}\n")
        rate = reports("rate", "workload: {sample_rate_hz: 8000}\n")
        assert clip["fl_plan.json"] != default["fl_plan.json"]
        assert clip["fl_partition.json"] != default["fl_partition.json"]
        assert rate["fl_plan.json"] != default["fl_plan.json"]
        assert json.loads(rate["fl_partition.json"])["clients"] == \
            json.loads(default["fl_partition.json"])["clients"]
        # meta records the clip length and the sample rate, so the three
        # plans have three fingerprints
        metas = [json.loads(r["fl_plan.json"])["meta"] for r in (default, clip, rate)]
        assert [(m["duration_s"], m["sample_rate_hz"], m["samples_per_client"])
                for m in metas] == [(5.5, 16000, 50), (20.0, 16000, 50), (5.5, 8000, 50)]
        assert len({m["fingerprint"] for m in metas}) == 3
        # the config's values equal the flag's and the library's
        assert clip == reports("clip-flag", flags=["--mean-duration", "20"])
        assert reports("flag-wins", "workload: {duration_s: 20.0}\n",
                       ["--mean-duration", "5.5"]) == default
        partition = json.loads(clip["fl_partition.json"])
        assert partition["clients"][0]["total_duration_s"] == 50 * 20.0
        slow = json.loads(rate["fl_plan.json"])["total_seconds"]
        assert slow < json.loads(default["fl_plan.json"])["total_seconds"]

    def test_plan_total_adds_the_rounds_in_order(self, tmp_path, monkeypatch):
        # math.fsum stands in for the compensated sum of Python 3.12 and
        # later, under which this plan's total ended in ...078
        argv = ["fl-plan", "--clients", "1001", "--per-round", "7", "--rounds", "600",
                "--device", "rpi", "--mean-duration", "7.25", "--seed", "3"]
        plans = []
        for summed in (sum, math.fsum):
            monkeypatch.setattr(federation, "sum", summed, raising=False)
            out = tmp_path / summed.__name__
            assert run(argv + ["--out", str(out)]) == 0
            plans.append((out / "fl_plan.json").read_bytes())
        assert plans[0] == plans[1]
        assert json.loads(plans[0])["total_seconds"] == 206878010.718079

    def test_epoch_times_that_cannot_be_allocated_exit_2_on_one_line(self, tmp_path):
        # 160 MB holds a million clients' columns but not the grouping of
        # their epoch times; earlier versions ended in a traceback there
        done = limited_child(["fl-plan", "--clients", "1000000", "--per-round", "10",
                              "--rounds", "2", "--device", "a40",
                              "--out", str(tmp_path / "r")], address_space=160 << 20)
        assert (done.returncode, done.stderr) == (
            2, "error: the epoch times of 1000000 clients cannot be allocated\n")
        assert not (tmp_path / "r").exists()

    def test_a_million_clients_finish_in_a_limited_child(self, tmp_path):
        # 512 MB holds the per-client columns and a piece of each report's
        # text (it needs about 0.22 GB) but not a dict or an id per client
        out = tmp_path / "r"
        done = limited_child(["fl-plan", "--clients", "1000000", "--per-round", "10",
                              "--rounds", "2", "--device", "a40", "--out", str(out)],
                             address_space=512 << 20)
        try:
            assert done.returncode == 0, done.stderr
            with open(out / "fl_plan.csv", "rb") as fh:
                lines = fh.readlines()
            assert len(lines) == 10**6 + 1
            assert lines[-1].startswith(b"client_999999,a40,19500,")
            with open(out / "fl_partition.json", "rb") as fh:
                fh.seek(-4096, os.SEEK_END)
                assert b'"client_id": "client_999999",\n      "n_speakers": 1,\n' \
                    b'      "n_utterances": 19500,\n      "total_duration_s": 107250.0\n' \
                    b'    }\n  ],\n  "meta": {' in fh.read()
        finally:
            shutil.rmtree(out, ignore_errors=True)  # 200 MB of reports

    def test_four_million_rounds_finish_in_a_limited_child(self, tmp_path):
        # 288 MB holds the schedule and three arrays of round times (it needs
        # about 200 MB) but not a Python float per round, which needed 352 MB
        out = tmp_path / "r"
        done = limited_child(["fl-plan", "--clients", "1", "--rounds", "4000000",
                              "--device", "a40", "--out", str(out)], address_space=288 << 20)
        try:
            assert done.returncode == 0, done.stderr
            assert json.loads((out / "fl_plan.json").read_text())["n_rounds"] == 4 * 10**6
            with open(out / "fl_schedule.json", "rb") as fh:
                fh.seek(-4096, os.SEEK_END)
                assert b'"round_id": 3999999,\n      "selected": [\n        0\n      ]\n' \
                    b'    }\n  ],\n  "seed": 0,\n  "total_clients": 1\n}\n' in fh.read()
        finally:
            shutil.rmtree(out, ignore_errors=True)  # 311 MB of reports

    def test_round_times_that_cannot_be_allocated_exit_2_on_one_line(self, tmp_path):
        # 900 MB holds the 640 MB schedule but not the epoch times gathered
        # over it, as many again; earlier versions ended in a traceback there
        done = limited_child(["fl-plan", "--clients", "10", "--rounds", "8000000",
                              "--device", "a40", "--out", str(tmp_path / "r")],
                             address_space=900 << 20)
        assert (done.returncode, done.stderr) == (
            2, "error: the round times of 8000000 rounds x 10 clients per round "
               "cannot be allocated\n")
        assert not (tmp_path / "r").exists()


def _manifest_meta(reports):
    """The manifest digest and the fingerprint in a plan's meta, as bytes."""
    meta = json.loads(reports["fl_plan.json"])["meta"]
    return meta["manifest_sha256"].encode(), meta["fingerprint"].encode()


class TestManifestInput:
    """The manifest reader's handling of real-world file layouts, seen through
    the reports of ``fl-plan --manifest``."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("reference")
        (tmp / "m.tsv").write_text(manifest_text(tie_heavy_rows()))
        code, reports = plan_reports(tmp / "m.tsv", tmp / "out")
        assert code == 0
        return reports

    def check_same(self, tmp_path, text, reference):
        # Other bytes, so another manifest digest and fingerprint in meta;
        # every other byte of every report is the reference's.
        (tmp_path / "m.tsv").write_bytes(text.encode("utf-8"))
        code, reports = plan_reports(tmp_path / "m.tsv", tmp_path / "out")
        assert code == 0
        (digest, fingerprint), like = _manifest_meta(reports), _manifest_meta(reference)
        assert digest != like[0]
        assert {name: data.replace(digest, like[0]).replace(fingerprint, like[1])
                for name, data in reports.items()} == reference

    def test_crlf_line_endings(self, tmp_path, reference):
        self.check_same(tmp_path, manifest_text(tie_heavy_rows(), "\r\n"), reference)

    def test_blank_and_whitespace_lines_skipped(self, tmp_path, reference):
        lines = manifest_text(tie_heavy_rows()).splitlines(keepends=True)
        for at, filler in ((60, "\n"), (30, "   \n"), (5, "\n\n")):
            lines.insert(at, filler)
        self.check_same(tmp_path, "".join(lines) + "\n \n", reference)

    def test_final_line_without_newline(self, tmp_path, reference):
        self.check_same(tmp_path, manifest_text(tie_heavy_rows()).rstrip("\n"), reference)

    def test_extra_columns(self, tmp_path, reference):
        rows = [row + ("up_votes", "2") if i % 3 == 0 else row
                for i, row in enumerate(tie_heavy_rows())]
        self.check_same(tmp_path, manifest_text(rows), reference)

    def test_whitespace_around_ids(self, tmp_path, reference):
        rows = [(f" {spk}", f"{clip}  ", sentence, f" {ms}")
                for spk, clip, sentence, ms in tie_heavy_rows()]
        self.check_same(tmp_path, manifest_text(rows), reference)

    def test_quoted_fields(self, tmp_path, reference):
        # A field that starts with a double quote runs to the closing quote,
        # tabs included, and loses its quotes.
        rows = [(spk, f'"{clip}"', '"a\tshort sentence"' if i % 2 else sentence, ms)
                for i, (spk, clip, sentence, ms) in enumerate(tie_heavy_rows())]
        self.check_same(tmp_path, manifest_text(rows), reference)

    @pytest.mark.parametrize("bad", [
        "{spk}\t{clip}",  # short
        "{spk}\t \tx\t3000",  # empty utterance id
        "{spk}\t{clip}\tx\tfast",
        "{spk}\t{clip}\tx\tinf",
        "{spk}\t{clip}\tx\t-5",
    ])
    def test_bad_row_after_blank_lines_names_its_line(self, tmp_path, capsys, bad):
        rows = tie_heavy_rows()
        lines = manifest_text(rows).splitlines(keepends=True)
        lines[20:20] = ["\n", "  \n"]
        lines.insert(31, bad.format(spk=rows[0][0], clip="late.mp3") + "\n")
        (tmp_path / "m.tsv").write_text("".join(lines))
        assert plan_reports(tmp_path / "m.tsv", tmp_path / "out") == (3, None)
        err = capsys.readouterr().err
        assert err.startswith("error: line 32: ") and err.count("\n") == 1

    def test_bad_row_past_first_block_names_its_line(self, tmp_path, capsys):
        # 12 MB of rows, well past the reader's first block of a few MB.
        rows = [(f"spk_{i % 997:03d}", f"clip_{i:06d}.mp3", "x" * 40, 1000 + i % 5000)
                for i in range(200_000)]
        rows[187_654] = rows[187_654][:3] + ("0",)
        path = tmp_path / "big.tsv"
        path.write_text(manifest_text(rows))
        assert path.stat().st_size > 12e6
        assert plan_reports(path, tmp_path / "out", clients="10") == (3, None)
        assert capsys.readouterr().err == \
            "error: line 187656: non-positive duration 0.0\n"

    @pytest.mark.parametrize("at", [0, 1], ids=["header", "first-row"])
    def test_bytes_not_utf8_exit_3_naming_the_line(self, tmp_path, capsys, at):
        lines = manifest_text(tie_heavy_rows()).encode().splitlines(keepends=True)
        lines[at] = lines[at][:1] + b"\xe9" + lines[at][1:]
        (tmp_path / "m.tsv").write_bytes(b"".join(lines))
        assert plan_reports(tmp_path / "m.tsv", tmp_path / "out") == (3, None)
        assert capsys.readouterr().err == \
            f"error: line {at + 1}: bytes that are not valid UTF-8\n"

    def test_bytes_not_utf8_past_first_block_exit_3(self, tmp_path, capsys):
        # 5.6 MB of rows; the reader's first block is 4 MB.
        rows = [(f"spk_{i % 997:03d}", f"clip_{i:06d}.mp3", "x" * 40, 1000 + i % 5000)
                for i in range(80_000)]
        lines = manifest_text(rows).encode().splitlines(keepends=True)
        lines[75_000] = lines[75_000].replace(b"xxx", b"x\xe9x", 1)
        path = tmp_path / "big.tsv"
        path.write_bytes(b"".join(lines))
        assert path.stat().st_size > 5e6
        assert plan_reports(path, tmp_path / "out", clients="10") == (3, None)
        assert capsys.readouterr().err == \
            "error: line 75001: bytes that are not valid UTF-8\n"


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

    def test_samples_flag_is_gone(self, tmp_path, capsys):
        # every client held the same count, which aggregation normalises away
        with pytest.raises(SystemExit) as exc:
            run(["fl-sim", "--samples", "77", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --samples 77" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag,value,message", [
        ("--lr", "nan", "learning_rate must be finite and > 0, got nan"),
        ("--lr", "inf", "learning_rate must be finite and > 0, got inf"),
        ("--dim", "0", "optima must be a (n_clients, dim) array with n_clients, dim >= 1"),
        ("--alpha", "nan", "alpha must be finite and >= 0, got nan"),
        ("--spread", "nan", "spread must be finite, got nan"),
        ("--spread", "inf", "spread must be finite, got inf"),
        ("--dim", "-1", "optima must be a (n_clients, dim) array with n_clients, dim >= 1"),
        ("--clients", "-1",
         "optima must be a (n_clients, dim) array with n_clients, dim >= 1"),
        ("--spread", "-1", "seed and spread must be >= 0, got 0 and -1.0"),
        ("--seed", "-1", "seed and spread must be >= 0, got -1 and 1.0"),
    ], ids=["lr-nan", "lr-inf", "dim-0", "alpha-nan", "spread-nan", "spread-inf",
            "dim-negative", "clients-negative", "spread-negative", "seed-negative"])
    def test_bad_value_exits_2_on_one_line(self, tmp_path, capsys, flag, value, message):
        assert run(["fl-sim", "--agg", "loss", flag, value, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())

    # Every size exceeds any address space, so it fails before a byte is
    # allocated: the first in the allocator, the others in numpy's size check.
    # The last one's byte count is more than a float holds.
    @pytest.mark.parametrize("clients,dim", [
        ("1000000000", "1000000000"), ("10000000000", "10000000000"),
        (str(10**400), "1"),
    ], ids=["no-memory", "no-index", "no-float"])
    def test_optima_that_cannot_be_allocated_exit_2_on_one_line(self, tmp_path, capsys,
                                                                clients, dim):
        assert run(["fl-sim", "--clients", clients, "--dim", dim,
                    "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: --clients {clients} x --dim {dim} client optima cannot be allocated\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("method", ["flag", "config", "default"])
    def test_alpha_under_fedavg_exits_2_on_one_line(self, tmp_path, capsys, method):
        # fedavg weights clients by their sample counts alone
        (tmp_path / "c.yaml").write_text("aggregation: {method: fedavg}\n")
        extra = {"flag": ["--agg", "fedavg"], "config": ["--config", str(tmp_path / "c.yaml")],
                 "default": []}[method]
        assert run(["fl-sim", "--alpha", "3", "--out", str(tmp_path / "r")] + extra) == 2
        assert capsys.readouterr().err == \
            "error: --alpha weights clients by their loss; it cannot be given with fedavg\n"
        assert not (tmp_path / "r").exists()
        # a bad value is named before the method it cannot serve
        assert run(["fl-sim", "--alpha", "nan", "--out", str(tmp_path / "r")] + extra) == 2
        assert capsys.readouterr().err == "error: alpha must be finite and >= 0, got nan\n"

    @pytest.mark.parametrize("section,flags,message", [
        ("{method: fedavg, alpha: 3, epsilon: 0.5}", [],
         "aggregation.alpha weights clients by their loss"),
        ("{method: loss_weighted, alpha: 2}", ["--agg", "fedavg"],
         "aggregation.alpha weights clients by their loss"),
        ("{epsilon: 0.5}", [], "aggregation.epsilon floors the losses clients are weighted by"),
    ], ids=["config-method", "flag-method", "default-method-epsilon"])
    def test_loss_weighting_config_under_fedavg_exits_2_on_one_line(
            self, tmp_path, capsys, section, flags, message):
        (tmp_path / "c.yaml").write_text(f"aggregation: {section}\n")
        argv = ["fl-sim", "--config", str(tmp_path / "c.yaml"), "--out", str(tmp_path / "r")]
        assert run(argv + flags) == 2
        assert capsys.readouterr().err == f"error: {message}; it cannot be given with fedavg\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("argv,message", [
        (["--lr", "2.5", "--rounds", "400"],
         "round 173: non-finite population loss; local descent diverges at "
         "learning_rate 2.5"),
        (["--lr", "1e200", "--clients", "12", "--per-round", "5", "--pre-loss"],
         "round 0: non-finite loss or weights of client c0002; local descent "
         "diverges at learning_rate 1e+200"),
        (["--agg", "loss", "--alpha", "1e300", "--clients", "3", "--rounds", "1"],
         "client weights n * max(loss, epsilon) ** -alpha overflow or vanish at "
         "alpha 1e+300"),
        (["--agg", "loss", "--alpha", "1000", "--spread", "100", "--rounds", "2"],
         "client weights n * max(loss, epsilon) ** -alpha overflow or vanish at "
         "alpha 1000"),
        (["--clients", "3", "--dim", "2", "--rounds", "2", "--spread", "1e308"],
         "the sample-weighted mean of the client optima is not finite"),
        (["--clients", "3", "--dim", "2", "--rounds", "2", "--spread", "1e200"],
         "round 0: the loss 0.5 * |w - optimum|^2 of client c0000 overflows at finite "
         "weights; its optimum is too large (lower --spread)"),
        (["--clients", "3", "--dim", "2", "--rounds", "2", "--spread", "1e160"],
         "round 0: the loss 0.5 * |w - optimum|^2 of client c0000 overflows at finite "
         "weights; its optimum is too large (lower --spread)"),
        # every client's loss is finite after training; the population loss
        # at the finite global weights overflows, as it does at zero weights
        (["--clients", "3", "--dim", "2", "--rounds", "2", "--spread", "1e154"],
         "round 0: the population loss overflows at finite weights; the client optima "
         "are too large (lower --spread)"),
    ], ids=["population", "client", "alpha-overflow", "alpha-vanish", "optimum-overflow",
            "loss-overflow-1e200", "loss-overflow-1e160", "population-overflow-1e154"])
    def test_divergence_fails_on_one_line(self, tmp_path, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy floating-point warning fails
            assert run(["fl-sim"] + argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_loss_table_that_cannot_be_allocated_exits_2_on_one_line(self, tmp_path):
        # In a 2 GB child the 600 MB schedule fits; the loss table and the
        # two per-round columns, 1.8 GB more, do not.
        done = limited_child(["fl-sim", "--clients", "1", "--dim", "1",
                              "--rounds", "75000000", "--out", str(tmp_path / "r")])
        assert (done.returncode, done.stderr) == (
            2, "error: 75000000 rounds x 1 client losses cannot be allocated\n")
        assert not (tmp_path / "r").exists()

    def test_optimum_that_cannot_be_allocated_exits_2_on_one_line(self, tmp_path):
        # 300 MB holds the optima and the sample counts, 80 MB each, but not
        # the weighted optima the population optimum sums; earlier versions
        # ended in a traceback there, or at the sample counts
        done = limited_child(["fl-sim", "--clients", "10000000", "--dim", "1",
                              "--per-round", "1", "--rounds", "1",
                              "--out", str(tmp_path / "r")], address_space=300 << 20)
        assert (done.returncode, done.stderr) == (
            2, "error: 10000000 x 1 weighted client optima cannot be allocated\n")
        assert not (tmp_path / "r").exists()

    def test_id_order_that_cannot_be_allocated_exits_2_on_one_line(self, tmp_path):
        # 448 MB holds the optima, the sample counts and the loss table, but
        # not the three 80 MB arrays that order 10**7 client ids
        done = limited_child(["fl-sim", "--clients", "10000000", "--dim", "1",
                              "--per-round", "1", "--rounds", "1",
                              "--out", str(tmp_path / "r")], address_space=448 << 20)
        assert (done.returncode, done.stderr) == (
            2, "error: the id order of 10000000 clients cannot be allocated\n")
        assert not (tmp_path / "r").exists()

    def test_ten_million_clients_finish_in_a_limited_child(self, tmp_path):
        # 1 GB holds the run's per-client arrays (it needs about 0.55 GB) but
        # not an id string per client
        done = limited_child(["fl-sim", "--clients", "10000000", "--dim", "1",
                              "--per-round", "1", "--rounds", "1",
                              "--out", str(tmp_path / "r")], address_space=1 << 30)
        assert done.returncode == 0, done.stderr
        assert json.loads((tmp_path / "r" / "fl_sim.json").read_text())["n_rounds"] == 1


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

    @pytest.mark.parametrize("argv", [
        ["--device", "nx"],
        ["--device", "rpi", "--batch", "2", "--duration", "7.25"],
        ["--device", "nx", "--reference", "agx", "--batch", "1", "--precision", "mixed"],
    ], ids=["anchors", "between-anchors", "reference"])
    def test_explain_changes_no_report_and_no_stdout_byte(self, tmp_path, capsys, argv):
        _, lines, reports = explained(["forecast", *argv], tmp_path / "r", capsys)
        payload = json.loads(reports["forecast.json"])
        meta, headline = payload["meta"], payload["combos"][payload["headline"]]
        workload = WorkloadSpec(**{**meta["workload"],
                                   "precision": Precision(meta["workload"]["precision"])})
        for line, name in zip(lines, (meta["device"], meta["reference"])):
            profile = devices.get_profile(name)
            anchor = devices.predict_batch_time(profile, get_preset("base"),
                                                workload).anchor_used
            assert line.startswith(
                f"explain: anchor: base at batch {anchor.batch}, {anchor.precision.value}, "
                f"{anchor.duration_s} s clips: {anchor.seconds_per_batch} s/batch on {name} "
                f"(batch distance {abs(anchor.batch - workload.batch)}); calibrated ")
        assert lines[2:] == [
            f"explain: parity: {payload['headline']}: {headline['slow_s']:.6g} s/batch on "
            f"{meta['device']} / {headline['fast_s']:.6g} s/batch on {meta['reference']} = "
            f"slowdown ratio {headline['slowdown_ratio']:.6g}; "
            f"{headline['years_to_parity']:.6g} years at {meta['doubling_months']:g}-month "
            f"doubling, parity in {headline['parity_year']:.6g}"]

    def test_unknown_device_exits_2(self, tmp_path):
        assert run(["forecast", "--device", "abacus", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("flag,message", [
        ("--doubling-months", "doubling period must be finite and > 0, got nan"),
        ("--base-year", "base year must be finite, got nan"),
    ], ids=["doubling-months", "base-year"])
    def test_nan_trend_exits_2_on_one_line(self, tmp_path, capsys, flag, message):
        assert run(["forecast", "--device", "nx", flag, "nan", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,message", [
        (["--device", "a40", "--reference", "nx"],
         "a40 is already faster than xavier-nx at b4-fp32 (slowdown ratio 0.152 < 1); "
         "no parity year to forecast"),
        (["--device", "nx", "--reference", "a40", "--batch", "1", "--precision", "mixed",
          "--arch", "large"], "no anchors for the requested comparison b1-mixed: "
         "xavier-nx has no anchor for arch='large' precision=mixed"),
        (["--device", "a40", "--reference", "nx", "--batch", "2"],
         "a40 is already faster than xavier-nx at b2-fp32 (slowdown ratio 0.179 < 1); "
         "no parity year to forecast"),
        (["--device", "rpi", "--precision", "mixed"],
         "no anchors for the requested comparison b4-mixed: "
         "rpi4 has no mixed-precision support"),
    ], ids=["device-already-faster", "no-anchor", "device-already-faster-at-batch-2",
            "no-mixed-precision"])
    def test_headline_without_a_forecast_exits_2_naming_its_cause(self, tmp_path, capsys,
                                                                   argv, message):
        assert run(["forecast", *argv, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("batch,anchor", [(2, 1), (8, 4)])
    def test_headline_at_any_batch_through_the_nearest_anchors(self, tmp_path, batch,
                                                                anchor):
        # the headline's batch joins batch 1 and 4, and each device is timed
        # as predict-time times it
        out = tmp_path / "r"
        assert run(["forecast", "--device", "nx", "--batch", str(batch),
                    "--out", str(out)]) == 0
        payload = json.loads((out / "forecast.json").read_text())
        assert payload["headline"] == f"b{batch}-fp32"
        assert set(payload["combos"]) == {f"b{b}-{p}" for b in (1, 4, batch)
                                          for p in ("fp32", "mixed")}
        for device, side in (("nx", "slow_s"), ("a40", "fast_s")):
            assert run(["predict-time", "--device", device, "--batch", str(batch),
                        "--out", str(tmp_path / device)]) == 0
            timed = json.loads((tmp_path / device / "predict_time.json").read_text())
            assert timed["anchor"]["batch"] == anchor
            assert payload["combos"][f"b{batch}-fp32"][side] == timed["seconds_per_batch"]

    def test_headline_from_config_workload_unless_flagged(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("workload: {batch: 1, precision: mixed}\n")
        headlines = {}
        for name, flags in [("config", []),
                            ("flags", ["--batch", "4", "--precision", "fp32"])]:
            out = tmp_path / name
            assert run(["forecast", "--device", "nx", "--config", str(cfg),
                        "--out", str(out)] + flags) == 0
            headlines[name] = json.loads((out / "forecast.json").read_text())["headline"]
        assert headlines == {"config": "b1-mixed", "flags": "b4-fp32"}

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
        assert (short["meta"]["workload"]["duration_s"],
                long["meta"]["workload"]["duration_s"]) == (3.0, 30.0)
        assert short["meta"]["fingerprint"] != long["meta"]["fingerprint"]
        assert long["combos"]["b4-fp32"]["slow_s"] > 5 * short["combos"]["b4-fp32"]["slow_s"]


# Each ill-typed or ill-shaped config value, the command that reads its
# section, and the dotted key the one-line error must name.
COMMAND_OF = {"fl": ["fl-plan", "--samples-per-client", "10"], "workload": ["analyze"],
              "arch": ["analyze"], "devices": ["predict-time", "--device", "rpi"],
              "memory": ["memory"], "aggregation": ["fl-sim"], "seed": ["fl-sim"]}
POS_CONV = "{in_channels: 768, out_channels: 768, kernel: 128, stride: 1, groups: 16"
BAD_CONFIGS = [
    ("fl: {clients: ten}", "fl.clients"),
    ("fl: {clients: 2.7}", "fl.clients"),
    ("workload: {batch: [1]}", "workload.batch"),
    ("workload: {sample_rate_hz: 8000.9}", "workload.sample_rate_hz"),
    ("arch: base", "arch"),
    ("arch: {preset: base, transformer: 6}", "arch.transformer"),
    ("arch: {preset: base, transformer: {heads: twelve}}", "arch.transformer.heads"),
    ("arch: {preset: base, feature_proj: {in_dim: 512}}", "arch.feature_proj.out_dim"),
    ("arch: {preset: base, pos_conv: " + POS_CONV + ", bias: 'false'}}",
     "arch.pos_conv.bias"),
    ("devices: [{name: rpi4, memory_gb: lots}]", "devices[0].memory_gb"),
    ("devices: [{name: rpi4, anchors: [{arch: base, batch: four, precision: fp32, "
     "seconds_per_batch: 1.0}]}]", "devices[0].anchors[0].batch"),
    ("memory: {residency_factor: abc}", "memory.residency_factor"),
    ("memory: {reference_peak_gb: .nan}", "memory.reference_peak_gb"),
    ("aggregation: {method: garbage}", "aggregation.method"),
    ("seed: x", "seed"),
]


@pytest.mark.parametrize("text,key", BAD_CONFIGS, ids=[text for text, _ in BAD_CONFIGS])
def test_ill_typed_config_exits_2_naming_its_key(tmp_path, capsys, text, key):
    (tmp_path / "c.yaml").write_text(text + "\n")
    argv = COMMAND_OF[key.split(".")[0].split("[")[0]]
    assert run(argv + ["--config", str(tmp_path / "c.yaml"),
                       "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and err.count("\n") == 1, err
    assert not (tmp_path / "r").exists()


CUSTOM_ARCH = ("arch: {conv_stack: [{in_channels: 1, out_channels: 256, kernel: 10, stride: 5}], "
               "transformer: {blocks: 2, model_dim: 256, heads: 4, ffn_dim: 512}, "
               "quantizer: {input_dim: 256, groups: 2, entries_per_group: 8, "
               "codevector_dim: 64}")


def _base_with_conv(layer):
    return "arch: {preset: base, conv_stack: [{" + layer + "}]}"


# Each well-typed config value that a check of its section refuses, and the
# line it prints, which names the key of the section or entry the check
# refused; the command is the one COMMAND_OF gives its section.
REFUSED_CONFIGS = {
    "conv-kernel": (_base_with_conv("in_channels: 1, out_channels: 512, kernel: 0, stride: 5"),
                    "arch.conv_stack[0]: conv kernel and stride must be >= 1"),
    "conv-channels": (_base_with_conv("in_channels: 0, out_channels: 512, kernel: 10, "
                                      "stride: 5"),
                      "arch.conv_stack[0]: conv channel counts must be >= 1"),
    "conv-groups": (_base_with_conv("in_channels: 3, out_channels: 512, kernel: 10, "
                                    "stride: 5, groups: 2"),
                    "arch.conv_stack[0]: conv groups must divide in_channels"),
    "transformer-heads": ("arch: {preset: base, transformer: {heads: 0}}",
                          "arch.transformer: transformer block dimensions must be >= 1"),
    "quantizer-groups": ("arch: {preset: base, quantizer: {groups: 0}}",
                         "arch.quantizer: quantizer counts must be >= 1"),
    "codevector-dim": ("arch: {preset: base, quantizer: {groups: 3}}",
                       "arch.quantizer: codevector_dim must be divisible by groups"),
    "conv-stack-empty": ("arch: {preset: base, conv_stack: []}",
                         "arch: conv_stack must contain at least one layer"),
    "blocks-negative": ("arch: {preset: base, transformer: {blocks: -1}}",
                        "arch: block_count must be >= 0"),
    "feature-proj-in": ("arch: {preset: base, feature_proj: {in_dim: 256, out_dim: 768}}",
                        "arch: feature_proj input must match the last conv output channels"),
    "feature-proj-out": ("arch: {preset: base, feature_proj: {in_dim: 512, out_dim: 256}}",
                         "arch: feature_proj output must match the transformer width"),
    "pos-conv-without-blocks": ("arch: {preset: base, transformer: {blocks: 0}, pos_conv: "
                                + POS_CONV + "}}",
                                "arch: pos_conv requires at least one transformer block"),
    "sample-rate": ("workload: {sample_rate_hz: 0}", "workload: sample rate must be > 0"),
    "duration-past-a-float": ("workload: {duration_s: " + str(10**400) + "}",
                              f"workload.duration_s: expected a finite number, got {10**400}"),
    "anchor-time": ("devices: [{name: rpi4, anchors: [{arch: base, batch: 1, "
                    "precision: fp32, seconds_per_batch: 0}]}]",
                    "devices[0].anchors[0]: anchor times must be > 0"),
    "memory-under-reserve": ("devices: [{name: rpi4, memory_gb: 1}]",
                             "devices[0]: device memory must exceed the OS reserve"),
    "runtime-overhead-negative": ("memory: {runtime_overhead_gb: -5}",
                                  "memory: runtime_overhead_gb must be >= 0, got -5.0"),
    "residency-factor-negative": ("memory: {residency_factor: -1}",
                                  "memory: residency_factor must be > 0, got -1.0"),
    "residency-factor-zero": ("memory: {residency_factor: 0}",
                              "memory: residency_factor must be > 0, got 0.0"),
    "peak-under-static-floor": ("memory: {reference_peak_gb: 0.1}",
                                "memory: measured peak is below the static floor; check the "
                                "measurement or the overhead setting"),
}


@pytest.mark.parametrize("case", REFUSED_CONFIGS)
def test_refused_config_value_exits_2_on_one_line(tmp_path, capsys, case):
    text, message = REFUSED_CONFIGS[case]
    (tmp_path / "c.yaml").write_text(text + "\n")
    argv = COMMAND_OF[text.split(":")[0]]
    assert run(argv + ["--config", str(tmp_path / "c.yaml"),
                       "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "r").exists()


# Configs that mean the same as another, or as none (None): a precision in
# capitals, a custom arch that leaves feature_proj and pos_conv to their
# derived values, and an empty file.
SAME_CONFIGS = {
    "precision-in-capitals": ("workload: {precision: FP32}", "workload: {precision: fp32}"),
    "custom-arch-derived-keys": (CUSTOM_ARCH + "}", CUSTOM_ARCH + ", feature_proj: "
                                 "{in_dim: 256, out_dim: 256}, pos_conv: null}"),
    "empty-file": ("", None),
}


@pytest.mark.parametrize("case", SAME_CONFIGS)
def test_config_reads_as_its_plain_spelling(tmp_path, case):
    reports = []
    for name, text in zip(("given", "plain"), SAME_CONFIGS[case]):
        argv = ["analyze", "--out", str(tmp_path / name)]
        if text is not None:
            (tmp_path / f"{name}.yaml").write_text(text)
            argv += ["--config", str(tmp_path / f"{name}.yaml")]
        assert run(argv) == 0
        reports.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
    assert reports[0] == reports[1]


def test_refusal_with_a_flag_names_no_key(tmp_path, capsys):
    # a flag gave the workload a value, so the refusal cannot blame a config key
    (tmp_path / "c.yaml").write_text("workload: {sample_rate_hz: 0}\n")
    assert run(["analyze", "--batch", "2", "--config", str(tmp_path / "c.yaml"),
                "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == "error: sample rate must be > 0\n"
    assert run(["analyze", "--batch", "0", "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == f"error: {BATCH_PAST_A_FLOAT}\n"


def test_failed_check_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(checks, "run_all_checks", lambda: [
        checks.CheckResult("a/passes", True, "1 in [0, 2]"),
        checks.CheckResult("b/fails", False, "3 not in [0, 2]")])
    assert main(["validate"]) == 1
    assert capsys.readouterr().out == ("PASS  a/passes  1 in [0, 2]\n"
                                       "FAIL  b/fails   3 not in [0, 2]\n"
                                       "1/2 checks passed\n")


def test_failed_check_exits_1_in_json(monkeypatch, capsys):
    monkeypatch.setattr(checks, "run_all_checks", lambda: [
        checks.CheckResult("a/passes", True, "1 in [0, 2]", 1.0, (0.5, 2.0)),
        checks.CheckResult("b/holds", False, "it does not")])
    assert main(["validate", "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == [
        {"name": "a/passes", "passed": True, "value": 1.0, "bounds": [0.5, 2.0],
         "margin": 0.5, "detail": "1 in [0, 2]"},
        {"name": "b/holds", "passed": False, "value": None, "bounds": None,
         "margin": None, "detail": "it does not"}]


# Each command that builds a workload, and its arguments.
WORKLOAD_COMMANDS = {"analyze": [], "memory": [], "predict-time": ["--device", "nx"],
                     "fl-plan": ["--clients", "2", "--rounds", "1"],
                     "forecast": ["--device", "nx"]}
BATCH_PAST_A_FLOAT = "batch must be >= 1 and below 2**53, which a float counts exactly"


@pytest.mark.parametrize("command", WORKLOAD_COMMANDS)
@pytest.mark.parametrize("batch", [2**53, 10**400], ids=["2**53", "10**400"])
def test_batch_past_a_float_exits_2_on_one_line(tmp_path, capsys, command, batch):
    argv = [command, *WORKLOAD_COMMANDS[command], "--out", str(tmp_path / "r")]
    assert run(argv + ["--batch", str(batch)]) == 2
    assert capsys.readouterr().err == f"error: {BATCH_PAST_A_FLOAT}\n"
    section = "fl" if command == "fl-plan" else "workload"  # the batch fl-plan trains
    (tmp_path / "c.yaml").write_text(f"{section}: {{batch: {batch}}}\n")
    assert run(argv + ["--config", str(tmp_path / "c.yaml")]) == 2
    where = "fl.batch: " if command == "fl-plan" else "workload: "  # the key at fault
    assert capsys.readouterr().err == f"error: {where}{BATCH_PAST_A_FLOAT}\n"
    assert not (tmp_path / "r").exists()


def test_largest_batch_a_float_counts_exits_0(tmp_path):
    assert run(["memory", "--batch", str(2**53 - 1), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("method", ["fedavg", "loss", "loss_weighted"])
def test_config_method_is_read_as_the_agg_flag(tmp_path, method):
    (tmp_path / "c.yaml").write_text(f"aggregation: {{method: {method}}}\n")
    reports = []
    for name, extra in (("config", ["--config", str(tmp_path / "c.yaml")]),
                        ("flag", ["--agg", method])):
        out = tmp_path / name
        assert run(["fl-sim", "--clients", "4", "--rounds", "5", "--seed", "1",
                    "--out", str(out)] + extra) == 0
        reports.append((out / "fl_sim.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_out_at_a_file_exits_2(tmp_path, capsys, under):
    (tmp_path / "f").write_text("")
    out = tmp_path / "f" / "r" if under else tmp_path / "f"
    assert run(["analyze", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write reports to {out}: ") and \
        err.count("\n") == 1


@pytest.mark.parametrize("argv,report,blocked,reason", [
    (["fl-plan", "--clients", "3", "--rounds", "2", "--device", "nx"], "fl_partition.json",
     "fl_partition.json", "Is a directory"),
    (["analyze"], "analyze.json", ".analyze.json.{pid}.0.tmp", "File exists"),
], ids=["report", "temp-file"])
def test_unwritable_report_exits_2_on_one_line_and_leaves_no_temp_file(
        tmp_path, capsys, monkeypatch, argv, report, blocked, reason):
    monkeypatch.setattr("fedspeech.report._temp_numbers", itertools.count())  # the first is 0
    out = tmp_path / "out"
    (out / blocked.format(pid=os.getpid())).mkdir(parents=True)
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out / report}: {reason}\n"
    assert not [p for p in out.iterdir() if p.suffix == ".tmp" and p.is_file()]


@pytest.mark.parametrize("argv,text,report", [
    (["memory"], "memory: {reference_peak_gb: 1.0e+300}\n", "memory.json"),
    (["predict-time", "--device", "a40"],
     "devices:\n  - name: a40\n    anchors:\n      - {arch: base, batch: 1, "
     "precision: fp32, seconds_per_batch: 1.0e-300}\n", "predict_time.json"),
], ids=["memory-peak", "anchor-time"])
def test_non_finite_report_exits_2_and_writes_nothing(tmp_path, capsys, argv, text,
                                                      report):
    (tmp_path / "c.yaml").write_text(text)
    out = tmp_path / "r"
    assert run(argv + ["--config", str(tmp_path / "c.yaml"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {report}: ") and err.count("\n") == 1
    for path in out.rglob("*"):
        text = path.read_text()
        assert "Infinity" not in text and "NaN" not in text


class TestParser:
    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for cmd in ("analyze", "memory", "predict-time", "fl-plan", "fl-sim",
                    "forecast", "validate"):
            assert cmd in text


    def test_report_commands_share_config_and_out(self):
        # every command that writes reports reads --config and --out alike
        subparsers = next(action for action in cli.build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        helps = {name: {a.dest: a.help for a in p._actions if a.dest in ("config", "out")}
                 for name, p in subparsers.choices.items() if name != "validate"}
        assert len(helps) == 6
        assert all(h == helps["analyze"] for h in helps.values()), helps
        assert "FEDSPEECH_CONFIG" in helps["fl-sim"]["config"]


ERROR_EXIT_CODES = {"ManifestError": 3, "MalformedRowError": 3, "InfeasibleError": 4}  # else 2


def _raise(exc):
    raise exc


def _allocate_too_much(tmp_path):
    with errors.allocating("2**62 samples"):
        np.empty(2**62)


def _aggregate(*shapes):
    updates = [aggregation.ClientUpdate(f"c{i}", np.zeros(shape), 1)
               for i, shape in enumerate(shapes)]
    return aggregation.aggregate(updates, aggregation.AggregationConfig())


def _predict_mixed_on_cpu(tmp_path):
    devices.predict_batch_time(devices.get_profile("macbook-pro-2019"), get_preset("base"),
                               WorkloadSpec(precision=Precision.MIXED))


def _load_empty_manifest(tmp_path):
    (tmp_path / "empty.tsv").write_text("")
    federation.load_manifest(tmp_path / "empty.tsv")


# Each error type by its name, with a call that raises it and the message; and
# each type folded into one of these by the name it had, with a call that
# reaches its former raise site and the message that site has always printed,
# where ``{tmp_path}`` stands for the test's own directory.
RAISES = {
    t.__name__: (t, lambda tmp_path, t=t: _raise(
        t(9, "bad row") if t is errors.MalformedRowError else t("bad input")),
        "line 9: bad row" if t is errors.MalformedRowError else "bad input")
    for t in vars(errors).values()
    if isinstance(t, type) and issubclass(t, errors.FedspeechError)}
RAISES.update({
    "AllocationError": (errors.ConfigError, _allocate_too_much,
                        "2**62 samples cannot be allocated"),
    "DegenerateInputError": (errors.ConfigError,
                             lambda tmp_path: costs.conv_output_len(3, 10, 5),
                             "input of 3 frames is shorter than the kernel (10)"),
    "DimensionMismatchError": (errors.ConfigError, lambda tmp_path: _aggregate(2, 3),
                               "client c1 has shape (3,), expected (2,)"),
    "EmptyUpdateSetError": (errors.ConfigError, lambda tmp_path: _aggregate(),
                            "no client updates to aggregate"),
    "InvalidRatioError": (errors.ConfigError, lambda tmp_path: trend.years_to_parity(0.5, 1.0),
                          "slow time 0.5 is already faster than 1.0"),
    "InvalidSampleSizeError": (errors.ConfigError,
                               lambda tmp_path: federation.schedule_rounds(4, 2, 0),
                               "need at least one round"),
    "MissingColumnError": (errors.ManifestError, _load_empty_manifest, "manifest is empty"),
    "TooFewSpeakersError": (errors.ConfigError, lambda tmp_path: federation.partition_by_speaker(
        federation.synthetic_manifest(4, 2), 3), "2 distinct speakers cannot fill 3 clients"),
    "UnreadableManifestError": (errors.ManifestError,
                                lambda tmp_path: manifest_cache.load_manifest_cached(
                                    tmp_path / "absent.tsv"),
                                "cannot read manifest {tmp_path}/absent.tsv: "
                                "No such file or directory"),
    "UnsupportedPrecisionError": (errors.MissingAnchorError, _predict_mixed_on_cpu,
                                  "macbook-pro-2019 has no mixed-precision support"),
})


@pytest.mark.parametrize("name", sorted(RAISES))
def test_each_error_type_exits_with_its_code(monkeypatch, capsys, tmp_path, name):
    error, call, message = RAISES[name]
    message = re.escape(message.format(tmp_path=tmp_path))
    with pytest.raises(error, match=f"^{message}$") as raised:
        call(tmp_path)
    assert type(raised.value) is error
    monkeypatch.setattr(cli, "cmd_validate", lambda args: call(tmp_path))
    assert main(["validate"]) == error.exit_code == ERROR_EXIT_CODES.get(error.__name__, 2)
    assert capsys.readouterr().err == f"error: {raised.value}\n"


class TestSharedParser:
    """``main`` parses every call of a process with one parser."""

    ANALYZE = ["analyze", "--arch", "base", "--duration", "5.5"]

    def test_built_once(self, monkeypatch, tmp_path):
        built, build = [], cli.build_parser

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        for argv in (self.ANALYZE, ["memory"], ["predict-time", "--device", "nx"]):
            assert main(argv + ["--out", str(tmp_path)]) == 0
        cli._parser.cache_clear()
        assert len(built) == 1

    def test_handler_patched_after_first_call_runs(self, monkeypatch, tmp_path):
        assert main(self.ANALYZE + ["--out", str(tmp_path / "a")]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args) or 7)
        assert main(self.ANALYZE + ["--out", str(tmp_path / "b")]) == 7
        assert [args.duration for args in seen] == [5.5]
        assert not (tmp_path / "b").exists()

    def test_flag_does_not_carry_into_the_next_call(self, tmp_path):
        plan = ["fl-plan", "--clients", "3", "--per-round", "2", "--rounds", "4",
                "--samples-per-client", "5", "--device", "nx"]

        def reports(out):
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        assert main(plan + ["--seed", "5", "--out", str(tmp_path / "seeded")]) == 0
        assert main(plan + ["--out", str(tmp_path / "after")]) == 0
        cli._parser.cache_clear()
        assert main(plan + ["--out", str(tmp_path / "fresh")]) == 0
        assert reports(tmp_path / "after") == reports(tmp_path / "fresh")
        assert reports(tmp_path / "after") != reports(tmp_path / "seeded")

    def test_bad_flag_and_help_still_exit(self, tmp_path, capsys):
        assert main(self.ANALYZE + ["--out", str(tmp_path)]) == 0
        for argv, code in ((["analyze", "--batch", "two"], 2), (["fl-sim", "--help"], 0),
                           (["--bogus"], 2), (["memory", "-h"], 0)):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
        assert main(self.ANALYZE + ["--out", str(tmp_path)]) == 0
        assert "usage: fedspeech fl-sim" in capsys.readouterr().out


# Values for the random-argv property by the type an option takes. No drawn
# count that runs a loop exceeds 3; 2**53 and 2**63 are sizes whose
# allocation is refused at once, or counts that are past a float or int64.
INT_VALUES = ["-1", "0", "1", "3", str(2**53), str(2**63)]
FLOAT_VALUES = ["0", "1e-9", "5.5", "1e300", "nan", "inf", "-inf"]
BAD_VALUE = "bogus"
# options whose count is a loop that allocates nothing: never drawn above 3
LOOP_COUNTS = {"local_steps"}
DEVICE_NAMES = sorted(p.name for p in devices.builtin_profiles())
CONFIG_SECTIONS = typing.get_type_hints(config.ConfigFile)
# free-text options by their dest, with the names that mean something there;
# "<...>" stands for a file the test writes
STRING_VALUES = {"device": DEVICE_NAMES, "reference": DEVICE_NAMES,
                 "arch": sorted(arch.PRESETS), "manifest": ["<manifest>"],
                 "config": [f"<config {key}>" for key in CONFIG_SECTIONS]}


def _ill_typed(key, typ):
    """A config section ``key`` of type ``typ`` holding one ill-typed value."""
    if dataclasses.is_dataclass(typ):  # in the section's first key
        return {key: {dataclasses.fields(typ)[0].name: [1]}}
    return {key: 1 if typing.get_origin(typ) is tuple else [1]}


def _option_values(action):
    """Each value the property draws for one option; None for a switch."""
    if action.nargs == 0:
        return None
    if action.choices:
        return [*action.choices, BAD_VALUE, ""]
    if action.type is int:
        return INT_VALUES[:4] if action.dest in LOOP_COUNTS else INT_VALUES
    if action.type is float:
        return FLOAT_VALUES
    return [*STRING_VALUES.get(action.dest, []), BAD_VALUE, ""]


# each command's options from the parser itself: (required, optional), each a
# mapping of option string to its values; --out is always the test's own
PARSED_OPTIONS = {
    command: tuple({a.option_strings[-1]: _option_values(a)
                    for a in parser._actions
                    if a.option_strings and a.required is required
                    and a.dest not in ("help", "out")}
                   for required in (True, False))
    for command, parser in next(a for a in cli.build_parser()._actions
                                if isinstance(a, argparse._SubParsersAction)).choices.items()
    if command != "validate"}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(PARSED_OPTIONS)))
    required, optional = PARSED_OPTIONS[command]
    drawn = list(required) + draw(st.lists(st.sampled_from(sorted(optional)), max_size=4,
                                           unique=True))
    argv = [command]
    for flag in drawn:
        values = {**required, **optional}[flag]
        # one token, so that a value such as -inf is not read as a flag
        argv.append(flag if values is None else f"{flag}={draw(st.sampled_from(values))}")
    return argv


def _files_for(argv, root):
    """``argv`` with each ``<...>`` value a file under ``root``: the
    tie-heavy manifest, or a config with one ill-typed value in a section."""
    out = []
    for token in argv:
        flag, _, value = token.partition("=")
        if value == "<manifest>":
            value = root / "manifest.tsv"
            value.write_text(manifest_text(tie_heavy_rows()))
        elif value.startswith("<config "):
            key = value[len("<config "):-1]
            value = root / f"{key}.yaml"
            value.write_text(json.dumps(_ill_typed(key, CONFIG_SECTIONS[key])) + "\n")
        out.append(f"{flag}={value}" if "=" in token else token)
    return out


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=command_lines())
def test_any_command_line_exits_0_2_3_or_4(tmp_path, capsys, argv):
    capsys.readouterr()
    argv = _files_for(argv, tmp_path)
    try:  # any exception but SystemExit fails the test
        code = main(argv + ["--out", str(tmp_path / "r")])
    except SystemExit as exc:  # argparse rejected a flag
        assert exc.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith(f"usage: fedspeech {argv[0]} "), lines
        assert lines[-1].startswith(f"fedspeech {argv[0]}: error: "), lines
        return
    assert code in (0, 2, 3, 4)
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err


# Address space for a large-count run: enough for the interpreter, numpy and
# a small plan, while a schedule of 10**12 rounds can never be allocated.
CHILD_ADDRESS_SPACE = 2 << 30


def child(argv, blas_threads=None, **kwargs):
    """The command line ``argv`` run in a child, without a config from the
    environment, and with ``OPENBLAS_NUM_THREADS`` set to ``blas_threads``,
    else unset."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("FEDSPEECH_CONFIG", None)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run(
        [sys.executable, "-c", "import sys; from fedspeech.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, env=env, timeout=60, **kwargs)


def limited_child(argv, address_space=CHILD_ADDRESS_SPACE):
    """``child(argv)`` with its address space capped between fork and exec.
    The program runs numpy's BLAS on one thread, and no thread count comes
    from the environment: each thread the BLAS started would reserve address
    space of its own (about 40 MB more on two CPUs than on one), so the room
    left for arrays would depend on the machine's CPU count."""
    return child(argv, preexec_fn=lambda: resource.setrlimit(
        resource.RLIMIT_AS, (address_space, address_space)))


def test_fl_sim_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # numpy's BLAS adds the million squares of the distance's norm in as
    # many parts as it has threads; the program keeps it to one
    reports = []
    for threads in ("1", "4"):
        out = tmp_path / threads
        done = child(["fl-sim", "--clients", "4", "--per-round", "2", "--rounds", "3",
                      "--dim", "1000003", "--seed", "1", "--out", str(out)], threads)
        assert done.returncode == 0, done.stderr
        reports.append([(out / name).read_bytes() for name in ("fl_sim.json", "fl_sim.csv")])
    assert reports[0] == reports[1]


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["fl-plan", "fl-sim"]),
       clients=st.integers(1, 1000) | st.sampled_from([10**9, 10**18, 10**400]),
       rounds=st.sampled_from([1, 10**12, 10**18, 10**400]), everyone=st.booleans(),
       samples=st.sampled_from([None, 10**400]))
# a byte count of 10**400 rounds is more than a float holds; run it every time
@example(command="fl-plan", clients=10, rounds=10**400, everyone=True, samples=None)
@example(command="fl-sim", clients=100, rounds=10**400, everyone=False, samples=None)
# idealised clients too many to allocate, and clips per client more than int64 holds
@example(command="fl-plan", clients=10**9, rounds=2, everyone=False, samples=None)
@example(command="fl-plan", clients=10**18, rounds=2, everyone=False, samples=None)
@example(command="fl-plan", clients=10**400, rounds=2, everyone=True, samples=None)
@example(command="fl-plan", clients=10, rounds=2, everyone=True, samples=10**400)
def test_large_counts_exit_0_or_2_in_a_limited_child(tmp_path, command, clients, rounds,
                                                      everyone, samples):
    argv = [command, "--clients", str(clients), "--rounds", str(rounds),
            "--per-round", str(clients if everyone else 1), "--out", str(tmp_path / "r")]
    if command == "fl-plan" and samples is not None:  # fl-sim has no such flag
        argv += ["--samples-per-client", str(samples)]
    done = limited_child(argv)
    assert done.returncode in (0, 2), done.stderr
    assert done.stderr.count("error:") <= 1 and "Traceback" not in done.stderr, done.stderr
    if done.returncode:
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


# SHA-256 of every report these commands wrote at commit 2486d38. None of
# them draws from a random stream (the full-participation schedule is
# sorted), so any change to a report is a change to the model or its output.
# The manifest cases, recorded at commit 1685bd3, read the tie-heavy manifest
# (MANIFEST stands for its path); their partitions also pin the seeded
# shuffle of speakers with equal totals. The fl-sim cases, recorded at commit
# 8ac3fa4, where each client was trained and reduced one vector at a time,
# pin the seeded selection and every bit of the stacked rounds. The --config
# cases, recorded at commit 4f73abc, read one of CONFIGS (each key stands for
# its file) and together set every section and key of the config format;
# OUT in a config stands for the report directory. The two idealised
# fl_partition.json digests were re-recorded when idealised clients stopped
# listing made-up utterance ids: each file is the earlier one without its
# utterance_ids keys, and no other report changed. Every fl-plan JSON
# digest was then re-recorded when meta began to record the sample rate and,
# for an idealised corpus, its clip length and clips per client. The 8 kHz
# cases and the batch-1 mixed forecast were recorded at commit cbbc09d. Every
# JSON digest but analyze's was then re-recorded when meta began to record
# each input that changes a number (see test_fingerprint_follows_each_input);
# no CSV digest changed. Every manifest case's JSON digests were then
# re-recorded when meta began to record the manifest's SHA-256, and every
# fl-sim case's JSON digest when fl-sim lost --samples and meta its samples
# key; no CSV digest changed either time. The batch-2 forecast, whose
# headline batch joins batch 1 and 4, was recorded when forecast began to
# answer at any batch.
MANIFEST = "<tie-heavy manifest>"


def _with_clips(clip_of):
    """The tie-heavy manifest with the clip of row i renamed ``clip_of(i)``."""
    return manifest_text([(spk, clip_of(i), sentence, ms)
                          for i, (spk, _, sentence, ms) in enumerate(tie_heavy_rows())])


# Each manifest stands for its file like MANIFEST. The three with ids that the
# JSON writer escapes were recorded at commit 2cc095d: non-ASCII ids (a
# two-byte, a CJK and an astral-plane character); quoted fields holding a
# double quote, a backslash or a tab; and one 10 kB id among short ones.
MANIFESTS = {
    MANIFEST: lambda: manifest_text(tie_heavy_rows()),
    "<non-ASCII ids>": lambda: _with_clips(
        lambda i: ("caf\u00e9_{}.mp3", "\u5f55\u97f3_{}.mp3", "\U0001f3a4_{}.mp3")[i % 3]
        .format(i)),
    "<quoted ids>": lambda: _with_clips(
        lambda i: ('"say ""hi"" {}.mp3"', '"dir\\{}.mp3"', '"tab\t{}.mp3"')[i % 3]
        .format(i)),
    "<10 kB id>": lambda: _with_clips(
        lambda i: "x" * 10_000 if i == 17 else f"common_voice_{i:05d}.mp3"),
}
CONFIGS = {
    "<custom arch>": """
arch:
  name: small
  conv_stack:
    - {in_channels: 1, out_channels: 256, kernel: 10, stride: 5, norm: group}
    - {in_channels: 256, out_channels: 256, kernel: 3, stride: 2, bias: true, groups: 4}
    - {in_channels: 256, out_channels: 384, kernel: 2, stride: 2, norm: layer,
       activation: none}
  feature_proj: {in_dim: 384, out_dim: 512}
  pos_conv: null
  transformer: {blocks: 4, model_dim: 512, heads: 8, ffn_dim: 2048}
  quantizer: {input_dim: 384, groups: 2, entries_per_group: 160, codevector_dim: 128}
workload: {duration_s: 4.25, sample_rate_hz: 8000, batch: 3, precision: mixed}
output_dir: OUT
""",
    "<large override>": """
arch:
  preset: large
  transformer: {blocks: 8, heads: 8}
workload: {duration_s: 7.5, batch: 2}
memory: {runtime_overhead_gb: 0.55, residency_factor: 2.9, reference_peak_gb: 2.8}
""",
    "<devices>": """
devices:
  - name: rpi4
    memory_gb: 4
  - name: Edge-TPU
    memory_gb: 12
    os_reserve_gb: 1.0
    supports_mixed: true
    anchors:
      - {arch: base, batch: 2, precision: mixed, seconds_per_batch: 0.9, duration_s: 4.0}
      - {arch: base, batch: 8, precision: fp32, seconds_per_batch: 3.1, duration_s: 10.0}
workload: {duration_s: 6.0, batch: 4, precision: mixed}
memory: {residency_factor: 3.5}
""",
    "<fl>": """
arch: {preset: base}
devices:
  - {name: rpi4, memory_gb: 4}
fl: {clients: 6, per_round: 4, rounds: 12, local_epochs: 2, batch: 2, seed: 5}
workload: {precision: fp32}
memory: {runtime_overhead_gb: 0.3}
""",
    # a device name that csv quotes and that holds a %-format's escape
    "<quoted device>": """
devices:
  - name: 'lab "5%", b'
    memory_gb: 16
    anchors:
      - {arch: base, batch: 4, precision: fp32, seconds_per_batch: 0.7, duration_s: 5.5}
""",
    "<aggregation>": """
aggregation: {method: loss_weighted, alpha: 0.5, epsilon: 1.0e-3}
seed: 9
""",
    "<new device>": """
arch: {preset: large}
devices:
  - name: jetson-orin
    memory_gb: 32
    os_reserve_gb: 2
    supports_mixed: true
    anchors:
      - {arch: large, batch: 1, precision: fp32, seconds_per_batch: 0.6, duration_s: 6.5}
      - {arch: large, batch: 4, precision: mixed, seconds_per_batch: 1.1}
workload: {duration_s: 5.0, batch: 1, precision: fp32}
""",
    "<8 kHz>": """
workload: {sample_rate_hz: 8000}
""",
}
REPORT_DIGESTS = {
    ("analyze", "--arch", "base", "--duration", "5.5"): {
        "analyze.csv": "1a46bb1658947d332e998887b5b6be34419e1f42eef4b07757dffea00dd54ca2",
        "analyze.json": "a18d60f04e0b3bfc2b3884bd462ae52ee643e1978c6285b8729a6b58bed010e4",
        "analyze_modules.csv":
            "472fb42c49f4c5f3679d256fcf56da3def1d3e40828e1008d3fa7d878534423d",
    },
    ("memory", "--arch", "base", "--duration", "5.5", "--batch", "4"): {
        "memory.csv": "0f55151093333fd811e541995502c444ee8596bd7a33f1aea285d6eaed6c0dfc",
        "memory.json": "49effdcc9ae1918d48272501e518de9605f4691016cd6e8e720704b5eba9108c",
    },
    ("predict-time", "--device", "nx", "--arch", "base", "--duration", "5.5",
     "--batch", "4", "--precision", "mixed"): {
        "predict_time.csv":
            "959f4ecb881f43895199c8d1e32dde0390ec9f8cd2ccfc857b5889cc2fbb52a7",
        "predict_time.json":
            "a278e3fab7e52b02327a5611a43a77d27c46130dfa9a449c81ca763f4484d879",
    },
    ("fl-plan", "--clients", "10", "--rounds", "150", "--device", "a40",
     "--batch", "4"): {
        "fl_partition.json":
            "ef4e18d49af402759991ed7af06ddca28ad1c0aeac848f92b7ce39281cdfdca2",
        "fl_plan.csv": "600cb7da5359827e65b8dd1a100e35605832784fb9263163683d88b3aaa8ac9d",
        "fl_plan.json": "17457f88d0aa00cebbd70646946da741e262842ff00c32aadaf1d2c56789b560",
        "fl_schedule.json":
            "c441b3a465fcd1a774bd9addf3882a0cbeda099658b313ef203f1ec1781de027",
    },
    # Idealised, with a sampled schedule and 4-digit client ids: every
    # per-client and per-round section runs past one written chunk.
    ("fl-plan", "--clients", "1001", "--per-round", "7", "--rounds", "600", "--device",
     "nx", "--mean-duration", "7.25", "--seed", "3"): {
        "fl_partition.json":
            "3e085d61dafac62699adbc53628b8548afda834bc3ec7b0b2edf516bf1a4b995",
        "fl_plan.csv":
            "3db36e218aa38042ab08cc3096f2efacc0dde3fd0ed65d31066f2e93cc0aca02",
        "fl_plan.json":
            "429e42493f2c8aa4f30744f618ef42d44dcf09c52eb590da2ce068f222d3cace",
        "fl_schedule.json":
            "a9f3d203f0555d1df6485b002f934c5c390cdde0003a9a47adb74053f8ee6d5b",
    },
    ("fl-plan", "--manifest", MANIFEST, "--clients", "1", "--rounds", "3",
     "--device", "a40", "--batch", "4", "--seed", "0"): {
        "fl_partition.json":
            "53f9a54282928deeadc279895abd0a9121fa0dd487dffd8c98a6f61e33fd5bbd",
        "fl_plan.csv":
            "941244b3b09ae54b65711848d099cd4256df7fe4874ba6b6c632cd4eb11352db",
        "fl_plan.json":
            "727ddb890fd924bf2ff3a3d0dba6767213687386a15fbb02fcbd499be0e47d0b",
        "fl_schedule.json":
            "78d5e6f6a2838ae5de4f026e20e1c9000b4071453919af9c91ea38919b1e3932",
    },
    ("fl-plan", "--manifest", MANIFEST, "--clients", "3", "--rounds", "3",
     "--device", "nx", "--batch", "4", "--seed", "1"): {
        "fl_partition.json":
            "532c52de4780aa657b5d68ad8e51e98d12152fafe5c5e6e9d4fd5b0af5490803",
        "fl_plan.csv":
            "bd8bb07e926a9356b6e29b62557b1452425ba245c124e03dc753ed588d7d72a4",
        "fl_plan.json":
            "ee32b4029a9107d5bce7e9e8e45bd0cfad01819a0b2f70f4d516aa7a0641b98d",
        "fl_schedule.json":
            "d82475f6800a4109def41fa6b89f5f4f8855204c2285bd642e1e16afdf169230",
    },
    ("fl-plan", "--manifest", MANIFEST, "--clients", "3", "--rounds", "3",
     "--device", "rpi", "--batch", "4", "--seed", "2"): {
        "fl_partition.json":
            "54c848a0a42ae403fd7010e1b078a22cf224ea20dd792f740c47ca0d4b874c44",
        "fl_plan.csv":
            "9c4dc64768ee9d3538f18d83c4d1bddc9f0b19dcb52074db5e28fe617f661eca",
        "fl_plan.json":
            "42b128de60530428aa90c865275b2c6a9c365c9cae130e07cb27ac1cec86e8d3",
        "fl_schedule.json":
            "79fed56239e50c59439e0669fe6fb3771aff2fbf0d64045d7906998d26b04435",
    },
    ("fl-plan", "--manifest", MANIFEST, "--clients", "10", "--rounds", "3",
     "--device", "agx", "--batch", "4", "--seed", "3"): {
        "fl_partition.json":
            "98f53d7d4ecba1c24ed4cd7f80b16561dffeb8046b327b092ec7c81f5a21ecf5",
        "fl_plan.csv":
            "662b92d7e0c4c4ea6251f1bc20b704dd8afdf84dad321f1932bd92d46a0a1f10",
        "fl_plan.json":
            "fe8477b20b45bce586948bea90128062a2ece9df78404faa84774c942fc52255",
        "fl_schedule.json":
            "3af2c8920b0dcc928e83d83013d5f2e70862872df4069d899658b750c85f02e7",
    },
    ("fl-plan", "--manifest", MANIFEST, "--clients", "10", "--rounds", "3",
     "--device", "nx", "--batch", "4", "--seed", "4"): {
        "fl_partition.json":
            "83c8ffa2697eee4753f059049f5cb195c7c174bbb6f6074ff4aa278521ed7a14",
        "fl_plan.csv":
            "143692f1935208f973ee187499d61b48e714298fee568814ed3f835552a71d7d",
        "fl_plan.json":
            "7080c60f0b702626408740f3708338be89753b7501c98ce9cca7350182a843f4",
        "fl_schedule.json":
            "2df5fc97af2ea9f167ab7230f7503bcba197869a2f179ebc14ba06e6e623aecb",
    },
    # Partial participation over clients of unequal mean clip lengths, with
    # two local epochs: its 10 clients have 10 distinct epoch times. Recorded
    # at commit b61fb37.
    ("fl-plan", "--manifest", MANIFEST, "--clients", "10", "--per-round", "3", "--rounds",
     "20", "--local-epochs", "2", "--device", "nx", "--batch", "4", "--seed", "5"): {
        "fl_partition.json":
            "c3c776ff78870a844d9756cc02cbeaaf6f2277a86be4fdbd0777c803801190b5",
        "fl_plan.csv":
            "4f9e68ebaf4bdb952b40bd6b946680933d168eed11c1e1cf38510e3e5b6c13fa",
        "fl_plan.json":
            "34164ed4b81e71b5fed9539b20f2298691be381c8ac0df1973db7cd75cb99192",
        "fl_schedule.json":
            "8a462d7026e6f22133c9180cc7d275aed889ed891bc7c23eb83e0f0637d1959e",
    },
    ("fl-plan", "--manifest", "<non-ASCII ids>", "--clients", "3", "--rounds", "3",
     "--device", "nx", "--batch", "4", "--seed", "1"): {
        "fl_partition.json":
            "4413b0b7b29748215dd628094f0c5b5dd7ea8fd60683434e7de795c24418cc00",
        "fl_plan.csv":
            "bd8bb07e926a9356b6e29b62557b1452425ba245c124e03dc753ed588d7d72a4",
        "fl_plan.json":
            "291ff8f14e6700dd9553fbfd3704964d14caa87fa81d89a4136f8bea73922514",
        "fl_schedule.json":
            "b760a70ac1f231a44689ae217dc761a21dad8261c75a1826e8ffea0ebb3acec6",
    },
    ("fl-plan", "--manifest", "<quoted ids>", "--clients", "3", "--rounds", "3",
     "--device", "nx", "--batch", "4", "--seed", "1"): {
        "fl_partition.json":
            "175f85da14503021814178f9d4335b69fe948f22eb2937ffec21ff807333835c",
        "fl_plan.csv":
            "bd8bb07e926a9356b6e29b62557b1452425ba245c124e03dc753ed588d7d72a4",
        "fl_plan.json":
            "2d2a7f47cdc48e4d825955908b39f1104d1a350658d655b7cbdf034c1c5cf0f0",
        "fl_schedule.json":
            "9611092d1619b9dd4caa7f739dc65d559a468711e728c671886adc41696df494",
    },
    ("fl-plan", "--manifest", "<10 kB id>", "--clients", "3", "--rounds", "3",
     "--device", "nx", "--batch", "4", "--seed", "1"): {
        "fl_partition.json":
            "910ada78d347fa102b82440a84241123c6f1ef4d217f958a8900de11a3d1e783",
        "fl_plan.csv":
            "bd8bb07e926a9356b6e29b62557b1452425ba245c124e03dc753ed588d7d72a4",
        "fl_plan.json":
            "9fd2a1ebb8ed990daf62f0adfe21ad788955b6399aa76e32d87ab9f17fe3e23a",
        "fl_schedule.json":
            "a9d9688a4746776720e32d6721e87d7c6ab23d7b4e00d5035a487eed6703d215",
    },
    ("fl-sim", "--agg", "loss", "--alpha", "1.0", "--clients", "100", "--per-round",
     "20", "--dim", "2000", "--rounds", "20", "--seed", "11"): {
        "fl_sim.csv": "540b1f477e0b7a0a60f548e590005e6ba2f7821e93834c55a599bc516eb0103e",
        "fl_sim.json": "222508a22ba2bf89c4aaadfb794103319eee3c1b1c74fcdad8642657b45e1135",
    },
    ("fl-sim", "--agg", "loss", "--alpha", "0", "--pre-loss", "--clients", "12",
     "--per-round", "5", "--dim", "16", "--rounds", "10", "--seed", "3"): {
        "fl_sim.csv": "a159e078aeb21cdc3d1f7ffd257b6e8693102400c47e868e6aa99419b72eca57",
        "fl_sim.json": "9395c763297051081da20a050ac7dde9c83d525bc7d9b021b23be358b8227ac0",
    },
    ("fl-sim", "--agg", "fedavg", "--clients", "6", "--dim", "5", "--rounds", "12",
     "--lr", "0.1", "--local-steps", "2", "--seed", "4"): {
        "fl_sim.csv": "d14ee5ee8818745b65b1f377a19fa2683e3883addf62bc24ca952d1f8a139571",
        "fl_sim.json": "4fb396acb02ea276d7df8411f29d28049a6945dfe5654dd1e7565f283c8d9129",
    },
    # Round 0 selects c10031, which sorts between c1003 and c1004.
    ("fl-sim", "--agg", "loss", "--alpha", "1.0", "--clients", "10050", "--per-round",
     "30", "--dim", "3", "--rounds", "5", "--seed", "5"): {
        "fl_sim.csv": "f5aa8a2548bd8cd70dc20cdf81313920685896e13c207a690a948bb9e9f1a818",
        "fl_sim.json": "20bdc1f3e38ebd90ea0ae90e613900c7d3b87cdf58de60d215bcb3712cd6e49f",
    },
    ("analyze", "--config", "<custom arch>"): {
        "analyze.csv":
            "1c8610badb6375ca2dead95d95e7213478f25a6b86b880b4746b3f25b7dcccea",
        "analyze.json":
            "6d749f75deeb59dd9ab58f4d83a3534a63ef43eea5f0cda9e59cc2be1f582adf",
        "analyze_modules.csv":
            "7041aa867836ef2f974a4afb27d8fc01ddab170f2b5798ba0a23f3ca62952aaa",
    },
    ("memory", "--config", "<large override>", "--precision", "mixed"): {
        "memory.csv":
            "adc6e681b0117d04a223332b40872bd9294cd517a10c6a9593eef17a40bc0943",
        "memory.json":
            "079fa7e667529c8e73b5eb55437b3ec9298599cd093c0786962a554f0ada235b",
    },
    ("predict-time", "--config", "<devices>", "--device", "edge-tpu"): {
        "predict_time.csv":
            "dc75ff43550a143e4f66266e4e0afb6857f4a850478ec7fece99b12b3258e736",
        "predict_time.json":
            "b42e39d59a96cbbf8f3b8f958fa6ee9617d68e5a7b1d7e6d238e8343dfb6aec4",
    },
    ("predict-time", "--config", "<devices>", "--device", "rpi", "--precision",
     "fp32"): {
        "predict_time.csv":
            "df68eb01c175f10715615923c272f7572b9decb9fdd3a43603551b4b67459a37",
        "predict_time.json":
            "ba743618f5c87c82c282a5fc98e206cdcee168593ae0ceec26cd0c9d87096d07",
    },
    ("fl-plan", "--config", "<fl>", "--device", "rpi", "--samples-per-client",
     "300"): {
        "fl_partition.json":
            "4af18463e6f87cc9145ccb64c6eb78c8e49b998a76c4eb6349fc8883edb8ae27",
        "fl_plan.csv":
            "a09999e39672ef18699e78d6adae7869c92ff7e22a37d42508da91be7f44e171",
        "fl_plan.json":
            "87270edebf2cd130355ae16f764b3ffee82d71c9cd7c0a4431b51fd5c45f8a03",
        "fl_schedule.json":
            "31e5fea5894e6595c53a45cce5724314275fd798c604c4a69c74dda4152dd919",
    },
    # The same shape on a device whose name csv quotes and which holds a "%".
    ("fl-plan", "--config", "<quoted device>", "--device", 'lab "5%", b', "--clients",
     "1001", "--per-round", "7", "--rounds", "600", "--mean-duration", "7.25",
     "--seed", "3"): {
        "fl_partition.json":
            "7374a58e307430fff1d441d40d1fae95a49b6031164c2c5588f1f0c9be1a4200",
        "fl_plan.csv":
            "23555ad63e735e876c61453bf2580f5a5e9d2a7238c5758663ce2302153fb591",
        "fl_plan.json":
            "c5aa37a51d63f5a608848fde78e707661df53bd0626f2e6532c1a28f5b5e5f5f",
        "fl_schedule.json":
            "5b3880686e3836f7659c3c8bc082768c3e59302f0fe372ab1234b56fab22f6c1",
    },
    ("fl-sim", "--config", "<aggregation>", "--clients", "8", "--per-round", "3",
     "--dim", "6", "--rounds", "10"): {
        "fl_sim.csv":
            "dfc13a5016960318e65592870d73138c2d2c3785aa1fc6daf9d5b36ddc12b152",
        "fl_sim.json":
            "eed578da097d4f0e263402c342218139f8d7eab2b426691cfa39358bae946bf0",
    },
    ("forecast", "--config", "<new device>", "--device", "jetson-orin"): {
        "forecast.json":
            "81cdb80c68429e0c2734205a99599d0a6fc6600fb2ee0ee4f78b46ee03612be2",
    },
    ("forecast", "--device", "agx", "--arch", "large", "--doubling-months", "24",
     "--base-year", "2023"): {
        "forecast.json":
            "cc5c1dda9e81fac98a7d529361b0443cacf7afcbd222b5345a886c7633a79313",
    },
    ("memory", "--config", "<8 kHz>"): {
        "memory.csv":
            "4033965596fbd7089d70c81b46e08186773d636ff0c3b192a8bb9d89a567c7ce",
        "memory.json":
            "c13dafc4109a8ac06ad14e7d7f0a931a84d7116059563b12fbaebecb0cf67e9d",
    },
    ("predict-time", "--config", "<8 kHz>", "--device", "nx"): {
        "predict_time.csv":
            "366293c341aba5ecd2783f28492ef650a2dbec9ab18ba5dc4f2922cde8b1c796",
        "predict_time.json":
            "d7ad580750dc2fa79942982cda394596450eff2f60394d9772772d057685d0b4",
    },
    ("forecast", "--config", "<8 kHz>", "--device", "nx"): {
        "forecast.json":
            "1102bd88bd1a20620b98838aaf27fa8013e811505aab4158ff85322ed8b535f7",
    },
    ("forecast", "--device", "nx", "--batch", "1", "--precision", "mixed"): {
        "forecast.json":
            "2d8c1ddbd45007168c737783208f5726de68fc56c2c959c8ace57f13077839da",
    },
    ("forecast", "--device", "nx", "--batch", "2"): {
        "forecast.json":
            "b4e2f12cd2710b4356b99fe340dfb08caf01ab36d97b57e94caa8de58343475b",
    },
}


def _case_id(argv):
    if "--config" in argv:  # a value's quotes, spaces and signs read as one "-"
        return re.sub(r"[^\w.-]+", "-", "-".join(
            [argv[0], "config", argv[argv.index("--config") + 1].strip("<>"),
             *argv[argv.index("--config") + 2:][1::2]]))
    if argv[0] == "fl-sim":
        return "-".join([argv[0], argv[argv.index("--agg") + 1],
                         "c" + argv[argv.index("--clients") + 1],
                         "s" + argv[argv.index("--seed") + 1]])
    if "--manifest" not in argv:
        return argv[0]
    name = argv[argv.index("--manifest") + 1]
    kind = [] if name == MANIFEST else [name.strip("<>").replace(" ", "-")]
    return "-".join([argv[0], "manifest", *kind, "c" + argv[argv.index("--clients") + 1],
                     "s" + argv[argv.index("--seed") + 1]])


def _case_ids(cases):
    """Each case's id; a later case whose id an earlier one has also names
    its flag values."""
    ids = []
    for argv in cases:
        case_id = _case_id(argv)
        ids.append("-".join([argv[0], *argv[2::2]]) if case_id in ids else case_id)
    return ids


_BOX = ("devices:\n  - {{name: box, memory_gb: 8, anchors: [{{arch: base, batch: 1, "
        "precision: fp32, seconds_per_batch: {}}}]}}\n")
# (argv, its config) -> (flags added, config) of a run whose reports hold
# other numbers; each names one input of the report.
FINGERPRINT_INPUTS = {
    "memory-sample-rate": (["memory"], "", [], "workload: {sample_rate_hz: 8000}"),
    # the same kappa, a larger static floor
    "memory-calibration": (["memory"], "", [],
                           "memory: {runtime_overhead_gb: 0.5, reference_peak_gb: 2.64}"),
    "predict-time-sample-rate": (["predict-time", "--device", "nx"], "", [],
                                 "workload: {sample_rate_hz: 8000}"),
    "predict-time-residency": (["predict-time", "--device", "nx"], "", [],
                               "memory: {residency_factor: 3.9}"),
    "predict-time-anchors": (["predict-time", "--device", "box"], _BOX.format(0.5), [],
                             _BOX.format(0.9)),
    "forecast-sample-rate": (["forecast", "--device", "nx"], "", [],
                             "workload: {sample_rate_hz: 8000}"),
    "forecast-headline": (["forecast", "--device", "nx"], "",
                          ["--batch", "1", "--precision", "mixed"], ""),
    "forecast-anchors": (["forecast", "--device", "box", "--batch", "1"], _BOX.format(0.5),
                         [], _BOX.format(0.9)),
    "fl-plan-anchors": (["fl-plan", "--device", "box", "--clients", "2", "--rounds", "2",
                         "--batch", "1"], _BOX.format(0.5), [], _BOX.format(0.9)),
    "fl-plan-config-seed": (["fl-plan", "--clients", "4", "--per-round", "2", "--rounds",
                             "3"], "", [], "fl: {seed: 5}"),
    "fl-sim-spread": (["fl-sim"], "", ["--spread", "3"], ""),
    "fl-sim-pre-loss": (["fl-sim", "--agg", "loss"], "", ["--pre-loss"], ""),
    "fl-sim-epsilon": (["fl-sim", "--agg", "loss"], "", [], "aggregation: {epsilon: 1.0}"),
    "fl-sim-config-seed": (["fl-sim"], "", [], "seed: 9"),
}


@pytest.mark.parametrize("case", FINGERPRINT_INPUTS)
def test_fingerprint_follows_each_input(case, tmp_path):
    argv, config, flags, changed_config = FINGERPRINT_INPUTS[case]

    def reports(name, extra, text):
        out = tmp_path / name
        if text:
            (tmp_path / f"{name}.yaml").write_text(text + "\n")
            extra = extra + ["--config", str(tmp_path / f"{name}.yaml")]
        assert run(argv + extra + ["--out", str(out)]) == 0
        payloads = {p.name: json.loads(p.read_text()) for p in out.glob("*.json")}
        return {n: (p.pop("meta")["fingerprint"], p) for n, p in payloads.items()}

    before, after = reports("before", [], config), reports("after", flags, changed_config)
    assert any(before[n][1] != after[n][1] for n in before)  # some number changed
    assert all(before[n][0] != after[n][0] for n in before)


def _with_manifest(argv, tmp_path):
    """``argv`` with its manifest, if any, written under ``tmp_path``."""
    args = list(argv)
    if "--manifest" in argv:
        at = argv.index("--manifest") + 1
        path = tmp_path / "manifest.tsv"
        path.write_text(MANIFESTS[argv[at]](), encoding="utf-8")
        args[at] = str(path)
    return args


def test_fingerprint_follows_the_manifest_content_not_its_path(tmp_path):
    text = manifest_text(tie_heavy_rows())
    first_150 = "".join(text.splitlines(keepends=True)[:151])
    manifests = {"a": text, "b": first_150, "a-elsewhere": text}
    meta = {}
    for name, content in manifests.items():
        (tmp_path / name).mkdir()
        path = tmp_path / name / "validated.tsv"
        path.write_text(content)
        code, reports = plan_reports(path, tmp_path / name / "out", seed="1")
        assert code == 0
        meta[name] = json.loads(reports["fl_plan.json"])["meta"]
        assert meta[name]["manifest_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert meta["a"]["fingerprint"] != meta["b"]["fingerprint"]
    assert meta["a"] == meta["a-elsewhere"]
    assert str(tmp_path) not in json.dumps(meta)


def _case_command(argv, root):
    """The command line of the ``REPORT_DIGESTS`` case ``argv``, its inputs
    written under ``root``, and the directory its reports go to."""
    out = root / "out"
    args = _with_manifest(argv, root)
    text = CONFIGS[argv[argv.index("--config") + 1]] if "--config" in argv else ""
    if text:
        args[argv.index("--config") + 1] = str(root / "config.yaml")
        (root / "config.yaml").write_text(text.replace("OUT", str(out)))
    if "output_dir" not in text:
        args += ["--out", str(out)]
    return args, out


def _digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


def _digests_written(argv, root):
    """The SHA-256 of each report the ``REPORT_DIGESTS`` case ``argv`` writes,
    its inputs and reports kept under ``root``."""
    args, out = _case_command(argv, root)
    assert run(args) == 0
    return _digests(out)


@pytest.mark.parametrize("argv", list(REPORT_DIGESTS), ids=_case_ids(REPORT_DIGESTS))
def test_reports_byte_identical_to_recorded(argv, tmp_path):
    assert _digests_written(argv, tmp_path) == REPORT_DIGESTS[argv]


FL_SIM_CASES = [argv for argv in REPORT_DIGESTS if argv[0] == "fl-sim"]


@pytest.mark.parametrize("argv", FL_SIM_CASES, ids=_case_ids(FL_SIM_CASES))
def test_fl_sim_reports_hold_at_every_buffer_offset(argv, tmp_path, monkeypatch):
    # fl-sim's round buffers and population-loss block start on a 64-byte
    # line; placed at each 8-byte offset in a line instead, the reports keep
    # every bit. The buffers start as nan, so a value read before it is
    # written changes a report too.
    placed = []

    def at_offset(shape, what):
        size = math.prod(shape)
        raw = np.full(size + 15, np.nan)
        start = (-raw.ctypes.data % 64 + offset) // 8
        placed.append(offset)
        return raw[start:start + size].reshape(shape)

    monkeypatch.setattr(aggregation, "_aligned_empty", at_offset)
    for offset in range(0, 64, 8):
        (tmp_path / str(offset)).mkdir()
        assert _digests_written(argv, tmp_path / str(offset)) == REPORT_DIGESTS[argv], offset
    # three round buffers and one block a run
    assert placed == [offset for offset in range(0, 64, 8) for _ in range(4)]


@pytest.mark.parametrize("argv", [argv for argv in REPORT_DIGESTS if "--manifest" in argv],
                         ids=_case_id)
def test_manifest_reports_same_on_a_cache_hit(argv, tmp_path, monkeypatch, entry_reads):
    # the hit partitions the entry it found by the file's stat identity while
    # the manifest was hashed, and keeps that partition once the key matches
    parses = []

    def counting(path):
        parses.append(path)
        return federation.load_manifest(path)

    monkeypatch.setattr(manifest_cache, "load_manifest", counting)
    args = _with_manifest(argv, tmp_path)
    for out, reads in ((tmp_path / "miss", []), (tmp_path / "hit", ["hint"])):
        entry_reads.clear()
        assert run(args + ["--out", str(out)]) == 0
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir()}
        assert written == REPORT_DIGESTS[argv]
        assert entry_reads == reads
    assert parses == [args[args.index("--manifest") + 1]]


def test_manifest_plan_builds_no_report_at_the_config_clip_length(tmp_path):
    # A manifest plan trains and is fitted at its clients' mean clips, and the
    # fit's report sizes the traffic; a 0.001 s clip, shorter than the first
    # conv kernel, is never costed and changes no byte.
    argv = ("fl-plan", "--manifest", MANIFEST, "--clients", "3", "--rounds", "3",
            "--device", "nx", "--batch", "4", "--seed", "1")
    (tmp_path / "c.yaml").write_text("workload: {duration_s: 0.001}\n")
    out = tmp_path / "out"
    assert run(_with_manifest(argv, tmp_path)
               + ["--config", str(tmp_path / "c.yaml"), "--out", str(out)]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == REPORT_DIGESTS[argv]


def _fresh_python(code, *args, options=()):
    """Run ``code`` in a new interpreter, started with the command-line
    ``options`` (development mode only from them), which has imported
    neither numpy nor fedspeech, and return its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("FEDSPEECH_CONFIG", None)
    env.pop("PYTHONDEVMODE", None)
    return subprocess.run([sys.executable, *options, "-c", code, *args],
                          capture_output=True, text=True, env=env, check=True).stdout


# Runs each (argv, out) given as JSON through cli.main and records, after
# each, its exit code, the numpy submodules loaded so far and its reports'
# digests.
_RUN_IN_ORDER = """
import hashlib, json, pathlib, sys
from fedspeech.arch import arch_to_mapping, get_preset
from fedspeech.cli import main
results = []
for argv, out in json.loads(sys.argv[1]):
    code = main(argv + ["--out", out])
    results.append([code, sorted(m for m in sys.modules if m.startswith("numpy.")),
                    {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in pathlib.Path(out).iterdir()}])
pathlib.Path(sys.argv[2]).write_text(json.dumps(results))
"""


def test_queries_leave_numpy_unloaded_and_plans_load_it(tmp_path):
    queries = [("analyze", "--arch", "base", "--duration", "5.5"),
               ("memory", "--arch", "base", "--duration", "5.5", "--batch", "4"),
               ("predict-time", "--device", "nx", "--arch", "base", "--duration", "5.5",
                "--batch", "4", "--precision", "mixed"),
               ("forecast", "--device", "nx", "--batch", "1", "--precision", "mixed")]
    plans = [("fl-plan", "--clients", "10", "--rounds", "150", "--device", "a40",
              "--batch", "4"),
             ("fl-plan", "--manifest", MANIFEST, "--clients", "1", "--rounds", "3",
              "--device", "a40", "--batch", "4", "--seed", "0"),
             ("fl-sim", "--agg", "fedavg", "--clients", "6", "--dim", "5", "--rounds", "12",
              "--lr", "0.1", "--local-steps", "2", "--seed", "4")]
    cases = [(_with_manifest(argv, tmp_path), str(tmp_path / f"out{i}"))
             for i, argv in enumerate(queries + plans)]
    _fresh_python(_RUN_IN_ORDER, json.dumps(cases), str(tmp_path / "results.json"))
    results = json.loads((tmp_path / "results.json").read_text())
    for argv, (code, numpy_modules, written) in zip(queries + plans, results):
        assert code == 0
        assert written == REPORT_DIGESTS[argv]
        if argv in queries:
            assert numpy_modules == [], argv[0]
    assert results[-1][1]  # the plans loaded numpy


def test_explain_loads_no_logging(tmp_path):
    code = ("import sys\n"
            "from fedspeech.cli import main\n"
            "for argv in (['forecast', '--device', 'nx'], ['predict-time', '--device', 'nx'],\n"
            "             ['fl-plan', '--clients', '3', '--rounds', '2']):\n"
            "    assert main(argv + ['--explain', '--out', sys.argv[1]]) == 0\n"
            "print('logging' in sys.modules)\n")
    assert _fresh_python(code, str(tmp_path)).splitlines()[-1] == "False"


def test_one_process_keeps_each_arch_apart_from_a_namesake(tmp_path):
    # the override's arch is also named "large"; a preset or mapping kept
    # for the process by name would give one command the other's arch
    override = ("memory", "--config", "<large override>", "--precision", "mixed")
    preset = ("forecast", "--device", "agx", "--arch", "large", "--doubling-months", "24",
              "--base-year", "2023")
    (tmp_path / "config.yaml").write_text(CONFIGS["<large override>"])
    argvs = [override, preset, override]
    cases = [([str(tmp_path / "config.yaml") if a == "<large override>" else a
               for a in argv], str(tmp_path / f"out{i}")) for i, argv in enumerate(argvs)]
    _fresh_python(_RUN_IN_ORDER, json.dumps(cases), str(tmp_path / "results.json"))
    results = json.loads((tmp_path / "results.json").read_text())
    assert [(code, written) for code, _, written in results] == \
        [(0, REPORT_DIGESTS[argv]) for argv in argvs]
    assert json.loads((tmp_path / "out0" / "memory.json").read_text()
                      )["meta"]["arch"]["name"] == "large"


def test_commands_leave_the_shared_arch_mapping_as_built(tmp_path):
    arch = get_preset("base")
    for argv in (["analyze"], ["memory"], ["predict-time", "--device", "nx"],
                 ["forecast", "--device", "nx"]):
        assert run(argv + ["--arch", "base", "--out", str(tmp_path)]) == 0
    assert arch_to_mapping(arch) == arch_to_mapping.__wrapped__(arch)


def test_cli_import_loads_every_module_the_tracer_patches():
    # perfbench/tracer.py looks these modules up in sys.modules after
    # ``import fedspeech.cli``; only numpy's own import may wait for first use
    code = ("import sys, fedspeech.cli; print(*sorted(m for m in "
            "('config', 'costs', 'memory', 'devices', 'federation', 'report', "
            "'aggregation') if 'fedspeech.' + m not in sys.modules))")
    assert _fresh_python(code) == "\n"
    # and finds there each function it patches by name, also those no traced
    # CI run calls, such as aggregate and load_manifest
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")
    assert _fresh_python(_TRACER_TARGETS_MISSING, perfbench) == "\n"


# Prints each (module, function) of the tracer's TARGETS that is not found
# in the fedspeech modules ``import fedspeech.cli`` has loaded.
_TRACER_TARGETS_MISSING = """
import sys
import fedspeech.cli
loaded = dict(sys.modules)
sys.path.insert(0, sys.argv[1])
from tracer import TARGETS
print(*sorted(f"{m}.{a}" for m, a, *_ in TARGETS
              if not hasattr(loaded.get("fedspeech." + m), a)))
"""


# Prints, from an exit handler registered before ``main`` registers its own
# and so run after it, how many objects the collector holds frozen.
_FROZEN_AT_EXIT = """
import atexit, gc, sys
from fedspeech.cli import main
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count()))
main(sys.argv[1:])
"""


@pytest.mark.parametrize("options,frozen", [((), True), (("-X", "dev"), False)],
                         ids=["default", "development-mode"])
def test_a_process_ends_with_its_objects_frozen_unless_in_development_mode(
        tmp_path, options, frozen):
    out = _fresh_python(_FROZEN_AT_EXIT, "analyze", "--out", str(tmp_path), options=options)
    last = out.splitlines()[-1]
    assert last.startswith("frozen at exit: ")
    assert (int(last.split()[-1]) > 0) is frozen


def test_one_exit_hook_however_many_commands_a_process_runs(tmp_path):
    code = ("import atexit, json, sys\n"
            "from fedspeech.cli import main\n"
            "hooks = [atexit._ncallbacks()]\n"
            "for out in sys.argv[1:]:\n"
            "    main(['analyze', '--out', out])\n"
            "    hooks.append(atexit._ncallbacks())\n"
            "print(json.dumps(hooks))\n")
    hooks = json.loads(_fresh_python(code, *(str(tmp_path / str(i)) for i in range(3))
                                     ).splitlines()[-1])
    assert hooks[1] == hooks[0] + 1 and hooks[3] == hooks[1]


def test_piped_stdout_arrives_whole_before_a_frozen_exit():
    result = child(["validate", "--json"])
    assert result.returncode == 0, result.stderr
    checks_run = json.loads(result.stdout)
    assert len(checks_run) == 86 and all(c["passed"] for c in checks_run)


def test_reports_keep_their_bytes_after_a_frozen_exit(tmp_path):
    # every case in one child, whose reports are read once it has ended
    cases = []
    for i, argv in enumerate(REPORT_DIGESTS):
        (tmp_path / str(i)).mkdir()
        cases.append(_case_command(argv, tmp_path / str(i)))
    code = ("import json, sys\n"
            "from fedspeech.cli import main\n"
            "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n")
    codes = _fresh_python(code, json.dumps([args for args, _ in cases])).splitlines()[-1]
    assert json.loads(codes) == [0] * len(cases)
    assert [_digests(out) for _, out in cases] == list(REPORT_DIGESTS.values())
