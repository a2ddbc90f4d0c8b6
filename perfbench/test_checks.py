"""Each output check passes on a genuine report and fails on a corrupted one.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_checks.py

Genuine reports come from the program itself at small sizes; every
corruption below breaks the one fact its check guards.
"""

from __future__ import annotations

import contextlib
import copy
import io
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from checks import CheckFailed  # noqa: E402
from fedspeech import cli  # noqa: E402


def _run(out: Path, *argv) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*map(str, argv), "--out", str(out)]) == 0
    return checks.read_reports(out)


# ------------------------------------------------------------------ fixtures

CORPUS_CTX = {"clients": 10, "rounds": 150}
FLEET_CTX = {"clients": 20, "samples_per_client": 42, "per_round": 5, "rounds": 30,
             "batch": 4, "device": "rpi4", "mean_duration": 5.5}
SIM_CTX = {"rounds": 30}
CONTRACTION_CTX = {"lr": 0.1, "local_steps": 2, "rounds": 20}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corpus")
    facts = inputs.make_manifest(tmp / "m.tsv", seed=5, n_rows=3000, n_speakers=120)
    reports = _run(tmp / "out", "fl-plan", "--manifest", tmp / "m.tsv", "--clients", 10,
                   "--rounds", 150, "--batch", 4, "--device", "xavier-nx", "--seed", 3)
    return reports, dict(CORPUS_CTX, facts=facts, device="xavier-nx")


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    c = FLEET_CTX
    reports = _run(tmp_path_factory.mktemp("fleet"), "fl-plan", "--clients", c["clients"],
                   "--samples-per-client", c["samples_per_client"],
                   "--per-round", c["per_round"], "--rounds", c["rounds"],
                   "--batch", c["batch"], "--device", c["device"],
                   "--mean-duration", c["mean_duration"], "--seed", 4)
    return reports, dict(c)


def _sweep_ctx(arch, duration, batch, precision, device=None):
    return {"arch": arch, "duration": duration, "batch": batch, "precision": precision,
            "device": device, "state": {}}


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    common = ["--arch", "base", "--duration", 7.25, "--precision", "fp32"]
    return {
        "analyze3": _run(tmp / "a3", "analyze", *common, "--batch", 3),
        "analyze6": _run(tmp / "a6", "analyze", *common, "--batch", 6),
        "memory": _run(tmp / "m", "memory", *common, "--batch", 3),
        "anchor": _run(tmp / "p", "predict-time", "--arch", "base", "--duration", 5.5,
                       "--batch", 4, "--precision", "fp32", "--device", "xavier-nx"),
    }


@pytest.fixture(scope="module")
def sim(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sim")
    small = ["--clients", 20, "--per-round", 5, "--rounds", 30, "--dim", 50, "--seed", 9]
    c = CONTRACTION_CTX
    return {
        "loss": _run(tmp / "l", "fl-sim", "--agg", "loss", "--alpha", 1.0, *small),
        "loss0": _run(tmp / "l0", "fl-sim", "--agg", "loss", "--alpha", 0, *small),
        "fedavg": _run(tmp / "f", "fl-sim", "--agg", "fedavg", *small),
        "full": _run(tmp / "full", "fl-sim", "--agg", "fedavg", "--clients", 10,
                     "--dim", 50, "--rounds", c["rounds"], "--lr", c["lr"],
                     "--local-steps", c["local_steps"], "--seed", 9),
    }


# ------------------------------------------------------------- genuine reports


def test_genuine_reports_pass(corpus, fleet, sweep, sim):
    for check in checks.CORPUS_CHECKS:
        check(*corpus)
    for check in checks.FLEET_CHECKS:
        check(*fleet)
    ctx3 = _sweep_ctx("base", 7.25, 3, "fp32")
    for check in checks.SWEEP_CHECKS["analyze"]:
        check(sweep["analyze3"], ctx3)
        check(sweep["analyze6"], dict(ctx3, batch=6))
    checks.memory_peak(sweep["memory"], ctx3)
    anchor_ctx = _sweep_ctx("base", 5.5, 4, "fp32", "xavier-nx")
    for check in checks.SWEEP_CHECKS["predict-time"]:
        check(sweep["anchor"], anchor_ctx)
    checks.sweep_coverage({**ctx3["state"], **anchor_ctx["state"]})
    for check in checks.SIM_CHECKS:
        check(sim["loss"], SIM_CTX)
    checks.sim_alpha_zero(sim["loss0"], sim["fedavg"])
    checks.sim_contraction(sim["full"], CONTRACTION_CTX)


# ----------------------------------------------------------- corrupted reports


def _clients(r):
    return r["fl_partition.json"]["clients"]


def _drop_utterance(r, ctx):
    c = _clients(r)[0]
    c["utterance_ids"].pop()
    c["n_utterances"] -= 1


def _move_speaker_time(r, ctx):  # keeps the corpus total, breaks the balance bound
    shift = ctx["facts"]["max_speaker_ms"] / 1000
    _clients(r)[0]["total_duration_s"] += shift
    _clients(r)[1]["total_duration_s"] -= shift


def _inflate_params(r, ctx):
    r["fl_plan.json"]["communication_bytes"] += 8 * 1500 * 2_000_000


def _bump_total(r, ctx):
    r["fl_plan.json"]["total_seconds"] += 1.0


def _scale_epochs(r, ctx):
    epochs = r["fl_plan.json"]["seconds_per_local_epoch"]
    for key in epochs:
        epochs[key] *= 1.01
    r["fl_plan.json"]["total_seconds"] *= 1.01


def _repeat_client(r, ctx):
    sel = r["fl_schedule.json"]["rounds"][0]["selected"]
    sel[1] = sel[0]


CORPUS_CORRUPTIONS = [
    (checks.corpus_utterances, _drop_utterance),
    (checks.corpus_durations, lambda r, ctx: _clients(r)[0].update(
        total_duration_s=_clients(r)[0]["total_duration_s"] + 0.01)),
    (checks.corpus_speakers, lambda r, ctx: _clients(r)[0].update(
        n_speakers=_clients(r)[0]["n_speakers"] + 1)),
    (checks.corpus_balance, _move_speaker_time),
    (checks.corpus_communication, _inflate_params),
    (checks.plan_wall_clock, _bump_total),
]
FLEET_CORRUPTIONS = [
    (checks.fleet_holdings, lambda r, ctx: _clients(r)[0].update(
        n_utterances=_clients(r)[0]["n_utterances"] - 1)),
    (checks.fleet_selection, _repeat_client),
    (checks.fleet_total, _bump_total),
    (checks.fleet_anchor, _scale_epochs),
    (checks.plan_wall_clock, _bump_total),
]


@pytest.mark.parametrize("check,corrupt", CORPUS_CORRUPTIONS,
                         ids=[c.__name__ for c, _ in CORPUS_CORRUPTIONS])
def test_corpus_check_catches(corpus, check, corrupt):
    reports, ctx = copy.deepcopy(corpus)
    corrupt(reports, ctx)
    with pytest.raises(CheckFailed):
        check(reports, ctx)


@pytest.mark.parametrize("check,corrupt", FLEET_CORRUPTIONS,
                         ids=[c.__name__ for c, _ in FLEET_CORRUPTIONS])
def test_fleet_check_catches(fleet, check, corrupt):
    reports, ctx = copy.deepcopy(fleet)
    corrupt(reports, ctx)
    with pytest.raises(CheckFailed):
        check(reports, ctx)


def _flip_fit(r):
    p = r["predict_time.json"]
    p["fit"] = "oom" if p["fit"] != "oom" else "fits"


def test_sweep_checks_catch(sweep):
    ctx = _sweep_ctx("base", 7.25, 3, "fp32")
    r = copy.deepcopy(sweep["analyze3"])
    r["analyze.json"]["per_layer"][0]["params"] += 1
    with pytest.raises(CheckFailed):
        checks.analyze_totals(r, ctx)

    r = copy.deepcopy(sweep["analyze3"])
    r["analyze.json"]["grand_total"]["params"] = int(1.02 * 95e6)
    with pytest.raises(CheckFailed):
        checks.analyze_params(r, ctx)
    checks.analyze_params(sweep["analyze3"], ctx)  # records the count at batch 3
    r = copy.deepcopy(sweep["analyze6"])
    r["analyze.json"]["grand_total"]["params"] += 1
    with pytest.raises(CheckFailed):
        checks.analyze_params(r, dict(ctx, batch=6))

    checks.analyze_batch_scaling(sweep["analyze3"], ctx)
    r = copy.deepcopy(sweep["analyze6"])
    r["analyze.json"]["per_layer"][5]["fwd_flops"] += 2.0
    with pytest.raises(CheckFailed):
        checks.analyze_batch_scaling(r, dict(ctx, batch=6))

    r = copy.deepcopy(sweep["memory"])
    r["memory.json"]["peak_bytes"] *= 1.01
    with pytest.raises(CheckFailed):
        checks.memory_peak(r, ctx)

    anchor_ctx = _sweep_ctx("base", 5.5, 4, "fp32", "xavier-nx")
    r = copy.deepcopy(sweep["anchor"])
    r["predict_time.json"]["seconds_per_batch"] *= 1.001
    with pytest.raises(CheckFailed):
        checks.predict_anchor(r, anchor_ctx)

    r = copy.deepcopy(sweep["anchor"])
    _flip_fit(r)
    with pytest.raises(CheckFailed):
        checks.predict_fit(r, anchor_ctx)

    with pytest.raises(CheckFailed):
        checks.sweep_coverage({"scaling_checks": 1})


def _set_csv(r, row, col, factor):
    cells = r["fl_sim.csv"][row]
    cells[col] = f"{float(cells[col]) * factor:.10g}"


def test_sim_checks_catch(sim):
    r = copy.deepcopy(sim["loss"])
    _set_csv(r, 10, 4, 1.01)
    with pytest.raises(CheckFailed):
        checks.sim_decomposition(r, SIM_CTX)

    r = copy.deepcopy(sim["loss"])
    r["fl_sim.csv"][10][2] = f"{float(r['fl_sim.csv'][10][3]) * 2:.10g}"
    with pytest.raises(CheckFailed):
        checks.sim_loss_order(r, SIM_CTX)

    r = copy.deepcopy(sim["loss"])
    r["fl_sim.json"]["final_population_loss"] *= 1.001
    with pytest.raises(CheckFailed):
        checks.sim_final(r, SIM_CTX)

    r = copy.deepcopy(sim["fedavg"])
    r["fl_sim.json"]["final_weights"][0] += 1e-12
    with pytest.raises(CheckFailed):
        checks.sim_alpha_zero(sim["loss0"], r)

    r = copy.deepcopy(sim["full"])
    _set_csv(r, 6, 5, 1.0001)
    with pytest.raises(CheckFailed):
        checks.sim_contraction(r, CONTRACTION_CTX)


def test_refuses_to_run_without_the_program(tmp_path):
    """Outside a checkout the benchmark exits non-zero and prints no result."""
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns(".cache", ".out", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "fl-sim",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
