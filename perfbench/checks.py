"""Output checks for the benchmark workloads.

Every check compares a report the program wrote against a fact established
apart from the program: the benchmark's own manifest facts, the published
wav2vec 2.0 model sizes and device measurements below, or a property the
method must have (greedy packing's balance bound, the quadratic's loss
decomposition, FedAvg's contraction). None compares against a saved copy of
today's reports.

A check takes ``(reports, ctx)``: the parsed report files of one op and the
op's inputs. It raises :class:`CheckFailed` with a one-line reason.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

UNIT_ROUNDOFF = 2.0 ** -53
REPORT_ROUNDING = 5e-7  # fl-plan reports round seconds to 6 decimals
CSV_REL = 5e-10  # fl-sim CSV keeps 10 significant digits

GB = 1e9
MARGINAL_BAND = 0.10  # documented fit band: within 10 % of budget is marginal
PUBLISHED_PARAMS = {"base": 95e6, "large": 317e6}  # wav2vec 2.0 model sizes

# Published device measurements: memory (GB), OS reserve (GB) and measured
# seconds per training batch at 5.5 s clips, keyed (arch, batch, precision).
DEVICES = {
    "a40": (48, 0.0, {("base", 1, "fp32"): 0.12, ("base", 1, "mixed"): 0.11,
                      ("base", 4, "fp32"): 0.27, ("base", 4, "mixed"): 0.21,
                      ("large", 1, "fp32"): 0.23, ("large", 1, "mixed"): 0.21,
                      ("large", 4, "fp32"): 0.43, ("large", 4, "mixed"): 0.42}),
    "macbook-pro-2019": (16, 1.5, {("base", 1, "fp32"): 3.76, ("base", 4, "fp32"): 12.83,
                                   ("large", 1, "fp32"): 9.05,
                                   ("large", 4, "fp32"): 33.66}),
    "rpi4": (8, 1.5, {("base", 1, "fp32"): 16.60, ("base", 4, "fp32"): 53.26}),
    "xavier-agx": (16, 1.5, {("base", 1, "fp32"): 0.38, ("base", 1, "mixed"): 0.43,
                             ("base", 4, "fp32"): 1.08, ("base", 4, "mixed"): 0.82,
                             ("large", 1, "fp32"): 0.88, ("large", 1, "mixed"): 0.87,
                             ("large", 4, "mixed"): 1.72}),
    "xavier-agx-32gb": (32, 1.5, {("base", 1, "fp32"): 0.38, ("base", 1, "mixed"): 0.43,
                                  ("base", 4, "fp32"): 1.08, ("base", 4, "mixed"): 0.82,
                                  ("large", 1, "fp32"): 0.88, ("large", 1, "mixed"): 0.87,
                                  ("large", 4, "mixed"): 1.72}),
    "xavier-nx": (8, 1.5, {("base", 1, "fp32"): 0.67, ("base", 1, "mixed"): 0.61,
                           ("base", 4, "fp32"): 1.78, ("base", 4, "mixed"): 1.14}),
}
ANCHOR_DURATION_S = 5.5


class CheckFailed(Exception):
    """An output contradicts a fact the benchmark knows independently."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def anchor_time(device: str, arch: str, batch: int, precision: str):
    return DEVICES[device][2].get((arch, batch, precision))


def read_reports(out: Path) -> dict:
    """Parse every report file an op wrote, keyed by file name."""
    reports = {}
    for path in sorted(Path(out).iterdir()):
        if path.suffix == ".json":
            reports[path.name] = json.loads(path.read_text())
        elif path.suffix == ".csv":
            text = path.read_text()
            reports[path.name] = list(csv.reader(text.splitlines()))
            reports[path.name + ".text"] = text
    return reports


# ------------------------------------------------------------------ fl-plan


def _clients(r):
    return r["fl_partition.json"]["clients"]


def plan_wall_clock(r, ctx):
    """total_seconds is the sum over rounds of the slowest selected epoch."""
    ids = [c["client_id"] for c in _clients(r)]
    epoch = r["fl_plan.json"]["seconds_per_local_epoch"]
    rounds = r["fl_schedule.json"]["rounds"]
    expected = sum(max(epoch[ids[i]] for i in rd["selected"]) for rd in rounds)
    tol = (len(rounds) + 1) * REPORT_ROUNDING + len(rounds) * UNIT_ROUNDOFF * expected
    got = r["fl_plan.json"]["total_seconds"]
    require(abs(got - expected) <= tol,
            f"total_seconds {got} != sum of slowest epochs {expected}")


def corpus_utterances(r, ctx):
    clients = _clients(r)
    require(len(clients) == ctx["clients"], f"{len(clients)} clients, asked {ctx['clients']}")
    for c in clients:
        require(len(c["utterance_ids"]) == c["n_utterances"],
                f"{c['client_id']}: {len(c['utterance_ids'])} ids for "
                f"{c['n_utterances']} utterances")
    n = sum(c["n_utterances"] for c in clients)
    require(n == ctx["facts"]["rows"],
            f"client utterance counts sum to {n}, manifest has {ctx['facts']['rows']}")


def corpus_durations(r, ctx):
    facts = ctx["facts"]
    total = facts["total_ms"] / 1000
    got = sum(c["total_duration_s"] for c in _clients(r))
    tol = len(_clients(r)) * REPORT_ROUNDING + facts["rows"] * UNIT_ROUNDOFF * total
    require(abs(got - total) <= tol,
            f"client durations sum to {got} s, manifest holds {total} s")


def corpus_speakers(r, ctx):
    n = sum(c["n_speakers"] for c in _clients(r))
    require(n == ctx["facts"]["speakers"],
            f"client speakers sum to {n}, manifest has {ctx['facts']['speakers']} "
            "distinct speakers")


def corpus_balance(r, ctx):
    """Greedy packing onto the lightest client bounds max - min by one speaker."""
    totals = [c["total_duration_s"] for c in _clients(r)]
    facts = ctx["facts"]
    bound = facts["max_speaker_ms"] / 1000
    tol = 2 * REPORT_ROUNDING + facts["rows"] * UNIT_ROUNDOFF * facts["total_ms"] / 1000
    require(max(totals) - min(totals) <= bound + tol,
            f"client totals spread {max(totals) - min(totals)} s exceeds the largest "
            f"speaker's {bound} s")


def corpus_communication(r, ctx):
    selections = sum(len(rd["selected"]) for rd in r["fl_schedule.json"]["rounds"])
    require(selections == ctx["clients"] * ctx["rounds"],
            f"{selections} selections, expected every client in every round")
    comm = r["fl_plan.json"]["communication_bytes"]
    params = comm / (2 * 4 * selections)
    require(params == int(params), f"communication {comm} B is not 8 B x params x "
            f"{selections}")
    require(abs(params / PUBLISHED_PARAMS["base"] - 1) <= 0.01,
            f"implied parameter count {params:.0f} is not within 1% of 95M")


def fleet_holdings(r, ctx):
    clients = _clients(r)
    require(len(clients) == ctx["clients"], f"{len(clients)} clients, asked {ctx['clients']}")
    want = round(ctx["samples_per_client"] * ctx["mean_duration"], 6)
    for c in clients:
        require(c["n_utterances"] == ctx["samples_per_client"] and c["n_speakers"] == 1,
                f"{c['client_id']} holds {c['n_utterances']} clips of "
                f"{c['n_speakers']} speakers")
        require(abs(c["total_duration_s"] - want) <= 2 * REPORT_ROUNDING,
                f"{c['client_id']} holds {c['total_duration_s']} s, expected {want} s")


def fleet_selection(r, ctx):
    rounds = r["fl_schedule.json"]["rounds"]
    require(len(rounds) == ctx["rounds"], f"{len(rounds)} rounds, asked {ctx['rounds']}")
    for rd in rounds:
        sel = rd["selected"]
        require(len(sel) == ctx["per_round"] == len(set(sel))
                and all(0 <= i < ctx["clients"] for i in sel),
                f"round {rd['round_id']} selects {sel}")


def _per_batch(r, ctx):
    epochs = list(r["fl_plan.json"]["seconds_per_local_epoch"].values())
    n_batches = math.ceil(ctx["samples_per_client"] / ctx["batch"])
    require(max(epochs) - min(epochs) <= 2 * REPORT_ROUNDING,
            "identical clients report different epoch times")
    return epochs[0], n_batches


def fleet_total(r, ctx):
    epoch, n_batches = _per_batch(r, ctx)
    expected = ctx["rounds"] * n_batches * (epoch / n_batches)
    tol = (ctx["rounds"] + 1) * REPORT_ROUNDING + 4 * UNIT_ROUNDOFF * expected
    got = r["fl_plan.json"]["total_seconds"]
    require(abs(got - expected) <= tol,
            f"total_seconds {got} != rounds x batches x per-batch time {expected}")


def fleet_anchor(r, ctx):
    if ctx["mean_duration"] != ANCHOR_DURATION_S:
        return
    epoch, n_batches = _per_batch(r, ctx)
    anchor = anchor_time(ctx["device"], "base", ctx["batch"], "fp32")
    expected = n_batches * anchor
    require(abs(epoch - expected) <= REPORT_ROUNDING + 4 * UNIT_ROUNDOFF * expected,
            f"per-batch time {epoch / n_batches} s at 5.5 s != measured anchor {anchor} s")


CORPUS_CHECKS = (corpus_utterances, corpus_durations, corpus_speakers, corpus_balance,
                 corpus_communication, plan_wall_clock)
FLEET_CHECKS = (fleet_holdings, fleet_selection, fleet_total, fleet_anchor,
                plan_wall_clock)


# ------------------------------------------------------------ planner sweep


def analyze_totals(r, ctx):
    a = r["analyze.json"]
    grand = a["grand_total"]
    params = sum(l["params"] for l in a["per_layer"])
    flops = sum(l["fwd_flops"] for l in a["per_layer"])
    require(params == grand["params"] and flops == grand["fwd_flops"],
            f"per-layer rows sum to {params} params / {flops} FLOPs, grand total "
            f"{grand['params']} / {grand['fwd_flops']}")
    mod_params = sum(m["params"] for m in a["module_totals"].values())
    mod_flops = sum(m["fwd_flops"] for m in a["module_totals"].values())
    require(mod_params == grand["params"] and mod_flops == flops,
            "module totals do not sum to the grand total")


def analyze_params(r, ctx):
    """Parameter count: the published size, whatever the duration or batch."""
    params = r["analyze.json"]["grand_total"]["params"]
    published = PUBLISHED_PARAMS[ctx["arch"]]
    require(abs(params / published - 1) <= 0.01,
            f"{ctx['arch']}: {params} params, published {published:.0f}")
    first = ctx["state"].setdefault(("params", ctx["arch"]), params)
    require(params == first, f"{ctx['arch']}: {params} params at "
            f"{ctx['duration']} s batch {ctx['batch']}, {first} elsewhere")


def analyze_batch_scaling(r, ctx):
    """Per-layer forward FLOPs scale exactly with batch (they are integers)."""
    flops = [l["fwd_flops"] for l in r["analyze.json"]["per_layer"]]
    key = ("flops", ctx["arch"], ctx["duration"])
    batch0, flops0 = ctx["state"].setdefault(key, (ctx["batch"], flops))
    if batch0 == ctx["batch"]:
        return
    require(len(flops) == len(flops0)
            and all(f * batch0 == f0 * ctx["batch"] for f, f0 in zip(flops, flops0)),
            f"{ctx['arch']} {ctx['duration']} s: FLOPs at batch {ctx['batch']} are not "
            f"{ctx['batch']}/{batch0} x those at batch {batch0}")
    ctx["state"]["scaling_checks"] = ctx["state"].get("scaling_checks", 0) + 1


def memory_peak(r, ctx):
    m = r["memory.json"]
    running, rel = 0.0, 1e-12
    for row in m["per_layer"]:
        running += row["bytes"]
        require(abs(row["cumulative_bytes"] - running) <= rel * running,
                f"cumulative bytes at layer {row['layer_id']} are not the running sum")
    require(abs(m["activation_bytes"] - running) <= rel * running,
            "activation bytes are not the last cumulative value")
    peak = m["static_bytes"] + m["activation_overhead"] * m["activation_bytes"]
    require(abs(m["peak_bytes"] - peak) <= rel * peak,
            f"peak {m['peak_bytes']} != static + overhead x activations {peak}")


def predict_anchor(r, ctx):
    if ctx["duration"] != ANCHOR_DURATION_S:
        return
    anchor = anchor_time(ctx["device"], ctx["arch"], ctx["batch"], ctx["precision"])
    if anchor is None:
        return
    got = r["predict_time.json"]["seconds_per_batch"]
    require(abs(got - anchor) <= 4 * UNIT_ROUNDOFF * anchor,
            f"{ctx['device']} {ctx['arch']} b{ctx['batch']} {ctx['precision']}: "
            f"{got} s at the anchor's own workload, measured {anchor} s")
    ctx["state"]["anchor_checks"] = ctx["state"].get("anchor_checks", 0) + 1


def predict_fit(r, ctx):
    p = r["predict_time.json"]
    memory_gb, reserve_gb, _ = DEVICES[ctx["device"]]
    budget = (memory_gb - reserve_gb) * GB
    residency = p["residency_bytes"]
    if abs(residency - budget) <= MARGINAL_BAND * budget:
        want = "marginal"
    else:
        want = "fits" if residency <= budget else "oom"
    require(p["fit"] == want, f"{ctx['device']}: {residency / GB:.2f} GB against "
            f"{budget / GB:.2f} GB is {want}, reported {p['fit']}")


SWEEP_CHECKS = {"analyze": (analyze_totals, analyze_params, analyze_batch_scaling),
                "memory": (memory_peak,),
                "predict-time": (predict_anchor, predict_fit)}


def sweep_coverage(state):
    """Run-level: the anchor and batch-scaling checks did run."""
    require(state.get("anchor_checks", 0) > 0, "no predict-time query hit an anchor")
    require(state.get("scaling_checks", 0) > 0, "no analyze pair compared two batches")


# ------------------------------------------------------------------- fl-sim


def _trajectory(r):
    return [[float(x) for x in row] for row in r["fl_sim.csv"][1:]]


def sim_decomposition(r, ctx):
    """Quadratic clients: population loss = const + 1/2 distance^2."""
    rows = _trajectory(r)
    _, _, _, _, pop0, d0 = rows[0]
    for rnd, _, _, _, pop, d in rows:
        tol = 2 * CSV_REL * (pop + d * d + pop0 + d0 * d0)
        require(abs((pop - 0.5 * d * d) - (pop0 - 0.5 * d0 * d0)) <= tol,
                f"round {rnd:.0f}: population loss - distance^2/2 moved")


def sim_loss_order(r, ctx):
    for rnd, mean, lo, hi, _, _ in _trajectory(r):
        require(lo <= mean <= hi, f"round {rnd:.0f}: client losses {lo} <= {mean} <= {hi} "
                "does not hold")


def sim_final(r, ctx):
    last = r["fl_sim.csv"][-1]
    j = r["fl_sim.json"]
    require(j["n_rounds"] == len(r["fl_sim.csv"]) - 1 == ctx["rounds"],
            f"{j['n_rounds']} rounds in the JSON, {len(r['fl_sim.csv']) - 1} in the CSV")
    require(f"{j['final_population_loss']:.10g}" == last[4]
            and f"{j['final_distance_to_optimum']:.10g}" == last[5],
            "final figures in fl_sim.json differ from the CSV's last row")


def sim_alpha_zero(loss0, fedavg):
    """Once per run: loss weighting at alpha 0 is FedAvg, bit for bit."""
    require(loss0["fl_sim.json"]["final_weights"] == fedavg["fl_sim.json"]["final_weights"]
            and loss0["fl_sim.csv.text"] == fedavg["fl_sim.csv.text"],
            "--alpha 0 does not reproduce --agg fedavg")


def sim_contraction(r, ctx):
    """Once per run: full-participation FedAvg shrinks the distance to the
    optimum by (1 - lr)^local_steps per round."""
    q = (1 - ctx["lr"]) ** ctx["local_steps"]
    dist = [row[5] for row in _trajectory(r)]
    require(len(dist) == ctx["rounds"], f"{len(dist)} rounds, asked {ctx['rounds']}")
    for i in range(1, len(dist)):
        require(abs(dist[i] / dist[i - 1] - q) <= 4 * CSV_REL * q,
                f"round {i}: distance ratio {dist[i] / dist[i - 1]}, expected {q}")


SIM_CHECKS = (sim_decomposition, sim_loss_order, sim_final)
