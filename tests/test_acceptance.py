"""Acceptance suite: one test per ``checks.CHECK_GROUPS`` entry, each printing
a PASS line.

The reference figures live only in ``fedspeech.checks``; each test runs one
group of those checks, the same ones ``fedspeech validate`` prints. Run with
``pytest tests/test_acceptance.py -v -s``.
"""

import hashlib
import io
import json
import math
import time
from contextlib import redirect_stdout

import pytest

from fedspeech import checks
from fedspeech.checks import CHECK_GROUPS
from fedspeech.cli import main

GROUPS = dict(CHECK_GROUPS)
COVERED = set()  # groups with a test below, filled at import


def group_test(name, max_seconds=None, details=None):
    """A test that runs one check group and fails with each failed detail;
    with ``details``, each check's (name, detail) must be as given there."""
    COVERED.add(name)

    def test():
        start = time.perf_counter()
        results = GROUPS[name]()
        elapsed = time.perf_counter() - start
        failed = [f"{r.name}: {r.detail}" for r in results if not r.passed]
        assert results and not failed, "\n".join(failed)
        if details is not None:
            assert [(r.name, r.detail) for r in results] == details
        if max_seconds is not None:
            assert elapsed < max_seconds
        print(f"\nPASS {name}: {len(results)} checks ({elapsed * 1e3:.0f} ms)")
    return test


# The details of the groups that read a partition or a wall-clock estimate,
# as recorded at commit b61fb37.
WALL_CLOCK_DETAILS = [
    ("wallclock/a40-epoch-hours", "0.3656 h vs 0.37 h (-1.18%, tol 2%)"),
    ("wallclock/a40-total-hours", "54.84 h vs 55.5 h (-1.18%, tol 2%)"),
    ("wallclock/macbook-days", "108.6 d vs 110 d (-1.28%, tol 5%)"),
    ("wallclock/rpi-days", "450.8 d vs 456 d (-1.15%, tol 5%)"),
    ("wallclock/agx-days", "9.141 d vs 9 d (+1.56%, tol 5%)"),
    ("wallclock/nx-days", "15.07 d vs 15 d (+0.43%, tol 5%)"),
]
PARTITIONER_DETAILS = [
    ("partition/fixture-hours", "297.9 h vs 298 h (-0.03%, tol 1%)"),
    ("partition/client-counts", "counts 19398..19599 vs 19500 +-5%"),
    ("partition/duration-balance", "max/min client duration 1.0001 (limit 1.1)"),
    ("partition/speaker-disjoint", "speaker sets disjoint and every utterance assigned"),
    ("partition/deterministic", "repeated seeded runs are identical"),
]
# The details of the synthetic federated runs, as recorded at commit 65241fc,
# where each round was held as a record.
SYNTHETIC_FL_DETAILS = [
    ("flsim/fedavg-fixed-point", "final distance to weighted mean 3.10e-17"),
    ("flsim/outlier-downweighting",
     "loss-weighted 0.182 vs fedavg 1.593 from the inlier consensus"),
    ("flsim/partial-participation-slower", "rounds to loss 3.95: 10/10 -> 31, 20/100 -> 37"),
]

# The details of the aggregation rules, as recorded at commit 496d383, where
# fedavg and loss_weighted were reducers of their own.
AGGREGATION_DETAILS = [
    ("agg/fedavg-hand", "got [3.0, 0.5]"),
    ("agg/loss-weighted-hand", "got [0.6666666666666666, 0.3333333333333333]"),
    ("agg/alpha0-reduction", "alpha=0 identical to fedavg on 1000 random inputs"),
    ("agg/convex-hull", "coordinate bounds hold on 10000 random inputs"),
    ("agg/permutation-invariance", "order never changes the result (10000 trials)"),
    ("agg/weight-scale-invariance", "scaling all n_k by 10 is a no-op (10000 trials)"),
]

test_criterion_1_parameter_totals = group_test("parameter totals", max_seconds=1.0)
test_criterion_2_inference_flops = group_test("inference flops")
test_criterion_3_memory_two_point = group_test("memory model")
test_criterion_4_scaling_and_precision = group_test("scaling behaviour")
test_criterion_5_device_time_ratios = group_test("device time ratios")
test_criterion_5_device_memory_fit = group_test("device memory fit")
test_criterion_6_federated_wall_clock = group_test("federated wall clock",
                                                   max_seconds=1.0,
                                                   details=WALL_CLOCK_DETAILS)
test_criterion_7_trend_parity = group_test("hardware trend")
test_criterion_8_aggregation_oracles = group_test("aggregation rules",
                                                 details=AGGREGATION_DETAILS)
test_criterion_9_synthetic_fl = group_test("synthetic federated run", max_seconds=30.0,
                                           details=SYNTHETIC_FL_DETAILS)
test_criterion_10_partitioner = group_test("speaker partitioner",
                                            details=PARTITIONER_DETAILS)


def test_fixture_hours_are_added_in_row_order(monkeypatch):
    # math.fsum stands in for the compensated sum of Python 3.12 and later,
    # which read 297.91666666666674
    monkeypatch.setattr(checks, "sum", math.fsum, raising=False)
    hours = checks.partitioner_checks()[0]
    assert (hours.name, hours.value) == ("partition/fixture-hours", 297.91666666666816)


def test_client_count_bounds_follow_the_fixture_size(monkeypatch):
    # a fixture of 20,000 rows over the 10 clients: 2,000 clips each, +-5 %
    fixture = checks.synthetic_manifest
    monkeypatch.setattr(checks, "synthetic_manifest",
                        lambda: fixture(n_utterances=20_000, n_speakers=600))
    counts = checks.partitioner_checks()[1]
    assert counts.name == "partition/client-counts" and counts.passed
    assert counts.bounds == (1_900, 2_100) and counts.detail.endswith(" vs 2000 +-5%")


def test_every_check_group_has_a_test():
    assert COVERED == set(GROUPS) and len(GROUPS) == len(CHECK_GROUPS)


# The SHA-256 of everything ``fedspeech validate`` prints, 86 of 86 checks
# passing, as recorded at commit 3c7d2f8.
VALIDATE_STDOUT_SHA256 = "08bdd4e79edf3ae60607215aa5106f6ecfe18508a62154f200148e72839b4497"


@pytest.fixture(scope="module")
def validate_stdout():
    """What ``fedspeech validate`` prints, run once for the tests below."""
    with redirect_stdout(io.StringIO()) as out:
        assert main(["validate"]) == 0
    return out.getvalue()


def test_validate_prints_the_recorded_report(validate_stdout):
    assert validate_stdout.endswith("\n86/86 checks passed\n")
    assert hashlib.sha256(validate_stdout.encode()).hexdigest() == VALIDATE_STDOUT_SHA256


def test_validate_json_agrees_with_the_text_table(validate_stdout, capsys):
    assert main(["validate", "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)
    width = max(len(c["name"]) for c in checks)
    assert [f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']:<{width}}  {c['detail']}"
            for c in checks] == validate_stdout.splitlines()[:-1]
    numeric = 0
    for c in checks:
        assert list(c) == ["name", "passed", "value", "bounds", "margin", "detail"]
        if c["value"] is None:  # a check of a property
            assert c["bounds"] is None and c["margin"] is None
            continue
        numeric += 1
        # a bound of 0 has no relative distance
        assert c["margin"] == min(abs(c["value"] / b - 1.0) for b in c["bounds"] if b)
        name, value, detail = c["name"], c["value"], c["detail"]
        if name.startswith("fit/"):  # residency against the budget, in bytes
            (budget,) = c["bounds"]
            assert detail.startswith(f"{value / 1e9:.2f} GB vs {budget / 1e9:.1f} GB budget")
        elif name.endswith("-batch4-reduction"):  # percentage points, target +- 2
            lo, hi = c["bounds"]
            assert detail.startswith(f"{value:.1f} pp vs {(lo + hi) / 2:.0f} pp") and \
                hi - lo == 4.0
        elif name == "scaling/mixed-saving":  # a share of the fp32 peak
            assert detail.startswith(f"mixed precision saves {value:.1%}") and \
                c["bounds"] == [0.0, 0.35]
        elif name == "partition/duration-balance":  # max/min under one bound
            assert detail.startswith(f"max/min client duration {value:.4f}") and \
                c["bounds"] == [1.1]
        elif name == "partition/client-counts":  # the count farthest from 19500
            counts = [int(n) for n in detail.split()[1].split("..")]
            assert value == max(counts, key=lambda n: abs(n - 19_500)) and \
                c["bounds"] == [18_525, 20_475]
        elif name == "agg/fedavg-hand":  # the largest error of a hand example
            assert value == max(abs(got - want) for got, want in
                                zip(json.loads(detail[len("got "):]), [3.0, 0.5]))
            assert c["bounds"] == [1e-12]
        elif name == "agg/loss-weighted-hand":
            assert value == max(abs(got - want) for got, want in
                                zip(json.loads(detail[len("got "):]), [2 / 3, 1 / 3]))
            assert c["bounds"] == [1e-12]
        elif name == "agg/weight-scale-invariance":  # the largest change over the trials
            assert detail.endswith("(10000 trials)") and c["bounds"] == [1e-12] and \
                0.0 <= value <= 1e-12
        elif name == "flsim/fedavg-fixed-point":  # the distance to the weighted mean
            assert detail == f"final distance to weighted mean {value:.2e}" and \
                c["bounds"] == [1e-6]
        elif name == "flsim/outlier-downweighting":  # loss-weighted against fedavg
            (fedavg,) = c["bounds"]
            assert detail.startswith(f"loss-weighted {value:.3f} vs fedavg {fedavg:.3f}")
        elif name == "flsim/partial-participation-slower":  # 20/100 against 10/10 rounds
            (full,) = c["bounds"]
            assert detail.endswith(f": 10/10 -> {full}, 20/100 -> {value}")
        else:  # a value and a range
            lo, hi = c["bounds"]
            assert detail.startswith(f"{value:.4g}") and lo < hi
    assert numeric == 81 and sum(c["name"].startswith("fit/") for c in checks) == 32
    margins = {c["name"]: round(100 * c["margin"], 2) for c in checks if c["value"] is not None}
    assert [margins[f"devices/{device}-batch4-reduction"]
            for device in ("macbook", "rpi", "agx", "nx")] == [13.03, 9.94, 6.62, 4.05]
    assert [margins["scaling/mixed-saving"], margins["partition/client-counts"],
            margins["partition/duration-balance"]] == [0.98, 4.71, 9.09]
    # the marginal fit cells, each as far from its budget as recorded at ced8973
    assert sorted(round(100 * c["margin"], 2) for c in checks
                  if "-> marginal" in c["detail"]) == [0.81, 2.31, 2.31, 2.46, 2.46]
