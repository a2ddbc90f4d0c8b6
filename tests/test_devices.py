import pytest

from fedspeech.arch import Precision, WorkloadSpec, base_preset, get_preset, large_preset
from fedspeech.costs import forward_flops
from fedspeech.devices import (Anchor, DeviceProfile, FitVerdict, builtin_profiles,
                               check_fit, get_profile, predict_batch_time,
                               training_residency_bytes)
from fedspeech.errors import ConfigError, MissingAnchorError
from fedspeech.memory import training_flops

GB = 1e9


def throughput(profile, arch, workload):
    return predict_batch_time(profile, arch, workload).effective_throughput


def anchor_seconds(profile, arch_name, batch, precision):
    return next(a.seconds_per_batch for a in profile.anchors
                if a.arch == arch_name and a.batch == batch
                and a.precision is precision)


class TestBuiltinProfiles:
    def test_expected_devices_present(self):
        names = {p.name for p in builtin_profiles()}
        assert {"a40", "macbook-pro-2019", "rpi4", "xavier-agx", "xavier-nx"} <= names

    def test_table_read_once_per_process(self):
        assert builtin_profiles() is builtin_profiles()

    def test_a40_base_b4_anchor(self):
        a40 = get_profile("a40")
        assert anchor_seconds(a40, "base", 4, Precision.FP32) == 0.27

    def test_nx_mixed_anchor(self):
        nx = get_profile("nx")
        assert anchor_seconds(nx, "base", 4, Precision.MIXED) == 1.14

    def test_rpi_has_no_large_anchors(self):
        rpi = get_profile("rpi")
        assert not [a for a in rpi.anchors if a.arch == "large"]
        assert not rpi.supports_mixed

    def test_aliases(self):
        assert get_profile("NX").name == "xavier-nx"
        assert get_profile("macbook").name == "macbook-pro-2019"
        with pytest.raises(ConfigError):
            get_profile("tpu-v9")

    def test_memory_budgets(self):
        assert get_profile("a40").memory_budget_bytes == 48 * GB
        assert get_profile("rpi").memory_budget_bytes == pytest.approx(6.5 * GB)


class TestCalibration:
    def test_a40_base_b1_throughput(self):
        # 3x the ~76.7 GF forward pass in 0.12 s is just under 2 TFLOP/s.
        assert throughput(get_profile("a40"), base_preset(),
                          WorkloadSpec(5.5, batch=1)) == pytest.approx(1.917e12, rel=0.05)

    def test_throughput_inverse_in_anchor_time(self):
        arch = base_preset()
        w = WorkloadSpec(5.5, batch=1)
        slow = DeviceProfile(
            name="slow", memory_gb=8, os_reserve_gb=0,
            supports_mixed=False,
            anchors=(Anchor("base", 1, Precision.FP32, 0.24),))
        assert throughput(slow, arch, w) == pytest.approx(
            throughput(get_profile("a40"), arch, w) / 2, rel=1e-12)

    def test_missing_anchor(self):
        with pytest.raises(MissingAnchorError):
            predict_batch_time(get_profile("rpi"), large_preset(),
                               WorkloadSpec(5.5, batch=1))


class TestPrediction:
    def test_round_trip_returns_anchor_time_exactly(self):
        for device in ("a40", "macbook", "rpi", "agx", "nx"):
            profile = get_profile(device)
            for anchor in profile.anchors:
                pred = predict_batch_time(profile, get_preset(anchor.arch),
                                          anchor.workload)
                assert pred.seconds_per_batch == pytest.approx(
                    anchor.seconds_per_batch, rel=1e-12)

    def test_unsupported_precision(self):
        with pytest.raises(MissingAnchorError,
                           match="^macbook-pro-2019 has no mixed-precision support$"):
            predict_batch_time(get_profile("macbook"), base_preset(),
                               WorkloadSpec(5.5, batch=1, precision=Precision.MIXED))

    def test_prediction_scales_with_duration(self):
        profile = get_profile("a40")
        arch = base_preset()
        t1 = predict_batch_time(profile, arch, WorkloadSpec(5.5, batch=4))
        t2 = predict_batch_time(profile, arch, WorkloadSpec(11.0, batch=4))
        assert 1.95 <= t2.seconds_per_batch / t1.seconds_per_batch <= 2.15

    def test_nearest_batch_anchor_selected(self):
        profile = get_profile("a40")
        pred = predict_batch_time(profile, base_preset(), WorkloadSpec(5.5, batch=8))
        assert pred.anchor_used.batch == 4

    @pytest.mark.parametrize("num,den,target,tol", [
        (("macbook", "base", 1), ("a40", "base", 1), 30.3, 0.10),
        (("macbook", "large", 1), ("a40", "large", 1), 39.5, 0.10),
        (("rpi", "base", 1), ("macbook", "base", 1), 4.4, 0.05),
        (("rpi", "base", 1), ("a40", "base", 1), 138.0, 0.05),
    ])
    def test_cross_device_ratios(self, num, den, target, tol):
        def seconds(device, arch_name, batch):
            return predict_batch_time(
                get_profile(device), get_preset(arch_name),
                WorkloadSpec(5.5, batch=batch)).seconds_per_batch

        assert seconds(*num) / seconds(*den) == pytest.approx(target, rel=tol)

    @pytest.mark.parametrize("device,target", [("nx", 1.56), ("agx", 1.31)])
    def test_mixed_precision_speedups(self, device, target):
        profile = get_profile(device)
        arch = base_preset()
        fp32 = predict_batch_time(profile, arch, WorkloadSpec(5.5, batch=4))
        mixed = predict_batch_time(profile, arch,
                                   WorkloadSpec(5.5, batch=4, precision=Precision.MIXED))
        assert fp32.seconds_per_batch / mixed.seconds_per_batch == pytest.approx(
            target, rel=0.03)

    @pytest.mark.parametrize("device,reduction_pp", [
        ("macbook", 15.0), ("rpi", 20.0), ("agx", 29.0), ("nx", 33.0)])
    def test_per_sequence_batch4_reduction(self, device, reduction_pp):
        profile = get_profile(device)
        arch = base_preset()
        b1 = predict_batch_time(profile, arch, WorkloadSpec(5.5, batch=1))
        b4 = predict_batch_time(profile, arch, WorkloadSpec(5.5, batch=4))
        reduction = (1 - (b4.seconds_per_batch / 4) / b1.seconds_per_batch) * 100
        assert reduction == pytest.approx(reduction_pp, abs=2.0)


class TestFit:
    def test_zero_peak_fits(self):
        assert check_fit(get_profile("a40"), 0.0) is FitVerdict.FITS

    def test_above_budget_is_oom(self):
        rpi = get_profile("rpi")
        assert check_fit(rpi, 2 * rpi.memory_budget_bytes) is FitVerdict.OOM

    def test_marginal_band(self):
        rpi = get_profile("rpi")
        assert check_fit(rpi, rpi.memory_budget_bytes * 1.05) is FitVerdict.MARGINAL
        assert check_fit(rpi, rpi.memory_budget_bytes * 0.95) is FitVerdict.MARGINAL

    def test_rpi_large_is_oom(self):
        peak = training_residency_bytes(large_preset(), WorkloadSpec(5.5, batch=1))
        assert check_fit(get_profile("rpi"), peak) is FitVerdict.OOM

    def test_agx_large_b4_fp32_oom_but_mixed_fits(self):
        agx = get_profile("agx")
        fp32 = training_residency_bytes(large_preset(), WorkloadSpec(5.5, batch=4))
        mixed = training_residency_bytes(
            large_preset(), WorkloadSpec(5.5, batch=4, precision=Precision.MIXED))
        assert check_fit(agx, fp32) in (FitVerdict.OOM, FitVerdict.MARGINAL)
        assert check_fit(agx, mixed) is FitVerdict.FITS

    def test_base_fits_every_device(self):
        peak = training_residency_bytes(base_preset(), WorkloadSpec(5.5, batch=1))
        for device in ("a40", "macbook", "rpi", "agx", "nx"):
            assert check_fit(get_profile(device), peak) is FitVerdict.FITS


class TestTrainingFlopsConsistency:
    def test_calibration_uses_training_flops(self):
        arch = base_preset()
        w = WorkloadSpec(5.5, batch=1)
        expected = training_flops(forward_flops(arch, w)) / 0.12
        assert throughput(get_profile("a40"), arch, w) == pytest.approx(
            expected, rel=1e-12)
