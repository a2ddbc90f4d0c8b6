from dataclasses import replace

import pytest

from fedspeech.arch import Precision, WorkloadSpec, base_preset, get_preset
from fedspeech.costs import forward_flops
from fedspeech.devices import training_residency_bytes
from fedspeech.memory import (DEFAULT_RESIDENCY_FACTOR, default_calibration,
                              fit_activation_overhead, memory_timeline, static_memory,
                              training_flops)

GB = 1e9


class TestTrainingFlops:
    def test_three_x_convention(self):
        report = forward_flops(base_preset(), WorkloadSpec(5.5))
        assert training_flops(report) == 3 * report.total_fwd_flops

    def test_reference_total(self):
        # 76.68 GF forward under the shipped convention maps to ~230 GF of
        # training compute; our model's forward total sits within 5% of it.
        report = forward_flops(base_preset(), WorkloadSpec(5.5, batch=1))
        assert training_flops(report) == pytest.approx(230.04e9, rel=0.05)

    def test_per_layer_sums_to_total(self):
        report = forward_flops(base_preset(), WorkloadSpec(5.5))
        assert sum(3 * f for f in report.fwd_flops) == training_flops(report)


class TestStaticMemory:
    def test_adam_fp32_bytes_per_param(self):
        report = forward_flops(base_preset(), WorkloadSpec())
        assert static_memory(report) == 16 * report.total_params
        # ~1.517 GB for the base encoder
        assert static_memory(report) == pytest.approx(1.517 * GB, rel=0.01)

    def test_mixed_equals_fp32_under_adam(self):
        # mixed precision changes the residency only through halved activations
        arch = base_preset()
        fp32 = WorkloadSpec(5.5, batch=4)
        mixed = WorkloadSpec(5.5, batch=4, precision=Precision.MIXED)
        activations = forward_flops(arch, fp32).total_activation_bytes_per_sample * 4
        fp32_parts = training_residency_bytes(arch, fp32)
        mixed_parts = training_residency_bytes(arch, mixed)
        assert fp32_parts[:2] == mixed_parts[:2]  # statics and the runtime floor
        assert fp32_parts.total - mixed_parts.total == pytest.approx(
            DEFAULT_RESIDENCY_FACTOR * activations / 2, rel=1e-9)


class TestTimeline:
    def test_calibration_point_reproduced(self):
        t = memory_timeline(base_preset(), WorkloadSpec(5.5, batch=4))
        assert t.peak_bytes == pytest.approx(2.54 * GB, rel=1e-9)

    def test_kappa_within_sane_range(self):
        assert 0.5 <= default_calibration().activation_overhead <= 2.5

    def test_two_point_check(self):
        # kappa fitted at (5.5 s, b4) must carry to (12 s, b8) unchanged.
        t = memory_timeline(base_preset(), WorkloadSpec(12.0, batch=8))
        assert t.peak_bytes == pytest.approx(9.89 * GB, rel=0.15)

    def test_activation_ratio_between_the_two_points(self):
        t1 = memory_timeline(base_preset(), WorkloadSpec(5.5, batch=4))
        t2 = memory_timeline(base_preset(), WorkloadSpec(12.0, batch=8))
        ratio = (t2.peak_bytes - t2.static_bytes) / (t1.peak_bytes - t1.static_bytes)
        assert ratio == pytest.approx((8 * 12) / (4 * 5.5), rel=0.02)

    def test_cumulative_monotone_and_peak_at_end(self):
        t = memory_timeline(base_preset(), WorkloadSpec(5.5, batch=4))
        assert all(a <= b for a, b in zip(t.cumulative_bytes, t.cumulative_bytes[1:]))
        assert t.cumulative_bytes[-1] == max(t.cumulative_bytes)
        assert t.cumulative_bytes[-1] == sum(t.per_layer_bytes)

    def test_batch_doubles_activations_exactly(self):
        t1 = memory_timeline(base_preset(), WorkloadSpec(5.5, batch=1))
        t2 = memory_timeline(base_preset(), WorkloadSpec(5.5, batch=2))
        assert t2.activation_bytes == 2 * t1.activation_bytes
        assert t2.static_bytes == t1.static_bytes

    def test_memory_near_linearity_in_duration(self):
        for t in (3.0, 5.5, 8.0, 12.0, 15.0):
            a1 = memory_timeline(base_preset(), WorkloadSpec(t, batch=4))
            a2 = memory_timeline(base_preset(), WorkloadSpec(2 * t, batch=4))
            assert 1.95 <= a2.activation_bytes / a1.activation_bytes <= 2.15

    @pytest.mark.parametrize("preset", ["base", "large"])
    def test_bytes_match_one_layer_at_a_time(self, preset):
        arch = get_preset(preset)
        for k in range(59):  # 1 s to 30 s
            for batch in (1, 4, 32):
                for precision in Precision:
                    workload = WorkloadSpec(1.0 + 0.5 * k, batch=batch, precision=precision)
                    per_layer, cumulative, running = [], [], 0.0
                    for b in forward_flops(arch, workload).activation_bytes_per_sample:
                        per_layer.append(b * batch)
                        running += per_layer[-1]
                        cumulative.append(running)
                    t = memory_timeline(arch, workload)
                    assert t.per_layer_bytes == tuple(per_layer)
                    assert t.cumulative_bytes == tuple(cumulative)

    def test_refit_matches_default(self):
        kappa = fit_activation_overhead(base_preset(), WorkloadSpec(5.5, batch=4),
                                        2.54 * GB)
        assert kappa == default_calibration().activation_overhead


def precision_peaks(arch, workload):
    """(fp32 peak, mixed peak) at ``workload``'s duration and batch."""
    return tuple(memory_timeline(arch, replace(workload, precision=p)).peak_bytes
                 for p in (Precision.FP32, Precision.MIXED))


class TestPrecisionDelta:
    def test_mixed_strictly_smaller_but_under_35_percent(self):
        fp32_peak, mixed_peak = precision_peaks(
            base_preset(), WorkloadSpec(5.5, batch=4))
        assert mixed_peak < fp32_peak
        saving = (fp32_peak - mixed_peak) / fp32_peak
        assert 0.0 < saving < 0.35

    def test_saving_grows_with_sequence_length(self):
        def saving(seconds):
            fp32_peak, mixed_peak = precision_peaks(
                base_preset(), WorkloadSpec(seconds, batch=4))
            return (fp32_peak - mixed_peak) / fp32_peak

        assert saving(20.0) > saving(5.0)

    def test_mixed_halves_activation_portion_exactly(self):
        t32 = memory_timeline(base_preset(), WorkloadSpec(5.5, batch=4,
                                                          precision=Precision.FP32))
        t16 = memory_timeline(base_preset(), WorkloadSpec(5.5, batch=4,
                                                          precision=Precision.MIXED))
        assert t16.activation_bytes == t32.activation_bytes / 2
        assert t16.static_bytes == t32.static_bytes

