import math

import pytest

from fedspeech.arch import (Activation, ArchitectureSpec, AttentionBlockSpec,
                            ConvLayerSpec, QuantizerSpec, WorkloadSpec, base_preset,
                            get_preset, large_preset)
from fedspeech.costs import (ModuleGroup, conv_output_len, conv_params,
                             conv_stack_lens, forward_flops, linear_params,
                             module_rollup)
from fedspeech.errors import ConfigError

# The documented downsampling stack, used as an independent oracle for the
# frame arithmetic (composed by hand rather than through conv_stack_lens).
STACK = [(10, 5), (3, 2), (3, 2), (3, 2), (3, 2), (2, 2), (2, 2)]


def oracle_frames(samples):
    n = samples
    for k, s in STACK:
        n = (n - k) // s + 1
    return n


class TestConvOutputLen:
    def test_identity_kernel(self):
        assert conv_output_len(10, 1, 1) == 10

    def test_direct_arithmetic(self):
        assert conv_output_len(88_000, 10, 5) == math.floor((88_000 - 10) / 5) + 1
        assert conv_output_len(88_000, 10, 5) == 17_599

    def test_input_shorter_than_kernel(self):
        with pytest.raises(ConfigError,
                           match=r"^input of 5 frames is shorter than the kernel \(10\)$"):
            conv_output_len(5, 10, 5)


class TestFrames:
    def test_base_preset_5p5s(self):
        arch = base_preset()
        w = WorkloadSpec(5.5)
        assert w.samples == 88_000
        assert conv_stack_lens(arch, w.samples)[-1] == oracle_frames(88_000) == 274

    def test_double_duration_doubles_frames_within_one(self):
        arch = base_preset()
        f1 = conv_stack_lens(arch, WorkloadSpec(5.5).samples)[-1]
        f2 = conv_stack_lens(arch, WorkloadSpec(11.0).samples)[-1]
        assert abs(f2 - 2 * f1) <= 1

    def test_single_identity_layer(self):
        arch = ArchitectureSpec(
            name="tiny",
            conv_stack=(ConvLayerSpec(1, 1, 1, 1, activation=Activation.NONE),),
            feature_proj=(1, 2), block_count=0,
            block=AttentionBlockSpec(2, 1, 2),
            quantizer=QuantizerSpec(1, 1, 1, 1))
        w = WorkloadSpec(1.0, sample_rate_hz=100)
        assert conv_stack_lens(arch, w.samples)[-1] == 100

    def test_output_len_non_increasing_through_stack(self):
        lens = conv_stack_lens(base_preset(), 88_000)
        assert all(a >= b for a, b in zip(lens, lens[1:]))

    def test_too_short_audio_rejected(self):
        with pytest.raises(ConfigError,
                           match=r"^input of 2 frames is shorter than the kernel \(10\)$"):
            conv_stack_lens(base_preset(), WorkloadSpec(0.0001).samples)


class TestParams:
    def test_single_linear_layer(self):
        assert linear_params(2, 3, bias=True) == 9

    def test_conv_layer_formula(self):
        layer = ConvLayerSpec(4, 8, 3, 1, bias=True)
        assert conv_params(layer) == 4 * 8 * 3 + 8

    def test_base_total(self):
        total = forward_flops(base_preset(), WorkloadSpec()).total_params
        assert total == pytest.approx(94.79e6, rel=0.01)

    def test_large_total(self):
        total = forward_flops(large_preset(), WorkloadSpec()).total_params
        assert total == pytest.approx(316.00e6, rel=0.01)

    @pytest.mark.parametrize("preset,cnn,tr,quant", [
        ("base", 4.60e6, 89.78e6, 0.41e6),
        ("large", 4.73e6, 310.70e6, 0.57e6),
    ])
    def test_module_split(self, preset, cnn, tr, quant):
        report = forward_flops(get_preset(preset), WorkloadSpec())
        assert report.group_params(ModuleGroup.CNN_ENCODER) == pytest.approx(cnn, rel=0.02)
        assert report.group_params(ModuleGroup.TRANSFORMER) == pytest.approx(tr, rel=0.02)
        assert report.group_params(ModuleGroup.QUANTIZER) == pytest.approx(quant, rel=0.02)


def conv_only_arch():
    """The base front end and quantizer with no transformer block and no pos_conv."""
    base = get_preset("base")
    return ArchitectureSpec(
        name="convonly", conv_stack=base.conv_stack, feature_proj=(512, 512),
        block_count=0, block=base.block, quantizer=base.quantizer, pos_conv=None)


def tiny_conv_arch():
    """One bare conv layer (no norm, no activation) with minimal extras."""
    return ArchitectureSpec(
        name="tiny",
        conv_stack=(ConvLayerSpec(1, 2, 2, 1, activation=Activation.NONE),),
        feature_proj=(2, 4), block_count=0,
        block=AttentionBlockSpec(4, 1, 4),
        quantizer=QuantizerSpec(2, 1, 2, 2))


class TestForwardFlops:
    def test_hand_conv_example(self):
        # 2 MACs/FLOP convention: 2 * C_in * C_out * k * L_out = 16.
        w = WorkloadSpec(3.0, sample_rate_hz=1)
        report = forward_flops(tiny_conv_arch(), w)
        conv_row = report.per_layer[0]
        assert conv_row.output_len == 2
        assert conv_row.fwd_flops == 16.0

    def test_base_table_values(self):
        report = forward_flops(base_preset(), WorkloadSpec(5.5, batch=1))
        assert report.group_fwd_flops(ModuleGroup.CNN_ENCODER) == pytest.approx(
            27.20e9, rel=0.05)
        assert report.group_fwd_flops(ModuleGroup.TRANSFORMER) == pytest.approx(
            49.16e9, rel=0.05)
        assert report.total_fwd_flops == pytest.approx(76.68e9, rel=0.05)

    def test_large_table_values(self):
        report = forward_flops(large_preset(), WorkloadSpec(5.5, batch=1))
        assert report.total_fwd_flops == pytest.approx(198.32e9, rel=0.05)

    def test_quantizer_targets(self):
        base = forward_flops(base_preset(), WorkloadSpec(5.5, batch=1))
        large = forward_flops(large_preset(), WorkloadSpec(5.5, batch=1))
        assert base.group_fwd_flops(ModuleGroup.QUANTIZER) == pytest.approx(
            0.32e9, rel=0.25)
        assert large.group_fwd_flops(ModuleGroup.QUANTIZER) == pytest.approx(
            0.94e9, rel=0.25)

    def test_batch_linearity_exact(self):
        arch = base_preset()
        one = forward_flops(arch, WorkloadSpec(5.5, batch=1))
        four = forward_flops(arch, WorkloadSpec(5.5, batch=4))
        assert four.total_fwd_flops == 4 * one.total_fwd_flops
        for a, b in zip(one.per_layer, four.per_layer):
            assert b.fwd_flops == 4 * a.fwd_flops
            # activation bytes stay per sample
            assert b.activation_bytes_per_sample == a.activation_bytes_per_sample

    def test_additivity_exact(self):
        report = forward_flops(base_preset(), WorkloadSpec(5.5))
        assert report.total_fwd_flops == sum(l.fwd_flops for l in report.per_layer)
        by_group = sum(flops for _, flops in report.module_totals.values())
        assert by_group == pytest.approx(report.total_fwd_flops, rel=1e-12)
        by_group_p = sum(params for params, _ in report.module_totals.values())
        assert by_group_p == report.total_params

    def test_duration_near_linearity(self):
        arch = base_preset()
        for t in (3.0, 5.5, 8.0, 12.0, 15.0):
            f1 = forward_flops(arch, WorkloadSpec(t)).total_fwd_flops
            f2 = forward_flops(arch, WorkloadSpec(2 * t)).total_fwd_flops
            assert 1.95 <= f2 / f1 <= 2.15

    def test_quadratic_excess_from_attention(self):
        # The doubling ratio exceeds 2 and the excess grows with duration,
        # which only the attention length-squared term produces.
        arch = base_preset()
        r_short = (forward_flops(arch, WorkloadSpec(6.0)).total_fwd_flops
                   / forward_flops(arch, WorkloadSpec(3.0)).total_fwd_flops)
        r_long = (forward_flops(arch, WorkloadSpec(30.0)).total_fwd_flops
                  / forward_flops(arch, WorkloadSpec(15.0)).total_fwd_flops)
        assert r_long > r_short > 1.99

    def test_adding_block_strictly_increases(self):
        base = get_preset("base")
        bigger = ArchitectureSpec(
            name="base13", conv_stack=base.conv_stack, feature_proj=base.feature_proj,
            block_count=base.block_count + 1, block=base.block,
            quantizer=base.quantizer, pos_conv=base.pos_conv)
        w = WorkloadSpec(5.5)
        assert forward_flops(bigger, w).total_params > forward_flops(base, w).total_params
        assert (forward_flops(bigger, w).total_fwd_flops
                > forward_flops(base, w).total_fwd_flops)

    def test_early_conv_layer_dominates(self):
        report = forward_flops(base_preset(), WorkloadSpec(5.5))
        heaviest = max(report.per_layer, key=lambda l: l.fwd_flops)
        assert heaviest.kind.value == "conv"


class TestRollup:
    def test_rows_sum_to_total(self):
        report = forward_flops(base_preset(), WorkloadSpec(5.5))
        rows = module_rollup(report)
        total = rows[-1]
        assert total["module"] == "Total"
        assert sum(r["params"] for r in rows[:-1]) == total["params"]
        assert sum(r["gflops"] for r in rows[:-1]) == pytest.approx(
            total["gflops"], rel=1e-12)

    def test_empty_transformer_row_is_zero(self):
        rows = module_rollup(forward_flops(conv_only_arch(), WorkloadSpec(5.5)))
        tr = next(r for r in rows if r["module"] == "Transformer")
        assert tr["params"] == 0 and tr["gflops"] == 0.0

    def test_preset_rollup_matches_reference_shape(self):
        rows = module_rollup(forward_flops(base_preset(), WorkloadSpec(5.5)))
        labels = [r["module"] for r in rows]
        assert labels[:3] == ["CNN Encoder", "Transformer", "Quantization"]
        assert labels[-1] == "Total"


class TestValidation:
    def test_channel_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            ArchitectureSpec(
                name="bad",
                conv_stack=(ConvLayerSpec(1, 4, 2, 1), ConvLayerSpec(8, 4, 2, 1)),
                feature_proj=(4, 4), block_count=0,
                block=AttentionBlockSpec(4, 1, 4), quantizer=QuantizerSpec(4, 1, 2, 2))

    def test_heads_must_divide_dim(self):
        with pytest.raises(ConfigError):
            AttentionBlockSpec(10, 3, 16)

    def test_workload_validation(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(0.0)
        with pytest.raises(ConfigError):
            WorkloadSpec(5.5, batch=0)
