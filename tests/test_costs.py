import math
from dataclasses import replace

import pytest

from fedspeech.arch import (Activation, ArchitectureSpec, AttentionBlockSpec,
                            ConvLayerSpec, NormKind, Precision, QuantizerSpec,
                            WorkloadSpec, base_preset, get_preset, large_preset)
from fedspeech.costs import (LayerKind, conv_output_len, conv_params,
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
        params = {group: p for group, (p, _) in report.module_totals.items()}
        assert params["cnn_encoder"] == pytest.approx(cnn, rel=0.02)
        assert params["transformer"] == pytest.approx(tr, rel=0.02)
        assert params["quantizer"] == pytest.approx(quant, rel=0.02)


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
        assert report.output_lens[0] == 2
        assert report.fwd_flops[0] == 16.0

    def test_base_table_values(self):
        report = forward_flops(base_preset(), WorkloadSpec(5.5, batch=1))
        assert report.module_totals["cnn_encoder"][1] == pytest.approx(27.20e9, rel=0.05)
        assert report.module_totals["transformer"][1] == pytest.approx(49.16e9, rel=0.05)
        assert report.total_fwd_flops == pytest.approx(76.68e9, rel=0.05)

    def test_large_table_values(self):
        report = forward_flops(large_preset(), WorkloadSpec(5.5, batch=1))
        assert report.total_fwd_flops == pytest.approx(198.32e9, rel=0.05)

    def test_quantizer_targets(self):
        base = forward_flops(base_preset(), WorkloadSpec(5.5, batch=1))
        large = forward_flops(large_preset(), WorkloadSpec(5.5, batch=1))
        assert base.module_totals["quantizer"][1] == pytest.approx(0.32e9, rel=0.25)
        assert large.module_totals["quantizer"][1] == pytest.approx(0.94e9, rel=0.25)

    def test_batch_linearity_exact(self):
        arch = base_preset()
        one = forward_flops(arch, WorkloadSpec(5.5, batch=1))
        four = forward_flops(arch, WorkloadSpec(5.5, batch=4))
        assert four.total_fwd_flops == 4 * one.total_fwd_flops
        assert four.fwd_flops == tuple(4 * f for f in one.fwd_flops)
        # activation bytes stay per sample
        assert four.activation_bytes_per_sample == one.activation_bytes_per_sample

    def test_additivity_exact(self):
        report = forward_flops(base_preset(), WorkloadSpec(5.5))
        assert report.total_fwd_flops == sum(report.fwd_flops)
        by_group = sum(flops for _, flops in report.module_totals.values())
        assert by_group == report.total_fwd_flops  # whole numbers, so the sums are exact
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

    def test_pos_conv_is_costed_as_a_conv_plus_its_residual_sum(self):
        # a norm on pos_conv counts its FLOPs and its output, not only its
        # parameters: 5 per element, one more retained copy
        base = base_preset()
        normed = replace(base, pos_conv=replace(base.pos_conv, norm=NormKind.LAYER))
        plain, layered = (forward_flops(arch, WorkloadSpec(5.5)) for arch in (base, normed))
        at = plain.kinds.index(LayerKind.POS_CONV)
        frames, dim = plain.output_lens[at], base.pos_conv.out_channels
        assert layered.params[at] - plain.params[at] == 2 * dim == 1_536
        assert plain.fwd_flops[at] == 2_586_840_576
        assert layered.fwd_flops[at] == 2_586_840_576 + 5 * dim * frames == 2_587_892_736
        assert plain.activation_bytes_per_sample[at] == 4 * 3 * dim * frames
        assert layered.activation_bytes_per_sample[at] == 4 * 4 * dim * frames == 4 * 841_728

    def test_early_conv_layer_dominates(self):
        report = forward_flops(base_preset(), WorkloadSpec(5.5))
        heaviest = max(range(len(report.kinds)), key=report.fwd_flops.__getitem__)
        assert report.kinds[heaviest] is LayerKind.CONV


# The module group that each kind of layer reports its parameters and its
# compute under, kept apart from the layer order that module_totals reads.
PARAM_GROUP = {LayerKind.CONV: "cnn_encoder", LayerKind.FEATURE_PROJ: "cnn_encoder",
               LayerKind.POS_CONV: "transformer", LayerKind.TRANSFORMER_BLOCK: "transformer",
               LayerKind.FINAL_NORM: "transformer", LayerKind.QUANTIZER: "quantizer",
               LayerKind.QUANT_OUT_PROJ: "other"}
FLOP_GROUP = {**PARAM_GROUP, LayerKind.QUANT_OUT_PROJ: "quantizer"}

# 1 s to 30 s in half seconds, at three batches and both precisions.
EXACT_WORKLOADS = [WorkloadSpec(1.0 + 0.5 * k, batch=batch, precision=precision)
                   for k in range(59) for batch in (1, 4, 32) for precision in Precision]


def group_sum(column, kinds, group_of, group):
    """The entries of ``column`` whose layer reports under ``group``, added
    in layer order by ``sum`` from int 0, as one record per layer was summed."""
    return sum(value for value, kind in zip(column, kinds) if group_of[kind] == group)


@pytest.mark.parametrize("preset", ["base", "large"])
class TestColumnsExact:
    def test_totals_are_layer_order_sums(self, preset):
        arch = get_preset(preset)
        for workload in EXACT_WORKLOADS:
            report = forward_flops(arch, workload)
            assert report.total_params == sum(report.params)
            assert report.total_fwd_flops == sum(report.fwd_flops)
            assert (report.total_activation_bytes_per_sample
                    == sum(report.activation_bytes_per_sample))
            assert report.module_totals == {
                group: (group_sum(report.params, report.kinds, PARAM_GROUP, group),
                        group_sum(report.fwd_flops, report.kinds, FLOP_GROUP, group))
                for group in ("cnn_encoder", "transformer", "quantizer", "other")}
            assert type(report.module_totals["other"][1]) is int  # nothing summed: 0
            # every entry is a whole number and every total is below 2**53, so
            # each sum is exact and no order of adding could change a bit
            assert all(float(v).is_integer() for v in
                       report.fwd_flops + report.activation_bytes_per_sample)
            assert report.total_fwd_flops < 2**53 and report.total_params < 2**53

    def test_block_rows_are_equal(self, preset):
        arch = get_preset(preset)
        for workload in EXACT_WORKLOADS:
            report = forward_flops(arch, workload)
            blocks = [i for i, kind in enumerate(report.kinds)
                      if kind is LayerKind.TRANSFORMER_BLOCK]
            assert [report.labels[i] for i in blocks] == [
                f"block{i}" for i in range(arch.block_count)]
            assert blocks == list(range(blocks[0], blocks[0] + arch.block_count))
            for column in (report.params, report.fwd_flops,
                           report.activation_bytes_per_sample, report.output_lens):
                assert len(column) == len(report.kinds)
                assert {column[i] for i in blocks} == {column[blocks[0]]}


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
