"""Parameter, FLOP, and retained-activation accounting, layer by layer.

Counting conventions (documented once, applied everywhere):

* Dense and convolution multiply-accumulates count as 2 FLOPs.
* The two sequence-quadratic attention matmuls (score map and value mixing)
  together count as ``2 * L^2 * d`` FLOPs per block. Hook-style profilers,
  which the reference figures for this model family follow, under-count
  these fused kernels relative to dense layers; keeping the quadratic term
  at this weight also keeps total FLOPs near-linear in audio length over
  the 3 s to 30 s range while preserving the expected slight super-linear
  excess.
* Normalisation layers, activation functions, and softmax count 5 FLOPs
  per output element.
* Retained activations are the tensors a framework keeps for the backward
  pass: every op output (conv, norm, activation, projection, residual sum)
  plus, per transformer block, one L x L attention score map and the
  feed-forward hidden state.

Module attribution: the relative-position conv and the final norm report
under the transformer group; the quantizer output projection reports its
parameters under ``other`` but its compute under ``quantization`` (the two
reference breakdowns draw that boundary differently, and both are matched
here).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .arch import (Activation, ArchitectureSpec, ConvLayerSpec, NormKind,
                   WorkloadSpec)
from .errors import ConfigError

ELEMENTWISE_FLOPS = 5  # per element: norm, activation, softmax
# Reports forward_flops keeps, least recently used dropped first; 64 reports
# of the large preset hold about 0.40 MB with their totals.
REPORT_CACHE_SIZE = 64


class LayerKind(str, enum.Enum):
    CONV = "conv"
    FEATURE_PROJ = "feature_proj"
    POS_CONV = "pos_conv"
    TRANSFORMER_BLOCK = "transformer_block"
    FINAL_NORM = "final_norm"
    QUANTIZER = "quantizer"
    QUANT_OUT_PROJ = "quant_out_proj"


@dataclass(frozen=True)
class CostReport:
    """Per-layer forward cost at one workload, as columns: entry ``i`` of
    each column is layer ``i`` in forward order.

    ``fwd_flops`` covers the whole batch; ``activation_bytes_per_sample``
    is per sequence so callers can re-scale batching independently. Each
    total is summed once per report, in layer order, on first use.
    """

    arch_name: str
    kinds: tuple[LayerKind, ...]
    labels: tuple[str, ...]
    params: tuple[int, ...]
    fwd_flops: tuple[float, ...]
    activation_bytes_per_sample: tuple[float, ...]
    output_lens: tuple[int, ...]

    @cached_property
    def total_params(self) -> int:
        return sum(self.params)

    @cached_property
    def total_fwd_flops(self) -> float:
        return sum(self.fwd_flops)

    @cached_property
    def total_activation_bytes_per_sample(self) -> float:
        return sum(self.activation_bytes_per_sample)

    @cached_property
    def module_totals(self) -> dict[str, tuple[int, float]]:
        """``(params, fwd_flops)`` of each module group. Each group is a run
        of layers in forward order: the conv stack and feature projection,
        then the transformer, then the quantizer, whose output projection
        reports its parameters under ``other`` and its compute under
        ``quantizer``."""
        params, flops = self.params, self.fwd_flops
        cnn_end = self.kinds.index(LayerKind.FEATURE_PROJ) + 1
        quant = self.kinds.index(LayerKind.QUANTIZER)
        return {"cnn_encoder": (sum(params[:cnn_end]), sum(flops[:cnn_end])),
                "transformer": (sum(params[cnn_end:quant]), sum(flops[cnn_end:quant])),
                "quantizer": (params[quant], sum(flops[quant:])),
                "other": (params[quant + 1], 0)}


# ---------------------------------------------------------------------------
# Shape arithmetic


def conv_output_len(len_in, kernel: int, stride: int):
    """Valid-convolution output length(s): floor((len_in - kernel) / stride) + 1."""
    shortest = len_in if isinstance(len_in, int) else len_in.min()
    if shortest < kernel:
        raise ConfigError(f"input of {shortest} frames is shorter than the kernel ({kernel})")
    return (len_in - kernel) // stride + 1


def conv_stack_lens(arch: ArchitectureSpec, samples) -> list:
    """Per-layer output lengths of the conv front end, as ``conv_output_len``'s."""
    lens = [samples]
    for layer in arch.conv_stack:
        lens.append(conv_output_len(lens[-1], layer.kernel, layer.stride))
    return lens[1:]


# ---------------------------------------------------------------------------
# Per-layer formulas


def linear_params(d_in: int, d_out: int, bias: bool = True) -> int:
    return d_in * d_out + (d_out if bias else 0)


def conv_params(layer: ConvLayerSpec) -> int:
    weights = layer.in_channels * layer.out_channels * layer.kernel // layer.groups
    norm = 2 * layer.out_channels if layer.norm is not NormKind.NONE else 0
    return weights + (layer.out_channels if layer.bias else 0) + norm


def _conv_flops(layer: ConvLayerSpec, out_len: int) -> float:
    macs = layer.in_channels * layer.out_channels * layer.kernel * out_len / layer.groups
    flops = 2.0 * macs
    if layer.norm is not NormKind.NONE:
        flops += ELEMENTWISE_FLOPS * layer.out_channels * out_len
    if layer.activation is not Activation.NONE:
        flops += ELEMENTWISE_FLOPS * layer.out_channels * out_len
    return flops


def _conv_retained(layer: ConvLayerSpec, out_len: int) -> int:
    copies = 1  # conv output
    if layer.norm is not NormKind.NONE:
        copies += 1
    if layer.activation is not Activation.NONE:
        copies += 1
    return copies * layer.out_channels * out_len


def _block_params(arch: ArchitectureSpec) -> int:
    b = arch.block
    attn = 4 * linear_params(b.model_dim, b.model_dim)
    norms = 2 * (2 * b.model_dim)
    ffn = linear_params(b.model_dim, b.ffn_dim) + linear_params(b.ffn_dim, b.model_dim)
    return attn + norms + ffn


def _block_flops(arch: ArchitectureSpec, frames: int) -> float:
    b, L = arch.block, frames
    proj = 8.0 * L * b.model_dim * b.model_dim            # q, k, v, out
    quad = 2.0 * L * L * b.model_dim                      # score map + value mixing
    ffn = 4.0 * L * b.model_dim * b.ffn_dim               # up + down
    ew = ELEMENTWISE_FLOPS * (2 * L * b.model_dim         # two layer norms
                              + b.heads * L * L           # softmax
                              + L * b.ffn_dim)            # gelu
    return proj + quad + ffn + ew


def _block_retained(arch: ArchitectureSpec, frames: int) -> int:
    # q/k/v, context, attn out, residual + norm, ffn out, residual + norm,
    # plus the ffn hidden state twice (pre and post activation) and one
    # L x L score map.
    b, L = arch.block, frames
    return (10 * b.model_dim + 2 * b.ffn_dim) * L + L * L


def quantizer_params(arch: ArchitectureSpec) -> int:
    q = arch.quantizer
    return linear_params(q.input_dim, q.total_entries) + q.total_entries * q.entry_dim


def _quantizer_flops(arch: ArchitectureSpec, frames: int) -> float:
    q, L = arch.quantizer, frames
    logits = 2.0 * q.input_dim * q.total_entries * L
    similarity = 2.0 * q.total_entries * q.entry_dim * L
    assembly = 2.0 * q.total_entries * q.entry_dim * L
    softmax = ELEMENTWISE_FLOPS * q.total_entries * L  # an int, added as its float
    return logits + similarity + assembly + softmax


# ---------------------------------------------------------------------------
# Report construction


def build_layers(arch: ArchitectureSpec, workload: WorkloadSpec, samples) -> CostReport:
    """The report's columns at clips of ``samples`` and the workload's batch
    and precision, in forward order; the block row is computed once and
    repeated ``block_count`` times. Given an ``object`` array of Python ints
    (an int64 one overflows on long clips), each column entry is an array,
    each clip's figure from the very operations of one count."""
    lens = conv_stack_lens(arch, samples)
    batch, elem = workload.batch, workload.precision.bytes_per_value
    frames = lens[-1]

    def row(kind: LayerKind, label: str, params: int, flops: float,
            retained_elems: int, out_len: int) -> tuple:
        return kind, label, params, flops * batch, 1.0 * (retained_elems * elem), out_len

    rows = [row(LayerKind.CONV, f"conv{i}", conv_params(conv), _conv_flops(conv, n),
                _conv_retained(conv, n), n)
            for i, (conv, n) in enumerate(zip(arch.conv_stack, lens))]

    d_in, d_out = arch.feature_proj
    rows.append(row(LayerKind.FEATURE_PROJ, "feature_proj",
                    2 * d_in + linear_params(d_in, d_out),
                    (2.0 * d_in * d_out + ELEMENTWISE_FLOPS * d_in) * frames,
                    (d_in + d_out) * frames, frames))

    if arch.pos_conv is not None:  # a conv, plus its residual sum
        pc = arch.pos_conv
        rows.append(row(LayerKind.POS_CONV, "pos_conv", conv_params(pc),
                        _conv_flops(pc, frames),
                        _conv_retained(pc, frames) + pc.out_channels * frames, frames))

    if arch.block_count:
        kind, _, *block = row(LayerKind.TRANSFORMER_BLOCK, "", _block_params(arch),
                              _block_flops(arch, frames), _block_retained(arch, frames),
                              frames)
        rows += [(kind, f"block{i}", *block) for i in range(arch.block_count)]
        d = arch.block.model_dim
        rows.append(row(LayerKind.FINAL_NORM, "final_norm", 2 * d,
                        1.0 * (ELEMENTWISE_FLOPS * d * frames), d * frames, frames))

    q = arch.quantizer
    rows.append(row(LayerKind.QUANTIZER, "quantizer", quantizer_params(arch),
                    _quantizer_flops(arch, frames),
                    (q.total_entries + q.codevector_dim) * frames, frames))
    rows.append(row(LayerKind.QUANT_OUT_PROJ, "quant_out_proj",
                    linear_params(q.codevector_dim, q.codevector_dim),
                    2.0 * q.codevector_dim * q.codevector_dim * frames,
                    q.codevector_dim * frames, frames))

    return CostReport(arch.name, *zip(*rows))


@lru_cache(maxsize=REPORT_CACHE_SIZE)
def forward_flops(arch: ArchitectureSpec, workload: WorkloadSpec) -> CostReport:
    """Per-layer forward cost at the workload's duration, batch, and precision.

    FLOPs scale linearly with ``workload.batch``; activation bytes are
    reported per sample; parameters are the same at every workload. A report
    is built once per (arch, workload) and shared by every later call, which
    its immutability makes safe.
    """
    return build_layers(arch, workload, workload.samples)


_MODULE_LABELS = {"cnn_encoder": "CNN Encoder", "transformer": "Transformer",
                  "quantizer": "Quantization", "other": "Other"}


def module_rollup(report: CostReport) -> list[dict]:
    """Module-level summary rows: one per group plus a grand total."""
    rows = [{"module": _MODULE_LABELS[group], "params": params, "gflops": flops / 1e9}
            for group, (params, flops) in report.module_totals.items()]
    rows.append({"module": "Total", "params": report.total_params,
                 "gflops": report.total_fwd_flops / 1e9})
    return rows
