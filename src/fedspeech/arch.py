"""Architecture and workload descriptors for conv + transformer + quantizer encoders.

The model family covered here is the raw-waveform speech encoder used by
self-supervised pretraining stacks such as wav2vec 2.0: a strided 1-d
convolution front end that downsamples audio samples to frames, an optional
convolutional relative-position layer, a stack of identical transformer
blocks, and a product-codebook quantizer fed from the conv output. Two
presets, ``base`` and ``large``, mirror the public wav2vec 2.0
configurations; any field can be overridden from a config file.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import cache
from typing import Mapping, Optional, TypedDict

from .errors import ConfigError
from .settings import blamed_on, read, read_keys, read_value, to_mapping


class Precision(str, enum.Enum):
    FP32 = "fp32"
    MIXED = "mixed"

    @property
    def bytes_per_value(self) -> int:
        """Bytes per stored value: a retained activation or a model weight sent."""
        return 4 if self is Precision.FP32 else 2

    @classmethod
    def _missing_(cls, value: object) -> Precision | None:
        return next((p for p in cls if isinstance(value, str) and p.value == value.lower()),
                    None)


class NormKind(str, enum.Enum):
    NONE = "none"
    GROUP = "group"
    LAYER = "layer"


class Activation(str, enum.Enum):
    NONE = "none"
    GELU = "gelu"


@dataclass(frozen=True)
class ConvLayerSpec:
    """One 1-d convolution layer (valid convolution, no padding)."""

    in_channels: int
    out_channels: int
    kernel: int
    stride: int
    bias: bool = False
    norm: NormKind = NormKind.NONE
    groups: int = 1
    activation: Activation = Activation.GELU

    def __post_init__(self) -> None:
        if self.kernel < 1 or self.stride < 1:
            raise ConfigError("conv kernel and stride must be >= 1")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ConfigError("conv channel counts must be >= 1")
        if self.groups < 1 or self.in_channels % self.groups:
            raise ConfigError("conv groups must divide in_channels")


@dataclass(frozen=True)
class AttentionBlockSpec:
    """Shape of one transformer block (self-attention + feed-forward)."""

    model_dim: int
    heads: int
    ffn_dim: int

    def __post_init__(self) -> None:
        if min(self.model_dim, self.heads, self.ffn_dim) < 1:
            raise ConfigError("transformer block dimensions must be >= 1")
        if self.model_dim % self.heads:
            raise ConfigError("model_dim must be divisible by heads")


@dataclass(frozen=True)
class QuantizerSpec:
    """Product quantizer: a logits projection plus a grouped codebook.

    ``codevector_dim`` is the dimensionality of the assembled codevector;
    each of the ``groups`` codebooks contributes ``codevector_dim / groups``
    dimensions per entry. The quantized output is passed through a square
    output projection of size ``codevector_dim``.
    """

    input_dim: int
    groups: int
    entries_per_group: int
    codevector_dim: int

    def __post_init__(self) -> None:
        if min(self.input_dim, self.groups, self.entries_per_group, self.codevector_dim) < 1:
            raise ConfigError("quantizer counts must be >= 1")
        if self.codevector_dim % self.groups:
            raise ConfigError("codevector_dim must be divisible by groups")

    @property
    def total_entries(self) -> int:
        return self.groups * self.entries_per_group

    @property
    def entry_dim(self) -> int:
        return self.codevector_dim // self.groups


@dataclass(frozen=True)
class ArchitectureSpec:
    """Complete encoder description.

    ``feature_proj`` maps the conv output dimension to the transformer
    width (with a preceding layer norm). ``pos_conv`` is the grouped
    convolutional relative-position layer feeding the transformer; it is
    only meaningful when ``block_count`` >= 1 and preserves sequence length
    (same padding). The transformer stack additionally carries one final
    layer norm when it has at least one block.
    """

    name: str
    conv_stack: tuple[ConvLayerSpec, ...]
    feature_proj: tuple[int, int]
    block_count: int
    block: AttentionBlockSpec
    quantizer: QuantizerSpec
    pos_conv: Optional[ConvLayerSpec] = None

    def __post_init__(self) -> None:
        if not self.conv_stack:
            raise ConfigError("conv_stack must contain at least one layer")
        if self.block_count < 0:
            raise ConfigError("block_count must be >= 0")
        for prev, nxt in zip(self.conv_stack, self.conv_stack[1:]):
            if prev.out_channels != nxt.in_channels:
                raise ConfigError(
                    f"conv stack channel mismatch: {prev.out_channels} -> {nxt.in_channels}")
        if self.feature_proj[0] != self.conv_stack[-1].out_channels:
            raise ConfigError("feature_proj input must match the last conv output channels")
        if self.block_count and self.feature_proj[1] != self.block.model_dim:
            raise ConfigError("feature_proj output must match the transformer width")
        if self.pos_conv is not None and self.block_count == 0:
            raise ConfigError("pos_conv requires at least one transformer block")


#: The reference clip length in seconds: the average clip of the measured
#: anchors and of the memory calibration, and every default clip length.
REFERENCE_CLIP_S = 5.5


@dataclass(frozen=True)
class WorkloadSpec:
    """One training or inference workload: audio length, batching, precision."""

    duration_s: float = REFERENCE_CLIP_S
    sample_rate_hz: int = 16_000
    batch: int = 1
    precision: Precision = Precision.FP32

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ConfigError(f"duration must be finite and > 0, got {self.duration_s}")
        if self.sample_rate_hz <= 0:
            raise ConfigError("sample rate must be > 0")
        if max(self.sample_rate_hz, self.duration_s * self.sample_rate_hz) >= 2**53:
            raise ConfigError(f"{self.duration_s} s at {self.sample_rate_hz} Hz is more "
                              "samples than a float counts exactly")
        if not 1 <= self.batch < 2**53:
            raise ConfigError("batch must be >= 1 and below 2**53, which a float counts exactly")

    @property
    def samples(self) -> int:
        """Waveform samples, rounding half up."""
        return int(math.floor(self.duration_s * self.sample_rate_hz + 0.5))


def _encoder_conv_stack() -> tuple[ConvLayerSpec, ...]:
    # 320x total downsampling: one 10/5 layer, four 3/2, two 2/2.
    layers = [ConvLayerSpec(1, 512, 10, 5, norm=NormKind.GROUP)]
    layers += [ConvLayerSpec(512, 512, 3, 2) for _ in range(4)]
    layers += [ConvLayerSpec(512, 512, 2, 2) for _ in range(2)]
    return tuple(layers)


def _pos_conv(dim: int) -> ConvLayerSpec:
    return ConvLayerSpec(dim, dim, kernel=128, stride=1, bias=True, groups=16)


@cache  # a spec is frozen, so every caller in a process shares one
def base_preset() -> ArchitectureSpec:
    return ArchitectureSpec(
        name="base",
        conv_stack=_encoder_conv_stack(),
        feature_proj=(512, 768),
        block_count=12,
        block=AttentionBlockSpec(model_dim=768, heads=12, ffn_dim=3072),
        quantizer=QuantizerSpec(input_dim=512, groups=2, entries_per_group=320,
                                codevector_dim=256),
        pos_conv=_pos_conv(768),
    )


@cache
def large_preset() -> ArchitectureSpec:
    return ArchitectureSpec(
        name="large",
        conv_stack=_encoder_conv_stack(),
        feature_proj=(512, 1024),
        block_count=24,
        block=AttentionBlockSpec(model_dim=1024, heads=16, ffn_dim=4096),
        quantizer=QuantizerSpec(input_dim=512, groups=2, entries_per_group=320,
                                codevector_dim=768),
        pos_conv=_pos_conv(1024),
    )


PRESETS = {"base": base_preset, "large": large_preset}


def get_preset(name: str) -> ArchitectureSpec:
    try:
        return PRESETS[name.lower()]()
    except KeyError:
        raise ConfigError(f"unknown architecture preset {name!r}; "
                          f"available: {', '.join(sorted(PRESETS))}") from None


# ---------------------------------------------------------------------------
# Config-file (de)serialisation


@dataclass(frozen=True)
class _FeatureProj:
    in_dim: int
    out_dim: int


class _ArchSection(TypedDict, total=False):
    """The keys of an ``arch`` config section and their types."""

    preset: str
    name: str
    conv_stack: tuple[ConvLayerSpec, ...]
    feature_proj: _FeatureProj
    pos_conv: Optional[ConvLayerSpec]
    transformer: dict  # AttentionBlockSpec keys, plus blocks
    quantizer: dict  # QuantizerSpec keys


def arch_from_mapping(m: Mapping, where: str = "arch") -> ArchitectureSpec:
    """Build an :class:`ArchitectureSpec` from an ``arch`` config section.

    ``preset`` selects a preset whose fields the other keys override:
    ``transformer`` and ``quantizer`` key by key, the others whole. Without
    a preset, ``conv_stack``, ``transformer`` and ``quantizer`` are required,
    and keys they leave out take the ``base`` preset's values, except
    ``blocks``, which defaults to 0.
    """
    given = read_keys(_ArchSection, m, where)
    spec = get_preset(given["preset"]) if "preset" in given else None
    if spec is None and not {"conv_stack", "transformer", "quantizer"} <= given.keys():
        raise ConfigError(
            f"{where}: either 'preset' or a full architecture "
            "(conv_stack, transformer, quantizer) is required")
    ref = spec or base_preset()

    transformer = dict(given.get("transformer", {}))
    block_count = read_value(int, transformer.pop("blocks", spec.block_count if spec else 0),
                             f"{where}.transformer.blocks")
    block = read(AttentionBlockSpec, transformer, f"{where}.transformer", ref.block)
    quantizer = read(QuantizerSpec, given.get("quantizer", {}), f"{where}.quantizer",
                     ref.quantizer)
    conv_stack = given.get("conv_stack", ref.conv_stack)
    if "feature_proj" in given:
        feature_proj = (given["feature_proj"].in_dim, given["feature_proj"].out_dim)
    elif spec is not None or not conv_stack:  # ArchitectureSpec rejects an empty stack
        feature_proj = ref.feature_proj
    else:
        feature_proj = (conv_stack[-1].out_channels, block.model_dim)

    if "pos_conv" in given:
        pos_conv = given["pos_conv"]
    elif spec is not None and block_count and spec.pos_conv is not None:
        pos_conv = replace(spec.pos_conv, in_channels=block.model_dim,
                           out_channels=block.model_dim)
    else:
        pos_conv = None

    with blamed_on(where):
        return ArchitectureSpec(name=given.get("name", spec.name if spec else "custom"),
                                conv_stack=conv_stack, feature_proj=feature_proj,
                                block_count=block_count, block=block, quantizer=quantizer,
                                pos_conv=pos_conv)


@cache  # keyed by the whole spec, not its name; a process reads few
def arch_to_mapping(arch: ArchitectureSpec) -> dict:
    """Inverse of :func:`arch_from_mapping`, used to embed configs in reports.
    Equal specs get the same dict, which callers must not change."""
    return {"name": arch.name,
            "conv_stack": [to_mapping(c) for c in arch.conv_stack],
            "feature_proj": to_mapping(_FeatureProj(*arch.feature_proj)),
            "pos_conv": None if arch.pos_conv is None else to_mapping(arch.pos_conv),
            "transformer": {"blocks": arch.block_count, **to_mapping(arch.block)},
            "quantizer": to_mapping(arch.quantizer)}
