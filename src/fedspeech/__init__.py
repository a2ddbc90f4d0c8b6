"""Resource and feasibility planner for federated self-supervised speech training.

The package models the cost side of pretraining conv + transformer speech
encoders away from the data center: per-layer parameter / FLOP / memory
accounting, calibrated per-device training-time prediction with
out-of-memory verdicts, federated round planning (speaker-disjoint
partitions, client sampling, wall-clock and traffic estimates), aggregation
rules with a verifiable synthetic harness, and hardware-trend parity
forecasts.
"""

from .arch import (ArchitectureSpec, AttentionBlockSpec, ConvLayerSpec, Precision,
                   QuantizerSpec, WorkloadSpec, base_preset, get_preset, large_preset)
from .aggregation import (AggMethod, AggregationConfig, ClientUpdate,
                          SyntheticFLConfig, aggregate, fedavg, loss_weighted,
                          run_synthetic_fl)
from .costs import (CostReport, LayerCost, conv_output_len, forward_flops,
                    frames_for_duration, module_rollup, param_count)
from .devices import (Anchor, DeviceProfile, FitVerdict, TimePrediction,
                      builtin_profiles, check_fit, get_profile, predict_batch_time,
                      training_residency_bytes)
from .federation import (ClientDataset, Manifest, Partition, RoundSchedule,
                         WallClockEstimate, estimate_communication,
                         estimate_wall_clock, load_manifest, partition_by_speaker,
                         schedule_rounds, synthetic_manifest, uniform_partition)
from .memory import (MemoryCalibration, MemoryTimeline, default_calibration,
                     fit_activation_overhead, memory_timeline, precision_memory_delta,
                     static_memory, training_flops)
from .trend import TrendForecast, parity_year, speedup_after

__version__ = "0.1.0"
