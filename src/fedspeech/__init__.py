"""Resource and feasibility planner for federated self-supervised speech training.

The package models the cost side of pretraining conv + transformer speech
encoders away from the data center: per-layer parameter / FLOP / memory
accounting, calibrated per-device training-time prediction with
out-of-memory verdicts, federated round planning (speaker-disjoint
partitions, client sampling, wall-clock and traffic estimates), aggregation
rules with a verifiable synthetic harness, and hardware-trend parity
forecasts.
"""
