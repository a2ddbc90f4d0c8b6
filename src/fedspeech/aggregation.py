"""Server-side aggregation rules and a desk-scale synthetic federated run.

Two rules are implemented over abstract parameter vectors:

* ``fedavg``: sample-count-weighted averaging.
* ``loss_weighted``: coefficients ``n_k * max(loss_k, eps) ** -alpha``,
  normalised to sum to one. ``alpha = 0`` reduces exactly to fedavg;
  ``alpha > 0`` down-weights clients reporting high local loss.

Both reduce in ascending client-id order so results are bit-identical
regardless of input order or any parallel local training.

The synthetic harness trains quadratic clients ``f_k(w) = 0.5 * |w - mu_k|^2``
with plain gradient descent. Quadratics keep every claim checkable in closed
form: full-participation fedavg must converge to the sample-weighted mean of
the client optima.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatchError, EmptyUpdateSetError


class AggMethod(str, enum.Enum):
    FEDAVG = "fedavg"
    LOSS_WEIGHTED = "loss_weighted"


@dataclass(frozen=True)
class ClientUpdate:
    client_id: str
    weights: np.ndarray
    n_samples: int
    local_loss: float = 0.0

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        if self.local_loss < 0 or not np.isfinite(self.local_loss):
            raise ConfigError("local_loss must be finite and >= 0")
        if not np.all(np.isfinite(self.weights)):
            raise ConfigError(f"client {self.client_id}: non-finite weights")


@dataclass(frozen=True)
class AggregationConfig:
    method: AggMethod = AggMethod.FEDAVG
    alpha: float = 1.0  # loss exponent; 0 recovers fedavg
    epsilon: float = 1e-8  # loss floor

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ConfigError("alpha must be >= 0")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be > 0")


def _sorted_updates(updates: Sequence[ClientUpdate]) -> list[ClientUpdate]:
    if not updates:
        raise EmptyUpdateSetError("no client updates to aggregate")
    dim = updates[0].weights.shape
    for u in updates:
        if u.weights.shape != dim:
            raise DimensionMismatchError(
                f"client {u.client_id} has shape {u.weights.shape}, expected {dim}")
    return sorted(updates, key=lambda u: u.client_id)


def _combine(updates: list[ClientUpdate], raw: np.ndarray) -> np.ndarray:
    coeffs = raw / raw.sum()
    acc = coeffs[0] * updates[0].weights.astype(np.float64)
    for c, u in zip(coeffs[1:], updates[1:]):
        acc = acc + c * u.weights.astype(np.float64)
    return acc


def fedavg(updates: Sequence[ClientUpdate]) -> np.ndarray:
    """Sample-count-weighted average of the client weight vectors."""
    ordered = _sorted_updates(updates)
    raw = np.array([float(u.n_samples) for u in ordered], dtype=np.float64)
    return _combine(ordered, raw)


def loss_weighted(updates: Sequence[ClientUpdate],
                  config: Optional[AggregationConfig] = None) -> np.ndarray:
    """Fedavg re-weighted by each client's reported loss."""
    cfg = config or AggregationConfig(method=AggMethod.LOSS_WEIGHTED)
    ordered = _sorted_updates(updates)
    raw = np.array([float(u.n_samples) * max(u.local_loss, cfg.epsilon) ** -cfg.alpha
                    for u in ordered], dtype=np.float64)
    return _combine(ordered, raw)


def aggregate(updates: Sequence[ClientUpdate], config: AggregationConfig) -> np.ndarray:
    if config.method is AggMethod.FEDAVG:
        return fedavg(updates)
    return loss_weighted(updates, config)


# ---------------------------------------------------------------------------
# Synthetic federated run on quadratic clients


@dataclass(frozen=True)
class SyntheticFLConfig:
    optima: np.ndarray  # (n_clients, dim) client optima
    n_samples: tuple[int, ...]  # per-client sample counts (aggregation weights)
    learning_rate: float = 0.3
    local_steps: int = 5
    rounds: int = 50
    per_round: Optional[int] = None  # None selects every client each round
    seed: int = 0
    report_pre_loss: bool = False  # report loss at the incoming global weights

    def __post_init__(self) -> None:
        if self.optima.ndim != 2 or not len(self.optima):
            raise ConfigError("optima must be a (n_clients, dim) array")
        if len(self.n_samples) != len(self.optima):
            raise ConfigError("one sample count per client is required")
        if min(self.n_samples) < 1:
            raise ConfigError("sample counts must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.local_steps < 1 or self.rounds < 1:
            raise ConfigError("local_steps and rounds must be >= 1")
        if self.per_round is not None and not 1 <= self.per_round <= len(self.optima):
            raise ConfigError("per_round must be in [1, n_clients]")

    @property
    def n_clients(self) -> int:
        return len(self.optima)

    @property
    def dim(self) -> int:
        return self.optima.shape[1]

    def population_optimum(self) -> np.ndarray:
        """Sample-weighted mean of the client optima: the fedavg fixed point."""
        w = np.asarray(self.n_samples, dtype=np.float64)
        return (w[:, None] * self.optima).sum(axis=0) / w.sum()

    def population_loss(self, weights: np.ndarray) -> float:
        """Sample-weighted mean of the quadratic client losses at ``weights``."""
        w = np.asarray(self.n_samples, dtype=np.float64)
        per_client = 0.5 * ((weights[None, :] - self.optima) ** 2).sum(axis=1)
        return float((w * per_client).sum() / w.sum())


@dataclass(frozen=True)
class RoundRecord:
    round_id: int
    selected: tuple[int, ...]
    client_losses: dict[str, float]
    mean_client_loss: float
    population_loss: float
    distance_to_optimum: float


@dataclass(frozen=True)
class Trajectory:
    records: tuple[RoundRecord, ...]
    final_weights: np.ndarray

    def rounds_to_loss(self, threshold: float) -> Optional[int]:
        """1-based round count until population loss first drops below the
        threshold, or None if it never does."""
        for rec in self.records:
            if rec.population_loss <= threshold:
                return rec.round_id + 1
        return None


def _local_quadratic_descent(start: np.ndarray, optimum: np.ndarray,
                             learning_rate: float, steps: int) -> np.ndarray:
    w = start.copy()
    for _ in range(steps):
        w -= learning_rate * (w - optimum)
    return w


def run_synthetic_fl(cfg: SyntheticFLConfig, agg: AggregationConfig) -> Trajectory:
    """Round-based simulation; deterministic for a fixed seed."""
    rng = np.random.default_rng(cfg.seed)
    optimum = cfg.population_optimum()
    global_w = np.zeros(cfg.dim, dtype=np.float64)
    ids = [f"c{idx:04d}" for idx in range(cfg.n_clients)]

    records: list[RoundRecord] = []
    for round_id in range(cfg.rounds):
        if cfg.per_round is None:
            selected = tuple(range(cfg.n_clients))
        else:
            selected = tuple(sorted(
                int(i) for i in rng.choice(cfg.n_clients, size=cfg.per_round,
                                           replace=False)))
        updates = []
        losses: dict[str, float] = {}
        for idx in selected:
            mu = cfg.optima[idx]
            local = _local_quadratic_descent(global_w, mu, cfg.learning_rate,
                                             cfg.local_steps)
            measured = global_w if cfg.report_pre_loss else local
            loss = 0.5 * float(((measured - mu) ** 2).sum())
            losses[ids[idx]] = loss
            updates.append(ClientUpdate(client_id=ids[idx], weights=local,
                                        n_samples=cfg.n_samples[idx],
                                        local_loss=loss))
        global_w = aggregate(updates, agg)
        records.append(RoundRecord(
            round_id=round_id, selected=selected, client_losses=losses,
            mean_client_loss=float(np.mean(list(losses.values()))),
            population_loss=cfg.population_loss(global_w),
            distance_to_optimum=float(np.linalg.norm(global_w - optimum))))

    return Trajectory(records=tuple(records), final_weights=global_w)
