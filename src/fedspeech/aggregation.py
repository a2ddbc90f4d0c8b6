"""Server-side aggregation and a desk-scale synthetic federated run.

One reducer serves two rules over abstract parameter vectors. Client k's
coefficient is ``n_k * max(loss_k, eps) ** -alpha``, normalised to sum to
one: ``loss_weighted`` down-weights clients reporting high local loss for
``alpha > 0``, and ``fedavg``, sample-count-weighted averaging, is alpha 0
(``AggregationConfig.exponent``). ``aggregate`` reduces a list of
``ClientUpdate``; fl-sim's rounds reduce their stacked rows through the
same private reducer. It takes the rows in ascending client-id order, so
results are bit-identical regardless of input order or any parallel local
training.

The synthetic harness trains quadratic clients ``f_k(w) = 0.5 * |w - mu_k|^2``
with plain gradient descent and holds the run as columns: the schedule's
``(rounds, per_round)`` array, a loss table of that shape and one population
loss and distance per round. Its rounds train, score and reduce in
``(per_round, dim)`` buffers made before the first round, and the population
loss is summed in 512 KB blocks of client rows; both start on a cache line,
and neither changes a bit.
Quadratics keep every claim checkable in closed form: full-participation
fedavg must converge to the sample-weighted mean of the client optima.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ConfigError, allocating
from .federation import schedule_rounds
from .lazy import np


class AggMethod(str, enum.Enum):
    FEDAVG = "fedavg"
    LOSS_WEIGHTED = "loss_weighted"

    @classmethod
    def _missing_(cls, value: object) -> AggMethod | None:
        return cls.LOSS_WEIGHTED if value == "loss" else None  # the short name --agg takes


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
    alpha: float = 1.0  # loss exponent of loss_weighted
    epsilon: float = 1e-8  # loss floor

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError(f"epsilon must be finite and > 0, got {self.epsilon}")

    @property
    def exponent(self) -> float:
        """The loss exponent the reduction applies: fedavg is alpha 0."""
        return self.alpha if self.method is AggMethod.LOSS_WEIGHTED else 0.0


def _combine(rows: np.ndarray, n_samples: Sequence[int], losses: Sequence[float],
             order: np.ndarray, config: AggregationConfig) -> np.ndarray:
    """Sum of float64 ``rows`` weighted by ``n_k * max(loss_k, eps) ** -exponent``
    normalised. The Python scalars ``n_samples`` and ``losses`` are in
    ascending client id, and ``order`` holds the row indices in that order.
    A large exponent can overflow a coefficient or underflow all of them,
    which leaves nothing to normalise by and raises ``ConfigError``. ``rows``
    is scaled in place, then accumulated one row at a time in ``order`` into
    a copy of the first, so the bits never depend on how many rows there
    are, on their order in ``rows`` or on a BLAS kernel."""
    alpha = config.exponent
    try:
        raw = [float(n) * max(loss, config.epsilon) ** -alpha
               for n, loss in zip(n_samples, losses)]
    except OverflowError:
        raw = [math.inf]
    if not 0 < sum(raw) < math.inf:
        raise ConfigError(f"client weights n * max(loss, epsilon) ** -alpha overflow "
                          f"or vanish at alpha {alpha:g}")
    raw = np.array(raw, dtype=np.float64)
    coeffs = np.empty_like(raw)
    coeffs[order] = raw / raw.sum()
    np.multiply(rows, coeffs[:, None], out=rows)
    order = order.tolist()
    acc = rows[order[0]].copy()
    for i in order[1:]:
        acc += rows[i]
    return acc


def aggregate(updates: Sequence[ClientUpdate], config: AggregationConfig) -> np.ndarray:
    """The clients' weight vectors reduced under ``config``'s rule, in
    ascending client-id order whatever order ``updates`` come in."""
    if not updates:
        raise ConfigError("no client updates to aggregate")
    dim = updates[0].weights.shape
    for u in updates:
        if u.weights.shape != dim:
            raise ConfigError(
                f"client {u.client_id} has shape {u.weights.shape}, expected {dim}")
    order = sorted(range(len(updates)), key=lambda i: updates[i].client_id)
    return _combine(np.array([u.weights for u in updates], dtype=np.float64),
                    [updates[i].n_samples for i in order],
                    [updates[i].local_loss for i in order], np.array(order), config)


# ---------------------------------------------------------------------------
# Synthetic federated run on quadratic clients


@dataclass(frozen=True)
class SyntheticFLConfig:
    optima: np.ndarray  # (n_clients, dim) client optima
    n_samples: np.ndarray  # (n_clients,) int64 sample counts; converted from any int sequence
    learning_rate: float = 0.3
    local_steps: int = 5
    rounds: int = 50
    per_round: Optional[int] = None  # None selects every client each round
    seed: int = 0
    report_pre_loss: bool = False  # report loss at the incoming global weights

    def __post_init__(self) -> None:
        if self.optima.ndim != 2 or not self.optima.size:
            raise ConfigError("optima must be a (n_clients, dim) array with "
                              "n_clients, dim >= 1")
        if not np.isfinite(self.optima).all():
            raise ConfigError("optima must be finite")
        object.__setattr__(self, "n_samples", np.asarray(self.n_samples, dtype=np.int64))
        if self.n_samples.shape != self.optima.shape[:1]:
            raise ConfigError("one sample count per client is required")
        if self.n_samples.min() < 1:
            raise ConfigError("sample counts must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}")
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
        """Sample-weighted mean of the client optima: the fedavg fixed point.
        Finite optima whose weighted sum overflows raise ``ConfigError``."""
        w = self.n_samples
        with np.errstate(all="ignore"):  # a non-finite mean is refused below
            with allocating(f"{self.n_clients} x {self.dim} weighted client optima"):
                weighted = w[:, None] * self.optima
            optimum = weighted.sum(axis=0) / w.sum(dtype=np.float64)
        if not np.isfinite(optimum).all():
            raise ConfigError("the sample-weighted mean of the client optima is not finite")
        return optimum

    def population_loss(self, weights: np.ndarray) -> float:
        """Sample-weighted mean of the quadratic client losses at ``weights``."""
        return _PopulationLoss(self)(weights)


_BLOCK_VALUES = 1 << 16  # float64 values per population-loss block: 512 KB
_LINE_BYTES = 64  # a cache line


def _aligned_empty(shape: tuple[int, int], what: str) -> np.ndarray:
    """An uninitialised C-contiguous float64 array of ``shape`` that starts on
    a cache line, cut from one 7 values longer; numpy aligns to 16 bytes
    only. ``what`` names the counts for the ``ConfigError`` raised when
    it cannot be allocated."""
    with allocating(what):
        raw = np.empty(math.prod(shape) + _LINE_BYTES // 8 - 1)
    return np.ndarray(shape, buffer=raw, offset=-raw.ctypes.data % _LINE_BYTES)


class _PopulationLoss:
    """``SyntheticFLConfig.population_loss`` with the sample-weight sum and
    the buffers made once. Client rows are squared and summed in blocks of
    ``_BLOCK_VALUES // dim`` rows (at least one); each row is reduced on its
    own, as one ``(n_clients, dim)`` sum reduces it, so the bits do not
    depend on the block size. The block starts on a cache line, as the
    round buffers do (``run_synthetic_fl``): at fl-sim's benchmark shape a
    loss took about a fifth longer 16 to 48 bytes into one."""

    def __init__(self, cfg: SyntheticFLConfig):
        self.optima = cfg.optima
        self.n_samples = cfg.n_samples
        self.total = self.n_samples.sum(dtype=np.float64)
        self.rows = max(1, _BLOCK_VALUES // cfg.dim)
        rows = min(self.rows, cfg.n_clients)
        self.block = _aligned_empty((rows, cfg.dim), f"a block of {rows} clients x "
                                                     f"{cfg.dim} weights")
        with allocating(f"the population loss of {cfg.n_clients} clients"):
            self.per_client = np.empty(cfg.n_clients)

    def __call__(self, weights: np.ndarray) -> float:
        for start in range(0, len(self.optima), self.rows):
            rows = self.optima[start:start + self.rows]
            block = np.subtract(weights, rows, out=self.block[:len(rows)])
            np.square(block, out=block).sum(
                axis=1, out=self.per_client[start:start + len(rows)])
        self.per_client *= 0.5
        self.per_client *= self.n_samples  # n_k * (0.5 * loss_k), in float64
        return float(self.per_client.sum() / self.total)


@dataclass(frozen=True)
class Trajectory:
    selected: np.ndarray  # (rounds, per_round) int64: the schedule's own array
    client_losses: np.ndarray  # (rounds, per_round) float64, each row in selection order
    population_loss: np.ndarray  # (rounds,) float64
    distance_to_optimum: np.ndarray  # (rounds,) float64
    final_weights: np.ndarray

    def rounds_to_loss(self, threshold: float) -> Optional[int]:
        """1-based round count until population loss first drops below the
        threshold, or None if it never does."""
        hits = np.flatnonzero(self.population_loss <= threshold)
        return int(hits[0]) + 1 if hits.size else None


def _id_rank(n_clients: int) -> np.ndarray:
    """Rank of client i's id ``c{i:04d}`` in string order, from integers: the
    ids' digits padded on the right with zeros to the widest compare as the
    ids do, and on a tie the shorter id, the lower i, comes first. Three
    arrays of ``n_clients`` live at once; if they cannot be allocated, raises
    ``ConfigError``."""
    with allocating(f"the id order of {n_clients} clients"):
        index = np.arange(n_clients, dtype=np.int64)
        key = np.searchsorted(10 ** np.arange(1, 19), index, side="right")
        key += 1  # each id's digits,
        np.maximum(key, 4, out=key)
        np.subtract(key[-1], key, out=key)  # then the zeros it is padded with
        np.power(10, key, out=key)
        key *= index
        order = np.argsort(key, kind="stable")
        key[order] = index  # the padded ids are sorted; their buffer holds the rank
    return key


def _diverged(round_id: int, what: str, learning_rate: float) -> ConfigError:
    return ConfigError(f"round {round_id}: non-finite {what}; local descent "
                       f"diverges at learning_rate {learning_rate}")


def _population_losses(loss: _PopulationLoss, todo, done) -> None:
    """Worker: puts ``loss(w)`` on ``done`` for each ``w`` taken from ``todo``
    until ``None``. An exception is put there in place of a result and ends
    the worker."""
    try:
        with np.errstate(all="ignore"):  # per thread; the caller reports a non-finite loss
            while (weights := todo.get()) is not None:
                done.put(loss(weights))
    except BaseException as exc:
        done.put(exc)


def _settled(round_id: int, population_loss, cfg: SyntheticFLConfig, weights) -> float:
    """Round ``round_id``'s ``population_loss`` at ``weights``, as the worker
    gave it; raises what the worker raised, or what a non-finite loss means."""
    if isinstance(population_loss, BaseException):
        raise population_loss
    if not math.isfinite(population_loss):
        with np.errstate(all="ignore"):  # finite weights, and a loss at 0 that overflows too
            if np.isfinite(weights).all() and not math.isfinite(
                    cfg.population_loss(np.zeros(cfg.dim))):
                raise ConfigError(f"round {round_id}: the population loss overflows at finite "
                                  "weights; the client optima are too large (lower --spread)")
        raise _diverged(round_id, "population loss", cfg.learning_rate)
    return population_loss


def run_synthetic_fl(cfg: SyntheticFLConfig, agg: AggregationConfig) -> Trajectory:
    """Round-based simulation of the schedule fl-plan draws; deterministic for a seed.

    Each round trains, scores and checks its k selected clients as one
    ``(k, dim)`` array; elementwise steps and row sums give the same bits as
    one client at a time, and the reduction takes the rows in ascending
    client-id order as ``aggregate`` does. The optima, local weights and
    steps live in three ``(k, dim)`` buffers made before the first round:
    the optima are gathered into one, the first step starts from the global
    weights themselves and the rows are scaled where they are, so a round
    allocates no ``(k, dim)`` array. The three start on a 64-byte cache
    line (``_aligned_empty``). numpy aligns to 16 bytes only, and a buffer
    the heap places 16 to 48 bytes into a line splits every 64-byte vector
    load: at fl-sim's benchmark shape a round's local training took about
    45 % longer there (AVX-512 x86-64 VM). The client optima, the loss table
    and the reduction's accumulator gained nothing from alignment. Round r
    writes its losses to row r of a ``(rounds, k)`` table made before the
    first round, or refused.

    A worker thread computes round r's population loss while round r + 1
    trains. Round r's loss is stored, or fails, before round r + 1's clients
    are checked, so errors come in round order."""
    import queue  # here, so that importing the command line does not load it

    k = cfg.per_round or cfg.n_clients
    schedule = schedule_rounds(cfg.n_clients, k, cfg.rounds, cfg.seed)
    with allocating(f"{cfg.rounds} rounds x {k} client losses"):
        client_losses = np.empty((cfg.rounds, k))
        population_loss, distance = np.empty(cfg.rounds), np.empty(cfg.rounds)
    optimum = cfg.population_optimum()
    global_w = np.zeros(cfg.dim, dtype=np.float64)
    id_rank = _id_rank(cfg.n_clients)
    lr = cfg.learning_rate

    mu, local, step = (_aligned_empty((k, cfg.dim), f"a round of {k} clients x "
                                                    f"{cfg.dim} weights") for _ in range(3))

    todo, done = queue.SimpleQueue(), queue.SimpleQueue()
    worker = threading.Thread(target=_population_losses, name="population-loss",
                              args=(_PopulationLoss(cfg), todo, done), daemon=True)
    worker.start()
    try:
        for round_id, (sel, losses) in enumerate(zip(schedule.selected, client_losses)):
            np.take(cfg.optima, sel, axis=0, out=mu, mode="clip")  # unbuffered; sel in range
            start = global_w  # broadcast by the first step, not copied
            with np.errstate(all="ignore"):  # a diverging run is reported below
                for _ in range(cfg.local_steps):
                    np.subtract(start, mu, out=step)
                    step *= lr
                    start = np.subtract(start, step, out=local)
                np.subtract(global_w if cfg.report_pre_loss else local, mu, out=step)
                np.square(step, out=step).sum(axis=1, out=losses)
                losses *= 0.5
                if round_id:
                    population_loss[round_id - 1] = _settled(round_id - 1, done.get(), cfg,
                                                              global_w)
                by_id = np.argsort(id_rank[sel])
                # a non-finite row of local weights makes its post-training loss non-finite
                healthy = np.isfinite(losses)
                if cfg.report_pre_loss:  # 0 * w is 0 for a finite weight and nan otherwise
                    healthy &= np.isfinite(np.multiply(local, 0.0, out=step).sum(axis=1))
                if not healthy.all():
                    row = by_id[np.flatnonzero(~healthy[by_id])[0]]
                    first = sel[row]
                    # finite weights, and an optimum whose own square overflows: the
                    # spread, not the descent, put the loss out of range
                    if np.isfinite(local[row]).all() and not np.isfinite(
                            np.square(mu[row]).sum()):
                        raise ConfigError(
                            f"round {round_id}: the loss 0.5 * |w - optimum|^2 of client "
                            f"c{first:04d} overflows at finite weights; its optimum is too "
                            f"large (lower --spread)")
                    raise _diverged(round_id, f"loss or weights of client c{first:04d}", lr)
                global_w = _combine(local, cfg.n_samples[sel[by_id]].tolist(),
                                    losses[by_id].tolist(), by_id, agg)
                todo.put(global_w)
                distance[round_id] = np.linalg.norm(global_w - optimum)
        population_loss[-1] = _settled(cfg.rounds - 1, done.get(), cfg, global_w)
    finally:
        todo.put(None)
        worker.join()

    return Trajectory(selected=schedule.selected, client_losses=client_losses,
                      population_loss=population_loss, distance_to_optimum=distance,
                      final_weights=global_w)
