import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from fedspeech import aggregation
from fedspeech.aggregation import (AggMethod, AggregationConfig, ClientUpdate,
                                   SyntheticFLConfig, aggregate, run_synthetic_fl)
from fedspeech.errors import ConfigError
from fedspeech.federation import schedule_rounds


FEDAVG = AggregationConfig(method=AggMethod.FEDAVG)


def one_at_a_time(updates, config=None):
    """The reduction as it was written before rounds were stacked: one
    float64 copy of each client's vector at a time, in client-id order."""
    ordered = sorted(updates, key=lambda u: u.client_id)
    if config is None:
        raw = np.array([float(u.n_samples) for u in ordered])
    else:
        raw = np.array([float(u.n_samples) * max(u.local_loss, config.epsilon)
                        ** -config.alpha for u in ordered])
    coeffs = raw / raw.sum()
    acc = coeffs[0] * ordered[0].weights.astype(np.float64)
    for c, u in zip(coeffs[1:], ordered[1:]):
        acc = acc + c * u.weights.astype(np.float64)
    return acc


def plain_population_loss(cfg, weights):
    """The population loss as one ``(n_clients, dim)`` array expression, as
    it was written before it was summed in blocks of clients."""
    w = np.asarray(cfg.n_samples, dtype=np.float64)
    per_client = 0.5 * ((weights[None, :] - cfg.optima) ** 2).sum(axis=1)
    return float((w * per_client).sum() / w.sum())


def reference_run(cfg, agg):
    """(selected, client losses, population loss, distance) per round and the
    final weights of the client-at-a-time round loop."""
    rng = np.random.default_rng(cfg.seed)
    optimum = cfg.population_optimum()
    global_w = np.zeros(cfg.dim)
    rounds = []
    for _ in range(cfg.rounds):
        selected = tuple(range(cfg.n_clients)) if cfg.per_round is None else tuple(
            sorted(int(i) for i in rng.choice(cfg.n_clients, size=cfg.per_round,
                                              replace=False)))
        updates, losses = [], {}
        for idx in selected:
            mu = cfg.optima[idx]
            w = global_w.copy()
            for _ in range(cfg.local_steps):
                w -= cfg.learning_rate * (w - mu)
            measured = global_w if cfg.report_pre_loss else w
            losses[f"c{idx:04d}"] = 0.5 * float(((measured - mu) ** 2).sum())
            updates.append(ClientUpdate(f"c{idx:04d}", w, cfg.n_samples[idx],
                                        losses[f"c{idx:04d}"]))
        global_w = aggregate(updates, agg)
        rounds.append((selected, losses, plain_population_loss(cfg, global_w),
                       float(np.linalg.norm(global_w - optimum))))
    return rounds, global_w


def rounds_of(traj):
    """``traj``'s columns as ``reference_run`` gives its rounds: (selected,
    client losses by id, population loss, distance) per round."""
    return [(tuple(sel), dict(zip([f"c{i:04d}" for i in sel], losses)), pop, dist)
            for sel, losses, pop, dist in zip(traj.selected.tolist(),
                                              traj.client_losses.tolist(),
                                              traj.population_loss.tolist(),
                                              traj.distance_to_optimum.tolist())]


def updates_from(pairs):
    return [ClientUpdate(f"c{i}", np.asarray(w, dtype=float), n, loss)
            for i, (w, n, loss) in enumerate(pairs)]


class TestFedavg:
    def test_hand_example(self):
        result = aggregate(updates_from([(([0.0, 2.0]), 1, 0.0), (([4.0, 0.0]), 3, 0.0)]),
                           FEDAVG)
        assert np.max(np.abs(result - np.array([3.0, 0.5]))) < 1e-12

    def test_idempotent_on_identical_vectors(self):
        v = np.array([1.5, -2.0, 7.0])
        result = aggregate([ClientUpdate("a", v, 3), ClientUpdate("b", v, 9)], FEDAVG)
        assert np.array_equal(result, v)

    def test_weight_scale_invariance(self):
        ups = updates_from([(([1.0, 0.0]), 2, 0.0), (([0.0, 1.0]), 5, 0.0)])
        scaled = [ClientUpdate(u.client_id, u.weights, u.n_samples * 10) for u in ups]
        assert np.max(np.abs(aggregate(ups, FEDAVG) - aggregate(scaled, FEDAVG))) < 1e-12

    def test_empty_set_rejected(self):
        with pytest.raises(ConfigError, match="^no client updates to aggregate$"):
            aggregate([], FEDAVG)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigError,
                           match=r"^client b has shape \(3,\), expected \(2,\)$"):
            aggregate([ClientUpdate("a", np.zeros(2), 1),
                       ClientUpdate("b", np.zeros(3), 1)], FEDAVG)

    def test_non_finite_weights_rejected(self):
        with pytest.raises(ConfigError):
            ClientUpdate("a", np.array([np.nan]), 1)

    @pytest.mark.parametrize("n_samples,local_loss,message", [
        (0, 0.0, "n_samples must be >= 1"),
        (1, -1.0, "local_loss must be finite and >= 0"),
        (1, np.nan, "local_loss must be finite and >= 0"),
    ], ids=["no-samples", "loss-negative", "loss-nan"])
    def test_bad_update_rejected(self, n_samples, local_loss, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            ClientUpdate("a", np.zeros(2), n_samples, local_loss)

    def test_order_independence_is_bitwise(self):
        rng = np.random.default_rng(0)
        ups = [ClientUpdate(f"c{i}", rng.normal(size=5), int(rng.integers(1, 50)))
               for i in range(7)]
        forward = aggregate(ups, FEDAVG)
        backward = aggregate(list(reversed(ups)), FEDAVG)
        assert np.array_equal(forward, backward)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stacked_reduction_matches_one_at_a_time(self, dtype):
        # Twelve clients, so id order (c0, c1, c10, c11, c2, ...) is not
        # index order; inputs shuffled.
        rng = np.random.default_rng(8)
        cfg = AggregationConfig(method=AggMethod.LOSS_WEIGHTED, alpha=0.7)
        for _ in range(50):
            ups = [ClientUpdate(f"c{i}", rng.normal(size=33).astype(dtype),
                                int(rng.integers(1, 90)), float(rng.uniform(0, 5)))
                   for i in range(12)]
            shuffled = [ups[i] for i in rng.permutation(12)]
            assert np.array_equal(aggregate(shuffled, FEDAVG), one_at_a_time(ups))
            assert np.array_equal(aggregate(shuffled, cfg), one_at_a_time(ups, cfg))

    @pytest.mark.parametrize("indices", [
        range(12),
        # ids past c9999 sort among the shorter ones: c10000 before c1001
        [9999, 10_000, 10_049, 1000, 1001, 100, 12, 10_001, 999, 0],
    ], ids=["shuffled-12", "past-c9999"])
    def test_combine_takes_rows_in_the_order_given(self, indices):
        # aggregate stacks the rows as given and reduces them in id order
        rng = np.random.default_rng(len(indices))
        for alpha in (0.0, 0.7):
            cfg = AggregationConfig(method=AggMethod.LOSS_WEIGHTED, alpha=alpha)
            for _ in range(20):
                ups = [ClientUpdate(f"c{i:04d}", rng.normal(size=33),
                                    int(rng.integers(1, 90)), float(rng.uniform(0, 5)))
                       for i in rng.permutation(indices)]
                order = sorted(range(len(ups)), key=lambda r: ups[r].client_id)
                assert order != list(range(len(ups)))
                assert np.array_equal(aggregate(ups, cfg), one_at_a_time(ups, cfg))


class TestLossWeighted:
    def test_alpha_zero_is_fedavg_bitwise(self):
        rng = np.random.default_rng(1)
        cfg = AggregationConfig(method=AggMethod.LOSS_WEIGHTED, alpha=0.0)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            ups = [ClientUpdate(f"c{i}", rng.normal(size=3),
                                int(rng.integers(1, 100)),
                                float(rng.uniform(0.01, 9.0)))
                   for i in range(n)]
            assert np.array_equal(aggregate(ups, cfg), aggregate(ups, FEDAVG))

    def test_hand_coefficients(self):
        cfg = AggregationConfig(method=AggMethod.LOSS_WEIGHTED, alpha=1.0)
        result = aggregate(updates_from([
            (([1.0, 0.0]), 7, 1.0), (([0.0, 1.0]), 7, 2.0)]), cfg)
        assert np.max(np.abs(result - np.array([2 / 3, 1 / 3]))) < 1e-12

    def test_equal_losses_mean_regardless_of_alpha(self):
        for alpha in (0.0, 0.5, 1.0, 3.0):
            cfg = AggregationConfig(method=AggMethod.LOSS_WEIGHTED, alpha=alpha)
            result = aggregate(updates_from([
                (([2.0, 0.0]), 5, 1.3), (([0.0, 2.0]), 5, 1.3)]), cfg)
            assert np.max(np.abs(result - np.array([1.0, 1.0]))) < 1e-12

    def test_coefficient_monotone_in_loss(self):
        # raising one client's loss moves the aggregate away from it
        cfg = AggregationConfig(method=AggMethod.LOSS_WEIGHTED, alpha=1.0)

        def first_coordinate(loss_a):
            return aggregate(updates_from([
                (([1.0, 0.0]), 5, loss_a), (([0.0, 1.0]), 5, 1.0)]), cfg)[0]

        values = [first_coordinate(l) for l in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_loss_floor_applies(self):
        cfg = AggregationConfig(method=AggMethod.LOSS_WEIGHTED, alpha=1.0,
                                epsilon=1e-8)
        result = aggregate(updates_from([
            (([1.0]), 1, 0.0), (([0.0]), 1, 1.0)]), cfg)
        assert np.all(np.isfinite(result))

    def test_convex_hull_membership(self):
        rng = np.random.default_rng(2)
        cfg = AggregationConfig(method=AggMethod.LOSS_WEIGHTED, alpha=1.0)
        for _ in range(500):
            n = int(rng.integers(2, 6))
            ups = [ClientUpdate(f"c{i}", rng.normal(size=4),
                                int(rng.integers(1, 30)),
                                float(rng.uniform(0.1, 4.0)))
                   for i in range(n)]
            stack = np.stack([u.weights for u in ups])
            for result in (aggregate(ups, FEDAVG), aggregate(ups, cfg)):
                assert np.all(result >= stack.min(axis=0) - 1e-9)
                assert np.all(result <= stack.max(axis=0) + 1e-9)

    def test_fedavg_ignores_alpha_and_epsilon(self):
        # fedavg reduces as alpha 0, bit for bit, whatever alpha and floor it holds
        fedavg = AggregationConfig(method=AggMethod.FEDAVG, alpha=3.0, epsilon=0.5)
        alpha0 = AggregationConfig(method=AggMethod.LOSS_WEIGHTED, alpha=0.0)
        ups = updates_from([(([1.0]), 1, 2.0), (([3.0]), 2, 0.1)])
        assert np.array_equal(aggregate(ups, fedavg), aggregate(ups, alpha0))
        # loss weighting with that alpha and floor would move the result
        weighted = replace(fedavg, method=AggMethod.LOSS_WEIGHTED)
        assert not np.array_equal(aggregate(ups, weighted), aggregate(ups, alpha0))
        rng = np.random.default_rng(11)
        cfg = SyntheticFLConfig(optima=rng.normal(size=(12, 4)),
                                n_samples=rng.integers(1, 50, size=12), rounds=10,
                                per_round=5, seed=2)
        a, b = run_synthetic_fl(cfg, fedavg), run_synthetic_fl(cfg, alpha0)
        assert np.array_equal(a.final_weights, b.final_weights)
        assert rounds_of(a) == rounds_of(b)

    @pytest.mark.parametrize("alpha,losses", [
        (50.0, (0.0, 1.0)),  # the floored loss 1e-8 ** -50 overflows
        (1000.0, (20.0, 30.0)),  # every coefficient underflows to 0
    ], ids=["overflow", "vanish"])
    def test_coefficients_without_a_finite_total_raise(self, alpha, losses):
        cfg = AggregationConfig(method=AggMethod.LOSS_WEIGHTED, alpha=alpha)
        ups = updates_from([(([1.0]), 1, losses[0]), (([0.0]), 1, losses[1])])
        with pytest.raises(ConfigError, match=f"vanish at alpha {alpha:g}$"):
            aggregate(ups, cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AggregationConfig(alpha=-1.0)
        with pytest.raises(ConfigError):
            AggregationConfig(epsilon=0.0)
        for alpha in (np.nan, np.inf):
            with pytest.raises(ConfigError):
                AggregationConfig(alpha=alpha)


class TestSyntheticRun:
    def test_fedavg_converges_to_weighted_mean(self):
        rng = np.random.default_rng(3)
        cfg = SyntheticFLConfig(optima=rng.normal(size=(8, 5)),
                                n_samples=tuple(int(x) for x in
                                                rng.integers(10, 90, size=8)),
                                rounds=80, seed=3)
        traj = run_synthetic_fl(cfg, AggregationConfig(method=AggMethod.FEDAVG))
        assert np.linalg.norm(traj.final_weights - cfg.population_optimum()) < 1e-6

    def test_single_client_is_plain_gradient_descent(self):
        mu = np.array([2.0, -1.0, 0.5])
        cfg = SyntheticFLConfig(optima=mu[None, :], n_samples=(10,),
                                learning_rate=0.4, local_steps=3, rounds=30, seed=0)
        traj = run_synthetic_fl(cfg, AggregationConfig(method=AggMethod.FEDAVG))
        assert np.linalg.norm(traj.final_weights - mu) < 1e-6
        # matches the closed form after one round: mu + (1 - lr)^steps * (w0 - mu)
        first = run_synthetic_fl(replace(cfg, rounds=1),
                                 AggregationConfig(method=AggMethod.FEDAVG))
        expected = mu + (1 - 0.4) ** 3 * (np.zeros(3) - mu)
        assert np.max(np.abs(first.final_weights - expected)) < 1e-12

    def test_outlier_downweighted_by_loss_aggregation(self):
        rng = np.random.default_rng(4)
        inliers = rng.normal(size=(9, 4)) * 0.2
        outlier = np.full((1, 4), 8.0)
        cfg = SyntheticFLConfig(optima=np.vstack([inliers, outlier]),
                                n_samples=(10,) * 10, learning_rate=0.2,
                                local_steps=2, rounds=40, seed=4)
        inlier_mean = inliers.mean(axis=0)
        fa = run_synthetic_fl(cfg, AggregationConfig(method=AggMethod.FEDAVG))
        lw = run_synthetic_fl(cfg, AggregationConfig(
            method=AggMethod.LOSS_WEIGHTED, alpha=1.0))
        assert (np.linalg.norm(lw.final_weights - inlier_mean)
                < np.linalg.norm(fa.final_weights - inlier_mean))

    def test_trajectories_bit_identical_for_fixed_seed(self):
        rng = np.random.default_rng(5)
        cfg = SyntheticFLConfig(optima=rng.normal(size=(20, 4)),
                                n_samples=(5,) * 20, rounds=30, per_round=6, seed=42)
        agg = AggregationConfig(method=AggMethod.FEDAVG)
        a = run_synthetic_fl(cfg, agg)
        b = run_synthetic_fl(cfg, agg)
        assert np.array_equal(a.final_weights, b.final_weights)
        assert rounds_of(a) == rounds_of(b)

    def test_partial_participation_selects_requested_count(self):
        rng = np.random.default_rng(6)
        cfg = SyntheticFLConfig(optima=rng.normal(size=(50, 3)),
                                n_samples=(1,) * 50, rounds=10, per_round=7, seed=1)
        traj = run_synthetic_fl(cfg, AggregationConfig(method=AggMethod.FEDAVG))
        assert traj.selected.shape == traj.client_losses.shape == (10, 7)
        for selected in traj.selected.tolist():
            assert len(set(selected)) == 7

    @pytest.mark.parametrize("per_round", [7, None], ids=["7-of-30", "all-30"])
    def test_rounds_train_the_clients_fl_plan_schedules(self, per_round, monkeypatch):
        rng = np.random.default_rng(8)
        cfg = SyntheticFLConfig(optima=rng.normal(size=(30, 3)), n_samples=(1,) * 30,
                                rounds=25, per_round=per_round, seed=4)
        drawn = []

        def drawing(*args):
            drawn.append(schedule_rounds(*args))
            return drawn[-1]

        monkeypatch.setattr(aggregation, "schedule_rounds", drawing)
        traj = run_synthetic_fl(cfg, AggregationConfig(method=AggMethod.FEDAVG))
        schedule = schedule_rounds(30, per_round or 30, 25, seed=4)
        assert traj.selected.tolist() == schedule.selected.tolist()
        assert traj.selected is drawn[0].selected  # the schedule's array, not a copy

    def test_pre_loss_reporting_changes_weighting(self):
        rng = np.random.default_rng(7)
        optima = rng.normal(size=(5, 3)) * 2
        base = dict(optima=optima, n_samples=(10,) * 5, learning_rate=0.3,
                    local_steps=4, rounds=5, seed=9)
        post = SyntheticFLConfig(**base)
        pre = SyntheticFLConfig(**base, report_pre_loss=True)
        agg = AggregationConfig(method=AggMethod.LOSS_WEIGHTED, alpha=1.0)
        post_losses = rounds_of(run_synthetic_fl(post, agg))[0][1]
        pre_losses = rounds_of(run_synthetic_fl(pre, agg))[0][1]
        # loss before local training is never smaller than after it
        assert pre_losses.keys() == post_losses.keys()
        assert all(pre_losses[k] >= post_losses[k] for k in pre_losses)

    def test_rounds_to_loss(self):
        mu = np.zeros((1, 2))
        cfg = SyntheticFLConfig(optima=mu, n_samples=(1,), rounds=5, seed=0)
        traj = run_synthetic_fl(cfg, AggregationConfig(method=AggMethod.FEDAVG))
        assert traj.rounds_to_loss(1e-9) == 1  # starts at the optimum
        assert traj.rounds_to_loss(-1.0) is None

    @pytest.mark.parametrize("n_clients,per_round,method,pre_loss,dim", [
        pytest.param(8, None, AggMethod.FEDAVG, False, 6, id="8-None-fedavg-False"),
        pytest.param(30, 7, AggMethod.LOSS_WEIGHTED, False, 6,
                     id="30-7-loss_weighted-False"),
        pytest.param(30, 7, AggMethod.LOSS_WEIGHTED, True, 6, id="30-7-loss_weighted-True"),
        pytest.param(10_050, 40, AggMethod.LOSS_WEIGHTED, False, 6,
                     id="10050-40-loss_weighted-False"),
        # all 37 clients fit in one population-loss block
        *[pytest.param(37, 9, method, pre_loss, 40, id=f"37-9-{method.value}-{pre_loss}-dim40")
          for method in AggMethod for pre_loss in (False, True)],
        # each row is summed in more than one pairwise block
        pytest.param(17, None, AggMethod.LOSS_WEIGHTED, False, 300,
                     id="17-None-loss_weighted-False-dim300"),
        # the population loss sums blocks of 32, 32 and 6 clients
        pytest.param(70, 9, AggMethod.LOSS_WEIGHTED, False, 2000,
                     id="70-9-loss_weighted-False-dim2000"),
        # and blocks of 65,536, 65,536 and 8,928 clients
        pytest.param(140_000, 5, AggMethod.LOSS_WEIGHTED, True, 1,
                     id="140000-5-loss_weighted-True-dim1"),
        # each row's mean of client losses sums more than one pairwise block
        pytest.param(300, 200, AggMethod.LOSS_WEIGHTED, False, 6,
                     id="300-200-loss_weighted-False"),
    ])
    def test_stacked_rounds_match_client_at_a_time(self, n_clients, per_round, method,
                                                   pre_loss, dim):
        rng = np.random.default_rng(n_clients)
        cfg = SyntheticFLConfig(optima=rng.normal(size=(n_clients, dim)),
                                n_samples=tuple(int(x) for x in
                                                rng.integers(1, 50, size=n_clients)),
                                rounds=12, per_round=per_round, seed=n_clients,
                                report_pre_loss=pre_loss)
        agg = AggregationConfig(method=method, alpha=1.3)
        traj = run_synthetic_fl(cfg, agg)
        rounds, final = reference_run(cfg, agg)
        assert np.array_equal(traj.final_weights, final)
        assert rounds_of(traj) == rounds
        assert traj.client_losses.mean(axis=1).tolist() == \
            [float(np.mean(list(losses.values()))) for _, losses, _, _ in rounds]
        if n_clients > 10_000:  # some round reduced a client past c9999
            assert traj.selected.max() >= 10_000

    def test_divergence_names_first_client_in_id_order(self):
        # Only c2000 and c10000 move away from zero, and c10000 sorts first.
        optima = np.zeros((10_050, 1))
        optima[[2000, 10_000]] = 1.0
        cfg = SyntheticFLConfig(optima=optima, n_samples=(1,) * 10_050,
                                learning_rate=1e300, local_steps=3, rounds=1)
        with pytest.raises(ConfigError, match="round 0: non-finite loss or weights "
                                              "of client c10000;"):
            run_synthetic_fl(cfg, AggregationConfig())

    @pytest.mark.parametrize("n_clients", [1, 9999, 10_000, 10_001, 10_050, 123_457])
    def test_id_rank_from_integers_is_the_string_order(self, n_clients):
        ids = [f"c{i:04d}" for i in range(n_clients)]
        rank = np.empty(n_clients, dtype=np.int64)
        rank[sorted(range(n_clients), key=ids.__getitem__)] = np.arange(n_clients)
        assert np.array_equal(aggregation._id_rank(n_clients), rank)

    @pytest.mark.parametrize("n_clients,dim,blocks", [
        (37, 40, [37]),
        (70, 2000, [32, 32, 6]),
        (140_000, 1, [65_536, 65_536, 8_928]),
        (3, 70_000, [1, 1, 1]),  # a row wider than a block is a block of its own
    ])
    def test_population_loss_in_blocks_is_the_plain_sum(self, n_clients, dim, blocks):
        rng = np.random.default_rng(dim)
        cfg = SyntheticFLConfig(optima=rng.normal(size=(n_clients, dim)),
                                n_samples=rng.integers(1, 50, size=n_clients))
        loss = aggregation._PopulationLoss(cfg)
        assert [min(loss.rows, n_clients - start)
                for start in range(0, n_clients, loss.rows)] == blocks
        for weights in (np.zeros(dim), rng.normal(size=dim), rng.normal(size=dim) * 1e3):
            assert loss(weights) == plain_population_loss(cfg, weights)
            assert cfg.population_loss(weights) == plain_population_loss(cfg, weights)

    def test_sample_counts_are_held_as_one_int64_array(self):
        cfg = SyntheticFLConfig(optima=np.zeros((3, 2)), n_samples=(4, 5, 6))
        assert cfg.n_samples.dtype == np.int64 and cfg.n_samples.tolist() == [4, 5, 6]
        assert replace(cfg, rounds=2).n_samples.tolist() == [4, 5, 6]

    @pytest.mark.parametrize("change", [
        dict(learning_rate=np.nan), dict(learning_rate=np.inf),
        dict(optima=np.zeros((3, 0))), dict(optima=np.full((3, 2), np.nan)),
        dict(n_samples=(1, 1)), dict(n_samples=(1, 0, 1)),
    ], ids=["lr-nan", "lr-inf", "dim-0", "optima-nan", "counts-2-of-3", "count-0"])
    def test_config_rejects_non_finite_and_empty(self, change):
        base = dict(optima=np.zeros((3, 2)), n_samples=(1, 1, 1))
        with pytest.raises(ConfigError):
            SyntheticFLConfig(**{**base, **change})

    @pytest.mark.parametrize("per_round", [0, 4])
    def test_per_round_outside_the_clients_rejected(self, per_round):
        with pytest.raises(ConfigError, match=r"^per_round must be in \[1, n_clients\]$"):
            SyntheticFLConfig(optima=np.zeros((3, 2)), n_samples=(1, 1, 1),
                              per_round=per_round)


# Runs that fail on a round's population loss, on a client's loss, on a
# client's weights, and on loss-weighting coefficients that overflow:
# (config fields, aggregation, error)
DIVERGING = {
    "population": (dict(optima=np.random.default_rng(0).normal(size=(10, 8)),
                        n_samples=(1,) * 10, learning_rate=2.5, rounds=400),
                   AggregationConfig(), r"^round 174: non-finite population loss;"),
    "client": (dict(optima=np.array([[0.0], [1.0], [0.0]]), n_samples=(1,) * 3,
                    learning_rate=1e300, local_steps=3, rounds=2),
               AggregationConfig(), r"^round 0: non-finite loss or weights of client c0001;"),
    # losses scored before training stay finite; only the weights show it
    "pre-loss-client": (dict(optima=np.array([[0.0], [1.0], [0.0]]), n_samples=(1,) * 3,
                             learning_rate=1e300, local_steps=3, rounds=2,
                             report_pre_loss=True),
                        AggregationConfig(),
                        r"^round 0: non-finite loss or weights of client c0001;"),
    # finite weights, and optima whose loss overflows at zero weights too
    "population-overflow": (dict(optima=np.array([[2e154], [-2e154], [0.0]]),
                                 n_samples=(1,) * 3, rounds=2),
                            AggregationConfig(),
                            r"^round 0: the population loss overflows at finite weights;"),
    "coefficients": (dict(optima=np.random.default_rng(1).normal(size=(3, 4)),
                          n_samples=(1,) * 3, rounds=1),
                     AggregationConfig(method=AggMethod.LOSS_WEIGHTED, alpha=1e300),
                     "overflow or vanish at alpha 1e[+]300$"),
}


class TestAlignedEmpty:
    def test_a_c_contiguous_writable_buffer_on_a_cache_line(self):
        # numpy's 16-byte alignment places arrays of these sizes at several
        # offsets in a cache line; each buffer made here starts on one
        shapes = [(rows, dim) for rows in (0, 1, 3, 20) for dim in (0, 1, 2, 5, 7, 2000)] * 4
        buffers = [aggregation._aligned_empty(shape, "some counts") for shape in shapes]
        for value, (shape, buffer) in enumerate(zip(shapes, buffers)):
            assert (buffer.shape, buffer.dtype) == (shape, np.float64)
            assert buffer.ctypes.data % 64 == 0, shape
            assert buffer.flags.c_contiguous and buffer.flags.writeable
            buffer[...] = value
        # each keeps what was written to it, so none overlaps another
        assert all((buffer == value).all() for value, buffer in enumerate(buffers))

    @pytest.mark.parametrize("shape", [(10**10, 10**10), (10**400, 1)],
                             ids=["no-memory", "no-index"])
    def test_a_buffer_too_large_is_refused(self, shape):
        with pytest.raises(ConfigError, match="^some counts cannot be allocated$"):
            aggregation._aligned_empty(shape, "some counts")


class TestPopulationLossWorker:
    """Each round's population loss is computed on a worker thread while the
    next round trains."""

    @pytest.mark.parametrize("outcome", ["returns", *DIVERGING])
    def test_no_thread_outlives_the_run(self, outcome):
        before = threading.active_count()
        if outcome == "returns":
            run_synthetic_fl(SyntheticFLConfig(optima=np.ones((4, 3)), n_samples=(1,) * 4,
                                               rounds=5), AggregationConfig())
        else:
            fields, agg, message = DIVERGING[outcome]
            with pytest.raises(ConfigError, match=message):
                run_synthetic_fl(SyntheticFLConfig(**fields), agg)
        assert threading.active_count() == before

    def test_population_loss_error_comes_before_the_next_rounds_client_error(
            self, monkeypatch):
        fields, agg, message = DIVERGING["population"]
        cfg = SyntheticFLConfig(**fields)
        with pytest.raises(ConfigError, match=message):
            run_synthetic_fl(cfg, agg)
        # with a finite population loss, round 175 fails on a client instead
        monkeypatch.setattr(aggregation._PopulationLoss, "__call__", lambda self, w: 0.0)
        with pytest.raises(ConfigError, match=r"^round 175: non-finite loss or weights "
                                              r"of client c0000;"):
            run_synthetic_fl(cfg, agg)

    def test_an_exception_in_the_worker_reaches_the_caller(self, monkeypatch):
        calls = []

        def failing_on_the_third_round(self, weights):
            calls.append(weights)
            if len(calls) == 3:
                raise RuntimeError("population loss failed")
            return 1.0

        monkeypatch.setattr(aggregation._PopulationLoss, "__call__",
                            failing_on_the_third_round)
        raised = []

        def call():
            try:
                run_synthetic_fl(SyntheticFLConfig(optima=np.ones((4, 3)), n_samples=(1,) * 4,
                                                   rounds=10),
                                 AggregationConfig())
            except RuntimeError as exc:
                raised.append(exc)

        before = threading.active_count()
        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive(), "the run hangs on a failed worker"
        assert [str(exc) for exc in raised] == ["population loss failed"]
        assert threading.active_count() == before

    def test_runs_side_by_side_give_the_bits_of_one_run(self):
        # four callers and their four workers on fewer cores, switching often
        rng = np.random.default_rng(12)
        cfg = SyntheticFLConfig(optima=rng.normal(size=(37, 40)), n_samples=(3,) * 37,
                                rounds=40, per_round=9, seed=12)
        agg = AggregationConfig(method=AggMethod.LOSS_WEIGHTED, alpha=1.3)
        alone = run_synthetic_fl(cfg, agg)
        results = []
        callers = [threading.Thread(target=lambda: results.append(run_synthetic_fl(cfg, agg)),
                                    daemon=True) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert len(results) == 4
        for traj in results:
            assert np.array_equal(traj.final_weights, alone.final_weights)
            assert rounds_of(traj) == rounds_of(alone)
