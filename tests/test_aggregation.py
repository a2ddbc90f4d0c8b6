from dataclasses import replace

import numpy as np
import pytest

from fedspeech.aggregation import (AggMethod, AggregationConfig, ClientUpdate,
                                   SyntheticFLConfig, aggregate, fedavg, loss_weighted,
                                   run_synthetic_fl)
from fedspeech.errors import ConfigError, DimensionMismatchError, EmptyUpdateSetError


def updates_from(pairs):
    return [ClientUpdate(f"c{i}", np.asarray(w, dtype=float), n, loss)
            for i, (w, n, loss) in enumerate(pairs)]


class TestFedavg:
    def test_hand_example(self):
        result = fedavg(updates_from([(([0.0, 2.0]), 1, 0.0), (([4.0, 0.0]), 3, 0.0)]))
        assert np.max(np.abs(result - np.array([3.0, 0.5]))) < 1e-12

    def test_idempotent_on_identical_vectors(self):
        v = np.array([1.5, -2.0, 7.0])
        result = fedavg([ClientUpdate("a", v, 3), ClientUpdate("b", v, 9)])
        assert np.array_equal(result, v)

    def test_weight_scale_invariance(self):
        ups = updates_from([(([1.0, 0.0]), 2, 0.0), (([0.0, 1.0]), 5, 0.0)])
        scaled = [ClientUpdate(u.client_id, u.weights, u.n_samples * 10) for u in ups]
        assert np.max(np.abs(fedavg(ups) - fedavg(scaled))) < 1e-12

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyUpdateSetError):
            fedavg([])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            fedavg([ClientUpdate("a", np.zeros(2), 1),
                    ClientUpdate("b", np.zeros(3), 1)])

    def test_non_finite_weights_rejected(self):
        with pytest.raises(ConfigError):
            ClientUpdate("a", np.array([np.nan]), 1)

    def test_order_independence_is_bitwise(self):
        rng = np.random.default_rng(0)
        ups = [ClientUpdate(f"c{i}", rng.normal(size=5), int(rng.integers(1, 50)))
               for i in range(7)]
        forward = fedavg(ups)
        backward = fedavg(list(reversed(ups)))
        assert np.array_equal(forward, backward)


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
            assert np.array_equal(loss_weighted(ups, cfg), fedavg(ups))

    def test_hand_coefficients(self):
        cfg = AggregationConfig(method=AggMethod.LOSS_WEIGHTED, alpha=1.0)
        result = loss_weighted(updates_from([
            (([1.0, 0.0]), 7, 1.0), (([0.0, 1.0]), 7, 2.0)]), cfg)
        assert np.max(np.abs(result - np.array([2 / 3, 1 / 3]))) < 1e-12

    def test_equal_losses_mean_regardless_of_alpha(self):
        for alpha in (0.0, 0.5, 1.0, 3.0):
            cfg = AggregationConfig(method=AggMethod.LOSS_WEIGHTED, alpha=alpha)
            result = loss_weighted(updates_from([
                (([2.0, 0.0]), 5, 1.3), (([0.0, 2.0]), 5, 1.3)]), cfg)
            assert np.max(np.abs(result - np.array([1.0, 1.0]))) < 1e-12

    def test_coefficient_monotone_in_loss(self):
        # raising one client's loss moves the aggregate away from it
        cfg = AggregationConfig(method=AggMethod.LOSS_WEIGHTED, alpha=1.0)

        def first_coordinate(loss_a):
            return loss_weighted(updates_from([
                (([1.0, 0.0]), 5, loss_a), (([0.0, 1.0]), 5, 1.0)]), cfg)[0]

        values = [first_coordinate(l) for l in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_loss_floor_applies(self):
        cfg = AggregationConfig(method=AggMethod.LOSS_WEIGHTED, alpha=1.0,
                                epsilon=1e-8)
        result = loss_weighted(updates_from([
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
            for result in (fedavg(ups), loss_weighted(ups, cfg)):
                assert np.all(result >= stack.min(axis=0) - 1e-9)
                assert np.all(result <= stack.max(axis=0) + 1e-9)

    def test_dispatch(self):
        ups = updates_from([(([1.0]), 1, 2.0), (([3.0]), 1, 1.0)])
        assert np.array_equal(
            aggregate(ups, AggregationConfig(method=AggMethod.FEDAVG)), fedavg(ups))
        cfg = AggregationConfig(method=AggMethod.LOSS_WEIGHTED, alpha=1.0)
        assert np.array_equal(aggregate(ups, cfg), loss_weighted(ups, cfg))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AggregationConfig(alpha=-1.0)
        with pytest.raises(ConfigError):
            AggregationConfig(epsilon=0.0)


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
        assert all(x.selected == y.selected and x.client_losses == y.client_losses
                   and x.population_loss == y.population_loss
                   for x, y in zip(a.records, b.records))

    def test_partial_participation_selects_requested_count(self):
        rng = np.random.default_rng(6)
        cfg = SyntheticFLConfig(optima=rng.normal(size=(50, 3)),
                                n_samples=(1,) * 50, rounds=10, per_round=7, seed=1)
        traj = run_synthetic_fl(cfg, AggregationConfig(method=AggMethod.FEDAVG))
        for rec in traj.records:
            assert len(rec.selected) == len(set(rec.selected)) == 7

    def test_pre_loss_reporting_changes_weighting(self):
        rng = np.random.default_rng(7)
        optima = rng.normal(size=(5, 3)) * 2
        base = dict(optima=optima, n_samples=(10,) * 5, learning_rate=0.3,
                    local_steps=4, rounds=5, seed=9)
        post = SyntheticFLConfig(**base)
        pre = SyntheticFLConfig(**base, report_pre_loss=True)
        agg = AggregationConfig(method=AggMethod.LOSS_WEIGHTED, alpha=1.0)
        post_losses = run_synthetic_fl(post, agg).records[0].client_losses
        pre_losses = run_synthetic_fl(pre, agg).records[0].client_losses
        # loss before local training is never smaller than after it
        assert all(pre_losses[k] >= post_losses[k] for k in pre_losses)

    def test_rounds_to_loss(self):
        mu = np.zeros((1, 2))
        cfg = SyntheticFLConfig(optima=mu, n_samples=(1,), rounds=5, seed=0)
        traj = run_synthetic_fl(cfg, AggregationConfig(method=AggMethod.FEDAVG))
        assert traj.rounds_to_loss(1e-9) == 1  # starts at the optimum
        assert traj.rounds_to_loss(-1.0) is None
