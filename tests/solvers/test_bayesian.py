"""Tests for the Bayesian-optimisation solver."""

import numpy as np
import pytest

from repro.solvers.bayesian import BayesianSolver, expected_improvement


def toy_objective(ratios):
    optimum = np.array([0.45, 0.15, 0.55, 0.25])
    return np.linalg.norm(np.atleast_2d(ratios) - optimum, axis=1) * 100.0


def run_solver(solver, n_samples, batch_size):
    for _ in range(n_samples // batch_size):
        ratios = solver.propose(batch_size)
        scores = toy_objective(ratios)
        solver.observe(ratios, np.zeros((len(ratios), 3)), scores)
    return solver


class TestExpectedImprovement:
    def test_zero_std_and_worse_mean_gives_zero(self):
        ei = expected_improvement(np.array([10.0]), np.array([1e-12]), best=5.0)
        assert ei[0] == pytest.approx(0.0, abs=1e-9)

    def test_better_mean_gives_positive_ei(self):
        ei = expected_improvement(np.array([1.0]), np.array([0.5]), best=5.0)
        assert ei[0] > 3.0

    def test_higher_uncertainty_raises_ei_for_equal_mean(self):
        low = expected_improvement(np.array([5.0]), np.array([0.1]), best=5.0)
        high = expected_improvement(np.array([5.0]), np.array([2.0]), best=5.0)
        assert high[0] > low[0]

    def test_matches_scipy_stats_norm_bit_for_bit(self):
        from scipy import stats

        def stats_norm_ei(mean, std, best, xi=0.01):
            std = np.maximum(np.asarray(std, dtype=np.float64), 1e-12)
            improvement = best - xi - np.asarray(mean, dtype=np.float64)
            z = improvement / std
            return improvement * stats.norm.cdf(z) + std * stats.norm.pdf(z)

        # With best = xi = 0 and std = 1, z is exactly -mean.
        z = np.concatenate(
            [
                np.linspace(-40.0, 40.0, 200_001),
                [np.inf, -np.inf, np.nan, 0.0, -0.0, 1e300, -1e300],
            ]
        )
        rng = np.random.default_rng(27)
        mean = rng.uniform(0.0, 120.0, size=5000)
        std = np.concatenate([rng.uniform(0.0, 30.0, size=4999), [0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(
                expected_improvement(-z, np.ones_like(z), best=0.0, xi=0.0),
                stats_norm_ei(-z, np.ones_like(z), best=0.0, xi=0.0),
                equal_nan=True,
            )
            assert np.array_equal(
                expected_improvement(mean, std, best=40.0),
                stats_norm_ei(mean, std, best=40.0),
                equal_nan=True,
            )


class TestBayesianSolver:
    def test_initial_proposals_are_random_exploration(self):
        solver = BayesianSolver(seed=0, n_initial=6)
        ratios = solver.propose(4)
        assert ratios.shape == (4, 4)
        assert solver.n_observed == 0

    def test_proposals_stay_in_bounds_after_model_kicks_in(self):
        solver = BayesianSolver(seed=1, n_initial=4, n_candidates=64)
        run_solver(solver, 24, 4)
        ratios = solver.propose(4)
        assert np.all(ratios >= 0) and np.all(ratios <= 1)

    def test_batch_proposals_are_diverse(self):
        solver = BayesianSolver(seed=2, n_initial=4, n_candidates=64)
        run_solver(solver, 16, 4)
        batch = solver.propose(8)
        distances = np.linalg.norm(batch[:, None, :] - batch[None, :, :], axis=-1)
        off_diagonal = distances[~np.eye(len(batch), dtype=bool)]
        assert off_diagonal.max() > 0.05

    def test_outperforms_pure_random_on_smooth_objective(self):
        budget = 40
        bo = run_solver(BayesianSolver(seed=3, n_initial=8, n_candidates=128), budget, 4)
        rng = np.random.default_rng(3)
        random_scores = toy_objective(rng.uniform(0, 1, size=(budget, 4)))
        assert bo.best_score <= np.min(random_scores) + 5.0
        assert bo.best_score < 25.0

    def test_reset_clears_surrogate(self):
        solver = run_solver(BayesianSolver(seed=4, n_initial=4), 12, 4)
        solver.reset()
        assert solver.n_observed == 0
        assert solver._gp is None

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BayesianSolver(n_initial=0)
        with pytest.raises(ValueError):
            BayesianSolver(n_candidates=0)
        with pytest.raises(ValueError):
            BayesianSolver(refit_every=0)

    def test_describe_reports_configuration(self):
        description = BayesianSolver(seed=1, n_initial=5).describe()
        assert description["solver"] == "bayesian"
        assert description["n_initial"] == 5
