"""Tests for the Gaussian-process surrogate."""

import numpy as np
import pytest

from repro.solvers.gp import GaussianProcess, RBFKernel


class TestKernel:
    def test_diagonal_is_variance(self):
        kernel = RBFKernel(lengthscale=0.5, variance=2.0)
        x = np.random.default_rng(0).uniform(size=(5, 3))
        matrix = kernel(x, x)
        np.testing.assert_allclose(np.diag(matrix), 2.0)
        rng = np.random.default_rng(1)
        fitted = GaussianProcess().fit(rng.uniform(size=(12, 3)), rng.normal(size=12)).kernel
        kernels = [kernel, fitted] + [
            RBFKernel(lengthscale=float(length), variance=float(variance))
            for length, variance in rng.uniform(0.01, 5.0, size=(5, 2))
        ]
        for candidate in kernels:
            for points in (x, rng.uniform(-3.0, 3.0, size=(40, 4)), np.zeros((1, 2))):
                diag = candidate.diag(points)
                assert diag.dtype == np.float64
                assert diag.tobytes() == np.diag(candidate(points, points)).tobytes()

    def test_decay_with_distance(self):
        kernel = RBFKernel(lengthscale=0.3, variance=1.0)
        near = kernel(np.array([[0.0]]), np.array([[0.1]]))[0, 0]
        far = kernel(np.array([[0.0]]), np.array([[1.0]]))[0, 0]
        assert near > far

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            RBFKernel(lengthscale=0.0)
        with pytest.raises(ValueError):
            RBFKernel(variance=-1.0)


class TestGaussianProcess:
    def test_interpolates_training_points_with_low_noise(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=(12, 2))
        y = np.sin(3 * x[:, 0]) + x[:, 1]
        gp = GaussianProcess(noise=1e-6, optimize_hyperparameters=False).fit(x, y)
        mean, std = gp.predict(x)
        np.testing.assert_allclose(mean, y, atol=1e-3)
        assert np.all(std < 0.1)

    def test_uncertainty_grows_away_from_data(self):
        x = np.array([[0.2, 0.2], [0.3, 0.3], [0.25, 0.35]])
        y = np.array([1.0, 2.0, 1.5])
        gp = GaussianProcess(optimize_hyperparameters=False).fit(x, y)
        _, std_near = gp.predict(np.array([[0.25, 0.25]]))
        _, std_far = gp.predict(np.array([[0.9, 0.9]]))
        assert std_far[0] > std_near[0]

    def test_predictions_in_original_units(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(20, 4))
        y = 100.0 + 50.0 * x[:, 0]
        gp = GaussianProcess(optimize_hyperparameters=False).fit(x, y)
        mean, _ = gp.predict(x)
        assert mean.mean() == pytest.approx(y.mean(), rel=0.05)

    def test_hyperparameter_optimisation_improves_fit(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(30, 1))
        y = np.sin(8 * x[:, 0])
        default = GaussianProcess(kernel=RBFKernel(lengthscale=1.0), optimize_hyperparameters=False).fit(x, y)
        tuned = GaussianProcess(kernel=RBFKernel(lengthscale=1.0), optimize_hyperparameters=True).fit(x, y)
        grid = np.linspace(0, 1, 50)[:, None]
        truth = np.sin(8 * grid[:, 0])
        default_error = np.abs(default.predict(grid)[0] - truth).mean()
        tuned_error = np.abs(tuned.predict(grid)[0] - truth).mean()
        assert tuned_error <= default_error + 1e-6

    def test_log_marginal_likelihood_finite(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(size=(10, 2))
        y = rng.normal(size=10)
        gp = GaussianProcess(optimize_hyperparameters=False).fit(x, y)
        assert np.isfinite(gp.log_marginal_likelihood())

    def test_errors_for_misuse(self):
        gp = GaussianProcess()
        with pytest.raises(RuntimeError):
            gp.predict(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            gp.fit(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            gp.fit(np.zeros((3, 2)), np.zeros(2))

    def test_constant_targets_handled(self):
        x = np.random.default_rng(5).uniform(size=(6, 2))
        y = np.full(6, 3.0)
        gp = GaussianProcess(optimize_hyperparameters=False).fit(x, y)
        mean, _ = gp.predict(np.array([[0.5, 0.5]]))
        assert mean[0] == pytest.approx(3.0, abs=0.2)
