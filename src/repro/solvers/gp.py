"""Gaussian-process regression (the surrogate model for the Bayesian solver).

"Bayesian optimization leverages a surrogate probabilistic model, commonly
Gaussian Processes, to approximate the objective function and iteratively
refines this based on evaluations" (paper Section 2.5).  The paper's
implementation builds on scikit-learn; since this reproduction avoids that
dependency, the standard exact-GP machinery (RBF kernel, Cholesky solve,
log-marginal-likelihood hyperparameter fitting) is implemented here directly
on numpy/scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["RBFKernel", "GaussianProcess"]


@dataclass
class RBFKernel:
    """Isotropic squared-exponential kernel with signal variance."""

    lengthscale: float = 0.3
    variance: float = 1.0

    def __post_init__(self):
        check_positive("lengthscale", self.lengthscale)
        check_positive("variance", self.variance)

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Kernel matrix between row-stacked inputs ``a`` (n, d) and ``b`` (m, d)."""
        a = np.atleast_2d(a)
        b = np.atleast_2d(b)
        sq_dist = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
        return self.variance * np.exp(-0.5 * sq_dist / self.lengthscale**2)

    def diag(self, x: np.ndarray) -> np.ndarray:
        """``np.diag(self(x, x))`` without building the ``(n, n)`` matrix.

        Every diagonal entry is ``variance * exp(-0.0)``, which is exactly
        ``variance``.
        """
        return np.full(np.atleast_2d(x).shape[0], self.variance, dtype=np.float64)

    def with_params(self, lengthscale: float, variance: float) -> "RBFKernel":
        """Return a new kernel with the given hyperparameters."""
        return RBFKernel(lengthscale=lengthscale, variance=variance)


class GaussianProcess:
    """Exact GP regression with an RBF kernel and Gaussian observation noise.

    The targets are internally standardised (zero mean, unit variance) so the
    default hyperparameters behave sensibly across score scales; predictions
    are returned in the original units.
    """

    def __init__(
        self,
        kernel: Optional[RBFKernel] = None,
        noise: float = 1e-2,
        *,
        optimize_hyperparameters: bool = True,
    ):
        check_positive("noise", noise)
        self.kernel = kernel if kernel is not None else RBFKernel()
        self.noise = float(noise)
        self.optimize_hyperparameters = optimize_hyperparameters
        self._x_train: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._alpha: Optional[np.ndarray] = None
        self._cholesky: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        """True once :meth:`fit` has been called with at least one point."""
        return self._alpha is not None

    def fit(self, x_train, y_train) -> "GaussianProcess":
        """Fit the GP to training inputs ``(n, d)`` and targets ``(n,)``."""
        from scipy import linalg

        x = np.atleast_2d(np.asarray(x_train, dtype=np.float64))
        y = np.asarray(y_train, dtype=np.float64).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"got {x.shape[0]} inputs but {y.shape[0]} targets")
        if x.shape[0] == 0:
            raise ValueError("cannot fit a GP to zero observations")

        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) if y.std() > 1e-12 else 1.0
        y_normalised = (y - self._y_mean) / self._y_std

        if self.optimize_hyperparameters and x.shape[0] >= 4:
            self._fit_hyperparameters(x, y_normalised)

        self._x_train = x
        kernel_matrix = self.kernel(x, x) + self.noise * np.eye(x.shape[0])
        self._cholesky = linalg.cholesky(kernel_matrix, lower=True)
        self._alpha = linalg.cho_solve((self._cholesky, True), y_normalised)
        return self

    def _fit_hyperparameters(self, x: np.ndarray, y: np.ndarray) -> None:
        """Maximise the log marginal likelihood over (lengthscale, variance, noise)."""
        from scipy import linalg, optimize

        def negative_log_marginal(log_params) -> float:
            lengthscale, variance, noise = np.exp(log_params)
            kernel = self.kernel.with_params(lengthscale, variance)
            matrix = kernel(x, x) + noise * np.eye(x.shape[0])
            try:
                chol = linalg.cholesky(matrix, lower=True)
            except linalg.LinAlgError:
                return 1e12
            alpha = linalg.cho_solve((chol, True), y)
            log_det = 2.0 * np.log(np.diag(chol)).sum()
            return float(0.5 * y @ alpha + 0.5 * log_det + 0.5 * len(y) * np.log(2 * np.pi))

        initial = np.log([self.kernel.lengthscale, self.kernel.variance, self.noise])
        bounds = [(np.log(1e-2), np.log(3.0)), (np.log(1e-3), np.log(1e3)), (np.log(1e-6), np.log(1.0))]
        result = optimize.minimize(
            negative_log_marginal, initial, method="L-BFGS-B", bounds=bounds
        )
        if result.success or np.isfinite(result.fun):
            lengthscale, variance, noise = np.exp(result.x)
            self.kernel = self.kernel.with_params(float(lengthscale), float(variance))
            self.noise = float(noise)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, x_query, return_std: bool = True) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Posterior mean (and standard deviation) at query points ``(m, d)``."""
        from scipy import linalg

        if not self.is_fitted:
            raise RuntimeError("GaussianProcess.predict called before fit")
        x = np.atleast_2d(np.asarray(x_query, dtype=np.float64))
        cross = self.kernel(x, self._x_train)
        mean = cross @ self._alpha * self._y_std + self._y_mean
        if not return_std:
            return mean, None
        solve = linalg.solve_triangular(self._cholesky, cross.T, lower=True)
        prior_var = self.kernel.diag(x)
        variance = np.maximum(prior_var - (solve**2).sum(axis=0), 1e-12)
        std = np.sqrt(variance) * self._y_std
        return mean, std

    def log_marginal_likelihood(self) -> float:
        """Log marginal likelihood of the fitted model (normalised-target units)."""
        if not self.is_fitted:
            raise RuntimeError("GaussianProcess.log_marginal_likelihood called before fit")
        # With K alpha = y_norm, the quadratic term y_norm^T K^{-1} y_norm equals
        # alpha^T K alpha (K including the noise term).
        log_det = 2.0 * np.log(np.diag(self._cholesky)).sum()
        kernel_matrix = self.kernel(self._x_train, self._x_train) + self.noise * np.eye(len(self._alpha))
        quadratic = float(self._alpha @ kernel_matrix @ self._alpha)
        return float(-0.5 * quadratic - 0.5 * log_det - 0.5 * len(self._alpha) * np.log(2 * np.pi))
