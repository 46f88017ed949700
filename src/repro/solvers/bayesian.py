"""Bayesian-optimisation solver.

The paper's second decision procedure (Section 2.5): a Gaussian-process
surrogate over the ratio cube with an expected-improvement acquisition.  The
paper notes BO "do[es] not yield a systematic improvement over the genetic
algorithm" on this problem; the solver-comparison benchmark reproduces that
observation.

Batch proposals use the constant-liar strategy: after selecting a candidate,
its predicted mean is temporarily treated as an observation so subsequent
candidates in the same batch spread out instead of piling onto one optimum.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.solvers.base import ColorSolver, register_solver
from repro.solvers.gp import GaussianProcess, RBFKernel
from repro.utils.validation import check_positive

__all__ = ["BayesianSolver", "expected_improvement"]


def expected_improvement(mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.01) -> np.ndarray:
    """Expected improvement for a *minimisation* problem.

    ``mean``/``std`` are the GP posterior at the candidate points, ``best`` is
    the incumbent (lowest observed score), ``xi`` a small exploration margin.
    ``special.ndtr`` and the closed-form density are exactly what
    ``scipy.stats.norm.cdf``/``pdf`` compute, without importing ``scipy.stats``.
    """
    from scipy import special

    std = np.maximum(np.asarray(std, dtype=np.float64), 1e-12)
    improvement = best - xi - np.asarray(mean, dtype=np.float64)
    z = improvement / std
    return improvement * special.ndtr(z) + std * (np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi))


@register_solver("bayesian")
class BayesianSolver(ColorSolver):
    """GP + expected-improvement Bayesian optimisation over dye ratios.

    Parameters
    ----------
    n_initial:
        Number of random samples proposed before the surrogate is trusted.
    n_candidates:
        Size of the random candidate pool scored by the acquisition function
        at each proposal.
    xi:
        Exploration margin of the expected-improvement acquisition.
    refit_every:
        Hyperparameters are re-optimised every this many observations (a GP
        refit is O(n^3); for the 128-sample experiments this keeps proposal
        cost negligible next to the simulated robot time).
    """

    def __init__(
        self,
        n_dyes: int = 4,
        seed=None,
        *,
        n_initial: int = 8,
        n_candidates: int = 512,
        xi: float = 0.01,
        refit_every: int = 4,
        lengthscale: float = 0.3,
    ):
        super().__init__(n_dyes=n_dyes, seed=seed)
        check_positive("n_initial", n_initial)
        check_positive("n_candidates", n_candidates)
        check_positive("refit_every", refit_every)
        self.n_initial = int(n_initial)
        self.n_candidates = int(n_candidates)
        self.xi = float(xi)
        self.refit_every = int(refit_every)
        self.lengthscale = float(lengthscale)
        self._gp: Optional[GaussianProcess] = None
        self._observations_at_last_fit = 0

    def reset(self) -> None:
        super().reset()
        self._gp = None
        self._observations_at_last_fit = 0

    # ------------------------------------------------------------------
    # Proposal
    # ------------------------------------------------------------------
    def propose(self, batch_size: int) -> np.ndarray:
        check_positive("batch_size", batch_size)
        if self.n_observed < self.n_initial:
            return self.random_ratios(batch_size)

        ratios, scores = self.observed_arrays()
        gp = self._ensure_surrogate(ratios, scores)

        # Constant-liar batch selection.
        lie_x = ratios.copy()
        lie_y = scores.copy()
        best = float(scores.min())
        proposals = []
        for _ in range(batch_size):
            candidates = np.vstack(
                [
                    self.random_ratios(self.n_candidates),
                    self._perturbed_incumbents(lie_x, lie_y),
                ]
            )
            mean, std = gp.predict(candidates)
            acquisition = expected_improvement(mean, std, best, xi=self.xi)
            choice = candidates[int(np.argmax(acquisition))]
            proposals.append(choice)
            # Lie: pretend the GP mean was observed there and refit cheaply
            # (without hyperparameter optimisation) so the next pick spreads.
            lie_value = float(gp.predict(choice[None, :], return_std=False)[0][0])
            lie_x = np.vstack([lie_x, choice[None, :]])
            lie_y = np.append(lie_y, lie_value)
            gp = GaussianProcess(
                kernel=gp.kernel, noise=gp.noise, optimize_hyperparameters=False
            ).fit(lie_x, lie_y)
        return np.array(proposals)

    def _perturbed_incumbents(self, ratios: np.ndarray, scores: np.ndarray, count: int = 64) -> np.ndarray:
        """Candidates near the best few observations (local refinement pool)."""
        order = np.argsort(scores)[: max(3, len(scores) // 4)]
        base = ratios[self.rng.choice(order, size=count)]
        return self.clip_ratios(base + self.rng.normal(0.0, 0.08, size=base.shape))

    def _ensure_surrogate(self, ratios: np.ndarray, scores: np.ndarray) -> GaussianProcess:
        """Fit (or reuse) the GP surrogate on all observations."""
        needs_refit = (
            self._gp is None
            or self.n_observed - self._observations_at_last_fit >= self.refit_every
        )
        if needs_refit:
            optimize_now = self.n_observed >= 2 * self.n_initial
            gp = GaussianProcess(
                kernel=RBFKernel(lengthscale=self.lengthscale, variance=1.0),
                noise=1e-2,
                optimize_hyperparameters=optimize_now,
            )
            gp.fit(ratios, scores)
            self._gp = gp
            self._observations_at_last_fit = self.n_observed
        else:
            # Refit with current hyperparameters so new data is incorporated.
            self._gp = GaussianProcess(
                kernel=self._gp.kernel, noise=self._gp.noise, optimize_hyperparameters=False
            ).fit(ratios, scores)
        return self._gp

    def describe(self):
        info = super().describe()
        info.update(
            {
                "n_initial": self.n_initial,
                "n_candidates": self.n_candidates,
                "xi": self.xi,
                "refit_every": self.refit_every,
            }
        )
        return info
