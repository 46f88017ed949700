"""Low-discrepancy (Sobol) space-filling solver.

A quasi-random baseline between pure random search and the grid: proposals
follow a Sobol sequence (via :mod:`scipy.stats.qmc`), which covers the ratio
cube far more evenly than uniform random draws at the small sample budgets the
colour picker uses (N = 128).  Useful both as a stronger model-free baseline
and as the initial design for the Bayesian solver in ablation studies.

:mod:`scipy.stats` takes most of a second to import, so :class:`SobolSolver`
imports ``qmc`` when it is constructed: loading the solver registry (and so
``import repro``) imports no scipy.
"""

from __future__ import annotations

import numpy as np

from repro.solvers.base import ColorSolver, register_solver
from repro.utils.validation import check_positive

__all__ = ["SobolSolver"]


@register_solver("sobol")
class SobolSolver(ColorSolver):
    """Proposes points from a scrambled Sobol sequence over the ratio cube."""

    def __init__(self, n_dyes: int = 4, seed=None, *, scramble: bool = True):
        from scipy.stats import qmc

        super().__init__(n_dyes=n_dyes, seed=seed)
        # scipy's Sobol engine needs its own integer seed for scrambling.
        scramble_seed = int(self.rng.integers(0, 2**31 - 1)) if scramble else None
        self._engine = qmc.Sobol(d=n_dyes, scramble=scramble, seed=scramble_seed)

    def propose(self, batch_size: int) -> np.ndarray:
        check_positive("batch_size", batch_size)
        points = self._engine.random(batch_size)
        return self.clip_ratios(points)

    def reset(self) -> None:
        super().reset()
        self._engine.reset()
