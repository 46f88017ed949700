"""Seeded random-number plumbing.

Every stochastic component in the library (dye-mixing noise, camera noise,
action-duration jitter, the evolutionary solver's mutations, failure
injection) draws from a :class:`numpy.random.Generator`.  To make whole
experiments reproducible from a single integer seed, components never create
their own generators from entropy: they accept either a seed, an existing
generator, or a :class:`RandomSource` from which independent child streams can
be derived by name.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

__all__ = ["RandomSource", "ensure_rng", "derive_rng"]

SeedLike = Union[None, int, np.random.Generator, "RandomSource"]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be ``None`` (fresh entropy), an integer, an existing
    generator (returned unchanged), or a :class:`RandomSource` (its root
    generator is returned).
    """
    if isinstance(seed, RandomSource):
        return seed.generator
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_rng(seed: SeedLike, name: str) -> np.random.Generator:
    """Derive an independent generator for ``name`` from ``seed``.

    Deriving by name (rather than splitting sequentially) means adding a new
    consumer of randomness does not perturb the streams seen by existing
    consumers, which keeps recorded benchmark numbers stable across versions.
    """
    if isinstance(seed, RandomSource):
        return seed.child(name).generator
    base = ensure_rng(seed)
    # Mix the name into the stream deterministically.
    name_digest = np.frombuffer(name.encode("utf-8"), dtype=np.uint8)
    mix = int(name_digest.sum()) + 1000003 * len(name)
    return np.random.default_rng([int(base.integers(0, 2**31 - 1)), mix])


class RandomSource:
    """A named tree of reproducible random generators.

    A :class:`RandomSource` wraps a root seed; :meth:`child` derives an
    independent, deterministic sub-stream for a component name.  Children of
    children are supported, so e.g. the OT-2 device and the camera can both
    derive their own noise streams from the experiment seed without
    interfering with each other.
    """

    def __init__(self, seed: Optional[int] = None, *, _path: str = ""):
        self._seed = seed
        self._path = _path
        self._generator: Optional[np.random.Generator] = None

    @property
    def seed(self) -> Optional[int]:
        """The root integer seed (``None`` if seeded from entropy)."""
        return self._seed

    @property
    def path(self) -> str:
        """Slash-separated name of this stream within the tree."""
        return self._path

    @property
    def generator(self) -> np.random.Generator:
        """The :class:`numpy.random.Generator` backing this source (lazily built)."""
        if self._generator is None:
            if self._seed is None:
                self._generator = np.random.default_rng()
            else:
                material = [self._seed] + [
                    _stable_hash(part) for part in self._path.split("/") if part
                ]
                self._generator = np.random.default_rng(material)
        return self._generator

    def child(self, name: str) -> "RandomSource":
        """Return the named child stream (deterministic given the root seed)."""
        if not name:
            raise ValueError("child name must be a non-empty string")
        path = f"{self._path}/{name}" if self._path else name
        return RandomSource(self._seed, _path=path)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RandomSource(seed={self._seed!r}, path={self._path!r})"


def _stable_hash(text: str) -> int:
    """A process-independent 63-bit hash (``hash()`` is salted per process)."""
    value = 1469598103934665603
    for byte in text.encode("utf-8"):
        value ^= byte
        value *= 1099511628211
        value &= (1 << 63) - 1
    return value
