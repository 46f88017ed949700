"""Action-duration models calibrated to the paper's Table 1.

Every simulated device action samples its duration from a
:class:`DurationModel`; a :class:`DurationTable` maps ``(module, action)``
pairs to models.  The default table (:func:`paper_calibrated_durations`) is
calibrated so that a B = 1, N = 128 colour-picker run reproduces the shape of
Table 1:

* total time-without-humans ≈ 8 h 12 m,
* synthesis (OT-2 busy) time ≈ 5 h 10 m,
* transfer (everything else) ≈ 3 h,
* ≈ 4 minutes per colour.

See DESIGN.md Section 5 for the derivation of the individual numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.rng import ensure_rng
from repro.utils.validation import check_non_negative

__all__ = [
    "DurationModel",
    "DurationTable",
    "ModuleSpeedProfile",
    "paper_calibrated_durations",
]


@dataclass(frozen=True)
class DurationModel:
    """Stochastic duration of one device action.

    The sampled duration is ``base + per_unit * units`` multiplied by a
    log-normal jitter factor with the given coefficient of variation, and
    never less than ``minimum``.

    ``units`` lets a single model cover batched actions: the OT-2's mixing
    protocol passes the number of wells it fills, the barty replenisher passes
    the number of reservoirs it refills, and so on.
    """

    base_s: float
    per_unit_s: float = 0.0
    jitter_cv: float = 0.05
    minimum_s: float = 0.5

    def __post_init__(self):
        check_non_negative("base_s", self.base_s)
        check_non_negative("per_unit_s", self.per_unit_s)
        check_non_negative("jitter_cv", self.jitter_cv)
        check_non_negative("minimum_s", self.minimum_s)
        # The jitter's log-normal parameters, fixed per model.
        sigma = np.sqrt(np.log(1.0 + self.jitter_cv**2))
        object.__setattr__(self, "_sigma", sigma)
        object.__setattr__(self, "_log_mean", -0.5 * sigma**2)

    def mean(self, units: float = 1.0) -> float:
        """Expected duration for ``units`` units of work (ignoring the floor)."""
        return self.base_s + self.per_unit_s * float(units)

    def sample(self, rng=None, units: float = 1.0) -> float:
        """Draw one duration in seconds."""
        rng = ensure_rng(rng)
        mean = self.mean(units)
        if self.jitter_cv <= 0.0 or mean <= 0.0:
            return max(mean, self.minimum_s)
        # Log-normal multiplicative jitter with unit mean.
        factor = rng.lognormal(mean=self._log_mean, sigma=self._sigma)
        return max(mean * factor, self.minimum_s)


class DurationTable:
    """Lookup of duration models by ``(module, action)``.

    Unknown actions fall back to a global default, so adding a new device
    action never breaks timing.
    """

    def __init__(
        self,
        entries: Optional[Dict[Tuple[str, str], DurationModel]] = None,
        default: Optional[DurationModel] = None,
    ):
        self._entries: Dict[Tuple[str, str], DurationModel] = dict(entries or {})
        self._default = default if default is not None else DurationModel(base_s=5.0)

    def set(self, module: str, action: str, model: DurationModel) -> None:
        """Register (or replace) the model for ``module.action``."""
        self._entries[(module, action)] = model

    def get(self, module: str, action: str) -> DurationModel:
        """Return the model for ``module.action``, or the global default."""
        return self._entries.get((module, action), self._default)

    def sample(self, module: str, action: str, rng=None, units: float = 1.0) -> float:
        """Sample a duration for one execution of ``module.action``."""
        return self.get(module, action).sample(rng=rng, units=units)

    def mean(self, module: str, action: str, units: float = 1.0) -> float:
        """Expected duration for ``module.action`` (used by planning/tests)."""
        return self.get(module, action).mean(units=units)

    def items(self):
        """Iterate over explicitly registered ``((module, action), model)`` pairs."""
        return self._entries.items()

    def copy(self) -> "DurationTable":
        """Return an independent copy (so experiments can scale durations)."""
        return DurationTable(dict(self._entries), self._default)

    def modules(self) -> Tuple[str, ...]:
        """Every module name with an explicit entry."""
        return tuple(sorted({module for module, _action in self._entries}))

    def scaled(self, factor: Union[float, Mapping[str, float]]) -> "DurationTable":
        """Return a copy with durations scaled by ``factor``.

        ``factor`` is either a single number applied to every model ("what if
        the robots were twice as fast" ablations) or a mapping of *module
        name* to per-module duration factor, which scales that module's
        entries and leaves unmapped modules and the global default
        untouched.
        """

        def check(name: str, value: float) -> float:
            value = float(value)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be a finite value > 0, got {value}")
            return value

        def scale(model: DurationModel, by: float) -> DurationModel:
            return DurationModel(
                base_s=model.base_s * by,
                per_unit_s=model.per_unit_s * by,
                jitter_cv=model.jitter_cv,
                minimum_s=model.minimum_s * by,
            )

        if not isinstance(factor, Mapping):
            by = check("factor", factor)
            return DurationTable(
                {key: scale(model, by) for key, model in self._entries.items()},
                scale(self._default, by),
            )

        factors = {module: check(f"factor[{module!r}]", value) for module, value in factor.items()}
        entries = {
            (module, action): scale(model, factors.get(module, 1.0))
            for (module, action), model in self._entries.items()
        }
        return DurationTable(entries, self._default)


@dataclass(frozen=True)
class ModuleSpeedProfile:
    """Per-module *speed* factors describing one workcell's hardware mix.

    A speed of ``2.5`` for ``"ot2"`` means that workcell's OT-2 runs 2.5x
    faster than the calibrated baseline, i.e. the durations of its actions
    that have a table entry are divided by 2.5 (:meth:`apply` scales the
    duration table by the reciprocal); an action with no entry takes the
    unscaled global default.  Modules not named run at baseline speed.  An
    empty profile (:meth:`is_identity`) leaves the table untouched.
    """

    speeds: Mapping[str, float]

    def __post_init__(self):
        cleaned: Dict[str, float] = {}
        for module, speed in dict(self.speeds).items():
            name = str(module).strip()
            if not name:
                raise ValueError("module name must be non-empty")
            value = float(speed)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(
                    f"speed factor for module {name!r} must be a finite value > 0, got {value}"
                )
            cleaned[name] = value
        object.__setattr__(self, "speeds", cleaned)

    @property
    def is_identity(self) -> bool:
        """True when the profile changes no module (all speeds 1.0 or empty)."""
        return all(speed == 1.0 for speed in self.speeds.values())

    @classmethod
    def parse(cls, spec: str) -> "ModuleSpeedProfile":
        """Parse ``"ot2=2.5,pf400=0.5"`` into a profile.

        Raises :class:`ValueError` on malformed pairs or non-positive /
        non-finite factors; an empty string yields the identity profile.
        """
        speeds: Dict[str, float] = {}
        for pair in str(spec).split(","):
            pair = pair.strip()
            if not pair:
                continue
            module, sep, value = pair.partition("=")
            if not sep or not module.strip() or not value.strip():
                raise ValueError(
                    f"expected 'module=factor' pairs separated by commas, got {pair!r}"
                )
            try:
                speeds[module.strip()] = float(value)
            except ValueError:
                raise ValueError(f"speed factor {value!r} for module {module.strip()!r} is not a number")
        return cls(speeds)

    @classmethod
    def coerce(cls, value: "ModuleSpeedProfile | Mapping[str, float] | str | None") -> "ModuleSpeedProfile":
        """Normalise a profile, mapping, spec string, or ``None`` to a profile."""
        if value is None:
            return cls({})
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        if isinstance(value, Mapping):
            return cls(value)
        raise TypeError(
            f"module speeds must be a ModuleSpeedProfile, mapping, or 'module=factor' "
            f"string, got {type(value).__name__}"
        )

    @classmethod
    def broadcast(
        cls,
        spec: "ModuleSpeedProfile | Mapping[str, float] | str | Sequence | None",
        n: int,
    ) -> Tuple["ModuleSpeedProfile", ...]:
        """Expand one profile (applied to every shard) or a per-shard sequence.

        ``spec`` may be ``None`` / a single profile-like value (broadcast to
        all ``n`` shards) or a sequence of exactly ``n`` profile-like values.
        """
        if n <= 0:
            raise ValueError(f"n must be > 0, got {n}")
        if isinstance(spec, (list, tuple)):
            if len(spec) != n:
                raise ValueError(
                    f"expected {n} per-shard module-speed profiles, got {len(spec)}"
                )
            return tuple(cls.coerce(item) for item in spec)
        return (cls.coerce(spec),) * n

    def apply(self, table: DurationTable) -> DurationTable:
        """Return ``table`` rescaled so each named module runs at its speed.

        Raises :class:`ValueError` when the profile names a module with no
        entry in ``table``: the profile could not change its timing.
        """
        if self.is_identity:
            return table
        unknown = sorted(set(self.speeds) - set(table.modules()))
        if unknown:
            raise ValueError(
                f"module speeds name module(s) with no duration entries: {', '.join(unknown)}; "
                f"expected names from {list(table.modules())}"
            )
        return table.scaled({module: 1.0 / speed for module, speed in self.speeds.items()})

    def to_dict(self) -> Dict[str, float]:
        """Plain-dict form (for status payloads and logs)."""
        return dict(self.speeds)


def paper_calibrated_durations(jitter_cv: float = 0.05) -> DurationTable:
    """The default duration table, calibrated to the paper's Table 1.

    Calibration (see DESIGN.md Section 5): with B = 1 the OT-2 takes about
    145 s per single-well protocol (synthesis ≈ 5 h 10 m over 128 wells) and
    each pf400 plate move takes ≈ 42 s; together with camera imaging, plate
    fetching and reservoir refills this lands the full 128-sample run at about
    8 h 10 m and ≈ 4 minutes per colour.
    """
    table = DurationTable(default=DurationModel(base_s=5.0, jitter_cv=jitter_cv))

    # Plate crane: fetching a fresh plate from a storage tower.
    table.set("sciclops", "get_plate", DurationModel(base_s=55.0, jitter_cv=jitter_cv))
    table.set("sciclops", "status", DurationModel(base_s=1.0, jitter_cv=jitter_cv))

    # Manipulator arm: one plate move between two known locations.
    table.set("pf400", "transfer", DurationModel(base_s=40.0, jitter_cv=jitter_cv))
    table.set("pf400", "move_home", DurationModel(base_s=15.0, jitter_cv=jitter_cv))

    # Liquid handler: protocol setup plus per-well dispense/mix time.
    table.set(
        "ot2",
        "run_protocol",
        DurationModel(base_s=58.0, per_unit_s=86.0, jitter_cv=jitter_cv),
    )
    table.set("ot2", "replace_tips", DurationModel(base_s=30.0, jitter_cv=jitter_cv))

    # Liquid replenisher: per-reservoir pump time.
    table.set("barty", "fill_colors", DurationModel(base_s=20.0, per_unit_s=25.0, jitter_cv=jitter_cv))
    table.set("barty", "drain_colors", DurationModel(base_s=15.0, per_unit_s=15.0, jitter_cv=jitter_cv))
    table.set("barty", "refill_colors", DurationModel(base_s=20.0, per_unit_s=25.0, jitter_cv=jitter_cv))

    # Camera: imaging is quick.
    table.set("camera", "take_picture", DurationModel(base_s=3.5, jitter_cv=jitter_cv))

    # Computational / data steps (not robotic commands).
    table.set("compute", "solver", DurationModel(base_s=1.5, jitter_cv=jitter_cv))
    table.set("compute", "image_processing", DurationModel(base_s=2.0, jitter_cv=jitter_cv))
    table.set("publish", "upload", DurationModel(base_s=4.5, jitter_cv=jitter_cv))

    # Human intervention after an unrecoverable command failure (clearing the
    # error, re-homing the arm, removing a dropped plate).  Only used when the
    # application is configured to recover instead of aborting.
    table.set("human", "intervention", DurationModel(base_s=420.0, jitter_cv=max(jitter_cv, 0.2)))

    return table
