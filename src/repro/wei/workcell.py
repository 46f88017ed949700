"""Workcell assembly.

A workcell is a set of modules sharing a deck, a clock and (in simulation) a
duration table and fault injector -- "a declarative YAML notation is used to
specify how a workcell is configured from a set of modules" (paper
Section 2.2).  This module provides:

* :class:`Workcell` -- the container the engine executes workflows against,
* :func:`build_color_picker_workcell` -- the programmatic factory for the
  paper's five-module colour-picker workcell (optionally with extra OT-2s for
  the Section 4 ablation),
* :meth:`Workcell.from_yaml` -- construction from a declarative spec
  equivalent to the paper's RPL workcell YAML file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.color.mixing import DyeSet, MixingModel, SubtractiveMixingModel
from repro.hardware.barty import BartyDevice
from repro.hardware.camera import CameraDevice
from repro.hardware.deck import Workdeck
from repro.hardware.ot2 import Ot2Device
from repro.hardware.pf400 import Pf400Device
from repro.hardware.sciclops import SciclopsDevice
from repro.sim.clock import Clock, SimClock
from repro.sim.durations import DurationTable, paper_calibrated_durations
from repro.sim.faults import FaultInjector, FaultPolicy
from repro.utils import yamlite
from repro.utils.rng import RandomSource
from repro.vision.render import PlateImageConfig
from repro.wei.module import Module

__all__ = ["WorkcellConfigError", "Workcell", "build_color_picker_workcell"]


class WorkcellConfigError(ValueError):
    """Raised for invalid workcell specifications."""


@dataclass
class Workcell:
    """A named collection of modules sharing deck, clock and chemistry."""

    name: str
    deck: Workdeck
    clock: Clock
    modules: Dict[str, Module] = field(default_factory=dict)
    chemistry: MixingModel = field(default_factory=SubtractiveMixingModel)
    durations: DurationTable = field(default_factory=paper_calibrated_durations)
    metadata: Dict[str, Any] = field(default_factory=dict)

    def add_module(self, module: Module) -> None:
        """Register a module; names must be unique within the workcell."""
        if module.name in self.modules:
            raise WorkcellConfigError(f"duplicate module name {module.name!r}")
        self.modules[module.name] = module

    def module(self, name: str) -> Module:
        """Look up a module by name."""
        try:
            return self.modules[name]
        except KeyError:
            raise WorkcellConfigError(
                f"workcell {self.name!r} has no module {name!r}; available: {sorted(self.modules)}"
            ) from None

    def modules_of_type(self, module_type: str) -> List[Module]:
        """All modules whose device type matches ``module_type``."""
        return [module for module in self.modules.values() if module.module_type == module_type]

    def ot2_barty_pairs(self) -> List[tuple]:
        """``(ot2_name, barty_name)`` lane pairs in registration order.

        The colour-picker factory registers one barty replenisher per OT-2
        with a matching name suffix; concurrent campaign/sweep modes use
        these pairs to pin each experiment to its own liquid-handling lane.
        """
        pairs = []
        for module in self.modules.values():
            if module.module_type != "ot2":
                continue
            barty_name = "barty" + module.name[len("ot2"):]
            if barty_name in self.modules:
                pairs.append((module.name, barty_name))
        return pairs

    @property
    def devices(self) -> List:
        """The device instances behind all modules."""
        return [module.device for module in self.modules.values()]

    def total_commands(self, robotic_only: bool = True) -> int:
        """Total successful commands executed across the workcell's devices."""
        count = 0
        for device in self.devices:
            for record in device.action_log:
                if record.success and (record.robotic or not robotic_only):
                    count += 1
        return count

    def action_records(self) -> List:
        """All action records from every device, sorted by start time."""
        records = [record for device in self.devices for record in device.action_log]
        return sorted(records, key=lambda record: record.start_time)

    def describe(self) -> Dict[str, Any]:
        """Declarative description of the workcell (YAML-serialisable)."""
        return {
            "name": self.name,
            "modules": [module.describe() for module in self.modules.values()],
            "locations": self.deck.locations,
            "metadata": dict(self.metadata),
        }

    def to_yaml(self) -> str:
        """Serialise the workcell description to YAML-like text."""
        return yamlite.dumps(self.describe())

    # ------------------------------------------------------------------
    # Declarative construction
    # ------------------------------------------------------------------
    @classmethod
    def from_yaml(cls, text: str, **build_kwargs: Any) -> "Workcell":
        """Build a simulated workcell from a declarative YAML-like spec.

        The spec mirrors the structure of the paper's RPL workcell file: a
        ``name`` and a list of ``modules``, each with a ``type`` (one of
        ``sciclops``, ``pf400``, ``ot2``, ``barty``, ``camera``) and an
        optional ``name``.  Module types outside the colour-picker set raise
        :class:`WorkcellConfigError` -- the full RPL workcell also has PCR and
        cell-analysis modules, but this application targets only these five.
        """
        data = yamlite.loads(text)
        if not isinstance(data, Mapping) or "modules" not in data:
            raise WorkcellConfigError("workcell spec must be a mapping with a 'modules' list")
        module_specs = data["modules"]
        if not isinstance(module_specs, list) or not module_specs:
            raise WorkcellConfigError("workcell spec 'modules' must be a non-empty list")

        counts = {"sciclops": 0, "pf400": 0, "ot2": 0, "barty": 0, "camera": 0}
        for spec in module_specs:
            if not isinstance(spec, Mapping) or "type" not in spec:
                raise WorkcellConfigError(f"malformed module spec: {spec!r}")
            module_type = str(spec["type"]).lower()
            if module_type not in counts:
                raise WorkcellConfigError(
                    f"unsupported module type {module_type!r}; supported: {sorted(counts)}"
                )
            counts[module_type] += 1
        for required in ("pf400", "ot2", "camera"):
            if counts[required] == 0:
                raise WorkcellConfigError(f"workcell spec must include a {required!r} module")

        workcell = build_color_picker_workcell(
            name=str(data.get("name", "workcell")),
            n_ot2=max(counts["ot2"], 1),
            **build_kwargs,
        )
        workcell.metadata["source"] = "yaml"
        workcell.metadata["declared_modules"] = [dict(spec) for spec in module_specs]
        return workcell


def build_color_picker_workcell(
    name: str = "rpl_colorpicker",
    *,
    seed: Optional[int] = None,
    clock: Optional[Clock] = None,
    durations: Optional[DurationTable] = None,
    fault_policy: Optional[FaultPolicy] = None,
    chemistry: Optional[MixingModel] = None,
    dye_set: Optional[DyeSet] = None,
    image_config: Optional[PlateImageConfig] = None,
    n_ot2: int = 1,
    plates_per_tower: int = 20,
    reservoir_capacity_ul: float = 20_000.0,
    bulk_capacity_ul: float = 500_000.0,
) -> Workcell:
    """Build the paper's five-module colour-picker workcell in simulation.

    Parameters
    ----------
    seed:
        Root seed for every stochastic component (durations, camera noise,
        fault injection).  Two workcells built with the same seed behave
        identically.
    n_ot2:
        Number of OT-2 liquid handlers (1 in the paper; >1 for the Section 4
        "multiple OT2s" ablation).  Each extra OT-2 gets its own deck location
        and its own barty replenisher channel.
    plates_per_tower / bulk_capacity_ul:
        Consumable sizing: plates stocked in each sciclops tower and the µl
        of each dye in barty's bulk vessels.  The defaults match the paper's
        bench; long campaigns (e.g. the 10k-run routine bench) scale both up
        so the workcell never runs dry mid-campaign.
    """
    if n_ot2 < 1:
        raise WorkcellConfigError(f"n_ot2 must be >= 1, got {n_ot2}")

    randomness = RandomSource(seed)
    clock = clock if clock is not None else SimClock()
    durations = durations if durations is not None else paper_calibrated_durations()
    faults = FaultInjector(
        policy=fault_policy if fault_policy is not None else FaultPolicy.none(),
        rng=randomness.child("faults").generator,
    )
    dye_set = dye_set if dye_set is not None else DyeSet.cmyk()
    chemistry = chemistry if chemistry is not None else SubtractiveMixingModel(dye_set=dye_set)

    deck = Workdeck()
    workcell = Workcell(name=name, deck=deck, clock=clock, chemistry=chemistry, durations=durations)
    workcell.metadata["seed"] = seed
    workcell.metadata["n_ot2"] = n_ot2

    common = dict(clock=clock, durations=durations, faults=faults)

    sciclops = SciclopsDevice(
        deck, plates_per_tower=plates_per_tower, rng=randomness.child("sciclops").generator, **common
    )
    pf400 = Pf400Device(deck, rng=randomness.child("pf400").generator, **common)
    camera = CameraDevice(
        deck,
        chemistry=chemistry,
        image_config=image_config,
        rng=randomness.child("camera").generator,
        **common,
    )

    workcell.add_module(Module("sciclops", sciclops))
    workcell.add_module(Module("pf400", pf400))
    workcell.add_module(Module("camera", camera))

    for index in range(n_ot2):
        suffix = "" if index == 0 else f"_{index + 1}"
        ot2_name = f"ot2{suffix}"
        barty_name = f"barty{suffix}"
        ot2 = Ot2Device(
            deck,
            deck_location=f"{ot2_name}.deck",
            dye_set=dye_set,
            reservoir_capacity_ul=reservoir_capacity_ul,
            name=ot2_name,
            rng=randomness.child(ot2_name).generator,
            **common,
        )
        barty = BartyDevice(
            ot2,
            bulk_capacity_ul=bulk_capacity_ul,
            name=barty_name,
            rng=randomness.child(barty_name).generator,
            **common,
        )
        workcell.add_module(Module(ot2_name, ot2))
        workcell.add_module(Module(barty_name, barty))

    return workcell
