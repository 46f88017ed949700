"""Declarative workflow specifications.

Workflows in WEI are declarative lists of actions on modules ("Users can
specify, again using a declarative notation, workflows that perform sets of
actions on modules", paper Section 2.2).  A :class:`WorkflowSpec` can be
constructed programmatically or loaded from / saved to the YAML-like format
used by the original platform.  Argument values may reference the runtime
payload with ``"$payload.<key>"`` placeholders, which the engine resolves when
the workflow runs -- this is how the colour-picker passes the generated OT-2
protocol into its mixing workflow.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.utils import yamlite

__all__ = ["WorkflowStep", "WorkflowSpec", "resolve_payload_references"]


@dataclass(frozen=True)
class WorkflowStep:
    """One step of a workflow: a named action on a named module."""

    module: str
    action: str
    args: Dict[str, Any] = field(default_factory=dict)
    comment: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form used by the YAML round-trip."""
        data: Dict[str, Any] = {"module": self.module, "action": self.action}
        if self.args:
            data["args"] = dict(self.args)
        if self.comment:
            data["comment"] = self.comment
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkflowStep":
        """Build a step from its dict form, validating required keys."""
        missing = [key for key in ("module", "action") if key not in data]
        if missing:
            raise ValueError(f"workflow step missing required keys {missing}: {dict(data)!r}")
        return cls(
            module=str(data["module"]),
            action=str(data["action"]),
            args=dict(data.get("args") or {}),
            comment=str(data.get("comment", "")),
        )


@dataclass
class WorkflowSpec:
    """A named, ordered list of workflow steps with free-form metadata."""

    name: str
    steps: List[WorkflowStep] = field(default_factory=list)
    description: str = ""
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not self.name:
            raise ValueError("workflow name must be non-empty")

    @property
    def n_steps(self) -> int:
        """Number of steps in the workflow."""
        return len(self.steps)

    def add_step(self, module: str, action: str, comment: str = "", **args: Any) -> "WorkflowSpec":
        """Append a step and return ``self`` (fluent builder style)."""
        self.steps.append(WorkflowStep(module=module, action=action, args=args, comment=comment))
        return self

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form mirroring the WEI workflow YAML layout."""
        return {
            "name": self.name,
            "description": self.description,
            "metadata": dict(self.metadata),
            "flowdef": [step.to_dict() for step in self.steps],
        }

    def to_yaml(self) -> str:
        """Serialise to the YAML-like text format."""
        return yamlite.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkflowSpec":
        """Build a spec from its dict form."""
        if "name" not in data:
            raise ValueError("workflow specification requires a 'name'")
        steps_data = data.get("flowdef") or data.get("steps") or []
        steps = [WorkflowStep.from_dict(step) for step in steps_data]
        return cls(
            name=str(data["name"]),
            steps=steps,
            description=str(data.get("description", "")),
            metadata=dict(data.get("metadata") or {}),
        )

    @classmethod
    def from_yaml(cls, text: str) -> "WorkflowSpec":
        """Parse a workflow from its YAML-like text form."""
        data = yamlite.loads(text)
        if not isinstance(data, Mapping):
            raise ValueError("workflow document must be a mapping")
        return cls.from_dict(data)


def resolve_payload_references(value: Any, payload: Mapping[str, Any]) -> Any:
    """Recursively replace ``"$payload.<key>"`` strings with payload values.

    Dotted paths traverse nested mappings (``"$payload.protocol.name"``).
    Unknown keys raise :class:`KeyError` so typos in workflow files fail
    loudly instead of silently passing the placeholder string to a device.
    """
    if isinstance(value, str) and value.startswith("$payload."):
        path = value[len("$payload.") :].split(".")
        current: Any = payload
        for part in path:
            if not isinstance(current, Mapping) or part not in current:
                raise KeyError(f"payload reference {value!r} not found in workflow payload")
            current = current[part]
        return current
    if isinstance(value, Mapping):
        return {key: resolve_payload_references(item, payload) for key, item in value.items()}
    if isinstance(value, list):
        return [resolve_payload_references(item, payload) for item in value]
    return value
