"""Tests for declarative workflow specifications."""

import pytest

from repro.wei.workflow import WorkflowSpec, WorkflowStep, resolve_payload_references


class TestWorkflowSpec:
    def test_builder_adds_steps_in_order(self):
        spec = WorkflowSpec(name="wf").add_step("pf400", "transfer", source="a", target="b")
        spec.add_step("camera", "take_picture")
        assert spec.n_steps == 2
        assert spec.steps[0].args == {"source": "a", "target": "b"}

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            WorkflowSpec(name="")

    def test_step_requires_module_and_action(self):
        with pytest.raises(ValueError):
            WorkflowStep.from_dict({"module": "pf400"})

    def test_yaml_round_trip(self):
        spec = WorkflowSpec(name="cp_wf_mix_colors", description="mix")
        spec.add_step("pf400", "transfer", source="camera.stage", target="ot2.deck")
        spec.add_step("ot2", "run_protocol", protocol="$payload.protocol")
        text = spec.to_yaml()
        parsed = WorkflowSpec.from_yaml(text)
        assert parsed.name == spec.name
        assert parsed.n_steps == 2
        assert parsed.steps[1].args == {"protocol": "$payload.protocol"}

    def test_from_yaml_flowdef_layout(self):
        text = """
name: demo
description: example workflow
flowdef:
  - module: sciclops
    action: get_plate
  - module: pf400
    action: transfer
    args: {source: sciclops.exchange, target: camera.stage}
"""
        spec = WorkflowSpec.from_yaml(text)
        assert spec.name == "demo"
        assert spec.steps[1].module == "pf400"
        assert spec.steps[1].args["target"] == "camera.stage"

    def test_from_yaml_requires_mapping(self):
        with pytest.raises(ValueError):
            WorkflowSpec.from_yaml("- just\n- a list")

    def test_from_dict_requires_name(self):
        with pytest.raises(ValueError):
            WorkflowSpec.from_dict({"flowdef": []})


class TestPayloadReferences:
    def test_simple_reference(self):
        assert resolve_payload_references("$payload.protocol", {"protocol": 42}) == 42

    def test_nested_structures(self):
        value = {"args": {"p": "$payload.a.b"}, "list": ["$payload.c", 1]}
        payload = {"a": {"b": "deep"}, "c": "shallow"}
        resolved = resolve_payload_references(value, payload)
        assert resolved == {"args": {"p": "deep"}, "list": ["shallow", 1]}

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            resolve_payload_references("$payload.missing", {})

    def test_non_reference_strings_unchanged(self):
        assert resolve_payload_references("plain", {}) == "plain"
        assert resolve_payload_references(7, {}) == 7
