"""Tests for workcell assembly."""

import pytest

from repro.wei.workcell import Workcell, WorkcellConfigError, build_color_picker_workcell


class TestFactory:
    def test_default_workcell_has_five_modules(self, workcell):
        assert set(workcell.modules) == {"sciclops", "pf400", "camera", "ot2", "barty"}

    def test_modules_share_clock_and_deck(self, workcell):
        devices = workcell.devices
        assert all(device.clock is workcell.clock for device in devices)
        assert workcell.module("pf400").device.deck is workcell.deck

    def test_same_seed_reproducible(self):
        a = build_color_picker_workcell(seed=5)
        b = build_color_picker_workcell(seed=5)
        # Sample a duration from the same module on both workcells.
        duration_a = a.module("pf400").device.durations.sample("pf400", "transfer", rng=a.module("pf400").device.rng)
        duration_b = b.module("pf400").device.durations.sample("pf400", "transfer", rng=b.module("pf400").device.rng)
        assert duration_a == duration_b

    def test_multi_ot2_adds_modules_and_locations(self):
        workcell = build_color_picker_workcell(seed=1, n_ot2=3)
        assert {"ot2", "ot2_2", "ot2_3"} <= set(workcell.modules)
        assert {"barty", "barty_2", "barty_3"} <= set(workcell.modules)
        assert workcell.deck.has_location("ot2_2.deck")
        assert len(workcell.modules_of_type("ot2")) == 3

    def test_invalid_ot2_count_rejected(self):
        with pytest.raises(WorkcellConfigError):
            build_color_picker_workcell(n_ot2=0)

    def test_unknown_module_lookup_raises(self, workcell):
        with pytest.raises(WorkcellConfigError, match="no module"):
            workcell.module("pcr")

    def test_duplicate_module_rejected(self, workcell):
        with pytest.raises(WorkcellConfigError):
            workcell.add_module(workcell.module("pf400"))

    def test_describe_and_yaml(self, workcell):
        description = workcell.describe()
        assert description["name"] == workcell.name
        assert len(description["modules"]) == 5
        assert "modules" in workcell.to_yaml()

    def test_total_commands_counts_robotic_only(self, workcell):
        workcell.module("sciclops").submit("get_plate").complete()
        workcell.module("pf400").submit("transfer", source="sciclops.exchange", target="camera.stage").complete()
        workcell.module("camera").submit("take_picture").complete()
        assert workcell.total_commands(robotic_only=True) == 2
        assert workcell.total_commands(robotic_only=False) == 3

    def test_action_records_sorted_by_time(self, workcell):
        workcell.module("sciclops").submit("get_plate").complete()
        workcell.module("pf400").submit("transfer", source="sciclops.exchange", target="camera.stage").complete()
        records = workcell.action_records()
        assert len(records) == 2
        assert records[0].start_time <= records[1].start_time


class TestFromYaml:
    VALID = """
name: rpl_colorpicker
modules:
  - name: sciclops
    type: sciclops
  - name: pf400
    type: pf400
  - name: ot2
    type: ot2
  - name: barty
    type: barty
  - name: camera
    type: camera
"""

    def test_valid_spec_builds_workcell(self):
        workcell = Workcell.from_yaml(self.VALID, seed=3)
        assert workcell.name == "rpl_colorpicker"
        assert set(workcell.modules) >= {"sciclops", "pf400", "ot2", "barty", "camera"}
        assert workcell.metadata["source"] == "yaml"

    def test_two_ot2_spec(self):
        text = self.VALID + "  - name: ot2_2\n    type: ot2\n"
        workcell = Workcell.from_yaml(text, seed=3)
        assert len(workcell.modules_of_type("ot2")) == 2

    def test_missing_required_module_rejected(self):
        text = """
name: broken
modules:
  - type: sciclops
"""
        with pytest.raises(WorkcellConfigError, match="must include"):
            Workcell.from_yaml(text)

    def test_unsupported_module_type_rejected(self):
        text = """
name: broken
modules:
  - type: pcr
  - type: pf400
  - type: ot2
  - type: camera
"""
        with pytest.raises(WorkcellConfigError, match="unsupported module type"):
            Workcell.from_yaml(text)

    def test_malformed_spec_rejected(self):
        with pytest.raises(WorkcellConfigError):
            Workcell.from_yaml("name: no_modules")
        with pytest.raises(WorkcellConfigError):
            Workcell.from_yaml("modules: []")
