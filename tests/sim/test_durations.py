"""Tests for action-duration models."""

import numpy as np
import pytest

from repro.sim.durations import (
    DurationModel,
    DurationTable,
    ModuleSpeedProfile,
    paper_calibrated_durations,
)


class TestDurationModel:
    def test_mean_includes_per_unit(self):
        model = DurationModel(base_s=10.0, per_unit_s=2.0)
        assert model.mean(units=5) == 20.0

    def test_zero_jitter_is_deterministic(self):
        model = DurationModel(base_s=10.0, jitter_cv=0.0)
        assert model.sample() == 10.0

    def test_sample_respects_minimum(self):
        model = DurationModel(base_s=0.0, per_unit_s=0.0, minimum_s=1.0)
        assert model.sample() == 1.0

    def test_jitter_mean_close_to_nominal(self):
        model = DurationModel(base_s=100.0, jitter_cv=0.1)
        rng = np.random.default_rng(0)
        samples = np.array([model.sample(rng) for _ in range(3000)])
        assert samples.mean() == pytest.approx(100.0, rel=0.02)
        assert samples.std() == pytest.approx(10.0, rel=0.15)

    def test_samples_always_positive(self):
        model = DurationModel(base_s=5.0, jitter_cv=0.5)
        rng = np.random.default_rng(1)
        assert all(model.sample(rng) > 0 for _ in range(200))

    def test_negative_base_rejected(self):
        with pytest.raises(ValueError):
            DurationModel(base_s=-1.0)


class TestDurationTable:
    def test_specific_entry_wins(self):
        table = DurationTable(
            {("ot2", "replace_tips"): DurationModel(base_s=5.0, jitter_cv=0.0)},
            default=DurationModel(base_s=7.0, jitter_cv=0.0),
        )
        table.set("ot2", "run_protocol", DurationModel(base_s=100.0, jitter_cv=0.0))
        assert table.mean("ot2", "run_protocol") == 100.0
        assert table.mean("ot2", "replace_tips") == 5.0
        assert table.mean("ot2", "anything_else") == 7.0

    def test_global_default_fallback(self):
        table = DurationTable(default=DurationModel(base_s=7.0, jitter_cv=0.0))
        assert table.mean("unknown", "whatever") == 7.0

    def test_copy_is_independent(self):
        table = paper_calibrated_durations()
        clone = table.copy()
        clone.set("pf400", "transfer", DurationModel(base_s=1.0))
        assert table.mean("pf400", "transfer") != 1.0

    def test_scaled(self):
        table = paper_calibrated_durations()
        fast = table.scaled(0.5)
        assert fast.mean("pf400", "transfer") == pytest.approx(table.mean("pf400", "transfer") * 0.5)
        with pytest.raises(ValueError):
            table.scaled(0.0)

    def test_sample_uses_units(self):
        table = paper_calibrated_durations(jitter_cv=0.0)
        single = table.sample("ot2", "run_protocol", units=1)
        batch = table.sample("ot2", "run_protocol", units=8)
        assert batch > single


class TestPerModuleScaling:
    """``DurationTable.scaled`` with a per-module factor mapping."""

    def test_named_module_scaled_others_untouched(self):
        table = paper_calibrated_durations(jitter_cv=0.0)
        slow_ot2 = table.scaled({"ot2": 2.0})
        assert slow_ot2.mean("ot2", "run_protocol", units=4) == pytest.approx(
            2.0 * table.mean("ot2", "run_protocol", units=4)
        )
        assert slow_ot2.mean("pf400", "transfer") == table.mean("pf400", "transfer")
        assert slow_ot2.mean("camera", "take_picture") == table.mean("camera", "take_picture")

    def test_mapped_module_scales_its_entries_not_the_global_default(self):
        table = DurationTable(
            {("mystery", "known"): DurationModel(base_s=2.0, jitter_cv=0.0)},
            default=DurationModel(base_s=8.0, jitter_cv=0.0),
        )
        scaled = table.scaled({"mystery": 3.0})
        assert scaled.mean("mystery", "known") == pytest.approx(6.0)
        # An action with no entry falls through to the unscaled global
        # default, whether its module is mapped or not.
        assert scaled.mean("mystery", "anything") == pytest.approx(8.0)
        assert scaled.mean("other", "anything") == pytest.approx(8.0)

    def test_invalid_factors_rejected(self):
        table = paper_calibrated_durations()
        for bad in ({"ot2": 0.0}, {"ot2": -1.0}, {"ot2": float("nan")}, {"ot2": float("inf")}):
            with pytest.raises(ValueError):
                table.scaled(bad)

    def test_modules_listing(self):
        table = paper_calibrated_durations()
        modules = table.modules()
        assert "ot2" in modules and "pf400" in modules and "barty" in modules
        assert list(modules) == sorted(modules)


class TestModuleSpeedProfile:
    def test_apply_divides_durations_by_speed(self):
        table = paper_calibrated_durations(jitter_cv=0.0)
        fast = ModuleSpeedProfile({"ot2": 2.0}).apply(table)
        assert fast.mean("ot2", "run_protocol", units=1) == pytest.approx(
            table.mean("ot2", "run_protocol", units=1) / 2.0
        )
        assert fast.mean("pf400", "transfer") == table.mean("pf400", "transfer")

    def test_apply_rejects_a_module_without_entries(self):
        table = paper_calibrated_durations(jitter_cv=0.0)
        with pytest.raises(ValueError, match="warp_drive"):
            ModuleSpeedProfile({"ot2": 2.0, "warp_drive": 2.0}).apply(table)
        # An identity profile changes nothing, so it names no module in vain.
        assert ModuleSpeedProfile({"warp_drive": 1.0}).apply(table) is table

    def test_parse_round_trips(self):
        profile = ModuleSpeedProfile.parse("ot2=2.5, pf400=0.5")
        assert profile.to_dict() == {"ot2": 2.5, "pf400": 0.5}
        assert ModuleSpeedProfile.parse("").is_identity

    def test_parse_rejects_malformed_specs(self):
        for bad in ("ot2", "ot2=fast", "=2.0", "ot2=0", "ot2=-1", "ot2=inf", "ot2=nan"):
            with pytest.raises(ValueError):
                ModuleSpeedProfile.parse(bad)

    def test_coerce_accepts_profile_str_and_mapping(self):
        profile = ModuleSpeedProfile({"ot2": 2.0})
        assert ModuleSpeedProfile.coerce(profile) is profile
        assert ModuleSpeedProfile.coerce("ot2=2.0").to_dict() == {"ot2": 2.0}
        assert ModuleSpeedProfile.coerce({"ot2": 2.0}).to_dict() == {"ot2": 2.0}
        assert ModuleSpeedProfile.coerce(None).is_identity
        with pytest.raises(TypeError):
            ModuleSpeedProfile.coerce(3.0)

    def test_broadcast_single_spec_to_fleet(self):
        profiles = ModuleSpeedProfile.broadcast("ot2=2.0", 3)
        assert len(profiles) == 3
        assert all(p.to_dict() == {"ot2": 2.0} for p in profiles)

    def test_broadcast_per_shard_list_must_match_length(self):
        profiles = ModuleSpeedProfile.broadcast([{"ot2": 1.0}, {"ot2": 2.0}], 2)
        assert [p.to_dict() for p in profiles] == [{"ot2": 1.0}, {"ot2": 2.0}]
        with pytest.raises(ValueError):
            ModuleSpeedProfile.broadcast([{"ot2": 1.0}], 2)

    def test_identity_apply_returns_equivalent_table(self):
        table = paper_calibrated_durations(jitter_cv=0.0)
        same = ModuleSpeedProfile({}).apply(table)
        assert same.mean("ot2", "run_protocol", units=1) == table.mean(
            "ot2", "run_protocol", units=1
        )


class TestPaperCalibration:
    """The calibration targets of DESIGN.md Section 5."""

    def test_single_well_protocol_near_145_seconds(self):
        table = paper_calibrated_durations(jitter_cv=0.0)
        assert table.mean("ot2", "run_protocol", units=1) == pytest.approx(144.0, abs=10.0)

    def test_transfer_near_40_seconds(self):
        table = paper_calibrated_durations(jitter_cv=0.0)
        assert table.mean("pf400", "transfer") == pytest.approx(40.0, abs=5.0)

    def test_b1_iteration_close_to_4_minutes(self):
        table = paper_calibrated_durations(jitter_cv=0.0)
        iteration = (
            table.mean("ot2", "run_protocol", units=1)
            + 2 * table.mean("pf400", "transfer")
            + table.mean("camera", "take_picture")
            + table.mean("compute", "solver")
            + table.mean("compute", "image_processing")
            + table.mean("publish", "upload")
        )
        assert iteration == pytest.approx(4 * 60, rel=0.1)

    def test_b1_full_run_close_to_table1_total(self):
        table = paper_calibrated_durations(jitter_cv=0.0)
        iteration = (
            table.mean("ot2", "run_protocol", units=1)
            + 2 * table.mean("pf400", "transfer")
            + table.mean("camera", "take_picture")
            + table.mean("compute", "solver")
            + table.mean("compute", "image_processing")
            + table.mean("publish", "upload")
        )
        total_hours = iteration * 128 / 3600
        assert 7.5 <= total_hours <= 9.0  # paper: 8 h 12 m

    def test_synthesis_fraction_near_paper(self):
        table = paper_calibrated_durations(jitter_cv=0.0)
        synthesis = table.mean("ot2", "run_protocol", units=1)
        iteration = (
            synthesis
            + 2 * table.mean("pf400", "transfer")
            + table.mean("camera", "take_picture")
            + table.mean("compute", "solver")
            + table.mean("compute", "image_processing")
            + table.mean("publish", "upload")
        )
        assert synthesis / iteration == pytest.approx(0.63, abs=0.07)
