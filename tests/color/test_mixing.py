"""Tests for the subtractive dye-mixing model."""

import numpy as np
import pytest

from repro.color.mixing import DyeSet, SubtractiveMixingModel


class TestDyeSet:
    def test_cmyk_has_four_dyes(self):
        dyes = DyeSet.cmyk()
        assert dyes.names == ("cyan", "magenta", "yellow", "black")
        assert dyes.n_dyes == 4
        assert dyes.transmittance.shape == (4, 3)

    def test_cmy_variant(self):
        assert DyeSet.cmy().n_dyes == 3

    def test_index_lookup(self):
        dyes = DyeSet.cmyk()
        assert dyes.index("yellow") == 2
        with pytest.raises(KeyError):
            dyes.index("white")

    def test_invalid_transmittance_rejected(self):
        with pytest.raises(ValueError):
            DyeSet(names=("a",), transmittance=np.array([[0.0, 0.5, 0.5]]))
        with pytest.raises(ValueError):
            DyeSet(names=("a", "b"), transmittance=np.array([[0.5, 0.5, 0.5]]))


class TestSubtractiveMixingModel:
    def test_empty_well_is_white_point(self, chemistry):
        color = chemistry.mix([0.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(color, chemistry.white_point)

    def test_more_dye_is_darker(self, chemistry):
        low = chemistry.mix([10.0, 10.0, 10.0, 10.0])
        high = chemistry.mix([60.0, 60.0, 60.0, 60.0])
        assert np.all(high < low)

    def test_monotonic_in_black(self, chemistry):
        volumes = np.zeros((8, 4))
        volumes[:, 3] = np.linspace(0, 200, 8)
        colors = chemistry.mix(volumes)
        luminance = colors.mean(axis=1)
        assert np.all(np.diff(luminance) < 0)

    def test_cyan_absorbs_red_most(self, chemistry):
        color = chemistry.mix([80.0, 0.0, 0.0, 0.0])
        assert color[0] < color[1] < color[2] * 1.05

    def test_batch_matches_single(self, chemistry, rng):
        volumes = rng.uniform(0, 60, size=(10, 4))
        batch = chemistry.mix(volumes)
        singles = np.stack([chemistry.mix(v) for v in volumes])
        np.testing.assert_allclose(batch, singles)

    def test_negative_volumes_rejected(self, chemistry):
        with pytest.raises(ValueError):
            chemistry.mix([-1.0, 0.0, 0.0, 0.0])

    def test_wrong_dye_count_rejected(self, chemistry):
        with pytest.raises(ValueError):
            chemistry.mix([1.0, 2.0, 3.0])

    def test_colors_stay_in_range(self, chemistry, rng):
        volumes = rng.uniform(0, 275, size=(200, 4))
        colors = chemistry.mix(volumes)
        assert np.all(colors >= 0) and np.all(colors <= 255)

    def test_order_independence_of_composition(self, chemistry):
        # Mixing is defined on the composition vector, so permuting which dye
        # gets which volume changes the colour, but the same vector always
        # gives the same colour (pure function).
        volumes = np.array([10.0, 20.0, 30.0, 5.0])
        np.testing.assert_allclose(chemistry.mix(volumes), chemistry.mix(volumes.copy()))

    def test_describe_is_json_friendly(self, chemistry):
        import json

        assert json.dumps(chemistry.describe())


class TestInvert:
    def test_invert_recovers_paper_target(self, chemistry):
        volumes = chemistry.invert([120.0, 120.0, 120.0], total_volume=80.0)
        color = chemistry.mix(volumes)
        assert np.linalg.norm(color - np.array([120.0, 120.0, 120.0])) < 3.0

    def test_invert_respects_bounds(self, chemistry):
        volumes = chemistry.invert([30.0, 30.0, 30.0], total_volume=80.0)
        assert np.all(volumes >= 0.0) and np.all(volumes <= 80.0)

    def test_invert_white_needs_little_dye(self, chemistry):
        volumes = chemistry.invert([248.0, 248.0, 246.0], total_volume=80.0)
        assert volumes.sum() < 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SubtractiveMixingModel(well_volume=-1.0)
        with pytest.raises(ValueError):
            SubtractiveMixingModel(strength=0.0)
