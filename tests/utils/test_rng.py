"""Tests for the seeded random-number plumbing."""

import numpy as np
import pytest

from repro.utils.rng import RandomSource, derive_rng, ensure_rng


class TestEnsureRng:
    def test_from_int_is_deterministic(self):
        a = ensure_rng(7).random(5)
        b = ensure_rng(7).random(5)
        np.testing.assert_allclose(a, b)

    def test_existing_generator_is_returned_unchanged(self):
        gen = np.random.default_rng(1)
        assert ensure_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_random_source_unwraps_to_its_generator(self):
        source = RandomSource(3)
        assert ensure_rng(source) is source.generator


class TestRandomSource:
    def test_same_seed_same_child_stream(self):
        a = RandomSource(11).child("camera").generator.random(4)
        b = RandomSource(11).child("camera").generator.random(4)
        np.testing.assert_allclose(a, b)

    def test_different_children_are_independent(self):
        source = RandomSource(11)
        a = source.child("camera").generator.random(4)
        b = source.child("ot2").generator.random(4)
        assert not np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = RandomSource(1).child("x").generator.random(4)
        b = RandomSource(2).child("x").generator.random(4)
        assert not np.allclose(a, b)

    def test_nested_children(self):
        source = RandomSource(5)
        path = source.child("a").child("b")
        assert path.path == "a/b"
        again = RandomSource(5).child("a").child("b")
        np.testing.assert_allclose(path.generator.random(3), again.generator.random(3))

    def test_empty_child_name_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(1).child("")

    def test_unseeded_source_still_works(self):
        source = RandomSource(None)
        assert isinstance(source.generator.random(), float)


class TestDeriveRng:
    def test_derive_by_name_is_deterministic(self):
        a = derive_rng(3, "noise").random(4)
        b = derive_rng(3, "noise").random(4)
        np.testing.assert_allclose(a, b)

    def test_derive_from_random_source(self):
        source = RandomSource(3)
        a = derive_rng(source, "noise").random(4)
        b = RandomSource(3).child("noise").generator.random(4)
        np.testing.assert_allclose(a, b)
