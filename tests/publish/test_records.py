"""Tests for run-record schemas."""

import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from repro.publish.records import ExperimentRecord, RunRecord, SampleRecord, _listify


def make_sample(index=0, score=25.0, well="A1"):
    return SampleRecord(
        sample_index=index,
        well=well,
        plate_barcode="plate-1",
        volumes_ul={"cyan": 10.0, "black": 5.0},
        measured_rgb=np.array([118.0, 121.0, 119.0]),
        score=score,
    )


class TestSampleRecord:
    def test_numpy_values_are_converted(self):
        sample = make_sample()
        assert isinstance(sample.measured_rgb, list)
        assert all(isinstance(v, float) for v in sample.measured_rgb)
        json.dumps(sample.to_dict())

    def test_volumes_coerced_to_float(self):
        sample = make_sample()
        assert isinstance(sample.volumes_ul["cyan"], float)


def plain_sample():
    return SampleRecord(
        sample_index=4,
        well="B2",
        plate_barcode="plate-2",
        volumes_ul={"cyan": 10, "magenta": 2.5},
        measured_rgb=[118, 121.5, 119],
        score=7,
        proposed_by="seed",
        timestamp=12.0,
    )


def numpy_sample():
    return SampleRecord(
        sample_index=np.int64(3),
        well="C1",
        plate_barcode="plate-3",
        volumes_ul={"cyan": np.float64(10.0), "black": np.float32(5.5)},
        measured_rgb=np.array([[118.0, 121.0, 119.0]]),
        score=np.float64(25.0),
        timestamp=np.float64(3.0),
    )


class TestSampleToDict:
    @pytest.mark.parametrize("build", [plain_sample, numpy_sample])
    def test_equals_dataclasses_asdict_in_key_order(self, build):
        sample = build()
        expected = asdict(sample)
        got = sample.to_dict()
        assert got == expected
        assert list(got) == list(expected)
        assert [type(value) for value in got.values()] == [type(value) for value in expected.values()]

    def test_covers_every_field(self):
        assert set(plain_sample().to_dict()) == {field.name for field in fields(SampleRecord)}

    def test_returned_containers_are_copies(self):
        sample = plain_sample()
        data = sample.to_dict()
        data["volumes_ul"]["cyan"] = -1.0
        data["volumes_ul"]["yellow"] = 3.0
        data["measured_rgb"][0] = -1.0
        data["measured_rgb"].append(0.0)
        assert sample.volumes_ul == {"cyan": 10.0, "magenta": 2.5}
        assert sample.measured_rgb == [118.0, 121.5, 119.0]


class TestListify:
    def test_none_raises_instead_of_becoming_nan(self):
        with pytest.raises(TypeError):
            _listify([1.0, None, 3.0])

    def test_ravels_a_2d_array_to_floats(self):
        values = _listify(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert values == [1.0, 2.0, 3.0, 4.0]
        assert all(type(value) is float for value in values)

    def test_int_array_becomes_floats(self):
        values = _listify(np.array([118, 121, 119], dtype=np.int64))
        assert values == [118.0, 121.0, 119.0]
        assert all(type(value) is float for value in values)


class TestRunRecord:
    def test_best_score_and_sample(self):
        record = RunRecord(
            experiment_id="exp",
            run_id="run-1",
            run_index=0,
            target_rgb=[120, 120, 120],
            samples=[make_sample(0, 30.0), make_sample(1, 12.0, "A2"), make_sample(2, 18.0, "A3")],
        )
        assert record.n_samples == 3
        assert record.best_score == 12.0
        assert record.best_sample.well == "A2"

    def test_empty_run_best_score_is_inf(self):
        record = RunRecord(experiment_id="exp", run_id="run", run_index=0, target_rgb=[0, 0, 0])
        assert record.best_score == float("inf")
        assert record.best_sample is None

    def test_dict_round_trip(self):
        record = RunRecord(
            experiment_id="exp",
            run_id="run-1",
            run_index=3,
            target_rgb=[120, 120, 120],
            solver="evolutionary",
            samples=[make_sample()],
            timings={"elapsed_s": 100.0},
            metadata={"batch_size": 4},
        )
        data = json.loads(json.dumps(record.to_dict()))
        rebuilt = RunRecord.from_dict(data)
        assert rebuilt.run_id == record.run_id
        assert rebuilt.run_index == 3
        assert rebuilt.n_samples == 1
        assert rebuilt.samples[0].well == "A1"
        assert rebuilt.metadata == {"batch_size": 4}


class TestFromCheckedDict:
    def record(self):
        return RunRecord(
            experiment_id="exp",
            run_id="run-3",
            run_index=3,
            target_rgb=np.array([120.0, 121.0, 122.0]),
            samples=[plain_sample(), make_sample(1, 12.5)],
            timings={"elapsed_s": 100.0},
            metadata={"batch": {"size": 4, "wells": ["A1", "B2"]}, "title": "épreuve"},
        )

    def test_equals_the_record_and_from_dict_on_to_dict_json(self):
        record = self.record()
        text = json.dumps(record.to_dict())
        rebuilt = RunRecord.from_checked_dict(json.loads(text))
        assert rebuilt == record == RunRecord.from_dict(json.loads(text))
        assert rebuilt.to_dict() == record.to_dict()


class TestExperimentRecord:
    def test_aggregates_runs(self):
        runs = [
            RunRecord(
                experiment_id="exp",
                run_id=f"run-{i}",
                run_index=i,
                target_rgb=[1, 2, 3],
                samples=[make_sample(j, 10.0 + i + j) for j in range(15)],
            )
            for i in range(12)
        ]
        experiment = ExperimentRecord(experiment_id="exp", runs=runs)
        assert experiment.n_runs == 12
        assert experiment.n_samples == 180
        assert experiment.best_score == 10.0
        json.dumps(experiment.to_dict())
