import hashlib

import pytest

from flatcusps import density, lorentz, shapes
from flatcusps.bieberbach import catalog, catalog_names, holonomy
from flatcusps.density import (
    CSV_HEADER,
    DensityRow,
    ExperimentConfig,
    Lcg,
    rows_to_csv,
    rows_to_json,
    run_experiment,
    sample_targets,
)
from flatcusps.exactlin import is_positive_definite
from flatcusps.shapes import RealForm

# First outputs of the fixed-constant generator; any change to the
# constants or the bit extraction is a reproducibility break.
GOLDEN_U64 = [1442695040888963407, 1876011003808476466, 11166244414315200793]
GOLDEN_TARGET_SEED0 = [
    [0.7570037644335889, 0.6303831120388543],
    [0.6303831120388543, 0.6746084638459193],
]


# A second output anchor beside the seed-8 torus-2 CSV: a group with
# holonomy of order six, rounded and certified at every bound up to 10^6
SIXTH_TURN_SHA256 = "61a47b60738c71a289900d45359eafc3d868bec72e001383ad3820bbfb28babe"


def test_sixth_turn_anchor():
    bounds = [10**k for k in range(1, 7)]
    config = ExperimentConfig(catalog("sixth-turn"), 20, bounds, 8, torus_manifold_mode=True)
    rows = run_experiment(config)
    assert len(rows) == 120
    assert all(row.pipeline_ok and row.selberg_prime == 7 for row in rows)
    assert hashlib.sha256(rows_to_csv(rows).encode()).hexdigest() == SIXTH_TURN_SHA256


class TestLcg:
    def test_golden_stream(self):
        rng = Lcg(0)
        assert [rng.next_u64() for _ in range(3)] == GOLDEN_U64

    def test_uniform_range(self):
        rng = Lcg(12345)
        values = [rng.uniform_symmetric() for _ in range(1000)]
        assert all(-1.0 <= v < 1.0 for v in values)
        assert min(values) < -0.5 and max(values) > 0.5


class TestSampleTargets:
    def test_deterministic(self):
        group = catalog("torus-2")
        assert sample_targets(group, 5, 99) == sample_targets(group, 5, 99)
        assert sample_targets(group, 5, 99) != sample_targets(group, 5, 100)

    def test_golden_first_sample(self):
        target = sample_targets(catalog("torus-2"), 1, 0)[0]
        assert [list(row) for row in target.entries] == GOLDEN_TARGET_SEED0

    def test_positive_definite_and_invariant(self):
        group = catalog("klein")
        theta = holonomy(group)
        for target in sample_targets(group, 10, 4):
            assert is_positive_definite(target.to_exact())
            # numerically averaged: off-diagonal entries collapse to zero
            # exactly for the sign-flip holonomy
            assert target.entries[0][1] == 0.0


class TestExperimentConfig:
    def test_validation(self):
        group = catalog("torus-2")
        with pytest.raises(ValueError):
            ExperimentConfig(group, 0, [10], 1)
        with pytest.raises(ValueError):
            ExperimentConfig(group, 1, [10, 10], 1)
        with pytest.raises(ValueError):
            ExperimentConfig(group, 1, [100, 10], 1)
        with pytest.raises(ValueError):
            ExperimentConfig(group, 1, [], 1)


class TestRunExperiment:
    def test_row_shape_and_order(self):
        group = catalog("torus-2")
        config = ExperimentConfig(group, 5, [10, 100, 1000], 8)
        rows = run_experiment(config)
        assert len(rows) == 15
        assert [(r.sample_id, r.denom_bound) for r in rows] == [
            (s, b) for s in range(5) for b in (10, 100, 1000)
        ]
        assert all(r.pipeline_ok is None and r.selberg_prime is None for r in rows)
        by_sample = {}
        for r in rows:
            by_sample.setdefault(r.sample_id, []).append(r.error)
        for errors in by_sample.values():
            assert all(b <= a for a, b in zip(errors, errors[1:]))

    def test_errors_non_increasing_and_bounded(self):
        group = catalog("torus-2")
        config = ExperimentConfig(group, 25, [10, 100, 1000, 10**4], 8)
        rows = run_experiment(config)
        by_sample = {}
        for r in rows:
            by_sample.setdefault(r.sample_id, []).append(r.error)
        for errors in by_sample.values():
            assert all(b <= a for a, b in zip(errors, errors[1:]))
        assert all(r.error <= 4.0 / r.denom_bound for r in rows)

    def test_exact_target_gives_zero_error_everywhere(self):
        group = catalog("torus-2")
        config = ExperimentConfig(group, 1, [10, 100], 8)
        target = RealForm([[2.0, 0.5], [0.5, 1.0]])
        rows = run_experiment(config, targets=[target])
        assert [r.error for r in rows] == [0.0, 0.0]

    def test_pipeline_on_klein(self):
        group = catalog("klein")
        config = ExperimentConfig(group, 3, [10, 100], 8, run_pipeline=True)
        rows = run_experiment(config)
        assert all(r.pipeline_ok is True for r in rows)
        assert all(r.selberg_prime is None for r in rows)

    def test_torus_manifold_mode_emits_prime(self):
        group = catalog("torus-2")
        config = ExperimentConfig(
            group, 2, [10, 100], 8, run_pipeline=True, torus_manifold_mode=True
        )
        rows = run_experiment(config)
        assert all(r.pipeline_ok is True for r in rows)
        # degree 4 images plus the -I test element: 2, 3 are small
        # characteristic and 5 collapses the fifth cyclotomic polynomial
        assert all(r.selberg_prime == 7 for r in rows)

    def test_torus_manifold_without_pipeline_flag(self):
        group = catalog("torus-2")
        config = ExperimentConfig(group, 1, [10], 8, torus_manifold_mode=True)
        rows = run_experiment(config)
        # the congruence leg runs the whole pipeline, so its status is kept
        assert rows[0].pipeline_ok is True
        assert rows[0].selberg_prime == 7

    def test_each_image_is_decoded_once_per_row(self, monkeypatch):
        # per row: embed 2, integralize's check 2, the integral
        # verification 2, the lattice translations 2; integralize rescales
        # the checked images on their integer rows, with no _assemble, and
        # every _assemble needs one _translation_parts and nothing else does
        calls = {"_assemble": 0, "_translation_parts": 0}
        for name in calls:
            original = getattr(lorentz, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(lorentz, name, counted)
        config = ExperimentConfig(catalog("torus-2"), 1, [10], 8, torus_manifold_mode=True)
        [row] = run_experiment(config)
        assert row.pipeline_ok is True
        assert calls == {"_assemble": 8, "_translation_parts": 8}

    @pytest.mark.parametrize("name", ["torus-2", "klein", "sixth-turn"])
    def test_each_target_is_averaged_once_per_ladder(self, name, monkeypatch):
        # every rung rounds the exact reference average, so it averages only
        # its rounded form: 1 + k averages for k bounds, one exact conversion
        # per target, and one rationalize and one shape_distance per row
        # under the names the benchmark traces
        calls = {}

        def count(owner, attr):
            original = getattr(owner, attr)
            calls[attr] = 0

            def counted(*args):
                calls[attr] += 1
                return original(*args)

            monkeypatch.setattr(owner, attr, counted)

        for owner, attr in [
            (density, "theta_average"),
            (shapes, "theta_average"),
            (density, "rationalize"),
            (density, "shape_distance"),
            (RealForm, "to_exact"),
        ]:
            count(owner, attr)
        bounds = [10, 100, 1000, 10**4, 10**5, 10**6]
        config = ExperimentConfig(catalog(name), 1, bounds, 8, torus_manifold_mode=True)
        assert all(row.pipeline_ok is True for row in run_experiment(config))
        k = len(bounds)
        assert calls == {"theta_average": 1 + k, "rationalize": k, "shape_distance": k, "to_exact": 1}

    @pytest.mark.parametrize("name", catalog_names())
    def test_congruence_leg_every_catalog_group(self, name):
        # the unipotent subgroup is the image of the translation lattice, so
        # groups whose generators include rotations or reflections get a
        # prime as well
        group = catalog(name)
        config = ExperimentConfig(
            group, 1, [10], 8, run_pipeline=True, torus_manifold_mode=True
        )
        rows = run_experiment(config)
        assert rows[0].pipeline_ok is True
        assert rows[0].selberg_prime is not None
        assert rows[0].reason is None

    def test_explicit_target_count_checked(self):
        group = catalog("torus-2")
        config = ExperimentConfig(group, 2, [10], 8)
        with pytest.raises(ValueError):
            run_experiment(config, targets=[RealForm([[1.0, 0.0], [0.0, 1.0]])])


class TestCsvAndJson:
    def test_header_and_layout(self):
        rows = [
            DensityRow(0, 10, 0.125, True, 7),
            DensityRow(0, 100, 0.0625, None, None),
        ]
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "0,10,0.125,true,7"
        assert lines[2] == "0,100,0.0625,,"
        assert text.endswith("\n")

    def test_false_pipeline_and_reason_in_json_only(self):
        rows = [DensityRow(1, 10, 0.5, False, None, reason="boom")]
        assert rows_to_csv(rows).splitlines()[1] == "1,10,0.5,false,"
        payload = rows_to_json(rows)
        assert payload[0]["reason"] == "boom"
        assert payload[0]["pipeline_ok"] is False

    def test_byte_identical_repetition(self):
        group = catalog("torus-2")
        config = ExperimentConfig(group, 5, [10, 1000], 8, run_pipeline=True)
        first = rows_to_csv(run_experiment(config))
        second = rows_to_csv(run_experiment(config))
        assert first == second
