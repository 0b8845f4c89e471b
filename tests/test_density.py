import hashlib
from fractions import Fraction as F

import pytest

from flatcusps import density, exactlin, lorentz, selberg, shapes
from flatcusps.bieberbach import (
    catalog,
    catalog_names,
    holonomy,
    theta_average,
    translation_lattice,
)
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
from flatcusps.exactlin import SymmetricForm, is_positive_definite
from flatcusps.lorentz import embed_group, integralize
from flatcusps.serialize import certificate_to_dict

from oracles import bump_conjugate, ref_congruence_certificate, ref_sample_targets

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
        golden = [[F(x) for x in row] for row in GOLDEN_TARGET_SEED0]
        assert [list(row) for row in target.matrix.entries] == golden

    @pytest.mark.parametrize(
        "name", [name for name in catalog_names() if holonomy(catalog(name)).order > 1]
    )
    def test_float_holonomy_matches_fraction_conversion(self, name):
        # the float holonomy is converted once per call from integer rows;
        # x / den on ints is correctly rounded, as float(Fraction) is
        group = catalog(name)

        def entries(targets):
            return [x for target in targets for row in target.matrix.entries for x in row]

        assert entries(sample_targets(group, 3, 8)) == entries(ref_sample_targets(group, 3, 8))

    def test_positive_definite_and_invariant(self):
        group = catalog("klein")
        theta = holonomy(group)
        for target in sample_targets(group, 10, 4):
            assert is_positive_definite(target)
            # numerically averaged: off-diagonal entries collapse to zero
            # exactly for the sign-flip holonomy
            assert target.matrix[0, 1] == 0


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
        target = SymmetricForm([[2, F(1, 2)], [F(1, 2), 1]])
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
        # per row: _assemble builds the 2 embedded images; integralize
        # decodes each rational image once and the integral verification
        # each integral one once, in place, with no _assemble; the
        # congruence leg builds no unipotent; every _assemble and every
        # _decodes needs one _translation_parts, and nothing else does
        calls = {"_assemble": 0, "_decodes": 0, "_translation_parts": 0}
        for name in calls:
            original = getattr(lorentz, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(lorentz, name, counted)
        config = ExperimentConfig(catalog("torus-2"), 1, [10], 8, torus_manifold_mode=True)
        [row] = run_experiment(config)
        assert row.pipeline_ok is True
        assert calls == {"_assemble": 2, "_decodes": 4, "_translation_parts": 6}

    @pytest.mark.parametrize("name", ["torus-2", "klein", "sixth-turn"])
    def test_each_target_is_averaged_once_per_ladder(self, name, monkeypatch):
        # every rung rounds the exact reference average, so it averages only
        # its rounded form: 1 + k averages for k bounds, and one rationalize
        # and one shape_distance per row under the names the benchmark traces
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
        ]:
            count(owner, attr)
        bounds = [10, 100, 1000, 10**4, 10**5, 10**6]
        config = ExperimentConfig(catalog(name), 1, bounds, 8, torus_manifold_mode=True)
        assert all(row.pipeline_ok is True for row in run_experiment(config))
        k = len(bounds)
        assert calls == {"theta_average": 1 + k, "rationalize": k, "shape_distance": k}

    @pytest.mark.parametrize("name", ["torus-2", "klein", "sixth-turn"])
    def test_each_form_is_decided_once_per_ladder(self, name, monkeypatch):
        # definiteness is memoized by value, so a ladder decides the target
        # (its own average here) and each rung's rounded form; a rung whose
        # second average moves the rounded form decides the shape too.
        # Over a trivial holonomy the shape is the rounded form: 1 + k.
        calls = []
        original = exactlin.ldl_signature

        def counted(form):
            calls.append(form)
            return original(form)

        monkeypatch.setattr(exactlin, "ldl_signature", counted)
        is_positive_definite.cache_clear()
        bounds = [10, 100, 1000, 10**4, 10**5, 10**6]
        config = ExperimentConfig(catalog(name), 1, bounds, 8, torus_manifold_mode=True)
        assert all(row.pipeline_ok is True for row in run_experiment(config))
        k = len(bounds)
        assert len(calls) == len(set(calls)) <= 1 + 2 * k
        if name == "torus-2":
            assert len(calls) == 1 + k

    @pytest.mark.parametrize("name", ["klein", "sixth-turn"])
    def test_invariance_is_decided_on_the_generators_per_rung(self, name, monkeypatch):
        # each rung asks whether its target is already an arithmetic shape;
        # that takes one preserves_form per generator, not one per element
        # of theta (6 on sixth-turn, which has 3 generators)
        calls = []
        original = shapes.preserves_form

        def counted(a, gram):
            calls.append(a)
            return original(a, gram)

        monkeypatch.setattr(shapes, "preserves_form", counted)
        group = catalog(name)
        bounds = [10, 100, 1000, 10**4, 10**5, 10**6]
        config = ExperimentConfig(group, 1, bounds, 8, torus_manifold_mode=True)
        assert all(row.pipeline_ok is True for row in run_experiment(config))
        assert len(calls) == len(bounds) * len(group.generators)
        assert calls == [g.linear for g in group.generators] * len(bounds)

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

    @pytest.mark.parametrize("torus_manifold", [False, True])
    def test_failed_reverification_is_an_invariant_violation(self, monkeypatch, torus_manifold):
        # integralize's rescaling shifted by an integer: the images stay
        # integral, but decoding them no longer gives the generators back
        bump_conjugate(monkeypatch)
        config = ExperimentConfig(
            catalog("torus-2"), 1, [10], 8, run_pipeline=True, torus_manifold_mode=torus_manifold
        )
        [row] = run_experiment(config)
        assert row.pipeline_ok is False and row.selberg_prime is None
        assert row.reason == "InvariantViolation: re-verification after integralization failed"
        assert rows_to_json([row])[0]["reason"].startswith("InvariantViolation:")

    def test_explicit_target_count_checked(self):
        group = catalog("torus-2")
        config = ExperimentConfig(group, 2, [10], 8)
        with pytest.raises(ValueError):
            run_experiment(config, targets=[SymmetricForm.identity(2)])


BOUNDS = [10**k for k in range(1, 7)]


def row_embeddings(group, count, seed):
    """Each torus-manifold row's integral embedding and scale, built as
    ``run_experiment`` builds them."""
    theta = holonomy(group)
    for target in sample_targets(group, count, seed):
        reference = theta_average(target, theta)
        for bound in BOUNDS:
            shape = density._rationalize_with_retry(reference, theta, bound)
            yield integralize(embed_group(group, shape))


class TestDegreeCertificate:
    """A row's congruence input, with its images and lattice unipotents,
    has the certificate of ``-I`` alone in the row's ambient degree."""

    @pytest.mark.parametrize(
        "name, count",
        [("torus-2", 100), ("sixth-turn", 20)]
        + [(name, 2) for name in catalog_names() if name not in ("torus-2", "sixth-turn")],
    )
    def test_equals_every_row_certificate(self, name, count):
        # every seed-8 acceptance row, every sixth-turn anchor row, and two
        # targets of each other catalog group
        group = catalog(name)
        lattice = translation_lattice(group)
        expected = certificate_to_dict(density._degree_certificate(group.dim + 2))
        rows = 0
        for integral, scale in row_embeddings(group, count, 8):
            assert certificate_to_dict(ref_congruence_certificate(integral, lattice, scale)) == expected
            rows += 1
        assert rows == count * len(BOUNDS)

    def test_decided_once_per_degree(self, monkeypatch):
        calls = {"good_prime": 0, "MatrixGroupInput": 0}
        for name in calls:
            original = getattr(density, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(density, name, counted)
        density._degree_certificate.cache_clear()
        config = ExperimentConfig(catalog("torus-2"), 2, [10], 8, torus_manifold_mode=True)
        assert [row.selberg_prime for row in run_experiment(config)] == [7, 7]
        assert calls == {"good_prime": 1, "MatrixGroupInput": 1}

    def test_degree_above_max_fails_every_row(self, monkeypatch):
        # the degree bound fails each row as the per-row input did, and a
        # failure is not cached
        monkeypatch.setattr(selberg, "MAX_DEGREE", 3)
        density._degree_certificate.cache_clear()
        config = ExperimentConfig(catalog("torus-2"), 2, [10, 100], 8, torus_manifold_mode=True)
        rows = run_experiment(config)
        reason = "ValueError: degree 4 exceeds MAX_DEGREE = 3"
        assert [(r.pipeline_ok, r.selberg_prime, r.reason) for r in rows] == [(False, None, reason)] * 4


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
