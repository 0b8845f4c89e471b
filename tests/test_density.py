import hashlib
import json
from fractions import Fraction as F

import pytest

from flatcusps import density, exactlin, lorentz, shapes
from flatcusps.bieberbach import (
    AffineMap,
    BieberbachGroup,
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
from flatcusps.cli import main
from flatcusps.errors import HolonomyBound, NotPositiveDefinite
from flatcusps.exactlin import Matrix, SymmetricForm, is_positive_definite, preserves_form
from flatcusps.lorentz import embed_group, integralize
from flatcusps.serialize import certificate_to_dict, group_to_dict

from oracles import assembled_denominators, bump_conjugate, ref_congruence_certificate

# First outputs of the fixed-constant generator; any change to the
# constants or the bit extraction is a reproducibility break.
GOLDEN_U64 = [1442695040888963407, 1876011003808476466, 11166244414315200793]
GOLDEN_TARGET_SEED0 = [
    [0.7570037644335889, 0.6303831120388543],
    [0.6303831120388543, 0.6746084638459193],
]


HOLONOMY_GROUPS = [name for name in catalog_names() if holonomy(catalog(name)).order > 1]

# Output anchors beside the seed-8 torus-2 CSV: every catalog group with
# nontrivial holonomy, 20 targets at seed 8 rounded and certified at every
# bound up to 10^6. The two amphicosms have the same linear parts, so the
# same rows. CI checks the sixth-turn one again under python -O.
ANCHOR_SHA256 = {
    "klein": "20304c7159b766ad5e3acfe44b1eb0b3b2b064f485300474758d27fbd65ce8ef",
    "half-turn": "d1bd76fe4b218a5bc0ee66d3edfcdea4ce2dda961c089c22532f27b6b1604e90",
    "third-turn": "f94a4d276d4ac9e2370341947950fdefb1d714209bf549b910d135cadce39fa5",
    "quarter-turn": "441363bc9c8dbd3a136e23180392452608e2e2641e44c80a3697011d4aa8c44c",
    "sixth-turn": "e5416bb4ea17b3558fad23716119c88d2472f8f4c170a48b8ed07c594026b165",
    "hantzsche-wendt": "3d76ae10221d1e1f08aaaf0f6e23c1d2867c0f4585b0cae3757b895be52b5e67",
    "first-amphicosm": "4b590990bb13e611586201a7885f149cd0501379a145df6244bb39ecf9ea8912",
    "second-amphicosm": "4b590990bb13e611586201a7885f149cd0501379a145df6244bb39ecf9ea8912",
}
SIXTH_TURN_SHA256 = ANCHOR_SHA256["sixth-turn"]


def anchor_digest(name):
    config = ExperimentConfig(catalog(name), 20, BOUNDS, 8, torus_manifold_mode=True)
    rows = run_experiment(config)
    assert len(rows) == 120
    assert all(row.pipeline_ok and row.selberg_prime == 7 for row in rows)
    return hashlib.sha256(rows_to_csv(rows).encode()).hexdigest()


def test_sixth_turn_anchor():
    assert anchor_digest("sixth-turn") == SIXTH_TURN_SHA256


@pytest.mark.parametrize("name", [name for name in HOLONOMY_GROUPS if name != "sixth-turn"])
def test_holonomy_anchor(name):
    assert anchor_digest(name) == ANCHOR_SHA256[name]


class TestLcg:
    def test_golden_stream(self):
        rng = Lcg(0)
        assert [rng.next_u64() for _ in range(3)] == GOLDEN_U64

    def test_uniform_range(self):
        rng = Lcg(12345)
        values = [rng.uniform_symmetric() for _ in range(1000)]
        assert all(-1.0 <= v < 1.0 for v in values)
        assert min(values) < -0.5 and max(values) > 0.5


# A linear part of infinite order: the holonomy closure raises HolonomyBound
SHEAR = BieberbachGroup(
    [
        AffineMap(Matrix([[1, 1], [0, 1]]), [0, 0]),
        AffineMap(Matrix.identity(2), [1, 0]),
        AffineMap(Matrix.identity(2), [0, 1]),
    ]
)


class TestSampleTargets:
    def test_deterministic(self):
        group = catalog("torus-2")
        assert sample_targets(group, 5, 99) == sample_targets(group, 5, 99)
        assert sample_targets(group, 5, 99) != sample_targets(group, 5, 100)

    def test_golden_first_sample(self):
        target = sample_targets(catalog("torus-2"), 1, 0)[0]
        golden = [[F(x) for x in row] for row in GOLDEN_TARGET_SEED0]
        assert [list(row) for row in target.matrix.entries] == golden

    def test_positive_definite_and_invariant(self):
        # the targets are raw draws; their exact holonomy average, which
        # run_experiment takes, is the invariant form
        group = catalog("klein")
        theta = holonomy(group)
        for target in sample_targets(group, 10, 4):
            assert is_positive_definite(target)
            reference = theta_average(target, theta)
            assert all(preserves_form(g.linear, reference.matrix) for g in group.generators)
            # the sign flip kills the off-diagonal entry exactly
            assert reference.matrix[0, 1] == 0

    def test_no_holonomy_needed(self, monkeypatch):
        def raising(*args, **kwargs):
            raise AssertionError("sample_targets computed the holonomy")

        monkeypatch.setattr(density, "holonomy", raising)
        targets = sample_targets(SHEAR, 5, 8)
        assert len(targets) == 5
        assert all(is_positive_definite(target) for target in targets)

    def test_infinite_holonomy_fails_before_any_row(self, tmp_path, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(density, "_rationalize_with_retry", never)
        config = ExperimentConfig(SHEAR, 2, [10], 8, torus_manifold_mode=True)
        with pytest.raises(HolonomyBound):
            run_experiment(config)
        group = tmp_path / "shear.json"
        group.write_text(json.dumps(group_to_dict(SHEAR)), encoding="utf-8")
        rows = tmp_path / "rows.csv"
        code = main(["density", "-g", str(group), "--samples", "2", "--denoms", "10",
                     "--seed", "8", "--torus-manifold", "-o", str(rows)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: holonomy closure exceeds max_order")
        assert captured.err.count("\n") == 1
        assert not rows.exists()


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
        # per row: _integral_embedding builds the parts table once (one
        # _translation_parts per generator), and one _integral_images reads
        # the scale off it and writes the 2 integral images straight onto
        # integer rows from its rescaled parts, with no _assemble; the
        # verification reads the table the embedding carries and decodes
        # each image once, in place, with no _assemble and no
        # _translation_parts; the congruence leg builds no unipotent
        calls = {"_assemble": 0, "_integral_images": 0, "_decodes": 0, "_translation_parts": 0}
        for name in calls:
            original = getattr(lorentz, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(lorentz, name, counted)
        config = ExperimentConfig(catalog("torus-2"), 1, [10], 8, torus_manifold_mode=True)
        [row] = run_experiment(config)
        assert row.pipeline_ok is True
        assert calls == {
            "_assemble": 0, "_integral_images": 1, "_decodes": 2, "_translation_parts": 2
        }

    @pytest.mark.parametrize("name", ["torus-2", "klein", "sixth-turn"])
    def test_each_target_is_averaged_once_per_ladder(self, name, monkeypatch):
        # every rung rounds the exact reference average, so it averages only
        # its rounded form: 1 + k averages for k bounds. Each upper-triangle
        # entry of the reference is walked once for the whole ladder, and no
        # rung calls rationalize; the reference's float view is read once
        # per ladder and each rung's shape once, and each row takes one
        # distance between two views
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
            (shapes, "rationalize"),
            (shapes, "_limit_denominators"),
            (density, "_float_view"),
            (density, "_view_distance"),
        ]:
            count(owner, attr)
        bounds = [10, 100, 1000, 10**4, 10**5, 10**6]
        group = catalog(name)
        config = ExperimentConfig(group, 1, bounds, 8, torus_manifold_mode=True)
        assert all(row.pipeline_ok is True for row in run_experiment(config))
        k, n = len(bounds), group.dim
        assert calls == {
            "theta_average": 1 + k,
            "rationalize": 0,
            "_limit_denominators": n * (n + 1) // 2,
            "_float_view": 1 + k,
            "_view_distance": k,
        }

    @pytest.mark.parametrize("name", ["torus-2", "klein", "sixth-turn"])
    def test_each_form_is_decided_once_per_ladder(self, name, monkeypatch):
        # definiteness is memoized by value, so a ladder decides the target
        # (its own average here) and each rung's rounded form; a rung whose
        # second average moves the rounded form decides the shape too.
        # Over a trivial holonomy the shape is the rounded form: 1 + k.
        calls = []
        original = exactlin._leading_minors_positive

        def counted(rows):
            calls.append(rows)
            return original(rows)

        monkeypatch.setattr(exactlin, "_leading_minors_positive", counted)
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
        # the reference is theta_average output, so no rung asks whether it
        # is already an arithmetic shape; rationalize asks it of a target
        # once, with one preserves_form per generator, not one per element
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
        assert calls == []
        theta = holonomy(group)
        [target] = sample_targets(group, 1, 8)
        shapes.rationalize(theta_average(target, theta), theta, bounds[0])
        assert calls == [g.linear for g in group.generators]

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
        # the integral images shifted by an integer: they stay integral,
        # but decoding them no longer gives the generators back
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
    ``run_experiment`` builds them, each checked equal, images and scale,
    to the composition of ``embed_group`` and ``integralize``."""
    theta = holonomy(group)
    for target in sample_targets(group, count, seed):
        reference = theta_average(target, theta)
        for bound, shape in zip(BOUNDS, density._rationalize_with_retry(reference, theta, BOUNDS)):
            row = lorentz._integral_embedding(group, shape)
            assert row == integralize(embed_group(group, shape)), (group.name, bound)
            yield row


def test_seed_8_rows_assemble_over_denominator_one(monkeypatch):
    # every row of the acceptance run builds its images over denominator 1
    group = catalog("torus-2")
    theta = holonomy(group)
    for target in sample_targets(group, 100, 8):
        reference = theta_average(target, theta)
        for bound, shape in zip(BOUNDS, density._rationalize_with_retry(reference, theta, BOUNDS)):
            assert assembled_denominators(monkeypatch, group, shape) == [1, 1], bound


def counted_roundings(monkeypatch):
    """The bound lists ``run_experiment`` rounds a reference at, in order:
    the ladder's first, then each retry's single bound."""
    calls = []
    original = density._rounded_forms

    def counted(form, bounds):
        calls.append(tuple(bounds))
        return original(form, bounds)

    monkeypatch.setattr(density, "_rounded_forms", counted)
    return calls


class TestRetryLadder:
    """A rung whose rounding is not positive definite rounds again at ten
    times its bound, up to ``bound * RETRY_LIMIT * RETRY_FACTOR``."""

    TRIED_AT_10 = [(10**k,) for k in range(2, 12)]  # the retries after the ladder's (10,)

    def target(self, e):
        return SymmetricForm([[1, 1], [1, 1 + F(1, 2**e)]])

    def test_last_try_settles(self, monkeypatch):
        # 2^-36 is about 1.5e-11: only the eleventh try, at 10^11, keeps it
        group = catalog("torus-2")
        calls = counted_roundings(monkeypatch)
        config = ExperimentConfig(group, 1, [10], 8)
        [row] = run_experiment(config, targets=[self.target(36)])
        assert calls == [(10,)] + self.TRIED_AT_10
        assert 10 * density.RETRY_LIMIT * density.RETRY_FACTOR == 10**11
        theta = holonomy(group)
        with pytest.raises(NotPositiveDefinite):
            shapes.rationalize(self.target(36), theta, 10**10)
        expected = shapes.rationalize(self.target(36), theta, 10**11)
        assert row.error == shapes.shape_distance(expected.form, self.target(36))

    def test_gives_up_after_the_last_try(self, monkeypatch):
        calls = counted_roundings(monkeypatch)
        config = ExperimentConfig(catalog("torus-2"), 1, [10], 8)
        with pytest.raises(NotPositiveDefinite):
            run_experiment(config, targets=[self.target(40)])
        assert calls == [(10,)] + self.TRIED_AT_10


class TestLadderEqualsSingleBounds:
    """A ladder's rows are the rows of one single-bound run per bound."""

    @pytest.mark.parametrize("name, count", [("torus-2", 100), ("klein", 20), ("sixth-turn", 20)])
    def test_rows(self, name, count, monkeypatch):
        group = catalog(name)
        ladder = ExperimentConfig(group, count, BOUNDS, 8, torus_manifold_mode=True)
        calls = counted_roundings(monkeypatch)
        rows = run_experiment(ladder)
        retries = []  # per sample, the single bounds rounded after its ladder
        for bounds in calls:
            if bounds == tuple(BOUNDS):
                retries.append([])
            else:
                retries[-1].append(bounds)
        singles = [
            run_experiment(ExperimentConfig(group, count, [bound], 8, torus_manifold_mode=True))
            for bound in BOUNDS
        ]
        assert rows == [single[i] for i in range(count) for single in singles]
        assert len(retries) == count
        if name == "torus-2":
            # among the seed-8 retries: sample 9 once at bound 10, and sample
            # 68 twice at bound 10 and once at bound 100
            assert retries[9] == [(100,)]
            assert retries[68] == [(100,), (1000,), (1000,)]


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
        # a refused degree certificate fails each row as the per-row input
        # did, and a failure is not cached
        calls = []

        def refused(group_input):
            calls.append(group_input.n)
            raise ValueError(f"degree {group_input.n} refused")

        monkeypatch.setattr(density, "good_prime", refused)
        density._degree_certificate.cache_clear()
        config = ExperimentConfig(catalog("torus-2"), 2, [10, 100], 8, torus_manifold_mode=True)
        rows = run_experiment(config)
        reason = "ValueError: degree 4 refused"
        assert [(r.pipeline_ok, r.selberg_prime, r.reason) for r in rows] == [(False, None, reason)] * 4
        assert calls == [4] * 4
        assert density._degree_certificate.cache_info().currsize == 0


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
