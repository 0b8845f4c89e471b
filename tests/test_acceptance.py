"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Every
check is exact unless a numeric tolerance is stated inline; tolerances and
runtime budgets are fixed here, not configurable.
"""

import hashlib
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from flatcusps.bieberbach import (
    AffineMap,
    BieberbachGroup,
    catalog,
    catalog_names,
    holonomy,
    is_torsion_free,
    theta_average,
)
from flatcusps.density import ExperimentConfig, rows_to_csv, run_experiment
from flatcusps.exactlin import (
    Matrix,
    SymmetricForm,
    is_positive_definite,
    ldl_signature,
)
from flatcusps.lorentz import (
    embed_group,
    embed_translation,
    integralize,
    verify_embedding,
)
from flatcusps.selberg import (
    MatrixGroupInput,
    SelbergCertificate,
    good_prime,
    torsion_polynomials,
    unipotent_polynomial,
    verify_certificate,
)
from flatcusps.shapes import ShapeDescriptor, is_arithmetic_shape

from oracles import (
    brute_force_is_torsion_free,
    linear_image,
    sympy_finite_order_char_polys,
    translation_log,
    transpose,
)

HALF = F(1, 2)

# The criteria fix sample counts and bounds but not the seed; this one is
# pinned so the suite is reproducible (criterion 8 checks exactly that).
ACCEPTANCE_SEED = 8
ACCEPTANCE_SHA256 = "ba7793eedd6db970803d07bcb940816a571f890908531086a75b25ab48fd0c4e"

EMBEDDING_GROUPS = [
    "torus-2",
    "torus-3",
    "torus-4",
    "torus-5",
    "klein",
    "half-turn",
    "third-turn",
    "quarter-turn",
    "sixth-turn",
    "hantzsche-wendt",
    "first-amphicosm",
    "second-amphicosm",
]

HALF_INTEGER_GROUPS = [
    "klein",
    "half-turn",
    "hantzsche-wendt",
    "first-amphicosm",
    "second-amphicosm",
]


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def base_forms(n):
    """Three distinct positive definite integer seed forms per dimension."""
    dense = [[n + 1 if i == j else 1 for j in range(n)] for i in range(n)]
    return [
        SymmetricForm.diagonal([2] * n),
        SymmetricForm.diagonal(list(range(2, n + 2))),
        SymmetricForm(dense),
    ]


def arithmetic_shapes(group, theta):
    shapes = []
    for seed_form in base_forms(group.dim):
        shapes.append(ShapeDescriptor(group, theta_average(seed_form, theta)))
    return shapes


@pytest.fixture(scope="module")
def density_run():
    group = catalog("torus-2")
    config = ExperimentConfig(
        group,
        sample_count=100,
        denom_bounds=[10, 100, 1000, 10**4, 10**5, 10**6],
        seed=ACCEPTANCE_SEED,
        run_pipeline=True,
        torus_manifold_mode=True,
    )
    start = time.monotonic()
    rows = run_experiment(config)
    elapsed = time.monotonic() - start
    return config, rows, elapsed


def test_criterion_1_exact_embedding_suite():
    with criterion(1, "exact embedding suite"):
        start = time.monotonic()
        for name in EMBEDDING_GROUPS:
            group = catalog(name)
            theta = holonomy(group)
            shapes = arithmetic_shapes(group, theta)
            assert len({s.form for s in shapes}) == 3
            for shape in shapes:
                assert is_arithmetic_shape(shape)
                embedding = embed_group(group, shape)
                model = embedding.model
                gram = model.model_form.matrix
                n = group.dim
                assert ldl_signature(model.model_form) == (n + 1, 1, 0)
                for gen, image in zip(group.generators, embedding.images):
                    assert transpose(image) * gram * image == gram
                    assert image.matvec(model.v_inf) == model.v_inf
                    rotation = linear_image(gen.linear, model)
                    rotation_inv = rotation.inverse()
                    for i in range(n):
                        w = tuple(F(1) if j == i else F(0) for j in range(n))
                        lhs = rotation * embed_translation(w, model) * rotation_inv
                        assert lhs == embed_translation(gen.linear.matvec(w), model)
                    log = translation_log(gen.translation, model)
                    assert (log * log * log).is_zero()
                assert verify_embedding(embedding).overall
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"embedding suite took {elapsed:.2f}s"


def test_criterion_2_translation_homomorphism():
    with criterion(2, "unipotent factor is a homomorphism"):
        rng = random.Random(20250810)
        for name in EMBEDDING_GROUPS:
            group = catalog(name)
            theta = holonomy(group)
            model = embed_group(group, arithmetic_shapes(group, theta)[0]).model
            n = group.dim
            for _ in range(200):
                v = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
                w = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
                combined = [a + b for a, b in zip(v, w)]
                assert (
                    embed_translation(v, model) * embed_translation(w, model)
                    == embed_translation(combined, model)
                )


def test_criterion_3_theta_average_correctness():
    with criterion(3, "holonomy average invariance"):
        rng = random.Random(31415)
        for name in catalog_names():
            group = catalog(name)
            theta = holonomy(group)
            n = group.dim
            for _ in range(100):
                raw = Matrix(
                    [
                        [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                        for _ in range(n)
                    ]
                )
                form = SymmetricForm(transpose(raw) * raw + Matrix.identity(n))
                averaged = theta_average(form, theta)
                gram = averaged.matrix
                for g in theta.elements:
                    assert transpose(g) * gram * g == gram
                assert theta_average(averaged, theta) == averaged
                assert is_positive_definite(averaged)


def torsioned_variants():
    ident2 = Matrix.identity(2)
    reflection = Matrix.diagonal([1, -1])
    t2 = [AffineMap.translation_by([1, 0]), AffineMap.translation_by([0, 1])]
    t3 = [
        AffineMap.translation_by([1, 0, 0]),
        AffineMap.translation_by([0, 1, 0]),
        AffineMap.translation_by([0, 0, 1]),
    ]
    quarter = Matrix([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    sixth = Matrix([[0, -1, 0], [1, 1, 0], [0, 0, 1]])
    return [
        BieberbachGroup(t2 + [AffineMap(reflection, [0, 0])]),
        BieberbachGroup(t2 + [AffineMap(reflection, [1, 0])]),
        BieberbachGroup(t2 + [AffineMap(reflection, [0, HALF])]),
        BieberbachGroup(t3 + [AffineMap(Matrix.diagonal([-1, -1, 1]), [0, 0, 0])]),
        BieberbachGroup(
            t3 + [AffineMap(Matrix.diagonal([1, -1, -1]), [0, HALF, 0])]
        ),
        BieberbachGroup(t2 + [AffineMap(-ident2, [0, 0])]),
        BieberbachGroup(t3 + [AffineMap(-Matrix.identity(3), [HALF, HALF, HALF])]),
        BieberbachGroup(t3 + [AffineMap(quarter, [0, 0, HALF])]),
        BieberbachGroup(t3 + [AffineMap(sixth, [0, 0, HALF])]),
        BieberbachGroup(t3 + [AffineMap(Matrix.diagonal([1, -1, 1]), [1, 0, 0])]),
    ]


def test_criterion_4_torsion_oracle_agreement():
    with criterion(4, "torsion test matches brute-force oracle"):
        for name in catalog_names():
            group = catalog(name)
            assert is_torsion_free(group) is True
            assert brute_force_is_torsion_free(group) is True
        variants = torsioned_variants()
        assert len(variants) == 10
        for group in variants:
            fast = is_torsion_free(group)
            brute = brute_force_is_torsion_free(group)
            assert fast is False and brute is False


def test_criterion_5_selberg_worked_example():
    with criterion(5, "congruence prime worked example"):
        start = time.monotonic()
        unipotent = Matrix([[1, 1], [0, 1]])
        group_input = MatrixGroupInput(2, [unipotent, -Matrix.identity(2)], [unipotent])
        certificate = good_prime(group_input)
        assert certificate.prime == 5
        assert set(dict(certificate.bad_primes)) == {2, 3}
        assert verify_certificate(group_input, certificate, word_length=6) is True
        forced = SelbergCertificate(
            2, 2, certificate.torsion_polys, certificate.bad_primes,
            certificate.residue_evidence,
        )
        assert verify_certificate(group_input, forced, word_length=6) is False

        assert len(torsion_polynomials(2)) == 5
        assert len(torsion_polynomials(3)) == 9
        for n in (2, 3):
            oracle = sympy_finite_order_char_polys(n)
            oracle.discard(tuple(int(c) for c in unipotent_polynomial(n).coeffs))
            ours = {tuple(int(c) for c in p.coeffs) for p in torsion_polynomials(n)}
            assert ours == oracle
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"worked example took {elapsed:.2f}s"


def test_criterion_6_density_convergence(density_run):
    with criterion(6, "density convergence on the two-torus"):
        config, rows, elapsed = density_run
        assert len(rows) == 600
        by_sample = {}
        for row in rows:
            by_sample.setdefault(row.sample_id, []).append(row)
        violations = 0
        for sample_rows in by_sample.values():
            errors = [r.error for r in sample_rows]
            violations += sum(1 for a, b in zip(errors, errors[1:]) if b > a)
        assert violations == 0
        assert max(r.error for r in rows if r.denom_bound == 10**6) < 1e-5
        assert all(r.pipeline_ok is True for r in rows)
        assert all(r.selberg_prime is not None for r in rows)
        assert elapsed < 60.0, f"experiment took {elapsed:.2f}s"


def test_criterion_7_integralization():
    with criterion(7, "integralization at scale two"):
        for name in HALF_INTEGER_GROUPS:
            group = catalog(name)
            translations = [x for g in group.generators for x in g.translation]
            assert all((2 * x).denominator == 1 for x in translations)
            assert any(x.denominator == 2 for x in translations)
            theta = holonomy(group)
            shape = ShapeDescriptor(
                group, theta_average(SymmetricForm.diagonal([2] * group.dim), theta)
            )
            embedding = embed_group(group, shape)
            integral, scale = integralize(embedding)
            assert scale == 2
            assert all(m.is_integral() for m in integral.images)
            assert verify_embedding(integral).overall


def test_criterion_8_determinism(density_run):
    with criterion(8, "byte-identical reruns"):
        config, rows, _ = density_run
        rerun = run_experiment(
            ExperimentConfig(
                config.group,
                config.sample_count,
                config.denom_bounds,
                config.seed,
                run_pipeline=config.run_pipeline,
                torus_manifold_mode=config.torus_manifold_mode,
            )
        )
        csv = rows_to_csv(rows)
        assert rows_to_csv(rerun) == csv
        # the bytes ROADMAP defines "same outputs" by
        assert hashlib.sha256(csv.encode()).hexdigest() == ACCEPTANCE_SHA256
