import importlib.util
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flatcusps
from flatcusps import selberg
from flatcusps.errors import DimensionMismatch, UnipotentViolation
from flatcusps.exactlin import IntPolynomial, Matrix, char_poly
from flatcusps.selberg import (
    MatrixGroupInput,
    REASON_COEFFICIENT_DIVISOR,
    REASON_DENOMINATOR,
    REASON_SMALL_CHARACTERISTIC,
    SelbergCertificate,
    bad_primes,
    cyclotomic_polynomial,
    euler_phi,
    good_prime,
    is_prime,
    prime_factors,
    torsion_polynomials,
    unipotent_polynomial,
    verify_certificate,
)

from oracles import (
    ref_coefficient_divisor_primes,
    ref_verify_certificate,
    sympy_divides,
    sympy_finite_order_char_polys,
    torsion_order_bound,
)

UNIPOTENT_2 = Matrix([[1, 1], [0, 1]])
NEG_IDENTITY_2 = -Matrix.identity(2)


def worked_example():
    return MatrixGroupInput(2, [UNIPOTENT_2, NEG_IDENTITY_2], [UNIPOTENT_2])


class TestNumberTheory:
    def test_primes(self):
        assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_primes_match_sympy(self):
        import sympy

        assert [m for m in range(-5, 5001) if is_prime(m)] == [
            m for m in range(-5, 5001) if sympy.isprime(m)
        ]

    def test_phi(self):
        assert [euler_phi(d) for d in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]

    def test_torsion_order_bound(self):
        assert torsion_order_bound(1) == 2
        assert torsion_order_bound(2) == 12
        assert torsion_order_bound(3) == 12


# primes of 15 and 21 digits, above the square of the trial-division bound
PRIME_15 = 100000000000031
PRIME_21 = 100000000000000000039


class TestBoundedFactoring:
    def test_matches_sympy(self):
        import sympy

        rng = random.Random(5)
        # below the square of the trial bound every integer factors completely
        for m in [*range(1, 3000), *(rng.randint(1, 10**12) for _ in range(200))]:
            assert prime_factors(m) == sorted(sympy.primefactors(m)), m

    @pytest.mark.parametrize("p", [PRIME_15, PRIME_21])
    def test_large_prime_is_fast(self, p):
        group_input = MatrixGroupInput(2, [Matrix.diagonal([p, 1])])
        for call, expected in (
            (lambda: prime_factors(p), [p]),
            (lambda: prime_factors(12 * p), [2, 3, p]),
            (lambda: bad_primes(group_input)[p], (REASON_DENOMINATOR,)),
        ):
            start = time.perf_counter()
            assert call() == expected
            assert time.perf_counter() - start < 1

    @pytest.mark.parametrize(
        "m, reason",
        [
            (1000003 * 1000033, "composite"),  # both factors above the bound
            (318665857834031151167461, "composite"),  # passes bases 2 to 37
            (2**89 - 1, "too large"),  # a prime beyond the exact Miller-Rabin range
        ],
    )
    def test_undecided_cofactor_raises_naming_the_bound(self, m, reason):
        bound = selberg._TRIAL_BOUND
        with pytest.raises(ValueError, match=f"no prime factor up to {bound}"):
            prime_factors(m)
        with pytest.raises(ValueError, match=reason):
            prime_factors(2 * m)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_prime_power_above_the_bound(self, k):
        # Miller-Rabin calls p^k composite; its exact square or cube root is factored
        start = time.perf_counter()
        assert prime_factors(1000003**k) == [1000003]
        assert time.perf_counter() - start < 1

    def test_prime_power_beside_small_primes(self):
        assert prime_factors(8 * 1000003**2) == [2, 1000003]

    def test_square_times_prime_still_raises(self):
        with pytest.raises(ValueError, match="composite with no prime factor up to 1000000"):
            prime_factors(1000003**2 * 1000033)

    def test_scalar_determinant_above_the_bound(self):
        group_input = MatrixGroupInput(2, [Matrix.diagonal([1000003, 1000003])])
        assert bad_primes(group_input) == {
            2: (REASON_COEFFICIENT_DIVISOR, REASON_SMALL_CHARACTERISTIC),
            3: (REASON_COEFFICIENT_DIVISOR,),
            1000003: (REASON_DENOMINATOR,),
        }

    def test_cube_root(self):
        rng = random.Random(3)
        for r in [1, 2, 3, 10, 1000003, *(rng.randint(1, 10**9) for _ in range(300))]:
            for m, root in ((r**3 - 1, r - 1), (r**3, r), (r**3 + 1, r)):
                if m:
                    assert selberg._cube_root(m) == root, m

    def test_miller_rabin_matches_sympy_above_the_bound(self):
        import sympy

        for m in range(selberg._TRIAL_BOUND**2 + 1, selberg._TRIAL_BOUND**2 + 4001, 2):
            assert selberg._strong_probable_prime(m) == sympy.isprime(m), m
        # the smallest strong pseudoprimes to the first 9 and 12 prime bases
        for m in (3825123056546413051, 318665857834031151167461):
            assert not selberg._strong_probable_prime(m)


class TestCyclotomic:
    def test_small_cases(self):
        assert cyclotomic_polynomial(1) == IntPolynomial([-1, 1])
        assert cyclotomic_polynomial(2) == IntPolynomial([1, 1])
        assert cyclotomic_polynomial(3) == IntPolynomial([1, 1, 1])
        assert cyclotomic_polynomial(4) == IntPolynomial([1, 0, 1])
        assert cyclotomic_polynomial(6) == IntPolynomial([1, -1, 1])
        assert cyclotomic_polynomial(12) == IntPolynomial([1, 0, -1, 0, 1])

    def test_product_over_divisors(self):
        for d in (4, 6, 12):
            product = IntPolynomial([1])
            for e in range(1, d + 1):
                if d % e == 0:
                    product = product * cyclotomic_polynomial(e)
            assert product == IntPolynomial([-1] + [0] * (d - 1) + [1])

    def test_matches_sympy(self):
        import sympy

        t = sympy.Symbol("t")
        for d in range(1, 211):  # Phi_105 is the first with a coefficient outside {-1, 0, 1}
            expected = [int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(d, t), t).all_coeffs())]
            assert cyclotomic_polynomial(d) == IntPolynomial(expected)


class TestTorsionPolynomials:
    def test_degree_one(self):
        assert torsion_polynomials(1) == (IntPolynomial([1, 1]),)

    def test_degree_two_exactly_five(self):
        polys = torsion_polynomials(2)
        assert len(polys) == 5
        expected = {
            IntPolynomial([-1, 0, 1]),   # t^2 - 1
            IntPolynomial([1, 2, 1]),    # (t+1)^2
            IntPolynomial([1, 1, 1]),    # t^2 + t + 1
            IntPolynomial([1, 0, 1]),    # t^2 + 1
            IntPolynomial([1, -1, 1]),   # t^2 - t + 1
        }
        assert set(polys) == expected

    def test_degree_three_exactly_nine(self):
        assert len(torsion_polynomials(3)) == 9

    def test_sorted_and_unique(self):
        for n in (1, 2, 3, 4):
            polys = torsion_polynomials(n)
            assert len(set(polys)) == len(polys)
            assert list(polys) == sorted(polys, key=lambda p: p.coeffs)
            assert all(p.is_monic() and p.degree == n for p in polys)

    def test_all_roots_on_unit_circle(self):
        # every polynomial divides (t^N - 1)^n for N the lcm of admissible orders
        for n in (1, 2, 3):
            for poly in torsion_polynomials(n):
                assert sympy_divides(poly, torsion_order_bound(n), n)

    def test_rational_canonical_form_oracle(self):
        for n in (1, 2, 3):
            oracle = sympy_finite_order_char_polys(n)
            oracle.discard(tuple(int(c) for c in unipotent_polynomial(n).coeffs))
            ours = {tuple(int(c) for c in p.coeffs) for p in torsion_polynomials(n)}
            assert ours == oracle


class TestDegreeBound:
    def test_largest_degree_constructs(self):
        n = selberg.MAX_DEGREE
        assert n == 16 and MatrixGroupInput(n, [-Matrix.identity(n)]).n == n

    def test_degree_above_the_bound_raises(self):
        n = selberg.MAX_DEGREE + 1
        with pytest.raises(ValueError, match="degree 17 exceeds MAX_DEGREE = 16"):
            MatrixGroupInput(n, [Matrix.identity(n)])


class TestBadPrimes:
    def test_worked_degree_two(self):
        bad = bad_primes(worked_example())
        assert set(bad) == {2, 3}
        assert REASON_SMALL_CHARACTERISTIC in bad[2]
        assert REASON_COEFFICIENT_DIVISOR in bad[2]
        assert bad[3] == (REASON_COEFFICIENT_DIVISOR,)

    def test_denominator_reason(self):
        group_input = MatrixGroupInput(2, [Matrix([[1, F(1, 5)], [0, 1]])], [])
        bad = bad_primes(group_input)
        assert bad[5] == (REASON_DENOMINATOR,)

    def test_degree_one(self):
        group_input = MatrixGroupInput(1, [Matrix([[2]])], [])
        bad = bad_primes(group_input)
        assert set(bad) == {2}
        # no primes <= 1 exist; t + 1 = t - 1 modulo 2 = n + 1, and the
        # inverse [[1/2]] has denominator 2
        assert bad[2] == (REASON_COEFFICIENT_DIVISOR, REASON_DENOMINATOR)

    def test_degree_four_adds_five(self):
        bad = bad_primes(MatrixGroupInput(4, [-Matrix.identity(4)]))
        assert set(bad) == {2, 3, 5}
        assert bad[5] == (REASON_COEFFICIENT_DIVISOR,)

    def test_degree_six_adds_seven(self):
        bad = bad_primes(MatrixGroupInput(6, [-Matrix.identity(6)]))
        assert set(bad) == {2, 3, 5, 7}
        assert bad[5] == (REASON_COEFFICIENT_DIVISOR, REASON_SMALL_CHARACTERISTIC)
        assert bad[7] == (REASON_COEFFICIENT_DIVISOR,)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_coefficient_divisors_match_search(self, n):
        # the closed form (primes <= n + 1) against the gcd search over
        # every torsion polynomial of degree n
        bad = bad_primes(MatrixGroupInput(n, [-Matrix.identity(n)]))
        closed = tuple(p for p, reasons in bad.items() if REASON_COEFFICIENT_DIVISOR in reasons)
        assert closed == ref_coefficient_divisor_primes(n)

    def test_monotone_in_generators(self):
        base = MatrixGroupInput(2, [UNIPOTENT_2], [])
        enlarged = MatrixGroupInput(2, [UNIPOTENT_2, Matrix([[F(1, 7), 0], [0, 7]])], [])
        small = set(bad_primes(base))
        large = set(bad_primes(enlarged))
        assert small <= large
        assert 7 in large


class TestGoodPrime:
    def test_worked_example(self):
        certificate = good_prime(worked_example())
        assert certificate.prime == 5
        assert set(dict(certificate.bad_primes)) == {2, 3}
        # (t+1)^2 = t^2+2t+1 vs (t-1)^2 = t^2+3t+1 mod 5
        neg_poly = IntPolynomial([1, 2, 1])
        evidence = {e.polynomial: e for e in certificate.residue_evidence}
        assert evidence[neg_poly].polynomial_mod_q == (1, 2, 1)
        assert evidence[neg_poly].unipotent_mod_q == (1, 3, 1)
        assert all(e.distinct for e in certificate.residue_evidence)

    def test_gamma_independent(self):
        trivial_gamma = MatrixGroupInput(2, [UNIPOTENT_2, NEG_IDENTITY_2], [])
        assert good_prime(trivial_gamma).prime == 5

    def test_degree_one(self):
        certificate = good_prime(MatrixGroupInput(1, [Matrix([[2]])], []))
        assert certificate.prime == 3

    def test_prime_avoids_denominators_and_small_characteristic(self):
        group_input = MatrixGroupInput(
            2, [Matrix([[1, F(1, 5)], [0, 1]]), NEG_IDENTITY_2], []
        )
        certificate = good_prime(group_input)
        assert certificate.prime == 7
        assert certificate.prime > 2

    def test_unipotent_violation(self):
        bad_input = MatrixGroupInput(2, [UNIPOTENT_2], [NEG_IDENTITY_2])
        with pytest.raises(UnipotentViolation):
            good_prime(bad_input)

    def test_shared_evidence_keeps_certificates_equal(self):
        first = good_prime(worked_example())
        selberg._residue_evidence.cache_clear()
        second = good_prime(worked_example())
        third = good_prime(worked_example())
        # the evidence for one (degree, prime) is built once and shared
        assert third.residue_evidence is second.residue_evidence
        assert first.residue_evidence is not second.residue_evidence
        assert first == second == third
        assert hash(first) == hash(second) == hash(third)
        built = tuple(
            selberg.ResidueEvidence(p, p.reduce_mod(5), unipotent_polynomial(2).reduce_mod(5))
            for p in torsion_polynomials(2)
        )
        assert first.residue_evidence == built

    def test_unipotent_check_runs_on_every_call(self):
        assert good_prime(worked_example()).prime == 5
        with pytest.raises(UnipotentViolation):
            good_prime(MatrixGroupInput(2, [UNIPOTENT_2], [NEG_IDENTITY_2]))

    def test_every_gamma_reduces_to_unipotent_residue(self):
        certificate = good_prime(worked_example())
        q = certificate.prime
        expected = unipotent_polynomial(2).reduce_mod(q)
        for m in worked_example().gamma_gens:
            assert char_poly(m).reduce_mod(q) == expected


class TestVerifyCertificate:
    def test_worked_example_passes(self):
        group_input = worked_example()
        certificate = good_prime(group_input)
        assert verify_certificate(group_input, certificate, word_length=6)

    def test_forced_prime_two_fails(self):
        group_input = worked_example()
        certificate = good_prime(group_input)
        forced = SelbergCertificate(
            2, 2, certificate.torsion_polys, certificate.bad_primes,
            certificate.residue_evidence,
        )
        # -I reduces to I mod 2, a torsion element with unipotent residue
        assert not verify_certificate(group_input, forced, word_length=6)

    def test_word_length_zero_vacuous(self):
        group_input = worked_example()
        certificate = good_prime(group_input)
        assert verify_certificate(group_input, certificate, word_length=0)

    def test_prime_dividing_denominator_fails(self):
        group_input = MatrixGroupInput(2, [Matrix([[1, F(1, 5)], [0, 1]])], [])
        certificate = good_prime(group_input)
        forced = SelbergCertificate(
            2, 5, certificate.torsion_polys, certificate.bad_primes,
            certificate.residue_evidence,
        )
        assert not verify_certificate(group_input, forced, word_length=2)

    def test_negative_word_length_rejected(self):
        group_input = worked_example()
        certificate = good_prime(group_input)
        with pytest.raises(ValueError, match="word length must be non-negative"):
            verify_certificate(group_input, certificate, word_length=-1)

    def test_certificate_of_another_degree_rejected(self):
        # prime 5 certifies <-I_2>; in degree 4, 5 is still above n, but the
        # torsion polynomials it was checked against are those of degree 2
        small = good_prime(MatrixGroupInput(2, [NEG_IDENTITY_2]))
        assert small.prime == 5
        group_input = MatrixGroupInput(4, [-Matrix.identity(4)])
        with pytest.raises(DimensionMismatch, match="degree 2 for a group of degree 4"):
            verify_certificate(group_input, small, word_length=1)

    def test_prime_dividing_element_denominator_fails(self):
        # the generator diag(3, 1) is integral, so q = 3 passes the generator
        # check; its inverse diag(1/3, 1) has 3 in a denominator of its
        # characteristic polynomial, which reduction modulo 3 cannot handle
        group_input = MatrixGroupInput(2, [Matrix.diagonal([3, 1])])
        polys = torsion_polynomials(2)
        forced = SelbergCertificate(2, 3, polys, {}, ())
        assert not verify_certificate(group_input, forced, word_length=1)

    def test_finite_group_stops_when_the_ball_stops_growing(self):
        # <-I> saturates after one step; a loop that kept making empty
        # frontier passes would take about a second per 10**7 of length
        script = """
from flatcusps.exactlin import Matrix
from flatcusps.selberg import MatrixGroupInput, good_prime, verify_certificate
group_input = MatrixGroupInput(2, [-Matrix.identity(2)])
print(verify_certificate(group_input, good_prime(group_input), 10**12))
"""
        src = str(Path(flatcusps.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert done.stdout.strip() == "True"

    def test_word_ball_is_capped(self, monkeypatch):
        group_input = worked_example()
        certificate = good_prime(group_input)
        # the length-2 ball is I, -I, u, -u, u^-1, -u^-1, u^2 and u^-2
        monkeypatch.setattr(selberg, "MAX_WORD_BALL", 8)
        assert verify_certificate(group_input, certificate, word_length=2)
        monkeypatch.setattr(selberg, "MAX_WORD_BALL", 7)
        with pytest.raises(ValueError, match="MAX_WORD_BALL = 7 elements"):
            verify_certificate(group_input, certificate, word_length=2)


def _forced(group_input, prime):
    return SelbergCertificate(group_input.n, prime, torsion_polynomials(group_input.n), {}, ())


@pytest.fixture(scope="module")
def certify_words_inputs():
    """The benchmark's certify-words inputs: two forms for each 2- and
    3-dimensional catalog group and one for torus-4, integralized, with
    ``-I`` among the ambient generators (``perfbench/workloads.py``, read,
    never changed)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.CertifyWords()
    workload.setup(flatcusps, 0)
    return [group_input for _, group_input, _ in workload.traced]


_denominators = st.sampled_from([1, 2, 3, 5, 7])
_entries = st.builds(F, st.integers(min_value=-3, max_value=3), _denominators)
_integers = st.integers(min_value=-3, max_value=3)


def _invertible(n, entries=_entries):
    return st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(Matrix).filter(lambda m: m.det() != 0)


def _signed_permutation(perm, signs):
    """The matrix sending basis vector ``perm[i]`` to ``signs[i]`` times basis vector i."""
    n = len(perm)
    return Matrix([[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)])


def _companion(poly):
    c, n = poly.coeffs, poly.degree
    return Matrix([[int(i == j + 1) - c[i] * (j == n - 1) for j in range(n)] for i in range(n)])


@st.composite
def _rational_groups(draw, entries=_entries):
    """A prime q and one or two invertible rational generators of size 1-3.

    The generators are arbitrary matrices, and conjugates of signed
    permutations (finite order), of companion matrices of torsion
    polynomials that collapse modulo q where there are any (finite order
    when the polynomial is squarefree), and of elementary unipotent
    matrices (characteristic polynomial ``(t-1)^n``); or ``-I`` itself, or
    a conjugate of a signed n-cycle whose signs multiply to -1, so that
    its n-th power is ``-I``. These two put ``-I`` among the letters or in
    the ball, where a word may equal a negated one. When q divides a
    generator denominator the next prime that divides none replaces it, so
    q may divide a denominator of an inverse only. Integer ``entries``
    make the arbitrary generators and the conjugating matrices integral,
    mostly of determinant other than ±1, whose inverses have denominators.
    """
    n = draw(st.integers(min_value=1, max_value=3))
    q = draw(st.sampled_from([2, 3, 5, 7, 11]))
    invertible = _invertible(n, entries)
    polys = torsion_polynomials(n)
    collapsing = [p for p in polys if p.reduce_mod(q) == unipotent_polynomial(n).reduce_mod(q)]
    generators = []
    kinds = ["rational", "finite", "cyclotomic", "unipotent", "negative", "negative-root"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=2)):
        g = draw(invertible)
        if kind == "finite":
            perm = draw(st.permutations(range(n)))
            signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
            g = g * _signed_permutation(perm, signs) * g.inverse()
        elif kind == "cyclotomic":
            core = _companion(draw(st.sampled_from(collapsing or polys)))
            g = g * core * g.inverse()
        elif kind == "unipotent":
            i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2)))
            core = Matrix([[int(r == c or (r, c) == (i, j)) for c in range(n)] for r in range(n)])
            g = g * core * g.inverse()
        elif kind == "negative":
            g = Matrix.diagonal([-1] * n)
        elif kind == "negative-root":
            signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n - 1, max_size=n - 1))
            signs.append(-math.prod(signs))
            core = _signed_permutation([(i + 1) % n for i in range(n)], signs)
            g = g * core * g.inverse()
        generators.append(g)
    group_input = MatrixGroupInput(n, generators)
    while not (is_prime(q) and all(d % q for d in group_input.denominators())):
        q += 1
    return group_input, q


class TestVerifierAgreesWithReference:
    """The screened, non-backtracking verifier against the reference one,
    which computes every element's characteristic polynomial and raises
    each collapsing element to the lcm of all torsion orders."""

    @pytest.mark.parametrize("forced", [None, 2, 3, 5, 7])
    def test_certify_words_inputs(self, certify_words_inputs, forced):
        assert len(certify_words_inputs) == 21
        for group_input in certify_words_inputs:
            certificate = good_prime(group_input)
            if forced is not None:
                certificate = _forced(group_input, forced)
            for length in range(4):
                expected = ref_verify_certificate(group_input, certificate, length)
                assert verify_certificate(group_input, certificate, length) is expected

    @settings(max_examples=200, deadline=None)
    @given(drawn=_rational_groups(), length=st.integers(min_value=0, max_value=3))
    def test_rational_generators(self, drawn, length):
        group_input, prime = drawn
        certificate = _forced(group_input, prime)
        expected = ref_verify_certificate(group_input, certificate, length)
        assert verify_certificate(group_input, certificate, length) is expected

    def test_quarter_turn_collapses_mod_two(self):
        # trace 0 = 2 (mod 2) passes the screen; t^2 + 1 = (t - 1)^2 (mod 2)
        group_input = MatrixGroupInput(2, [Matrix([[0, -1], [1, 0]])])
        for length in (1, 2):
            certificate = _forced(group_input, 2)
            assert ref_verify_certificate(group_input, certificate, length) is False
            assert verify_certificate(group_input, certificate, length) is False

    def test_negative_identity_is_screened_mod_three(self, monkeypatch):
        # trace -2 differs from 2 modulo 3, so no polynomial is computed
        group_input = MatrixGroupInput(2, [NEG_IDENTITY_2])
        certificate = _forced(group_input, 3)
        assert ref_verify_certificate(group_input, certificate, 2) is True

        def refuse(m):
            raise AssertionError("char_poly called on a screened element")

        monkeypatch.setattr(selberg, "char_poly", refuse)
        assert verify_certificate(group_input, certificate, 2) is True

    def test_negative_identity_is_one_letter(self, monkeypatch):
        # -I is central and its own inverse, so the words run over u and
        # u^-1 alone and -I only negates the words shorter than 2: I, u and
        # u^-1 give the 3 negations -I, -u and -u^-1. The words of length
        # one are the letters themselves, with no product, and a word never
        # appends the letter undoing its last, so u u and u^-1 u^-1 are the
        # only 2 products (four letters with backtracking take 4 + 3 * 4).
        calls = []
        product, negation = Matrix.__mul__, Matrix.__neg__

        def counted_product(a, b):
            calls.append("product")
            return product(a, b)

        def counted_negation(a):
            calls.append("negation")
            return negation(a)

        group_input = worked_example()
        certificate = good_prime(group_input)
        monkeypatch.setattr(Matrix, "__mul__", counted_product)
        monkeypatch.setattr(Matrix, "__neg__", counted_negation)
        assert verify_certificate(group_input, certificate, word_length=2)
        assert calls.count("product") == 2
        assert calls.count("negation") == 3
        assert len(calls) == 2 + 3


class TestCertifiedPrimeVerifies:
    def test_inverse_denominator_is_avoided(self):
        # diag(5, 1) is integral, but its inverse diag(1/5, 1) is not
        group_input = MatrixGroupInput(2, [Matrix.diagonal([5, 1])])
        certificate = good_prime(group_input)
        assert certificate.prime == 7
        assert dict(certificate.bad_primes)[5] == (REASON_DENOMINATOR,)
        for length in (1, 2, 3):
            assert verify_certificate(group_input, certificate, length) is True

    @settings(max_examples=100, deadline=None)
    @given(
        drawn=st.one_of(_rational_groups(), _rational_groups(_integers)),
        length=st.integers(min_value=0, max_value=2),
    )
    @example(drawn=(MatrixGroupInput(2, [Matrix.diagonal([5, 1])]), 7), length=1)
    def test_good_prime_passes_its_verifier(self, drawn, length):
        group_input, _ = drawn
        assert verify_certificate(group_input, good_prime(group_input), length) is True


def _squarefree_torsion_polynomials(n):
    """Those whose companion matrix has finite order (is diagonalizable)."""
    orders = selberg._torsion_orders(n)
    return [p for p in torsion_polynomials(n) if _companion(p) ** orders[p] == Matrix.identity(n)]


@st.composite
def _finite_order_elements(draw):
    """A power of a conjugated signed permutation, of a conjugated companion
    matrix of a squarefree torsion polynomial, or of a conjugated signed
    n-cycle whose n-th power is ``-I``; size 1-4."""
    n = draw(st.integers(min_value=1, max_value=4))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["finite", "cyclotomic", "negative-root"]))
    if kind == "finite":
        core = _signed_permutation(draw(st.permutations(range(n))), signs)
    elif kind == "cyclotomic":
        core = _companion(draw(st.sampled_from(_squarefree_torsion_polynomials(n))))
    else:
        signs[-1] = -math.prod(signs[:-1])
        core = _signed_permutation([(i + 1) % n for i in range(n)], signs)
    g = draw(_invertible(n))
    return g * core ** draw(st.integers(min_value=0, max_value=12)) * g.inverse()


class TestTraceScreen:
    @settings(max_examples=200, deadline=None)
    @given(element=_finite_order_elements())
    def test_finite_order_trace_n_only_at_identity(self, element):
        n = element.rows
        assert element ** torsion_order_bound(n) == Matrix.identity(n)
        trace = sum(element[i, i] for i in range(n))
        assert (trace == n) is element.is_identity()

    def test_certify_words_polynomials_only_off_trace_n(self, certify_words_inputs, monkeypatch):
        # the 21 inputs at their own certificates and the workload's word
        # length: every unipotent element passes on its trace
        certificates = [good_prime(group_input) for group_input in certify_words_inputs]
        judged = []

        def recorded(m):
            judged.append(sum(m[i, i] for i in range(m.rows)) - m.rows)
            return char_poly(m)

        def refuse(m):
            raise AssertionError("is_unipotent called by the verifier")

        monkeypatch.setattr(selberg, "char_poly", recorded)
        monkeypatch.setattr(selberg, "is_unipotent", refuse)
        for group_input, certificate in zip(certify_words_inputs, certificates):
            assert verify_certificate(group_input, certificate, 3) is True
        assert judged and 0 not in judged


class TestFiniteOrderTest:
    def test_torsion_orders_are_minimal(self):
        # every root of p is an L-th root of unity, and for no proper divisor
        # of L: p divides (t^L - 1)^n and no (t^(L/r) - 1)^n for r prime
        for n in (1, 2, 3, 4):
            orders = selberg._torsion_orders(n)
            assert sorted(orders, key=lambda p: p.coeffs) == list(torsion_polynomials(n))
            for poly, lcm in orders.items():
                assert sympy_divides(poly, lcm, n)
                for r in prime_factors(lcm):
                    assert not sympy_divides(poly, lcm // r, n)

    def test_order_seven_element_in_dimension_eight_collapses(self, monkeypatch):
        # Phi_7 (t - 1)^2 = (t - 1)^8 modulo 7: the element has order 7, and
        # it is raised to 7 rather than to the 5,040 that bounds all orders
        companion = Matrix([[int(i == j + 1) - int(j == 5) for j in range(6)] for i in range(6)])
        element = Matrix.block_diag(companion, Matrix.identity(2))
        group_input = MatrixGroupInput(8, [element])
        certificate = _forced(group_input, 7)
        assert ref_verify_certificate(group_input, certificate, 1) is False
        exponents = []
        power = Matrix.__pow__

        def recorded(m, k):
            exponents.append(k)
            return power(m, k)

        monkeypatch.setattr(Matrix, "__pow__", recorded)
        assert verify_certificate(group_input, certificate, 1) is False
        assert exponents == [7]

    def test_infinite_order_collapse_takes_no_power(self, monkeypatch):
        # t^2 - 7t + 1 = (t - 1)^2 modulo 5, and it is no cyclotomic product
        group_input = MatrixGroupInput(2, [Matrix([[6, 1], [5, 1]])])
        certificate = _forced(group_input, 5)
        assert ref_verify_certificate(group_input, certificate, 3) is True

        def refuse(m, k):
            raise AssertionError("power taken of an element of infinite order")

        monkeypatch.setattr(Matrix, "__pow__", refuse)
        assert verify_certificate(group_input, certificate, 3) is True

    def test_non_semisimple_cyclotomic_element_passes(self):
        # (t + 1)^2 = (t - 1)^2 modulo 2 is a torsion polynomial, but the
        # Jordan block squares to [[1, -2], [0, 1]], not the identity
        group_input = MatrixGroupInput(2, [Matrix([[-1, 1], [0, -1]])])
        certificate = _forced(group_input, 2)
        assert ref_verify_certificate(group_input, certificate, 3) is True
        assert verify_certificate(group_input, certificate, 3) is True


def test_verifier_survives_optimized_mode():
    # under python -O no assert runs: the verdicts must come from the code
    script = """
import json
import math
from flatcusps.exactlin import Matrix
from flatcusps.selberg import (
    MatrixGroupInput, SelbergCertificate, good_prime, torsion_polynomials,
    verify_certificate,
)

def forced(group_input, q):
    return SelbergCertificate(group_input.n, q, torsion_polynomials(group_input.n), {}, ())

u, neg = Matrix([[1, 1], [0, 1]]), -Matrix.identity(2)
worked = MatrixGroupInput(2, [u, neg], [u])
quarter = MatrixGroupInput(2, [Matrix([[0, -1], [1, 0]])])
print(json.dumps({
    "debug": __debug__,
    "certified": verify_certificate(worked, good_prime(worked), 6),
    "worked_mod_2": verify_certificate(worked, forced(worked, 2), 6),
    "quarter_turn_mod_2": verify_certificate(quarter, forced(quarter, 2), 2),
    "negative_identity_mod_3": verify_certificate(
        MatrixGroupInput(2, [neg]), forced(MatrixGroupInput(2, [neg]), 3), 2
    ),
}))
"""
    src = str(Path(flatcusps.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(done.stdout) == {
        "debug": False,
        "certified": True,
        "worked_mod_2": False,
        "quarter_turn_mod_2": False,
        "negative_identity_mod_3": True,
    }
