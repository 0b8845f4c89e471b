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
    torsion_polynomials,
    unipotent_polynomial,
    verify_certificate,
)

import oracles
from oracles import (
    ref_coefficient_divisor_primes,
    ref_det,
    ref_least_good_prime,
    ref_prime_factors,
    ref_torsion_orders,
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

# the bad primes of every 2x2 input with integral generators and inverses
# that have no factor 2 or 3: the primes at most n + 1 = 3
BAD_2 = {
    2: (REASON_COEFFICIENT_DIVISOR, REASON_SMALL_CHARACTERISTIC),
    3: (REASON_COEFFICIENT_DIVISOR,),
}
# and those of one whose denominators are even
BAD_2_EVEN = {
    2: (REASON_COEFFICIENT_DIVISOR, REASON_DENOMINATOR, REASON_SMALL_CHARACTERISTIC),
    3: (REASON_COEFFICIENT_DIVISOR,),
}


def _fast_certificate(diagonal):
    """The certificate of ``<diag(...)>``, built in under a second."""
    start = time.perf_counter()
    certificate = good_prime(MatrixGroupInput(2, [Matrix.diagonal(diagonal)]))
    assert time.perf_counter() - start < 1
    return certificate


def _refused_at_the_bound(call):
    """``call`` raises, in under a second, the ``ValueError`` that names
    ``_TRIAL_BOUND``."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"trial division runs to {selberg._TRIAL_BOUND},"):
        call()
    assert time.perf_counter() - start < 1


class TestBoundedFactoring:
    """``is_prime`` is trial division up to ``_TRIAL_BOUND`` and refuses an
    integer from its square on; the congruence prime is found without
    factoring, so denominators of any size are certified."""

    def test_matches_sympy(self):
        import sympy

        rng = random.Random(5)
        # below the square of the trial bound every integer is decided
        bound = selberg._TRIAL_BOUND**2
        for m in [*range(1, 3000), *(rng.randint(1, bound - 1) for _ in range(200))]:
            assert is_prime(m) == sympy.isprime(m), m
        for m in range(bound - 60, bound):  # 999999999989, the largest prime below it
            assert is_prime(m) == sympy.isprime(m), m

    def test_refuses_from_the_square_of_the_bound(self):
        _refused_at_the_bound(lambda: is_prime(10**12 + 39))
        _refused_at_the_bound(lambda: is_prime(selberg._TRIAL_BOUND**2))

    def test_verifier_refuses_a_prime_above_the_bound(self):
        group_input = worked_example()
        forced = _forced(group_input, 10**12 + 39)
        _refused_at_the_bound(lambda: verify_certificate(group_input, forced, 1))

    @pytest.mark.parametrize("p", [PRIME_15, PRIME_21])
    def test_large_prime_is_fast(self, p):
        # p divides the inverse's denominator, but it lies above the
        # certified prime, so it is neither found nor listed
        certificate = _fast_certificate([p, 1])
        assert certificate.prime == 5
        assert dict(certificate.bad_primes) == BAD_2

    @pytest.mark.parametrize(
        "m, reason",
        [
            (1000003 * 1000033, "composite"),  # both factors above the bound
            (318665857834031151167461, "composite"),  # passes Miller-Rabin to bases 2 to 37
            (2**89 - 1, "too large"),  # a prime of 27 digits
        ],
    )
    def test_undecided_cofactor_raises_naming_the_bound(self, m, reason):
        # is_prime cannot tell these apart; a group with them in its
        # denominators is certified all the same
        _refused_at_the_bound(lambda: is_prime(m))
        for entry, bad in ((m, BAD_2), (2 * m, BAD_2_EVEN)):
            certificate = _fast_certificate([entry, 1])
            assert certificate.prime == 5
            assert dict(certificate.bad_primes) == bad

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_prime_power_above_the_bound(self, k):
        certificate = _fast_certificate([1000003**k, 1])
        assert certificate.prime == 5
        assert dict(certificate.bad_primes) == BAD_2

    def test_prime_power_beside_small_primes(self):
        certificate = _fast_certificate([8 * 1000003**2, 1])
        assert certificate.prime == 5
        assert dict(certificate.bad_primes) == BAD_2_EVEN

    def test_square_times_prime_still_raises(self):
        _refused_at_the_bound(lambda: is_prime(1000003**2 * 1000033))
        assert _fast_certificate([1000003**2 * 1000033, 1]).prime == 5

    def test_scalar_determinant_above_the_bound(self):
        group_input = MatrixGroupInput(2, [Matrix.diagonal([1000003, 1000003])])
        assert bad_primes(group_input) == BAD_2


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
            assert all(p.coeffs[-1] == 1 and p.degree == n for p in polys)

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
    """No degree bound is left: the certificate reads one residue per
    cyclotomic factor, so it grows polynomially with the degree."""

    def test_largest_degree_constructs(self):
        # degree 20 has 30,531 torsion polynomials but 40 cyclotomic factors
        n = 20
        start = time.perf_counter()
        group_input = MatrixGroupInput(n, [-Matrix.identity(n)])
        certificate = good_prime(group_input)
        assert verify_certificate(group_input, certificate, word_length=2) is True
        assert time.perf_counter() - start < 1
        assert certificate.prime == 23 and len(certificate.residue_evidence) == 40

    def test_degree_above_the_old_bound_certifies(self):
        # 17 is above the former bound of 16; every prime up to n + 1 = 18 is
        # passed over, so the certified prime is 19
        n = 17
        certificate = good_prime(MatrixGroupInput(n, [Matrix.identity(n)]))
        assert certificate.prime == 19
        assert list(dict(certificate.bad_primes)) == [2, 3, 5, 7, 11, 13, 17]


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
        # another generator can only push the certified prime up, so the
        # primes passed over grow; diag(1/p, p) puts p in a denominator,
        # which is listed only below the certified prime
        base = MatrixGroupInput(2, [UNIPOTENT_2], [])
        for p, prime in ((7, 5), (5, 7)):
            enlarged = MatrixGroupInput(2, [UNIPOTENT_2, Matrix.diagonal([F(1, p), p])], [])
            small = set(bad_primes(base))
            large = bad_primes(enlarged)
            assert small <= set(large)
            assert good_prime(enlarged).prime == prime
            assert list(large) == [q for q in range(prime) if is_prime(q)]
            assert (p in large) is (p < prime)


class TestGoodPrime:
    def test_worked_example(self):
        certificate = good_prime(worked_example())
        assert certificate.prime == 5
        assert set(dict(certificate.bad_primes)) == {2, 3}
        # Phi_2 = t + 1 vs t - 1 = t + 4 mod 5, one residue per factor
        phi_2 = IntPolynomial([1, 1])
        evidence = {e.polynomial: e for e in certificate.residue_evidence}
        assert evidence[phi_2].polynomial_mod_q == (1, 1)
        assert evidence[phi_2].unipotent_mod_q == (4, 1)
        assert list(certificate.torsion_polys) == [cyclotomic_polynomial(d) for d in (2, 3, 4, 6)]
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
            selberg.ResidueEvidence(
                p, p.reduce_mod(5), unipotent_polynomial(p.degree).reduce_mod(5)
            )
            for p in map(cyclotomic_polynomial, (2, 3, 4, 6))
        )
        assert first.residue_evidence == built

    @pytest.mark.parametrize("n", range(1, 13))
    def test_factor_evidence_matches_product_evidence(self, n):
        # F_q[t] has unique factorization, so a product collapses onto
        # (t-1)^n exactly when each of its factors collapses
        unipotent = unipotent_polynomial(n)
        for q in filter(is_prime, range(2, 51)):
            factors = all(e.distinct for e in selberg._residue_evidence(n, q))
            collapsed = unipotent.reduce_mod(q)
            products = all(p.reduce_mod(q) != collapsed for p in torsion_polynomials(n))
            assert factors is products is (q > n + 1)

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
        # cyclotomic factors it was checked against are those of degree 2
        small = good_prime(MatrixGroupInput(2, [NEG_IDENTITY_2]))
        assert small.prime == 5
        group_input = MatrixGroupInput(4, [-Matrix.identity(4)])
        with pytest.raises(DimensionMismatch, match="degree 2 for a group of degree 4"):
            verify_certificate(group_input, small, word_length=1)

    def test_prime_dividing_element_denominator_fails(self):
        # the generator diag(3, 1) is integral, but its stored inverse
        # diag(1/3, 1) is not
        group_input = MatrixGroupInput(2, [Matrix.diagonal([3, 1])])
        polys = torsion_polynomials(2)
        forced = SelbergCertificate(2, 3, polys, {}, ())
        assert not verify_certificate(group_input, forced, word_length=1)

    @pytest.mark.parametrize("length", range(4))
    def test_verdict_does_not_depend_on_the_presentation(self, length, monkeypatch):
        # <diag(5, 1)> = <diag(1/5, 1)>: 5 is in a denominator of one
        # generator or of its inverse, so reduction modulo 5 is undefined on
        # both presentations, and each is refused before any product
        products, negations = _counted(monkeypatch)
        for m in (Matrix.diagonal([5, 1]), Matrix.diagonal([F(1, 5), 1])):
            group_input = MatrixGroupInput(2, [m])
            assert group_input.denominators() == [5]
            assert verify_certificate(group_input, _forced(group_input, 5), length) is False
        assert products == negations == []

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
def certify_words_items():
    """The benchmark's certify-words items ``(name, input, certificate)``:
    two forms for each 2- and 3-dimensional catalog group and one for
    torus-4, integralized, with ``-I`` among the ambient generators
    (``perfbench/workloads.py``, read, never changed)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.CertifyWords()
    workload.setup(flatcusps, 0)
    return list(workload.traced)


@pytest.fixture(scope="module")
def certify_words_inputs(certify_words_items):
    return [group_input for _, group_input, _ in certify_words_items]


def _word_levels(group_input, length):
    """The distinct generators and inverses other than ``-I``, and the words
    in them by the length at which each first appears: a plain search with
    backtracking, apart from the verifier's."""
    n = group_input.n
    letters = {m for g in group_input.lambda_gens for m in (g, g.inverse())}
    letters.discard(-Matrix.identity(n))
    levels = [{Matrix.identity(n)}]
    known = set(levels[0])
    for _ in range(length):
        levels.append({w * g for w in levels[-1] for g in letters} - known)
        known |= levels[-1]
    return letters, levels


def _cleared(w, g, q):
    """The trace screen on ``D (tr wg - n)`` with the unreduced ``D``."""
    n = w.rows
    den = w.den * g.den
    gap = (sum((w * g)[i, i] for i in range(n)) - n) * den
    assert gap.denominator == 1
    return den % q != 0 and (gap % q != 0 or gap == 0)


def _counted(monkeypatch):
    """Record the operands of every matrix product and negation: the
    verifier forms each ``w g`` through ``selberg._letter_product``, and any
    other product would go through ``Matrix.__mul__``."""
    products, negations = [], []
    product, letter_product, negation = Matrix.__mul__, selberg._letter_product, Matrix.__neg__

    def counted_product(a, b):
        products.append((a, b))
        return product(a, b)

    def counted_letter_product(w, g, g_nonzeros):
        products.append((w, g))
        return letter_product(w, g, g_nonzeros)

    def counted_negation(a):
        negations.append(a)
        return negation(a)

    monkeypatch.setattr(Matrix, "__mul__", counted_product)
    monkeypatch.setattr(selberg, "_letter_product", counted_letter_product)
    monkeypatch.setattr(Matrix, "__neg__", counted_negation)
    return products, negations


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


_KINDS = ("rational", "finite", "cyclotomic", "unipotent", "negative", "negative-root")


@st.composite
def _rational_groups(draw, entries=_entries, kinds=_KINDS):
    """A prime q and one or two invertible rational generators of size 1-3.

    The generators are arbitrary matrices, and conjugates of signed
    permutations (finite order), of companion matrices of torsion
    polynomials that collapse modulo q where there are any (finite order
    when the polynomial is squarefree), and of elementary unipotent
    matrices (characteristic polynomial ``(t-1)^n``); or ``-I`` itself, or
    a conjugate of a signed n-cycle whose signs multiply to -1, so that
    its n-th power is ``-I``. These two put ``-I`` among the letters or in
    the ball, where a word may equal a negated one. When q divides an
    integer of ``denominators()``, a generator denominator or the numerator
    of a generator's determinant, the next prime that divides none replaces
    it, so q is a unit in every generator and inverse. Integer ``entries``
    make the arbitrary generators and the conjugating matrices integral,
    mostly of determinant other than ±1, whose inverses have denominators.
    """
    n = draw(st.integers(min_value=1, max_value=3))
    q = draw(st.sampled_from([2, 3, 5, 7, 11]))
    invertible = _invertible(n, entries)
    polys = torsion_polynomials(n)
    collapsing = [p for p in polys if p.reduce_mod(q) == unipotent_polynomial(n).reduce_mod(q)]
    generators = []
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

    @settings(max_examples=200, deadline=None)
    @given(
        drawn=_rational_groups(kinds=("finite", "unipotent", "negative")),
        length=st.integers(min_value=0, max_value=5),
    )
    def test_pruned_and_full_searches_agree_at_every_cap(self, drawn, length):
        # the words start at their least letter only while B(L), plus
        # B(L - 1) with -I, fits the cap; at that bound and one below it,
        # and at the distinct ball and one below it, the verdict or the
        # refusal is the reference's, which enumerates the whole ball
        group_input, prime = drawn
        certificate = _forced(group_input, prime)
        letters, levels = _word_levels(group_input, length)
        ball = set().union(*levels)
        negates = -Matrix.identity(group_input.n) in group_input.lambda_gens
        if negates:
            ball |= {-w for level in levels[:length] for w in level}
        k = len(letters)

        def words(bound):  # B(bound), the non-backtracking words of length at most bound
            return 1 + sum(k * (k - 1) ** (l - 1) for l in range(1, bound + 1))

        pessimistic = words(length) + (words(length - 1) if negates and length else 0)
        for cap in (len(ball) - 1, len(ball), pessimistic - 1, pessimistic):
            outcomes = []
            for module, verifier in ((oracles, ref_verify_certificate), (selberg, verify_certificate)):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(module, "MAX_WORD_BALL", cap)
                    try:
                        outcomes.append(verifier(group_input, certificate, length))
                    except ValueError as exc:
                        outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], cap

    @settings(max_examples=100, deadline=None)
    @given(drawn=_rational_groups(), data=st.data(), length=st.integers(min_value=0, max_value=2))
    def test_inverting_a_generator_keeps_the_verdict(self, drawn, data, length):
        # the same group, presented with one ambient generator inverted
        group_input, _ = drawn
        generators = list(group_input.lambda_gens)
        i = data.draw(st.integers(min_value=0, max_value=len(generators) - 1))
        generators[i] = generators[i].inverse()
        inverted = MatrixGroupInput(group_input.n, generators, group_input.gamma_gens)
        for q in (2, 3, 5, 7):
            verdict = verify_certificate(group_input, _forced(group_input, q), length)
            assert verify_certificate(inverted, _forced(inverted, q), length) is verdict

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
        # u^-1, whose negations -I, -u and -u^-1 have trace -2, not 2
        # modulo 5, and are judged from the words' own numbers, unformed.
        # The one negation is -I itself, formed to find the letter. The
        # words of length one are the letters themselves, with no product,
        # and a word never appends the letter undoing its last. The words
        # of length 2 are the outer shell, left unformed: u u and u^-1 u^-1
        # have trace exactly 2, so the trace pairing clears both, and no
        # product is formed (four letters with backtracking take 4 + 3 * 4).
        group_input = worked_example()
        certificate = good_prime(group_input)
        assert certificate.prime == 5
        products, negations = _counted(monkeypatch)
        assert verify_certificate(group_input, certificate, word_length=2)
        assert len(products) == 0
        assert negations == [Matrix.identity(2)]

    @pytest.mark.parametrize("forced", [None, 3])
    def test_products_are_level_one_and_uncleared_shell_pairs(
        self, certify_words_inputs, forced, monkeypatch
    ):
        # at length 3 the verifier forms the words of length 2 that start at
        # their least letter: the pairs (a, b) of letters with b no earlier
        # than a in its order and b not undoing a. Each new value keeps its
        # first such pair. Of the shell it forms only the pairs that the
        # trace screen does not clear, each of a kept word (a, b) and a
        # letter from a on, less the one undoing b. Only inputs that pass
        # are counted, since a counterexample stops the search. At the
        # certified primes the screen clears every shell pair; modulo 3 it
        # does not on third-turn and sixth-turn.
        cases = []
        for group_input in certify_words_inputs:
            certificate = good_prime(group_input)
            if forced is not None:
                certificate = _forced(group_input, forced)
            if verify_certificate(group_input, certificate, 3):
                q = certificate.prime
                pairs = zip(group_input.lambda_gens, group_input.inverses)
                order = list(dict.fromkeys(m for pair in pairs for m in pair))
                order.remove(-Matrix.identity(group_input.n))
                assert set(order) == _word_levels(group_input, 0)[0]
                inverse = {g: g.inverse() for g in order}
                level_one = [
                    (a, b) for i, a in enumerate(order) for b in order[i:] if b != inverse[a]
                ]
                kept = {}
                for a, b in level_one:
                    if a * b not in kept and a * b not in inverse and not (a * b).is_identity():
                        kept[a * b] = (a, b)
                shell = {
                    w: {
                        g for g in order[order.index(a):]
                        if g != inverse[b] and not _cleared(w, g, q)
                    }
                    for w, (a, b) in kept.items()
                }
                cases.append((group_input, certificate, inverse, level_one, shell))
        assert len(cases) >= 4
        uncleared_in_all = sum(len(u) for *_, shell in cases for u in shell.values())
        assert (uncleared_in_all > 0) is (forced is not None)
        products, _ = _counted(monkeypatch)
        for group_input, certificate, inverse, level_one, shell in cases:
            products.clear()
            assert verify_certificate(group_input, certificate, 3) is True
            k = len(inverse)
            assert len(level_one) < k * (k - 1)
            assert [(a, b) for a, b in products if a in inverse] == level_one
            formed = [(a, b) for a, b in products if a in shell]
            assert len(level_one) + len(formed) == len(products)
            for w, uncleared in shell.items():
                appended = [b for a, b in formed if a == w]
                assert len(set(appended)) == len(appended) and set(appended) == uncleared


class TestOuterShell:
    """Edge cases of the outer shell, each against the reference verifier."""

    def agree(self, group_input, primes, lengths):
        for q in primes:
            certificate = _forced(group_input, q)
            for length in lengths:
                expected = ref_verify_certificate(group_input, certificate, length)
                assert verify_certificate(group_input, certificate, length) is expected

    def test_q_divides_the_unreduced_denominator_only(self):
        # a^-1 b = diag(1/3, 3) is a word of length 2 and (a^-1 b) c =
        # diag(1, 6): 3 divides D = 3 but not the reduced denominator. No
        # such pair reaches the shell: q divides D only when it divides a
        # letter's denominator, so a generator's denominator or determinant
        # numerator, and then the certificate is refused before enumerating
        a, b, c = Matrix.diagonal([3, 1]), Matrix.diagonal([1, 3]), Matrix.diagonal([3, 2])
        w = a.inverse() * b
        assert w.den * c.den % 3 == 0 and (w * c).den % 3 != 0
        group_input = MatrixGroupInput(2, [a, b, c])
        letters, levels = _word_levels(group_input, 2)
        assert w in levels[2] and c in letters
        self.agree(group_input, [3], [2, 3])
        assert verify_certificate(group_input, _forced(group_input, 3), 3) is False

    def test_unreduced_denominator_prime_to_q(self):
        # D = den w den g exceeds den(wg) on some shell pairs, and the
        # screen on D (tr - n) gives the verdict of the reduced element
        a, b = Matrix([[2, 0], [0, F(1, 2)]]), Matrix([[1, F(1, 2)], [0, 1]])
        group_input = MatrixGroupInput(2, [a, b])
        letters, levels = _word_levels(group_input, 2)
        assert any((w * g).den < w.den * g.den for w in levels[2] for g in letters)
        self.agree(group_input, [3, 5, 7, 11], [2, 3])

    def test_shell_of_duplicates(self, certify_words_items):
        # commuting translations: the 8 words of length 2 and 3 letters each
        # (4 less the one undoing the last) make 24 shell pairs but 12 new
        # elements, and the other 12 pairs repeat them
        inputs = [group_input for name, group_input, _ in certify_words_items if name == "torus-2"]
        assert len(inputs) == 2
        for group_input in inputs:
            letters, levels = _word_levels(group_input, 3)
            assert (len(levels[2]), len(letters), len(levels[3])) == (8, 4, 12)
            self.agree(group_input, [good_prime(group_input).prime, 2, 3, 5], [3])

    def test_negation_of_a_frontier_word_is_a_shell_product(self):
        # r has order 6 and r^3 = -I: at length 2 the frontier words r and
        # r^-1 have negations r^-2 and r^2, both shell products; r^2 has
        # order 3 and collapses modulo 3
        r = Matrix([[1, -1], [1, 0]])
        group_input = MatrixGroupInput(2, [r, NEG_IDENTITY_2])
        assert -r == r.inverse() * r.inverse()
        self.agree(group_input, [2, 3, 5, 7], [2, 3])
        assert verify_certificate(group_input, _forced(group_input, 3), 2) is False

    def test_counterexample_only_in_the_shell(self):
        # every word of length at most 2 in u and l has trace 1, 2 or 3,
        # odd or exactly 2, so it passes modulo 2; u l^-1 u is the quarter
        # turn, whose t^2 + 1 collapses onto (t - 1)^2
        u, l = Matrix([[1, 1], [0, 1]]), Matrix([[1, 0], [1, 1]])
        assert u * l.inverse() * u == Matrix([[0, 1], [-1, 0]])
        group_input = MatrixGroupInput(2, [u, l])
        self.agree(group_input, [2], [2, 3])
        certificate = _forced(group_input, 2)
        assert verify_certificate(group_input, certificate, 2) is True
        assert verify_certificate(group_input, certificate, 3) is False

    def test_cap_is_exact_across_the_shell_bound(self, certify_words_items, monkeypatch):
        # torus-2 at length 3: its bound B(3) + B(2) = 70 passes both caps,
        # so the ball is formed whole and counted. It holds 38 distinct
        # elements, against 58 words and negations when each pair of a word
        # of length 2 and a letter counts as new; the cap counts only the 38
        group_input = next(g for name, g, _ in certify_words_items if name == "torus-2")
        certificate = good_prime(group_input)
        letters, levels = _word_levels(group_input, 3)
        inner = set().union(*levels[:3])
        inner |= {-w for w in inner}
        distinct = len(inner | levels[3])
        bound = len(inner) + len(levels[2]) * len(letters)
        assert distinct < bound
        for cap in (distinct, bound):
            monkeypatch.setattr(selberg, "MAX_WORD_BALL", cap)
            assert verify_certificate(group_input, certificate, 3) is True
        monkeypatch.setattr(selberg, "MAX_WORD_BALL", distinct - 1)
        message = f"words of length 3 exceed MAX_WORD_BALL = {distinct - 1} elements"
        with pytest.raises(ValueError, match=message):
            verify_certificate(group_input, certificate, 3)


def _primes(integers):
    return set().union(*(ref_prime_factors(d) for d in integers))


class TestCongruenceInput:
    """The input keeps each ambient generator's inverse; its non-units are
    the denominators of the generators and of those inverses."""

    def test_inverses_are_stored_in_order(self):
        group_input = worked_example()
        assert group_input.inverses == tuple(m.inverse() for m in group_input.lambda_gens)

    @pytest.mark.parametrize(
        "diagonal, expected",
        [([2, 2], [2]), ([5, 1], [5]), ([F(1, 5), 1], [5]), ([F(2, 3), 1], [2, 3])],
    )
    def test_denominators_of_generators_and_inverses(self, diagonal, expected):
        # 2 I has the inverse I / 2, so its integer is 2 where the numerator
        # of its determinant was 4: the same primes
        assert MatrixGroupInput(2, [Matrix.diagonal(diagonal)]).denominators() == expected

    @pytest.mark.parametrize("position", [0, 1])
    def test_singular_ambient_generator_rejected(self, position):
        generators = [UNIPOTENT_2]
        generators.insert(position, Matrix([[1, 2], [2, 4]]))
        with pytest.raises(ValueError, match="^ambient generators must be invertible$"):
            MatrixGroupInput(2, generators)

    def test_verifier_inverts_nothing(self, certify_words_inputs, monkeypatch):
        calls = []
        inverse = Matrix.inverse

        def counted(m):
            calls.append(m)
            return inverse(m)

        certificates = [good_prime(group_input) for group_input in certify_words_inputs]
        monkeypatch.setattr(Matrix, "inverse", counted)
        for group_input, certificate in zip(certify_words_inputs, certificates):
            assert verify_certificate(group_input, certificate, 3) is True
        assert calls == []
        group_input = certify_words_inputs[0]
        MatrixGroupInput(group_input.n, group_input.lambda_gens, group_input.gamma_gens)
        assert calls == list(group_input.lambda_gens)

    @settings(max_examples=200, deadline=None)
    @given(drawn=st.one_of(_rational_groups(), _rational_groups(_integers)))
    def test_primes_match_generator_denominators_and_determinants(self, drawn):
        # for q prime to den m, m^-1 = adj(m) / det m has q in a denominator
        # exactly when q divides the numerator of det m, so the primes, and
        # with them bad_primes, are those of the determinant criterion
        group_input, _ = drawn
        expected = {m.den for m in group_input.lambda_gens + group_input.gamma_gens}
        expected.update(abs(ref_det(m.entries).numerator) for m in group_input.lambda_gens)
        assert _primes(group_input.denominators()) == _primes(expected)


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


class TestPrimeWalk:
    """The primes are tried in order; none is found by factoring."""

    @settings(max_examples=200, deadline=None)
    @given(drawn=st.one_of(_rational_groups(), _rational_groups(_integers)))
    def test_walk_matches_factoring_oracle(self, drawn):
        # the walk stops where sympy's factors of the denominators say it
        # should, and lists every prime below that with its reasons
        group_input, _ = drawn
        n = group_input.n
        certificate = good_prime(group_input)
        q = certificate.prime
        assert q == ref_least_good_prime(group_input)
        factors = {p for d in group_input.denominators() for p in ref_prime_factors(d)}
        expected = {}
        for p in (p for p in range(2, q) if is_prime(p)):
            reasons = {REASON_COEFFICIENT_DIVISOR} if p <= n + 1 else set()
            reasons |= {REASON_DENOMINATOR} if p in factors else set()
            reasons |= {REASON_SMALL_CHARACTERISTIC} if p <= n else set()
            expected[p] = tuple(sorted(reasons))
        assert bad_primes(group_input) == dict(certificate.bad_primes) == expected


def _squarefree_torsion_polynomials(n):
    """Those whose companion matrix has finite order (is diagonalizable)."""
    orders = ref_torsion_orders(n)
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
        # the 21 inputs at the workload's word length: at their own
        # certificates every element clears one of the two screens, so no
        # polynomial is computed. Modulo 3 some do not, and each element
        # that reaches its polynomial is off trace n with e2 = C(n, 2)
        # modulo 3, e2 = (tr^2 - tr(E^2)) / 2 taken here in fractions
        judged = []

        def recorded(m):
            judged.append(m)
            return char_poly(m)

        def refuse(m):
            raise AssertionError("is_unipotent called by the verifier")

        certified = [good_prime(group_input) for group_input in certify_words_inputs]
        forced = [_forced(group_input, 3) for group_input in certify_words_inputs]
        monkeypatch.setattr(selberg, "char_poly", recorded)
        monkeypatch.setattr(selberg, "is_unipotent", refuse)
        for group_input, certificate in zip(certify_words_inputs, certified):
            assert verify_certificate(group_input, certificate, 3) is True
        assert judged == []
        for group_input, certificate in zip(certify_words_inputs, forced):
            assert verify_certificate(group_input, certificate, 3) is True
        assert judged
        for m in judged:
            n = m.rows
            trace = sum(m[i, i] for i in range(n))
            e2 = (trace**2 - sum((m * m)[i, i] for i in range(n))) / 2 - math.comb(n, 2)
            assert trace != n and e2.numerator % 3 == 0


def _second_screen_clears(m, q):
    """The screen on coefficient n-2, on the integer rows ``N`` of m:
    ``e2(N) = (tr(N)^2 - tr(N^2)) / 2`` differs from ``C(n, 2) den^2``
    modulo q."""
    n, num, den = m.rows, m.num, m.den
    trace = sum(num[i][i] for i in range(n))
    square = sum(num[i][k] * num[k][i] for i in range(n) for k in range(n))
    assert (trace * trace - square) % 2 == 0
    return ((trace * trace - square) // 2 - math.comb(n, 2) * den * den) % q != 0


@st.composite
def _screened_elements(draw):
    """A finite-order element, or a generator, an inverse, a product of two
    or a negation from a drawn rational group."""
    if draw(st.booleans()):
        return [draw(_finite_order_elements())]
    group_input, _ = draw(_rational_groups())
    letters = list(group_input.lambda_gens + group_input.inverses)
    elements = letters + [a * b for a in letters for b in letters]
    return elements + [-m for m in elements]


class TestSecondScreen:
    @settings(max_examples=200, deadline=None)
    @given(elements=_screened_elements())
    def test_cleared_residue_is_not_unipotent(self, elements):
        # coefficient n-2 of det(tI - E) is e2(E) = e2(N) / den^2, and that
        # of (t - 1)^n is C(n, 2): where they differ modulo q, so do the
        # residues, at every q prime to den, q = 2 included
        for m in elements:
            n = m.rows
            for q in (2, 3, 5, 7, 11):
                if m.den % q and _second_screen_clears(m, q):
                    residue = char_poly(m).reduce_mod(q)
                    assert residue != unipotent_polynomial(n).reduce_mod(q)

    def test_cap_counts_a_negation_equal_to_a_word_once(self, monkeypatch):
        # r has order 6 and r^3 = -I, which is also a letter: at length 3
        # every negation of a word of length at most 2 is a word (-r = r^-2,
        # -r^2 = r^-1, ...) but -I, which the shell word r^3 repeats, so the
        # ball holds 6 distinct elements. Its bound is B(3) = 7 words over
        # the letters r and r^-1, plus B(2) = 5 negations
        r = Matrix([[1, -1], [1, 0]])
        group_input = MatrixGroupInput(2, [r, NEG_IDENTITY_2])
        certificate = good_prime(group_input)
        letters, levels = _word_levels(group_input, 3)
        inner = set().union(*levels[:3])
        inner |= {-w for w in inner}
        distinct = len(inner | levels[3])
        bound = 1 + 2 + 2 + 2 + (1 + 2 + 2)
        assert (distinct, len(letters)) == (6, 2)
        assert ref_verify_certificate(group_input, certificate, 3) is True
        products, _ = _counted(monkeypatch)
        # at the bound the words are pruned and the shell stays unformed: its
        # pairs r^2 r and r^-2 r^-1 have trace -2, cleared, and only the 2
        # level-one products are formed; below it every level is formed
        for cap, formed in ((bound, 2), (bound - 1, 4), (bound - 2, 4), (distinct, 4)):
            monkeypatch.setattr(selberg, "MAX_WORD_BALL", cap)
            products.clear()
            assert verify_certificate(group_input, certificate, 3) is True
            assert len(products) == formed, cap
        monkeypatch.setattr(selberg, "MAX_WORD_BALL", distinct - 1)
        with pytest.raises(ValueError, match=f"MAX_WORD_BALL = {distinct - 1} elements"):
            verify_certificate(group_input, certificate, 3)


class TestFiniteOrderTest:
    def test_torsion_orders_are_minimal(self):
        # every root of p is an L-th root of unity, and for no proper divisor
        # of L: p divides (t^L - 1)^n and no (t^(L/r) - 1)^n for r prime
        for n in (1, 2, 3, 4):
            orders = ref_torsion_orders(n)
            assert sorted(orders, key=lambda p: p.coeffs) == list(torsion_polynomials(n))
            for poly, lcm in orders.items():
                assert sympy_divides(poly, lcm, n)
                for r in ref_prime_factors(lcm):
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
        # t^2 - 7t + 1 = (t - 1)^2 modulo 5, and it is no cyclotomic product;
        # phi(5) = 4 > 2, so q^K = 1 and the element is compared with I as is
        group_input = MatrixGroupInput(2, [Matrix([[6, 1], [5, 1]])])
        certificate = _forced(group_input, 5)
        assert ref_verify_certificate(group_input, certificate, 3) is True
        exponents = []
        power = Matrix.__pow__

        def recorded(m, k):
            exponents.append(k)
            return power(m, k)

        monkeypatch.setattr(Matrix, "__pow__", recorded)
        assert verify_certificate(group_input, certificate, 3) is True
        assert exponents and set(exponents) == {1}

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_q_power_agrees_with_the_torsion_orders(self, q):
        # a companion matrix whose polynomial collapses modulo q is a
        # counterexample exactly when its power to the lcm of its factors'
        # orders is I; the verifier decides it by the power q^K alone
        checked = 0
        for n in range(1, 9):
            collapsed = unipotent_polynomial(n).reduce_mod(q)
            for poly, lcm in ref_torsion_orders(n).items():
                if poly.reduce_mod(q) != collapsed:
                    continue
                companion = _companion(poly)
                finite = companion ** lcm == Matrix.identity(n)
                group_input = MatrixGroupInput(n, [companion])
                assert verify_certificate(group_input, _forced(group_input, q), 1) is not finite
                checked += 1
        assert checked > 0

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
