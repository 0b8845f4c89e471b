from fractions import Fraction as F

import pytest

from flatcusps import selberg
from flatcusps.errors import UnipotentViolation
from flatcusps.exactlin import IntPolynomial, Matrix, monomial
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
    torsion_order_bound,
    torsion_polynomials,
    unipotent_polynomial,
    verify_certificate,
)

from oracles import sympy_finite_order_char_polys

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
            assert product == monomial(d) - IntPolynomial([1])

    def test_matches_sympy(self):
        import sympy

        t = sympy.Symbol("t")
        for d in range(1, 30):
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
            big = (monomial(torsion_order_bound(n)) - IntPolynomial([1])) ** n
            for poly in torsion_polynomials(n):
                assert (big % poly).is_zero()

    def test_rational_canonical_form_oracle(self):
        for n in (1, 2, 3):
            oracle = sympy_finite_order_char_polys(n)
            oracle.discard(tuple(int(c) for c in unipotent_polynomial(n).coeffs))
            ours = {tuple(int(c) for c in p.coeffs) for p in torsion_polynomials(n)}
            assert ours == oracle


class TestBadPrimes:
    def test_worked_degree_two(self):
        bad = bad_primes(worked_example(), torsion_polynomials(2))
        assert set(bad) == {2, 3}
        assert REASON_SMALL_CHARACTERISTIC in bad[2]
        assert REASON_COEFFICIENT_DIVISOR in bad[2]
        assert bad[3] == (REASON_COEFFICIENT_DIVISOR,)

    def test_denominator_reason(self):
        group_input = MatrixGroupInput(2, [Matrix([[1, F(1, 5)], [0, 1]])], [])
        bad = bad_primes(group_input, torsion_polynomials(2))
        assert bad[5] == (REASON_DENOMINATOR,)

    def test_degree_one(self):
        group_input = MatrixGroupInput(1, [Matrix([[2]])], [])
        bad = bad_primes(group_input, torsion_polynomials(1))
        assert set(bad) == {2}
        # no primes <= 1 exist; 2 comes from (t+1) - (t-1) = 2
        assert bad[2] == (REASON_COEFFICIENT_DIVISOR,)

    def test_monotone_in_generators(self):
        base = MatrixGroupInput(2, [UNIPOTENT_2], [])
        enlarged = MatrixGroupInput(2, [UNIPOTENT_2, Matrix([[F(1, 7), 0], [0, 7]])], [])
        small = set(bad_primes(base, torsion_polynomials(2)))
        large = set(bad_primes(enlarged, torsion_polynomials(2)))
        assert small <= large
        assert 7 in large


class TestGoodPrime:
    def test_worked_example(self):
        certificate = good_prime(worked_example())
        assert certificate.prime == 5
        assert set(certificate.bad_primes) == {2, 3}
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

    def test_every_gamma_reduces_to_unipotent_residue(self):
        certificate = good_prime(worked_example())
        q = certificate.prime
        expected = unipotent_polynomial(2).reduce_mod(q)
        from flatcusps.exactlin import char_poly

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

    def test_prime_dividing_element_denominator_fails(self):
        # the generator diag(3, 1) is integral, so q = 3 passes the generator
        # check; its inverse diag(1/3, 1) has 3 in a denominator of its
        # characteristic polynomial, which reduction modulo 3 cannot handle
        group_input = MatrixGroupInput(2, [Matrix.diagonal([3, 1])])
        polys = torsion_polynomials(2)
        forced = SelbergCertificate(2, 3, polys, {}, ())
        assert not verify_certificate(group_input, forced, word_length=1)

    def test_word_ball_is_capped(self, monkeypatch):
        group_input = worked_example()
        certificate = good_prime(group_input)
        # the length-2 ball is I, -I, u, -u, u^-1, -u^-1, u^2 and u^-2
        monkeypatch.setattr(selberg, "MAX_WORD_BALL", 8)
        assert verify_certificate(group_input, certificate, word_length=2)
        monkeypatch.setattr(selberg, "MAX_WORD_BALL", 7)
        with pytest.raises(ValueError, match="MAX_WORD_BALL = 7 elements"):
            verify_certificate(group_input, certificate, word_length=2)
