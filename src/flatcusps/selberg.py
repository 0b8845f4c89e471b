"""Torsion-free congruence subgroups of rational matrix groups.

For a finitely generated subgroup of ``GL(n; Q)`` containing a unipotent
subgroup, reduction modulo a well-chosen prime ``q`` produces a torsion
free, finite index congruence subgroup containing the unipotent part. The
prime must avoid three finite bad sets: primes up to ``n`` (small
characteristic), primes dividing a denominator of a generator or of an
ambient generator's inverse (not invertible in the coefficient ring), and
primes modulo which some degree-n torsion characteristic polynomial
collapses onto ``(t-1)^n``. Torsion
characteristic polynomials are exactly the degree-n products of cyclotomic
polynomials other than ``(t-1)^n`` itself, a finite enumerable set, and
the primes modulo which one of them collapses are exactly the primes up
to ``n + 1``.

The certificate produced here records the prime, the polynomial list, the
bad primes with reasons, and the residue evidence; an independent
word-enumeration verifier rechecks the conclusion on demand.
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from .errors import DimensionMismatch, InvariantViolation, UnipotentViolation
from .exactlin import (
    Frozen,
    IntPolynomial,
    Matrix,
    char_poly,
    is_unipotent,
    unipotent_polynomial,
)

REASON_SMALL_CHARACTERISTIC = "small-characteristic"
REASON_COEFFICIENT_DIVISOR = "coefficient-divisor"
REASON_DENOMINATOR = "denominator"

#: Most elements :func:`verify_certificate` enumerates: the word ball grows
#: exponentially with the word length (length 3 on the catalog groups'
#: integral embeddings stays below 200 elements).
MAX_WORD_BALL = 20_000

#: Largest degree a :class:`MatrixGroupInput` accepts: its torsion polynomials
#: grow about 2.5-fold every two degrees (7,133 at n = 16, 30,531 at n = 20).
MAX_DEGREE = 16


# ---------------------------------------------------------------------------
# Small number theory
# ---------------------------------------------------------------------------


#: Largest trial divisor of :func:`prime_factors`; every integer below its
#: square is factored completely.
_TRIAL_BOUND = 10**6

#: Miller-Rabin to the first 13 prime bases is exact below this bound
#: (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
#: Math. Comp. 86 (2017)).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(m: int) -> bool:
    return m > 1 and prime_factors(m) == [m]


def _strong_probable_prime(m: int) -> bool:
    """Whether odd ``m > 41`` passes Miller-Rabin to every base of
    ``_MILLER_RABIN_BASES``; below ``_MILLER_RABIN_LIMIT`` that is primality."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _cube_root(m: int) -> int:
    """``floor(m ** (1/3))`` for ``m >= 1``, by integer Newton steps from above."""
    x = 1 << -(-m.bit_length() // 3)
    while True:
        y = (2 * x + m // (x * x)) // 3
        if y >= x:
            return x
        x = y


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors of a positive integer, ascending.

    Trial division runs up to ``_TRIAL_BOUND``, so the work is bounded
    whatever the input. A cofactor left above the square of the last
    divisor tried has no factor up to the bound; deterministic Miller-Rabin
    decides whether it is prime. Below ``_MILLER_RABIN_LIMIT`` it has at most
    four prime factors, so a composite prime power is a square or a cube
    (``p^4 = (p^2)^2``), and its exact root is factored instead. Otherwise
    ``ValueError`` names the bound: the cofactor is composite, or too large
    for the test to be exact.
    """
    if m < 1:
        raise ValueError("expected a positive integer")
    out = []
    f = 2
    while f * f <= m and f <= _TRIAL_BOUND:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if f * f <= m:
        if m >= _MILLER_RABIN_LIMIT:
            raise ValueError(
                f"cannot factor {m}: it has no prime factor up to {_TRIAL_BOUND} "
                f"and is too large to test for primality exactly"
            )
        if not _strong_probable_prime(m):
            for k, root in ((2, math.isqrt(m)), (3, _cube_root(m))):
                if root**k == m:
                    return out + prime_factors(root)  # out holds primes below root's
            raise ValueError(
                f"cannot factor {m}: it is composite with no prime factor up to {_TRIAL_BOUND}"
            )
    if m > 1:
        out.append(m)
    return out


def euler_phi(d: int) -> int:
    result = d
    for p in prime_factors(d):
        result = result // p * (p - 1)
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> IntPolynomial:
    """The d-th cyclotomic polynomial, by integer long division.

    The coefficients of ``t^d - 1`` are divided in place by each ``Phi_e``,
    e a proper divisor of d, top term first; each quotient coefficient is
    left in the slot of the term it cleared. Every ``Phi_e`` is monic and
    integral, so no step leaves the integers. A remainder, or a quotient
    that is not monic, raises ``InvariantViolation``.
    """
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    coeffs = [-1] + [0] * (d - 1) + [1]
    for e in (e for e in range(1, d) if d % e == 0):
        divisor = cyclotomic_polynomial(e).coeffs
        m = len(divisor) - 1
        for top in range(len(coeffs) - 1, m - 1, -1):
            c = coeffs[top]
            if c:
                for j in range(m):
                    coeffs[top - m + j] -= c * divisor[j]
        if any(coeffs[:m]):
            raise InvariantViolation(f"Phi_{e} does not divide t^{d} - 1 exactly")
        del coeffs[:m]
    if coeffs[-1] != 1:
        raise InvariantViolation(f"Phi_{d} is not monic")
    return IntPolynomial(coeffs)


@lru_cache(maxsize=None)
def _admissible_orders(n: int) -> tuple[int, ...]:
    """Orders d of roots of unity with degree ``phi(d) <= n``.

    ``phi(d) >= sqrt(d/2)`` bounds the search range.
    """
    return tuple(d for d in range(1, 2 * n * n + 2) if euler_phi(d) <= n)


def _factor_multisets(n: int, orders: Sequence[int], start: int = 0) -> Iterable[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for i in range(start, len(orders)):
        d = orders[i]
        deg = euler_phi(d)
        if deg <= n:
            for rest in _factor_multisets(n - deg, orders, i):
                yield (d,) + rest


@lru_cache(maxsize=None)
def _torsion_orders(n: int) -> Mapping[IntPolynomial, int]:
    """Each torsion polynomial of degree n with the lcm of its factors' orders.

    A product of cyclotomic polynomials determines its factor multiset
    (``Q[t]`` has unique factorization), so the lcm of the d with
    ``Phi_d`` dividing it is well defined. A matrix with that
    characteristic polynomial has finite order exactly when its power to
    the lcm is the identity: every eigenvalue is then an lcm-th root of
    unity, and a finite-order matrix is diagonalizable.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    orders = {}
    for multiset in _factor_multisets(n, _admissible_orders(n)):
        if all(d == 1 for d in multiset):
            continue
        product = IntPolynomial([1])
        for d in multiset:
            product = product * cyclotomic_polynomial(d)
        orders[product] = math.lcm(*multiset)
    return MappingProxyType(orders)  # cached, so read-only


@lru_cache(maxsize=None)
def torsion_polynomials(n: int) -> tuple[IntPolynomial, ...]:
    """Degree-n characteristic polynomials of nontrivial torsion elements.

    All monic degree-n products of cyclotomic polynomials whose factor
    multiset is not ``{Phi_1, ..., Phi_1}``: a rational matrix of finite
    order is semisimple with roots of unity as eigenvalues, so its
    characteristic polynomial is such a product, and each product is
    realized by a block-diagonal companion matrix. Duplicate-free, sorted
    by coefficient tuple.
    """
    return tuple(sorted(_torsion_orders(n), key=lambda p: p.coeffs))


@lru_cache(maxsize=128)
def _residue_evidence(n: int, q: int) -> tuple[ResidueEvidence, ...]:
    """Each torsion polynomial of degree n beside ``(t-1)^n``, both modulo q."""
    unipotent_mod = unipotent_polynomial(n).reduce_mod(q)
    return tuple(
        ResidueEvidence(p, p.reduce_mod(q), unipotent_mod) for p in torsion_polynomials(n)
    )


# ---------------------------------------------------------------------------
# Inputs and certificates
# ---------------------------------------------------------------------------


class MatrixGroupInput(Frozen):
    """A finitely generated rational matrix group with a unipotent subgroup.

    ``lambda_gens`` generate the ambient group, ``gamma_gens`` the unipotent
    subgroup (each is required to have characteristic polynomial
    ``(t-1)^n``; this is checked by :func:`good_prime`, not at
    construction, so that violations surface as ``UnipotentViolation``).
    ``determinants`` holds the determinant of each ambient generator, in
    order; a zero one raises ``ValueError``. Its numerators carry the
    primes of the inverses' denominators that the generators' own
    denominators do not (see :func:`bad_primes`).
    """

    __slots__ = ("n", "lambda_gens", "gamma_gens", "determinants")

    def __init__(
        self,
        n: int,
        lambda_gens: Sequence[Matrix],
        gamma_gens: Sequence[Matrix] = (),
    ):
        lams = tuple(lambda_gens)
        gams = tuple(gamma_gens)
        if n < 1:
            raise ValueError("degree must be at least 1")
        if n > MAX_DEGREE:
            raise ValueError(f"degree {n} exceeds MAX_DEGREE = {MAX_DEGREE}")
        if not lams:
            raise ValueError("at least one ambient generator is required")
        for m in lams + gams:
            if not (m.is_square() and m.rows == n):
                raise DimensionMismatch(f"generators must be {n}x{n}")
        determinants = tuple(m.det() for m in lams)
        if 0 in determinants:
            raise ValueError("ambient generators must be invertible")
        super().__init__(n, lams, gams, determinants)

    def denominators(self) -> list[int]:
        """Generator denominators other than 1, each the lcm of its entries'
        denominators, so with the same primes."""
        return sorted({m.den for m in self.lambda_gens + self.gamma_gens if m.den != 1})


class ResidueEvidence(Frozen):
    """One torsion polynomial shown distinct from ``(t-1)^n`` modulo q."""

    __slots__ = ("polynomial", "polynomial_mod_q", "unipotent_mod_q")

    @property
    def distinct(self) -> bool:
        return self.polynomial_mod_q != self.unipotent_mod_q


class SelbergCertificate(Frozen):
    """Choice of congruence prime together with the evidence justifying it.

    ``bad_primes`` maps each excluded prime to its reasons; it is given as a
    mapping or as its ``(prime, reasons)`` pairs and kept as the tuple of
    those pairs sorted by prime, so a certificate hashes by value.
    """

    __slots__ = ("n", "prime", "torsion_polys", "bad_primes", "residue_evidence")

    def __init__(
        self,
        n: int,
        prime: int,
        torsion_polys: Sequence[IntPolynomial],
        bad_primes: Union[Mapping[int, Sequence[str]], Iterable[tuple[int, Sequence[str]]]],
        residue_evidence: Sequence[ResidueEvidence],
    ):
        pairs = tuple(sorted((p, tuple(reasons)) for p, reasons in dict(bad_primes).items()))
        super().__init__(n, prime, tuple(torsion_polys), pairs, tuple(residue_evidence))

    def __repr__(self) -> str:
        return f"<SelbergCertificate n={self.n} prime={self.prime}>"


# ---------------------------------------------------------------------------
# Bad primes, good primes, verification
# ---------------------------------------------------------------------------


def bad_primes(group_input: MatrixGroupInput) -> dict[int, tuple[str, ...]]:
    """Primes that must be excluded, each with its reasons.

    Three sources: primes at most ``n`` (small residue characteristic),
    primes dividing a denominator of a generator or of the inverse of an
    ambient generator (invertible in the coefficient ring, so unusable for
    reduction), and the primes at most ``n + 1``,
    modulo which some degree-n torsion polynomial collapses onto
    ``(t-1)^n``. Modulo p, ``Phi_{p^k m} = Phi_m^{phi(p^k)}`` for p not
    dividing m and ``Phi_m(1) != 0`` for m > 1, so a product of cyclotomic
    polynomials is ``(t-1)^n`` exactly when every factor has p-power order.
    A torsion polynomial has a factor of order > 1, so if it collapses,
    that factor is some ``Phi_{p^k}`` with k >= 1, of degree at least
    ``p - 1``, and ``p <= n + 1``. Conversely, ``Phi_p Phi_1^{n-p+1}``
    collapses for every prime ``p <= n + 1``.

    The ``denominator`` primes are those of each generator denominator and
    of the numerator of each ambient generator's determinant: for p not
    dividing ``den m``, ``m^-1 = adj(m) / det m`` has p in a denominator
    exactly when p divides the numerator of ``det m``. Determinants ``±1``
    add no prime.
    """
    n = group_input.n
    reasons = {p: {REASON_COEFFICIENT_DIVISOR} for p in filter(is_prime, range(2, n + 2))}
    for p in filter(is_prime, range(2, n + 1)):
        reasons[p].add(REASON_SMALL_CHARACTERISTIC)
    numerators = {abs(d.numerator) for d in group_input.determinants}
    for den in numerators.union(group_input.denominators()):
        for p in prime_factors(den):
            reasons.setdefault(p, set()).add(REASON_DENOMINATOR)
    return {p: tuple(sorted(rs)) for p, rs in sorted(reasons.items())}


def good_prime(group_input: MatrixGroupInput) -> SelbergCertificate:
    """Smallest prime admissible for the congruence-subgroup construction.

    Checks that every unipotent generator really has characteristic
    polynomial ``(t-1)^n`` (``UnipotentViolation`` otherwise), builds the
    bad-prime set, picks the smallest prime outside it, and records the
    residue evidence that each torsion polynomial stays distinct from the
    unipotent one modulo that prime. Reduction modulo the certified prime
    therefore separates the unipotent subgroup from all nontrivial
    torsion, so its congruence preimage is torsion free, has finite index,
    and contains the unipotent subgroup.
    """
    n = group_input.n
    for m in group_input.gamma_gens:
        if not is_unipotent(m):
            raise UnipotentViolation(
                f"generator has characteristic polynomial {char_poly(m)}, "
                f"expected {unipotent_polynomial(n)}"
            )
    bad = bad_primes(group_input)
    q = 2
    while q in bad or not is_prime(q):
        q += 1
    evidence = _residue_evidence(n, q)
    if not all(e.distinct for e in evidence):
        raise InvariantViolation(f"a torsion polynomial collapses modulo {q}")
    numerators = (d.numerator for d in group_input.determinants)
    if q <= n or any(d % q == 0 for d in (*group_input.denominators(), *numerators)):
        raise InvariantViolation(f"prime {q} is small or divides a denominator")
    return SelbergCertificate(n, q, torsion_polynomials(n), bad, evidence)


def verify_certificate(
    group_input: MatrixGroupInput,
    certificate: SelbergCertificate,
    word_length: int = 6,
) -> bool:
    """Brute-force falsifier for a certificate.

    Enumerates all products of the ambient generators and their inverses
    up to the given word length L, breadth first over the distinct letters
    other than ``-I``; a word never appends the letter that cancels its
    last one, since that product is already in the ball. ``-I`` is central
    and its own inverse, so it adds only the negations of the words of
    length below L. Each nontrivial element E is then judged by its
    characteristic polynomial ``det(tI - E)``:

    - *Trace screen.* Its coefficient ``n-1`` is ``-tr E``. When q does not
      divide ``den E``, the polynomial reduces modulo q, and E passes
      without its polynomial being computed in two cases. A trace not
      congruent to n makes the residue differ from that of ``(t-1)^n``. A
      trace of exactly n means infinite order: a rational matrix of finite
      order is diagonalizable with roots of unity as eigenvalues, n of
      them sum to n only when all are 1, so E would be I, which is not in
      the ball. This screens out every unipotent element whose denominator
      q does not divide.
    - *Exact polynomial.* Every other element gets its polynomial, once. A
      prime q dividing one of its denominators is a counterexample; a
      residue unlike that of ``(t-1)^n`` passes.
    - *Finite-order test.* A residue that collapses onto the unipotent one
      is a counterexample when E has finite order. A polynomial outside
      :func:`torsion_polynomials`, ``(t-1)^n`` among them, means infinite
      order; otherwise E has finite order exactly when its power to the
      lcm of the orders of the polynomial's cyclotomic factors is the
      identity.

    Returns False on any counterexample (including a prime that divides a
    generator denominator), True otherwise. A verifier, not a prover:
    word_length bounds the search. A negative one, or one whose ball would
    hold more than ``MAX_WORD_BALL`` elements, raises ``ValueError``; a
    certificate of another degree than the group raises ``DimensionMismatch``.
    """
    if certificate.n != group_input.n:
        raise DimensionMismatch(
            f"certificate of degree {certificate.n} for a group of degree {group_input.n}"
        )
    if word_length < 0:
        raise ValueError("word length must be non-negative")
    q = certificate.prime
    if not is_prime(q):
        return False
    if any(d % q == 0 for d in group_input.denominators()):
        return False  # reduction modulo q is undefined on these generators
    n = group_input.n
    unipotent_mod = unipotent_polynomial(n).reduce_mod(q)
    torsion_orders = _torsion_orders(n)
    identity = Matrix.identity(n)

    # Distinct letters other than -I and the index of each inverse.
    inverse = {}
    for m in group_input.lambda_gens:
        m_inverse = m.inverse()
        inverse[m], inverse[m_inverse] = m_inverse, m
    negates = inverse.pop(Matrix.diagonal([-1] * n), None) is not None
    letters = list(inverse)
    cancel = [letters.index(inverse[g]) for g in letters]

    def admit(element: Matrix) -> None:
        seen.add(element)
        if len(seen) > MAX_WORD_BALL:
            raise ValueError(
                f"words of length {word_length} exceed MAX_WORD_BALL = {MAX_WORD_BALL} elements"
            )

    words = {identity}  # products of the letters, the only dedup of the search
    seen = {identity}  # the ball: the words and, with -I, their negations
    frontier = [(identity, -1)]  # (word, index of the letter undoing its last)
    for length in range(word_length):
        if not frontier:
            break  # the ball has stopped growing: the group is finite
        fresh = []
        for w, undo in frontier:
            if negates:
                admit(-w)
            for i, g in enumerate(letters):
                if i == undo:
                    continue
                element = w * g if length else g  # words of length one are letters
                if element not in words:
                    words.add(element)
                    admit(element)
                    fresh.append((element, cancel[i]))
        frontier = fresh
    seen.remove(identity)
    for element in seen:
        den = element.den
        gap = sum(row[i] for i, row in enumerate(element.num)) - n * den  # den (tr E - n)
        if den % q and (gap % q or not gap):
            continue  # trace screen: a residue unlike (t-1)^n, or infinite order
        poly = char_poly(element)
        try:
            reduced = poly.reduce_mod(q)
        except ValueError:
            return False  # q divides a denominator of the characteristic polynomial
        if reduced != unipotent_mod:
            continue
        order = torsion_orders.get(poly)
        if order is not None and element ** order == identity:
            return False  # nontrivial torsion collapsed onto the unipotent residue
    return True
