"""Torsion-free congruence subgroups of rational matrix groups.

For a finitely generated subgroup of ``GL(n; Q)`` containing a unipotent
subgroup, reduction modulo a well-chosen prime ``q`` produces a torsion
free, finite index congruence subgroup containing the unipotent part. The
prime must avoid three finite bad sets: primes up to ``n`` (small
characteristic), the primes dividing an integer of
:meth:`MatrixGroupInput.denominators` (reduction is undefined on a
generator or an inverse), and primes modulo which some degree-n torsion
characteristic polynomial collapses onto ``(t-1)^n``. Torsion
characteristic polynomials are exactly the degree-n products of
cyclotomic polynomials other than ``(t-1)^n`` itself. ``F_q[t]`` has
unique factorization, so such a product collapses exactly when each of
its factors ``Phi_d`` collapses onto ``(t-1)^{phi(d)}``, and that happens
for some ``Phi_d`` with ``1 < d`` and ``phi(d) <= n`` exactly when
``q <= n + 1``. The primes 2, 3, 5, ... are tried in order, against the
denominators by division, so no integer is ever factored.

The certificate produced here records the prime, the cyclotomic factors,
the primes passed over with their reasons, and the residue evidence of
each factor; an independent word-enumeration verifier rechecks the
conclusion on demand.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, count
from math import comb
from operator import mul, neg
from typing import Iterable, Mapping, Sequence, Union

from .errors import DimensionMismatch, InvariantViolation, UnipotentViolation
from .exactlin import (
    Frozen,
    IntPolynomial,
    Matrix,
    _nonzeros,
    _sparse_product,
    char_poly,
    is_unipotent,
    unipotent_polynomial,
)

REASON_SMALL_CHARACTERISTIC = "small-characteristic"
REASON_COEFFICIENT_DIVISOR = "coefficient-divisor"
REASON_DENOMINATOR = "denominator"

#: Most distinct elements the ball of :func:`verify_certificate` may hold: the
#: ball grows exponentially with the word length (length 3 on the catalog
#: groups' integral embeddings stays below 200 elements). The verifier compares
#: a bound on the ball with it once, up front: a ball whose bound fits is never
#: counted, and its words are pruned by their least letter; any other is formed
#: whole and counted exactly, so the cap refuses the same balls either way.
MAX_WORD_BALL = 20_000


# ---------------------------------------------------------------------------
# Small number theory
# ---------------------------------------------------------------------------


#: :func:`is_prime` tries divisors up to this bound, so it decides exactly the
#: integers below its square; the candidates for the congruence prime are small.
_TRIAL_BOUND = 10**6


def is_prime(m: int) -> bool:
    """Whether ``m`` is prime, by trial division; ``ValueError`` for
    ``m >= _TRIAL_BOUND**2``."""
    if m >= _TRIAL_BOUND**2:
        raise ValueError(
            f"cannot decide whether {m} is prime: trial division runs to "
            f"{_TRIAL_BOUND}, so only integers below its square are decided"
        )
    f = 2
    while f * f <= m and m % f:
        f += 1
    return m > 1 and f * f > m


def euler_phi(d: int) -> int:
    """Euler's totient of a positive integer, by trial division."""
    result, f = d, 2
    while f * f <= d:
        if d % f == 0:
            result = result // f * (f - 1)
            while d % f == 0:
                d //= f
        f += 1
    if d > 1:
        result = result // d * (d - 1)
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


def _admissible_orders(n: int) -> tuple[tuple[int, int], ...]:
    """Each order d of a root of unity of degree ``phi(d) <= n``, with
    ``phi(d)``; ``phi(d) >= sqrt(d/2)`` bounds the search range."""
    pairs = ((d, euler_phi(d)) for d in range(1, 2 * n * n + 2))
    return tuple((d, phi) for d, phi in pairs if phi <= n)


def _factor_multisets(
    n: int, orders: Sequence[tuple[int, int]], start: int = 0
) -> Iterable[tuple[int, ...]]:
    """The multisets of orders, from ``(d, phi(d))`` pairs, whose degrees sum to n."""
    if n == 0:
        yield ()
        return
    for i in range(start, len(orders)):
        d, deg = orders[i]
        if deg <= n:
            for rest in _factor_multisets(n - deg, orders, i):
                yield (d,) + rest


@lru_cache(maxsize=None)
def torsion_polynomials(n: int) -> tuple[IntPolynomial, ...]:
    """Degree-n characteristic polynomials of nontrivial torsion elements.

    All monic degree-n products of cyclotomic polynomials whose factor
    multiset is not ``{Phi_1, ..., Phi_1}``: a rational matrix of finite
    order is semisimple with roots of unity as eigenvalues, so its
    characteristic polynomial is such a product, and each product is
    realized by a block-diagonal companion matrix. Duplicate-free (``Q[t]``
    has unique factorization), sorted by coefficient tuple. Their number
    grows exponentially with n, and no certificate enumerates them.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    products = []
    for multiset in _factor_multisets(n, _admissible_orders(n)):
        if multiset[-1] > 1:  # ascending, so some factor is not Phi_1
            product = IntPolynomial([1])
            for d in multiset:
                product = product * cyclotomic_polynomial(d)
            products.append(product)
    return tuple(sorted(products, key=lambda p: p.coeffs))


@lru_cache(maxsize=None)
def _cyclotomic_factors(n: int) -> tuple[IntPolynomial, ...]:
    """``Phi_d`` for each order ``1 < d`` with ``phi(d) <= n``, by d: the
    factors of the degree-n torsion polynomials other than ``Phi_1``."""
    return tuple(cyclotomic_polynomial(d) for d, _ in _admissible_orders(n) if d > 1)


@lru_cache(maxsize=128)
def _residue_evidence(n: int, q: int) -> tuple[ResidueEvidence, ...]:
    """Each cyclotomic factor of degree at most n beside ``(t-1)^phi(d)``,
    both modulo q."""
    return tuple(
        ResidueEvidence(p, p.reduce_mod(q), unipotent_polynomial(p.degree).reduce_mod(q))
        for p in _cyclotomic_factors(n)
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
    ``inverses`` holds the inverse of each ambient generator, in order; a
    singular one raises ``ValueError``.
    """

    __slots__ = ("n", "lambda_gens", "gamma_gens", "inverses")

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
        if not lams:
            raise ValueError("at least one ambient generator is required")
        for m in lams + gams:
            if not (m.is_square() and m.rows == n):
                raise DimensionMismatch(f"generators must be {n}x{n}")
        try:
            inverses = tuple(m.inverse() for m in lams)
        except ValueError:
            raise ValueError("ambient generators must be invertible") from None
        super().__init__(n, lams, gams, inverses)

    def denominators(self) -> list[int]:
        """The integers whose primes are not units for this group, ascending.

        The ``den`` of each generator and of each stored inverse (the lcm of
        its entries' denominators, so with the same primes), leaving out 1.
        Reduction modulo q is defined on every generator and every inverse
        exactly when q divides none of them.
        """
        dens = {m.den for m in self.lambda_gens + self.gamma_gens + self.inverses}
        dens.discard(1)
        return sorted(dens)


class ResidueEvidence(Frozen):
    """One cyclotomic factor ``Phi_d`` shown distinct from ``(t-1)^phi(d)`` modulo q."""

    __slots__ = ("polynomial", "polynomial_mod_q", "unipotent_mod_q")

    @property
    def distinct(self) -> bool:
        return self.polynomial_mod_q != self.unipotent_mod_q


class SelbergCertificate(Frozen):
    """Choice of congruence prime together with the evidence justifying it.

    ``bad_primes`` maps each prime below ``prime`` to the reasons it was
    passed over (:func:`bad_primes`); it is given as a mapping or as its
    ``(prime, reasons)`` pairs and kept as the tuple of those pairs sorted
    by prime, so a certificate hashes by value.
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
    """The primes 2, 3, 5, ... tried in order up to the first good one,
    each with the reasons it was passed over; the good one is left out.

    A prime is passed over when it is at most ``n`` (small residue
    characteristic); when it divides an integer of
    :meth:`MatrixGroupInput.denominators`, tested by division (no integer
    is factored), so it is not a unit in a generator or a stored inverse
    and reduction is undefined there; or when it is at most ``n + 1``,
    modulo which some degree-n torsion polynomial collapses onto
    ``(t-1)^n``. Modulo p, ``Phi_{p^k m} = Phi_m^{phi(p^k)}`` for p not
    dividing m and ``Phi_m(1) != 0`` for m > 1, so a product of cyclotomic
    polynomials is ``(t-1)^n`` exactly when every factor has p-power order.
    A torsion polynomial has a factor of order > 1, so if it collapses,
    that factor is some ``Phi_{p^k}`` with k >= 1, of degree at least
    ``p - 1``, and ``p <= n + 1``. Conversely, ``Phi_p Phi_1^{n-p+1}``
    collapses for every prime ``p <= n + 1``.
    """
    n = group_input.n
    dens = group_input.denominators()
    bad = {}
    for p in filter(is_prime, count(2)):
        reasons = tuple(compress(
            (REASON_COEFFICIENT_DIVISOR, REASON_DENOMINATOR, REASON_SMALL_CHARACTERISTIC),
            (p <= n + 1, any(d % p == 0 for d in dens), p <= n),
        ))
        if not reasons:
            return bad
        bad[p] = reasons


def good_prime(group_input: MatrixGroupInput) -> SelbergCertificate:
    """Smallest prime admissible for the congruence-subgroup construction.

    Checks that every unipotent generator really has characteristic
    polynomial ``(t-1)^n`` (``UnipotentViolation`` otherwise), takes the
    prime at which :func:`bad_primes` stopped, and records the residue
    evidence that each cyclotomic factor ``Phi_d``, ``1 < d``,
    ``phi(d) <= n``, stays distinct from ``(t-1)^phi(d)`` modulo that
    prime. The prime is not checked again here, since no check could
    fail: the walk passes over every prime at most ``n + 1``, exactly the
    primes modulo which some factor collapses, and every prime dividing an
    integer of :meth:`MatrixGroupInput.denominators`, so the prime it stops
    at is above ``n + 1`` and a unit for the group (the evidence records
    the distinct residues, and :func:`verify_certificate` re-checks the
    conclusion on demand). Factorization in ``F_q[t]`` is unique, so no
    torsion polynomial collapses onto ``(t-1)^n`` either. Reduction modulo
    the certified prime therefore separates the unipotent subgroup from all
    nontrivial torsion, so its congruence preimage is torsion free, has
    finite index, and contains the unipotent subgroup.
    """
    n = group_input.n
    for m in group_input.gamma_gens:
        if not is_unipotent(m):
            raise UnipotentViolation(
                f"generator has characteristic polynomial {char_poly(m)}, "
                f"expected {unipotent_polynomial(n)}"
            )
    bad = bad_primes(group_input)
    q = next(filter(is_prime, count(max(bad, default=1) + 1)))  # where the walk stopped
    return SelbergCertificate(n, q, _cyclotomic_factors(n), bad, _residue_evidence(n, q))


def _letter_product(w: Matrix, g: Matrix, g_nonzeros: tuple) -> Matrix:
    """``w g``, for ``g_nonzeros = _nonzeros(g.num)`` prepared once per letter:
    every product :func:`verify_certificate` forms, in one place a test can count."""
    return Matrix.from_integer_rows(_sparse_product(w.num, g_nonzeros, g.cols), w.den * g.den)


def verify_certificate(
    group_input: MatrixGroupInput,
    certificate: SelbergCertificate,
    word_length: int = 6,
) -> bool:
    """Brute-force falsifier for a certificate.

    Enumerates the products of the ambient generators and their stored
    inverses (none is computed here) up to the given word length L, breadth
    first over the distinct letters other than ``-I``, in a fixed order; a
    word never appends the letter that cancels its last one, since that
    product is already in the ball. ``-I`` is central and its own inverse,
    so it adds only the negations of the words of length below L. Each
    letter's nonzero entries are listed once per call, and every product
    ``w g`` the search forms runs over them alone (:func:`_letter_product`).

    One word per rotation class is judged. A counterexample is a property
    of a conjugacy class (conjugates share their characteristic polynomial
    and their order), and ``a_1 ... a_l`` is conjugate by ``a_1`` to
    ``a_2 ... a_l a_1``, so each word appends only letters no smaller than
    its first. That is sound under the dedup by value, which keeps each
    element's first word in length-then-letter order: in each conjugacy
    class that meets the ball, take the elements of least length, and among
    them the one whose first word c is least. c starts at its least letter,
    or its rotation to that letter would be a word no longer than c of a
    conjugate, and smaller. Every prefix of c is the first word of its
    value and starts at its least letter too, so the search keeps each
    prefix in turn and reaches c. An emptied frontier then means that every
    longer word is conjugate to one already judged.

    The search is decided once, before any product. With k letters, at most
    ``B(L) = 1 + sum_{1<=l<=L} k (k-1)^(l-1)`` words have length at most L.
    When ``B(L)``, plus ``B(L-1)`` negations with ``-I``, fits
    ``MAX_WORD_BALL``, nothing can be refused: the words are pruned by their
    least letter, nothing is counted, and the outer shell stays unformed.
    Otherwise every letter is appended and every level formed, the shell
    included, and the words and negations are counted in one set that starts
    as ``{I}``, so the cap counts distinct elements exactly.

    q is refused up front unless it is a unit in every generator and
    inverse, so it is prime to every denominator the verifier meets: that
    of each ball element, of each shell product ``D`` below and of each
    characteristic polynomial. Each element E is then judged by its
    characteristic polynomial ``det(tI - E)`` modulo q:

    - *Trace screen.* Its coefficient ``n-1`` is ``-tr E``, and E passes
      without its polynomial being computed in two cases. A trace not
      congruent to n makes the residue differ from that of ``(t-1)^n``. A
      trace of exactly n means infinite order: a rational matrix of finite
      order is diagonalizable with roots of unity as eigenvalues, n of
      them sum to n only when all are 1, so E would be I, which is no
      counterexample. This screens out every unipotent element.
    - *Second screen.* Its coefficient ``n-2`` is
      ``e2(E) = (tr(E)^2 - tr(E^2)) / 2`` and that of ``(t-1)^n`` is
      ``C(n, 2)``. On the integer rows ``N = den E``,
      ``T^2 - sum N_ik N_ki`` is even, with T the trace of N, so
      ``e2(N) = den^2 e2(E)`` is an exact integer, and E passes when it
      differs from ``C(n, 2) den^2`` modulo q (den is a unit).
    - *Negations.* ``tr(-w) = -tr(w)`` and ``e2(-w) = e2(w)``, so each word
      w whose negation is in the ball is judged on both signs from its own
      numbers; ``-w`` is formed only when neither screen clears it, or when
      the ball is counted.
    - *Outer shell.* When the bound fits the cap and L >= 2, the words of
      length L stay unformed: at the last level of the search each word w
      and letter g are screened on ``D tr(wg) = sum W_ik G_ki``, with
      ``D = den w den g``. ``D (tr - n)`` is a unit times
      ``den(wg) (tr - n)`` modulo q, so the verdict is the reduced one;
      an uncleared pair is formed and judged.
    - *Exact polynomial.* Every element that clears neither screen gets its
      polynomial, once; a residue unlike that of ``(t-1)^n`` passes.
    - *Finite-order test.* A residue that collapses onto the unipotent one
      is a counterexample when E has finite order, and then every
      eigenvalue has q-power order (:func:`bad_primes`) and E is
      diagonalizable. So E has finite order exactly when ``E^(q^K) = I``,
      for ``q^K`` the largest power of q with ``phi(q^K) <= n``. K is 0
      at every prime above ``n + 1``, so no power is taken there.

    Returns False, before enumerating, when q is not a unit for the group
    (it divides an integer of :meth:`MatrixGroupInput.denominators`, so
    reduction is undefined on a generator or an inverse); otherwise False on
    any counterexample, True when there is none. A verifier, not a prover:
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
        return False  # reduction modulo q is undefined on a generator or an inverse
    n = group_input.n
    unipotent_mod = unipotent_polynomial(n).reduce_mod(q)
    pairs = comb(n, 2)  # coefficient n-2 of (t-1)^n
    order = 1  # q^K, the largest power of q with phi(q^K) <= n
    while (q - 1) * order <= n:  # phi(q * order) = (q - 1) order
        order *= q
    identity = Matrix.identity(n)

    # Distinct letters other than -I and the index of each inverse.
    inverse = {}
    for m, m_inverse in zip(group_input.lambda_gens, group_input.inverses):
        inverse[m], inverse[m_inverse] = m_inverse, m
    negates = inverse.pop(-identity, None) is not None
    letters = list(inverse)
    k = len(letters)
    cancel = [letters.index(inverse[g]) for g in letters]
    columns = [sum(zip(*g.num), ()) for g in letters]  # G flattened column-major
    rows = [_nonzeros(g.num) for g in letters]  # G's nonzero entries by row, for w g

    # B(L), plus B(L-1) with -I, decides the search once: when it fits the cap
    # nothing can be refused, so nothing is counted (ball is None); otherwise
    # every level is formed and the ball counted exactly.
    bound, size = (2 if negates and word_length else 1), 1
    for length in range(1, word_length + 1):
        size *= k if length == 1 else k - 1
        bound += size * (2 if negates and length < word_length else 1)
        if not size or bound > MAX_WORD_BALL:
            break
    ball = None if bound <= MAX_WORD_BALL else {identity}

    def count(elements: Iterable[Matrix]) -> None:
        ball.update(elements)
        if len(ball) > MAX_WORD_BALL:
            raise ValueError(
                f"words of length {word_length} exceed MAX_WORD_BALL = {MAX_WORD_BALL} elements"
            )

    def cleared(gap: int):  # the trace screen on gap = den (tr - n)
        return gap % q or not gap  # a residue unlike (t-1)^n, or infinite order

    def collapses(element: Matrix) -> bool:  # a counterexample, by polynomial and power
        return char_poly(element).reduce_mod(q) == unipotent_mod and element ** order == identity

    def passes(w: Matrix, both: bool = False) -> bool:  # w passes, and -w too when both
        num, den = w.num, w.den
        trace = sum(row[i] for i, row in enumerate(num))
        plus = cleared(trace - n * den)
        minus = not both or cleared(-trace - n * den)
        if plus and minus:
            return True
        square = sum(map(mul, sum(num, ()), sum(zip(*num), ())))  # tr(num^2)
        if ((trace * trace - square) // 2 - pairs * den * den) % q:
            return True  # the second screen, on e2(num) = e2(-num)
        return (plus or not collapses(w)) and (minus or not collapses(-w))

    words = {identity}  # products of the letters, the only dedup of the search
    negated = []  # with -I, the words of length below L, whose negations are in the ball
    # (word, index of the letter undoing its last, of the first letter it may append)
    frontier = [(identity, -1, 0)]
    for length in range(word_length):
        if not frontier:
            break  # no new word: every longer one repeats or is conjugate to one judged
        if negates:
            level = [w for w, _, _ in frontier]
            negated += level
            if ball is not None:
                count(map(neg, level))
        shell = ball is None and 0 < length == word_length - 1  # the outer shell, unformed
        fresh = []
        for w, undo, first in frontier:
            flat = shell and sum(w.num, ())  # W flattened row-major, for the shell's pairings
            for i in range(first, k):
                if i == undo:
                    continue
                g = letters[i]
                if shell:  # D tr(wg) = sum W_ik G_ki, D = den w den g
                    gap = sum(map(mul, flat, columns[i])) - n * w.den * g.den
                    if not (cleared(gap) or passes(_letter_product(w, g, rows[i]))):
                        return False  # an uncleared pair, formed and judged in full
                    continue
                element = _letter_product(w, g, rows[i]) if length else g  # length one: g
                if element not in words:
                    words.add(element)
                    fresh.append((element, cancel[i], i if ball is None and not length else first))
                    if ball is not None:
                        count((element,))
        frontier = fresh
    # the words whose negations are not in the ball
    plain = [w for w, _, _ in frontier] if negates else words
    return all(passes(w, True) for w in negated) and all(map(passes, plain))
