"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the code paths they validate: torsion is decided
by enumerating group elements and powering them, best rational
approximations by scanning every denominator, and finite-order
characteristic polynomials via sympy companion matrices,
integralization by explicit conjugation with the hyperbolic element, and
integral solvability by Heger's determinantal criterion.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from flatcusps.bieberbach import BieberbachGroup, holonomy, translation_lattice
from flatcusps.exactlin import Matrix
from flatcusps.lorentz import LorentzModel


def brute_force_is_torsion_free(group: BieberbachGroup, box: int = 2) -> bool:
    """Enumerate elements (h, t + B l) with |l_i| <= box and check orders.

    An element over a nontrivial holonomy element h of order k is torsion
    exactly when (h, u)^k is the identity, i.e. when (I + h + ... +
    h^(k-1)) u = 0. Finds any torsion element whose lattice offset lies in
    the search box.
    """
    theta = holonomy(group)
    lattice = translation_lattice(group, theta)
    n = group.dim
    ident = Matrix.identity(n)
    columns = lattice.columns()
    for h, witness in zip(theta.elements, theta.witnesses):
        if h == ident:
            continue
        order = theta.element_order(h)
        norm = Matrix.identity(n)
        power = h
        for _ in range(order - 1):
            norm = norm + power
            power = power * h
        for offsets in itertools.product(range(-box, box + 1), repeat=n):
            u = list(witness.translation)
            for coeff, col in zip(offsets, columns):
                for i in range(n):
                    u[i] += coeff * col[i]
            if all(x == 0 for x in norm.matvec(u)):
                return False
    return True


def brute_best_rational(x: Fraction, max_denominator: int) -> tuple[Fraction, Fraction]:
    """Scan all denominators up to the bound; return (best, error)."""
    best = None
    best_error = None
    for q in range(1, max_denominator + 1):
        scaled = x * q
        floor = scaled.numerator // scaled.denominator
        for p in (floor, floor + 1):
            candidate = Fraction(p, q)
            error = abs(x - candidate)
            if best_error is None or error < best_error:
                best, best_error = candidate, error
    return best, best_error


def sympy_finite_order_char_polys(n: int) -> set[tuple[int, ...]]:
    """Characteristic polynomials of finite-order elements of GL(n, Q).

    Built independently with sympy: enumerate multisets of cyclotomic
    polynomials of total degree n, realize each as a block-diagonal
    companion matrix, confirm by explicit powering that the matrix has
    finite order, and take sympy's characteristic polynomial. Polynomials
    are returned as ascending coefficient tuples; the all-ones multiset
    (the unipotent polynomial) is kept, so callers exclude it as needed.
    """
    import sympy

    orders = [d for d in range(1, 2 * n * n + 2) if sympy.totient(d) <= n]

    def multisets(remaining, start):
        if remaining == 0:
            yield ()
            return
        for i in range(start, len(orders)):
            d = orders[i]
            deg = int(sympy.totient(d))
            if deg <= remaining:
                for rest in multisets(remaining - deg, i):
                    yield (d,) + rest

    out = set()
    t = sympy.Symbol("t")
    for multiset in multisets(n, 0):
        blocks = []
        for d in multiset:
            poly = sympy.Poly(sympy.cyclotomic_poly(d, t), t)
            blocks.append(sympy.Matrix(poly.degree(), poly.degree(),
                                       lambda i, j, p=poly: _companion_entry(p, i, j)))
        m = sympy.diag(*blocks)
        import math

        lcm_order = math.lcm(*multiset)
        assert m**lcm_order == sympy.eye(m.rows), "companion block is not finite order"
        cp = sympy.Poly(m.charpoly(t).as_expr(), t)
        coeffs = tuple(int(c) for c in reversed(cp.all_coeffs()))
        out.add(coeffs)
    return out


def _companion_entry(poly, i, j):
    deg = poly.degree()
    coeffs = poly.all_coeffs()  # descending, monic
    if j == deg - 1:
        return -coeffs[deg - i]
    return 1 if i == j + 1 else 0


def hyperbolic_conjugator(model: LorentzModel, c: int) -> Matrix:
    """Form-preserving map acting as identity on the complement and scaling
    ``v_inf`` by ``c`` (and ``v_0`` by ``1/c``)."""
    if c < 1:
        raise ValueError("the scale must be a positive integer")
    p = Fraction(c * c + 1, 2 * c)
    q = Fraction(c * c - 1, 2 * c)
    block = Matrix([[p, q], [q, p]])
    return Matrix.block_diag(Matrix.identity(model.n), block)


def _leibniz_det(m) -> int:
    total = 0
    for perm in itertools.permutations(range(len(m))):
        term = math.prod(m[i][p] for i, p in enumerate(perm))
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += -term if inversions % 2 else term
    return total


def _rank_and_minor_gcd(rows) -> tuple[int, int]:
    """Rank r and the gcd of all r x r minors of an integer matrix."""
    for r in range(min(len(rows), len(rows[0])), 0, -1):
        g = math.gcd(
            *(
                _leibniz_det([[rows[i][j] for j in cs] for i in rs])
                for rs in itertools.combinations(range(len(rows)), r)
                for cs in itertools.combinations(range(len(rows[0])), r)
            )
        )
        if g:
            return r, g
    return 0, 1


def heger_has_integer_solution(a_rows, b) -> bool:
    """Integral solvability of ``A x = b`` by Heger's criterion.

    With r = rank A, the system is solvable over the integers exactly when
    ``[A | b]`` also has rank r and the gcd of its r x r minors equals that
    of A (Lazebnik, "On systems of linear Diophantine equations", Math.
    Mag. 69 (1996)). Minors are Leibniz expansions, so no elimination is
    shared with the library.
    """
    augmented = [list(row) + [x] for row, x in zip(a_rows, b)]
    return _rank_and_minor_gcd(a_rows) == _rank_and_minor_gcd(augmented)
