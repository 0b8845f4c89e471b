"""Flat-metric descriptors and rational approximation in the invariant cone.

A shape is an exact, holonomy-invariant, positive definite Gram matrix on
the ambient space of a fixed group; such a form makes the group an
arithmetic subgroup of a rationally defined orthogonal affine group, which
is exactly what :func:`is_arithmetic_shape` tests on the generators. A
target metric is exact too: a decimal entry is the value of its double,
a dyadic rational. :func:`rationalize` pulls it into this cone: average over the
holonomy, round each entry to the best rational approximation with
bounded denominator, then average again to restore exact invariance.
:func:`_rounded_forms` rounds at a whole ladder of bounds with one walk
per entry. Only :func:`_float_view` turns entries into doubles.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add, mul
from typing import Iterable, Sequence

from .bieberbach import BieberbachGroup, HolonomyGroup, theta_average
from .errors import DimensionMismatch, NotPositiveDefinite
from .exactlin import Frozen, Matrix, SymmetricForm, _matrix, is_positive_definite, preserves_form


def _dyadic_form(rows: Sequence[Sequence[float]]) -> SymmetricForm:
    """The exact form of symmetric rows of finite doubles. Each double is a
    dyadic rational, so the largest denominator is the rows' common one."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    den = max(q for row in ratios for _, q in row)
    num = tuple(tuple(p * (den // q) for p, q in row) for row in ratios)
    return SymmetricForm(Matrix.from_integer_rows(num, den))


class ShapeDescriptor(Frozen):
    """A group together with an exact Gram matrix for a flat metric on it.

    Valid descriptors carry a positive definite form that is exactly
    invariant under the group's holonomy. Construction does not enforce
    this (so that the test below has something to reject); use
    :func:`is_arithmetic_shape` to check, and :func:`rationalize` to build
    descriptors that satisfy it by construction.
    """

    __slots__ = ("group", "form")

    def __init__(self, group: BieberbachGroup, form: SymmetricForm):
        if form.dim != group.dim:
            raise DimensionMismatch(
                f"form dimension {form.dim} does not match group dimension {group.dim}"
            )
        super().__init__(group, form)

    def __repr__(self) -> str:
        return f"ShapeDescriptor({self.group!r}, {self.form!r})"


def _limit_denominators(num: int, den: int, bounds: Sequence[int]) -> list[tuple[int, int]]:
    """The pair ``(p, q)`` of ``Fraction(num, den).limit_denominator(b)``
    for each of the strictly increasing ``bounds``, from one walk.

    ``den`` is positive and every bound at least 1. The same walk as the
    standard library's, on ints only: reduce ``num / den``, follow its
    continued-fraction convergents while the denominator stays within a
    bound, then choose between the last convergent ``p1 / q1`` and the
    semiconvergent ``(p0 + k p1) / (q0 + k q1)``. They lie on either side
    of ``num / den``, ``1 / (q1 q)`` apart with ``q`` the semiconvergent's
    denominator, and the convergent is ``d / (q1 den)`` from ``num / den``,
    with ``d`` the last remainder; so the convergent is at least as close
    exactly when ``2 d q <= den``, and it wins ties. Each bound resumes the
    walk where the smaller one stopped; at its end, where ``d`` is 0, the
    last convergent is ``num / den`` itself.
    """
    g = math.gcd(num, den)
    num, den = num // g, den // g
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    out = []
    for bound in bounds:
        while d:
            a = n // d
            q2 = q0 + a * q1
            if q2 > bound:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
            n, d = d, n - a * d
        k = (bound - q0) // q1
        q = q0 + k * q1
        out.append((p1, q1) if 2 * d * q <= den else (p0 + k * p1, q))
    return out


def _rounded_forms(form: SymmetricForm, bounds: Sequence[int]) -> list[SymmetricForm]:
    """``form`` with each entry rounded by :func:`_limit_denominators`, at
    each of the strictly increasing ``bounds``: one walk per upper-triangle
    entry, mirrored, and each rounded form on integer rows over its lcm. A
    pair is in lowest terms, as ``p_k q_{k-1} - p_{k-1} q_k = ±1`` for
    convergents and semiconvergents alike, so at each prime the entry whose
    ``q`` carries the lcm's full power is a unit: the rows need no gcd."""
    num, den = form.matrix.num, form.matrix.den
    upper = [[_limit_denominators(x, den, bounds) for x in row[i:]] for i, row in enumerate(num)]
    walks = [[upper[j][i - j] for j in range(i)] + upper[i] for i in range(form.dim)]
    forms = []
    for r in range(len(bounds)):
        pairs = [[walk[r] for walk in row] for row in walks]
        lcm = math.lcm(*(q for row in pairs for _, q in row))
        rows = tuple(tuple(p * (lcm // q) for p, q in row) for row in pairs)
        forms.append(SymmetricForm(_matrix(rows, lcm)))
    return forms


def rationalize(
    target: SymmetricForm, theta: HolonomyGroup, denom_bound: int
) -> ShapeDescriptor:
    """Arithmetic shape approximating a target metric.

    The exact target is averaged over the holonomy, each entry of the
    average is rounded to the best rational with denominator at most
    ``denom_bound`` (:func:`_rounded_forms`), and the rounded matrix is
    averaged again so invariance holds exactly. Before the final average
    each entry is within ``1/denom_bound`` of the averaged target; the
    average is exact, so an invariant target is its own average.
    ``DimensionMismatch`` is raised for a target of the wrong size, and
    ``NotPositiveDefinite`` when the target is not positive definite, or
    when rounding destroys definiteness; callers should then retry with a
    larger bound.
    """
    if denom_bound < 1:
        raise ValueError("denominator bound must be at least 1")
    # theta_average raises for a target of the wrong size or one that is
    # not positive definite
    [rounded] = _rounded_forms(theta_average(target, theta), (denom_bound,))
    return ShapeDescriptor(theta.group, theta_average(rounded, theta))


def _entries_as_floats(form: SymmetricForm) -> tuple[int, list[list[float]]]:
    """Entries of a positive definite form as doubles, a dyadic target's bit
    for bit; ``ValueError`` when an entry exceeds the range of a double."""
    if not is_positive_definite(form):
        raise NotPositiveDefinite("form is not positive definite")
    # int / int is correctly rounded, so x / den is float(Fraction(x, den))
    den = form.matrix.den
    try:
        return form.dim, [[x / den for x in row] for row in form.matrix.num]
    except OverflowError:
        raise ValueError("a form entry exceeds the range of a double") from None


def _float_sum(values: Iterable[float]) -> float:
    """Left-to-right sum of doubles. ``sum`` compensates its rounding from
    Python 3.12 on, which moves the last digits of distances and targets."""
    return reduce(add, values, 0.0)


def _frobenius(entries: Sequence[Sequence[float]]) -> float:
    flat = [x for row in entries for x in row]
    return math.sqrt(_float_sum(map(mul, flat, flat)))


def _with_norm(entries: list[list[float]]) -> tuple[list[list[float]], float]:
    """Entries and their Frobenius norm, finite and nonzero. Only when the
    squares overflow or underflow are the entries first scaled by ``2**-e``,
    ``e`` the exponent of the largest; a power of two changes no digit of a
    scale-free distance, and every other form keeps its plain norm."""
    norm = _frobenius(entries)
    if norm == 0 or not math.isfinite(norm):
        _, e = math.frexp(max(abs(x) for row in entries for x in row))
        entries = [[math.ldexp(x, -e) for x in row] for row in entries]
        norm = _frobenius(entries)
    return entries, norm


def shape_distance(a: SymmetricForm, b: SymmetricForm) -> float:
    """Scale-free Frobenius distance between two positive definite forms.

    This is where a form's entries become doubles, each the double nearest
    its exact value. Each matrix is scaled to unit Frobenius norm first, so
    the distance is zero exactly when the forms are positive scalar
    multiples of each other; a norm whose squares leave the range of a
    double is taken after an exact scaling by a power of two. It is a
    basis-dependent distance between unit-normalized Gram matrices: it
    compares the forms in the basis they are written in and quotients by
    no change of basis, so it is not a distance between similarity classes.
    """
    return _view_distance(_float_view(a), _float_view(b))


def _float_view(form: SymmetricForm) -> tuple[int, list[list[float]], float]:
    """What :func:`shape_distance` reads of a form: its dimension, its
    entries as doubles and their Frobenius norm, as :func:`_with_norm`
    gives them."""
    dim, entries = _entries_as_floats(form)
    return (dim, *_with_norm(entries))


def _view_distance(a: tuple, b: tuple) -> float:
    """:func:`shape_distance` between the float views of two forms."""
    (dim_a, ea, na), (dim_b, eb, nb) = a, b
    if dim_a != dim_b:
        raise DimensionMismatch(f"dimensions {dim_a} and {dim_b} differ")
    return math.sqrt(
        _float_sum(
            (x / na - y / nb) ** 2
            for row_a, row_b in zip(ea, eb)
            for x, y in zip(row_a, row_b)
        )
    )


def is_arithmetic_shape(shape: ShapeDescriptor) -> bool:
    """Whether the descriptor's form defines an arithmetic structure.

    True exactly when the form is rational (always, by the type), positive
    definite, and exactly invariant under the group's holonomy: then the
    stabilized orthogonal affine group is rationally defined and contains
    the group as an arithmetic subgroup. The generators' linear parts
    generate the holonomy, so invariance is decided on them, and the
    holonomy is not computed: linear parts of infinite order that preserve
    the form pass here, and only :func:`holonomy` rejects them.
    """
    if not is_positive_definite(shape.form):
        return False
    return all(preserves_form(g.linear, shape.form.matrix) for g in shape.group.generators)
