"""Flat-metric descriptors and rational approximation in the invariant cone.

A shape is an exact, holonomy-invariant, positive definite Gram matrix on
the ambient space of a fixed group; such a form makes the group an
arithmetic subgroup of a rationally defined orthogonal affine group, which
is exactly what :func:`is_arithmetic_shape` tests on the generators. A
target metric is exact too: the form of its doubles, which are dyadic
rationals. :func:`rationalize` pulls it into this cone: average over the
holonomy, round each entry to the best rational approximation with
bounded denominator, then average again to restore exact invariance.
Only :func:`shape_distance` turns entries into doubles.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Iterable, Sequence

from .bieberbach import BieberbachGroup, HolonomyGroup, theta_average
from .errors import DimensionMismatch, NotPositiveDefinite
from .exactlin import Frozen, Matrix, SymmetricForm, is_positive_definite, preserves_form


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


def _limit_denominator(num: int, den: int, bound: int) -> tuple[int, int]:
    """The pair ``(p, q)`` of ``Fraction(num, den).limit_denominator(bound)``.

    ``den`` is positive and ``bound`` at least 1. The same walk as the
    standard library's, on ints only: reduce ``num / den``, follow its
    continued-fraction convergents while the denominator stays within the
    bound, then choose between the last convergent ``p1 / q1`` and the
    semiconvergent ``(p0 + k p1) / (q0 + k q1)``. They lie on either side
    of ``num / den``, ``1 / (q1 q)`` apart with ``q`` the semiconvergent's
    denominator, and the convergent is ``d / (q1 den)`` from ``num / den``,
    with ``d`` the last remainder; so the convergent is at least as close
    exactly when ``2 d q <= den``, and it wins ties. Without the gcd an unreduced pair
    would run the expansion out before the bound and divide by zero.
    """
    g = math.gcd(num, den)
    num, den = num // g, den // g
    if den <= bound:
        return num, den
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > bound:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (bound - q0) // q1
    q = q0 + k * q1
    if 2 * d * q <= den:
        return p1, q1
    return p0 + k * p1, q


def rationalize(
    target: SymmetricForm, theta: HolonomyGroup, denom_bound: int
) -> ShapeDescriptor:
    """Arithmetic shape approximating a target metric.

    The exact target is averaged over the holonomy, each entry of the
    average is rounded to the best rational with denominator at most
    ``denom_bound``, and the rounded matrix is averaged again so
    invariance holds exactly. Before the final average each entry is within
    ``1/denom_bound`` of the averaged target.
    A target that is already an arithmetic shape for the group
    (:func:`is_arithmetic_shape`, decided on the generators), such as the
    output of :func:`theta_average`, is its own average and is rounded as it is.
    ``DimensionMismatch`` is raised for a target of the wrong size, and
    ``NotPositiveDefinite`` when the target is not positive definite, or
    when rounding destroys definiteness; callers should then retry with a
    larger bound.
    """
    if denom_bound < 1:
        raise ValueError("denominator bound must be at least 1")
    # ShapeDescriptor raises for a target of the wrong size, theta_average
    # for one that is not positive definite
    if is_arithmetic_shape(ShapeDescriptor(theta.group, target)):
        averaged = target
    else:
        averaged = theta_average(target, theta)
    # round the upper triangle on the integer rows and mirror it
    m = averaged.matrix
    n, num, den = m.rows, m.num, m.den
    pairs = [[(0, 1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            pairs[i][j] = pairs[j][i] = _limit_denominator(num[i][j], den, denom_bound)
    lcm = math.lcm(*(q for row in pairs for _, q in row))
    rows = tuple(tuple(p * (lcm // q) for p, q in row) for row in pairs)
    rounded = SymmetricForm(Matrix.from_integer_rows(rows, lcm))
    invariant = theta_average(rounded, theta)
    return ShapeDescriptor(theta.group, invariant)


def _entries_as_floats(form: SymmetricForm) -> tuple[int, list[list[float]]]:
    """Entries of a positive definite form as doubles, a dyadic target's bit for bit."""
    if not is_positive_definite(form):
        raise NotPositiveDefinite("form is not positive definite")
    # int / int is correctly rounded, so x / den is float(Fraction(x, den))
    den = form.matrix.den
    return form.dim, [[x / den for x in row] for row in form.matrix.num]


def _float_sum(values: Iterable[float]) -> float:
    """Left-to-right sum of doubles. ``sum`` compensates its rounding from
    Python 3.12 on, which moves the last digits of distances and targets."""
    return reduce(add, values, 0.0)


def _frobenius(entries: Sequence[Sequence[float]]) -> float:
    return math.sqrt(_float_sum(x * x for row in entries for x in row))


def shape_distance(a: SymmetricForm, b: SymmetricForm) -> float:
    """Scale-free Frobenius distance between two positive definite forms.

    This is where a form's entries become doubles, each the double nearest
    its exact value. Each matrix is scaled to unit Frobenius norm first, so
    the distance is zero exactly when the forms are positive scalar
    multiples of each other. This compares ambient Gram matrices; it does
    not quotient by the affine normalizer of any group, so it is an upper
    bound for any distance between similarity classes.
    """
    dim_a, ea = _entries_as_floats(a)
    dim_b, eb = _entries_as_floats(b)
    if dim_a != dim_b:
        raise DimensionMismatch(f"dimensions {dim_a} and {dim_b} differ")
    na = _frobenius(ea)
    nb = _frobenius(eb)
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
