"""Conjugate presentations go through every leg of the pipeline.

Each catalog group of dimension at least 2 is conjugated by an affine map
``phi = (Q, shift)`` and its shape, the holonomy average of the identity
rationalized at bound 1000, is carried along to ``Q^-T S Q^-1``. The
conjugate is the same flat manifold in other coordinates, so it must keep
the holonomy order and torsion-freeness, the carried form must be an
arithmetic shape for it, and the embedding, integralization, verification
and certificate legs must pass. A unimodular ``Q`` with no shift keeps the
integralization scale.

The legs integralize by hyperbolic conjugation in the given coordinates,
which needs integral linear parts: a conjugate whose holonomy matrices
have fractional entries raises ``ValueError`` there, and those cases are
strict expected failures until the legs work in lattice coordinates.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from flatcusps.bieberbach import (
    AffineMap,
    BieberbachGroup,
    catalog,
    catalog_names,
    holonomy,
    is_torsion_free,
)
from flatcusps.density import _pipeline_legs
from flatcusps.exactlin import Matrix, SymmetricForm
from flatcusps.lorentz import embed_group, integralize, verify_embedding
from flatcusps.shapes import ShapeDescriptor, is_arithmetic_shape, rationalize
from oracles import transpose


def _shear(n):
    """``I + e_01``, in ``GL(n, Z)``."""
    return [[int(i == j or (i, j) == (0, 1)) for j in range(n)] for i in range(n)]


def _det_two(n):
    """The shear with ``Q[0][0] = 2``: integral, of determinant 2."""
    rows = _shear(n)
    rows[0][0] = 2
    return rows


def _rational(n):
    """The identity with ``Q[0][0] = 1/3`` and ``Q[1][0] = 1``."""
    rows = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    rows[0][0], rows[1][0] = F(1, 3), F(1)
    return rows


CONJUGATORS = {"shear": _shear, "det-2": _det_two, "rational": _rational}
SHIFTS = ("0", "1/5")
NAMES = [name for name in catalog_names() if catalog(name).dim >= 2]

# The holonomy matrices of these conjugates have fractional entries, which
# hyperbolic conjugation cannot clear.
FRACTIONAL = {
    (name, q)
    for name in ("third-turn", "quarter-turn", "sixth-turn")
    for q in ("det-2", "rational")
}

CASES = [
    pytest.param(
        name, q, shift,
        id=f"{name}-{q}-{shift}",
        marks=[pytest.mark.xfail(
            strict=True,
            raises=ValueError,
            reason="ROADMAP item 1: the legs integralize in the given basis, "
            "where this conjugate has fractional linear parts",
        )] if (name, q) in FRACTIONAL else [],
    )
    for name in NAMES
    for q in CONJUGATORS
    for shift in SHIFTS
]


def conjugate(group, q, shift):
    """The conjugate ``phi g phi^-1`` of each generator, for ``phi = (Q,
    shift)`` with ``shift = (shift, 0, ..., 0)``, and ``Q``."""
    n = group.dim
    phi = AffineMap(Matrix(CONJUGATORS[q](n)), [F(shift)] + [0] * (n - 1))
    inverse = phi.inverse()
    return BieberbachGroup([phi * g * inverse for g in group.generators]), phi.linear


def public_chain_passes(group, shape):
    """The integralization scale of ``embed_group`` and ``integralize``,
    whose outputs must both verify."""
    embedding = embed_group(group, shape)
    assert verify_embedding(embedding).overall
    integral, c = integralize(embedding)
    assert verify_embedding(integral).overall
    return c


@pytest.mark.parametrize("name, q, shift", CASES)
def test_conjugate_goes_through_every_leg(name, q, shift):
    group = catalog(name)
    theta = holonomy(group)
    shape = rationalize(SymmetricForm.identity(group.dim), theta, 1000)
    conjugated, linear = conjugate(group, q, shift)
    inverse = linear.inverse()
    carried = ShapeDescriptor(
        conjugated, SymmetricForm(transpose(inverse) * shape.form.matrix * inverse)
    )

    assert holonomy(conjugated).order == theta.order
    assert is_torsion_free(conjugated)
    assert is_arithmetic_shape(carried)
    prime = _pipeline_legs(conjugated, carried, True)
    assert prime is not None and prime == _pipeline_legs(group, shape, True)
    c = public_chain_passes(conjugated, carried)
    if q == "shear" and shift == "0":
        assert c == public_chain_passes(group, shape)
