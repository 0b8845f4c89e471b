"""Bieberbach groups presented by rational affine generators.

A crystallographic group is handled through three derived objects: its
holonomy (the finite closure of the generators' linear parts, each element
carrying a witness word), its translation lattice, and an exact torsion
test by the norm of each cyclic subgroup of the holonomy. The translation
lattice is generated from coset-transversal (Schreier) products, so any
finite generating set of a genuine Bieberbach group recovers the full
lattice, including minimal two-generator presentations such as the
Hantzsche-Wendt group.

The three are pure functions of the immutable group value, so each is
memoized (a bounded ``functools.lru_cache``) and a group that equals an
earlier one reuses its results. The holonomy cache keeps only the witnesses,
so every :class:`HolonomyGroup` is built around the caller's own group and
carries its name. The holonomy average of forms is one linear map per
holonomy, kept the same way, keyed on the holonomy's elements.

A small catalog of verified low-dimensional flat-manifold groups is
included. Catalog entries are standard crystallographic presentations but
are never taken on faith: every entry is checked against the holonomy,
lattice, and torsion oracles when it is first built, and the checked group
is then kept for the life of the process, one per catalog entry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import (
    DimensionMismatch,
    HolonomyBound,
    InvariantViolation,
    NotPositiveDefinite,
    RankDeficient,
    UnknownName,
)
from .exactlin import (
    Frozen,
    Matrix,
    Scalar,
    SymmetricForm,
    Vector,
    has_integer_solution,
    integer_row_hermite,
    is_positive_definite,
    rat,
)

#: Default ceiling for holonomy closures. It bounds the work a presentation
#: can demand; it is not a property of point groups. Genuine ones exceed it
#: from dimension 4 on: the Weyl group W(F4), of order 1152, is a
#: crystallographic point group in dimension 4 that this default rejects.
#: Pass a larger ``max_order`` to :func:`holonomy` for such groups.
DEFAULT_MAX_ORDER = 1024

#: Entries each memoized group computation keeps; a fixed size bounds the
#: memory a long-lived process spends on many distinct groups.
_CACHE_SIZE = 128


class AffineMap(Frozen):
    """Invertible affine map ``x -> A x + t`` with rational coefficients.

    Stored as the linear part ``linear`` (a :class:`Matrix`) and the
    translation's integer numerators ``num`` over one denominator ``den``:
    ``t_i = num[i] / den``. The form is canonical, as for ``Matrix``, with
    ``den > 0`` and ``gcd(den, *num) = 1``, so equal maps have equal
    ``(linear, num, den)`` and ``==`` and ``hash`` compare those. Composition
    and inversion work on the integers and reduce their result once.
    ``translation`` (a tuple of ``Fraction``) is the view at the boundary.
    """

    __slots__ = ("linear", "num", "den")

    def __init__(self, linear, translation: Sequence[Scalar]):
        m = linear if isinstance(linear, Matrix) else Matrix(linear)
        t = [x if type(x) is int else rat(x) for x in translation]
        if not m.is_square():
            raise DimensionMismatch("linear part must be square")
        if len(t) != m.rows:
            raise DimensionMismatch(
                f"translation length {len(t)} does not match dimension {m.rows}"
            )
        # the identity, a translation's linear part, needs no determinant
        if not m.is_identity() and m.det() == 0:
            raise ValueError("linear part is singular")
        # each entry is in lowest terms, so the numerators over the lcm of
        # the denominators are already canonical
        den = math.lcm(*(x.denominator for x in t))
        super().__init__(m, tuple(x.numerator * (den // x.denominator) for x in t), den)

    @staticmethod
    def identity(dim: int) -> AffineMap:
        return _affine(Matrix.identity(dim), (0,) * dim, 1)

    @staticmethod
    def translation_by(t: Sequence[Scalar]) -> AffineMap:
        return AffineMap(Matrix.identity(len(tuple(t))), t)

    @property
    def dim(self) -> int:
        return self.linear.rows

    @property
    def translation(self) -> Vector:
        """The translation as a tuple of ``Fraction``."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    def inverse(self) -> AffineMap:
        """``(A^-1, -A^-1 t)``: with ``A^-1 = Q / q``, the translation is
        ``-Q num`` over ``q den``."""
        inv = self.linear.inverse()
        shift = tuple(-sum(map(mul, row, self.num)) for row in inv.num)
        return _affine(inv, shift, inv.den * self.den)

    def is_translation(self) -> bool:
        return self.linear.is_identity()

    def is_identity(self) -> bool:
        return self.is_translation() and not any(self.num)

    def __mul__(self, other: AffineMap) -> AffineMap:
        return compose(self, other)

    def __repr__(self) -> str:
        t = ", ".join(str(x) for x in self.translation)
        return f"AffineMap({self.linear!r}, [{t}])"


def _affine(linear: Matrix, num: tuple, den: int) -> AffineMap:
    """The map ``(linear, num / den)`` in canonical form, for an invertible
    ``linear``, a tuple of ints and a positive int; nothing else is checked."""
    g = math.gcd(den, *num)
    if g != 1:
        num = tuple(x // g for x in num)
        den //= g
    obj = object.__new__(AffineMap)
    Frozen.__init__(obj, linear, num, den)
    return obj


def compose(a: AffineMap, b: AffineMap) -> AffineMap:
    """Composition ``a o b``, i.e. ``(A_a A_b, A_a t_b + t_a)``.

    With ``A_a = P / p``, ``t_b = u / e`` and ``t_a = v / f`` the
    translation is ``P u / (p e) + v / f``, formed over ``lcm(p e, f)``.
    The linear part is invertible as a product of invertible matrices.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions {a.dim} and {b.dim} differ")
    p = a.linear.den * b.den
    den = math.lcm(p, a.den)
    fp, fa = den // p, den // a.den
    shift = tuple(
        fp * sum(map(mul, row, b.num)) + fa * x for row, x in zip(a.linear.num, a.num)
    )
    return _affine(a.linear * b.linear, shift, den)


class BieberbachGroup(Frozen):
    """Candidate Bieberbach group given by affine generators.

    Construction only validates shape (consistent dimension, invertible
    linear parts). Finiteness of the holonomy, fullness of the translation
    lattice, and torsion-freeness are semantic properties checked by
    :func:`holonomy`, :func:`translation_lattice`, and
    :func:`is_torsion_free`; inputs failing them are rejected loudly there.
    """

    __slots__ = ("dim", "generators", "name", "_hash")

    def __init__(self, generators: Sequence[AffineMap], name: Optional[str] = None):
        gens = tuple(generators)
        if not gens:
            raise ValueError("a group needs at least one generator")
        dim = gens[0].dim
        if any(g.dim != dim for g in gens):
            raise DimensionMismatch("generators have inconsistent dimensions")
        super().__init__(dim, gens, name, hash((dim, gens)))

    # Own pair, so that equality and the hash ignore the name; the hash is cached.
    def __eq__(self, other) -> bool:
        if not isinstance(other, BieberbachGroup):
            return NotImplemented
        return self.dim == other.dim and self.generators == other.generators

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<BieberbachGroup{label} dim={self.dim} generators={len(self.generators)}>"


class HolonomyGroup(Frozen):
    """Finite image of a group under projection to the linear parts.

    Built from its witnesses: ``witnesses[k]`` is one affine element of the
    source group and ``elements[k]`` is its linear part, the point-group
    matrix it witnesses, so the two cannot be mispaired. :func:`holonomy`
    puts the identity witness first.
    """

    __slots__ = ("group", "witnesses", "elements")

    def __init__(self, group: BieberbachGroup, witnesses: Iterable[AffineMap]):
        witnesses = tuple(witnesses)
        super().__init__(group, witnesses, tuple(w.linear for w in witnesses))

    @property
    def dim(self) -> int:
        return self.group.dim

    @property
    def order(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"<HolonomyGroup order={self.order} dim={self.dim}>"


def holonomy(group: BieberbachGroup, max_order: int = DEFAULT_MAX_ORDER) -> HolonomyGroup:
    """Closure of the generators' linear parts under multiplication.

    Breadth-first closure starting from the identity; every discovered
    matrix keeps a witness obtained by composing generator witnesses, so
    witnesses really are elements of the group. A closure with more than
    ``max_order`` elements raises ``HolonomyBound``; such input is not
    accepted as a Bieberbach presentation. The witnesses are memoized on
    ``(group, max_order)``, and the result is built around ``group``.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    return HolonomyGroup(group, _holonomy_witnesses(group, max_order))


@lru_cache(maxsize=_CACHE_SIZE)
def _holonomy_witnesses(group: BieberbachGroup, max_order: int) -> tuple[AffineMap, ...]:
    """The witnesses of :func:`holonomy`, identity first; names play no part."""
    ident = Matrix.identity(group.dim)
    seen: dict[Matrix, AffineMap] = {ident: AffineMap.identity(group.dim)}
    # a translation maps every h to itself: skipping it keeps the witnesses and their order
    moving = [gen for gen in group.generators if not gen.linear.is_identity()]
    frontier = [ident]
    while frontier:
        fresh = []
        for h in frontier:
            witness = seen[h]
            for gen in moving:
                product = h * gen.linear
                if product not in seen:
                    if len(seen) >= max_order:
                        raise HolonomyBound(
                            f"holonomy closure exceeds max_order={max_order} elements"
                        )
                    seen[product] = compose(witness, gen)
                    fresh.append(product)
        frontier = fresh
    return tuple(seen.values())


@lru_cache(maxsize=_CACHE_SIZE)
def translation_lattice(
    group: BieberbachGroup, theta: Optional[HolonomyGroup] = None
) -> Matrix:
    """Basis of the translation subgroup, as the columns of an n x n matrix.

    The translation subgroup is the kernel of the projection onto the
    holonomy. With the holonomy witnesses as a coset transversal, Schreier's
    lemma generates it by the products ``s(h) g s(h A_g)^{-1}`` over
    transversal elements ``s(h) = (W, u)`` and generators ``g = (A, t)``.
    With ``(R, r)`` the witness of ``W A``, each product is ``(W A R^{-1},
    W t + u - r)``, the pure translation by ``W t + u - r`` because
    ``R = W A``. A generator whose linear part is I has the witness itself
    as ``(R, r)``, so its vector is ``W t``, found with no product and no
    look-up. The vectors are integer rows over one shared denominator,
    and their Hermite reduction is the basis. Inputs whose translations do
    not span raise ``RankDeficient``.
    """
    theta = theta if theta is not None else holonomy(group)
    witnesses = theta.witnesses
    generators = group.generators
    witness_for = {w.linear: w for w in witnesses}
    # every vector over one denominator: W t over W.den t.den, u and r over
    # their own (r is a witness too)
    den = math.lcm(
        *(w.den for w in witnesses),
        *(w.linear.den * g.den for w in witnesses for g in generators),
    )
    rows = []
    for witness in witnesses:
        w = witness.linear
        u = [den // witness.den * x for x in witness.num]
        for gen in generators:
            # W I = W: a translation's representative is the witness itself
            rep = witness if gen.linear.is_identity() else witness_for.get(w * gen.linear)
            if rep is None:
                raise InvariantViolation("the holonomy lacks a witness-generator product")
            fw, fr = den // (w.den * gen.den), den // rep.den
            row = tuple(
                fw * sum(map(mul, a, gen.num)) + x - fr * r
                for a, x, r in zip(w.num, u, rep.num)
            )
            if any(row):
                rows.append(row)
    # Hermite reduction commutes with scaling by a positive integer and the
    # basis Matrix takes the one gcd, so the rows are not reduced first
    basis = integer_row_hermite(rows)
    if len(basis) < group.dim:
        raise RankDeficient(
            f"translations span rank {len(basis)} < {group.dim}; input rejected"
        )
    return Matrix.from_integer_rows(tuple(zip(*basis)), den)


@lru_cache(maxsize=_CACHE_SIZE)
def is_torsion_free(
    group: BieberbachGroup,
    theta: Optional[HolonomyGroup] = None,
    lattice: Optional[Matrix] = None,
) -> bool:
    """Exact torsion test by the norm of each cyclic subgroup of the holonomy.

    If ``h`` has order ``m``, the m-th power of ``(h, s)`` is the translation
    by ``N s`` with ``N = I + h + ... + h^(m-1)``, so ``(h, s)`` has finite
    order exactly when ``N s = 0`` (Charlap, *Bieberbach Groups and Flat
    Manifolds*, 1986). The coset of a nontrivial holonomy element ``h`` with
    witness ``(h, t)`` consists of the maps ``(h, t + l)`` over lattice
    vectors ``l``, so it contains torsion exactly when ``N t ∈ N L`` (a
    lattice is symmetric under ``x -> -x``), decided on the integer rows of
    ``N (L | t)``. This is the fixed-point criterion, as ``N (I - h) = 0``
    and ``Q^n = ker(I - h) + im(I - h)`` is direct, so ``N s = 0`` exactly
    when ``s`` lies in ``im(I - h)``; an invertible ``I - h`` gives ``N = 0``
    and torsion in every coset. An element not back at the identity within
    ``|theta|`` powers has no finite order in ``theta``, and
    ``InvariantViolation`` is raised.
    """
    theta = theta if theta is not None else holonomy(group)
    lattice = lattice if lattice is not None else translation_lattice(group, theta)
    n = group.dim
    for h, witness in zip(theta.elements, theta.witnesses):
        if h.is_identity():
            continue
        norm, power = Matrix.identity(n), h
        for _ in range(theta.order):
            if power.is_identity():
                break
            norm, power = norm + power, power * h
        else:
            raise InvariantViolation("a holonomy element has no finite order in theta")
        # N (L | t) on integer rows over one denominator; scaling the
        # equations leaves their integer solutions alone
        d = math.lcm(lattice.den, witness.den)
        fl, ft = d // lattice.den, d // witness.den
        augmented = tuple(
            tuple(fl * x for x in row) + (ft * x,) for row, x in zip(lattice.num, witness.num)
        )
        system = (norm * Matrix.from_integer_rows(augmented, 1)).num
        if has_integer_solution([row[:n] for row in system], [row[n] for row in system]):
            return False
    return True


def theta_average(form: SymmetricForm, theta: HolonomyGroup) -> SymmetricForm:
    """Average ``(1/|theta|) sum_g g^T F g`` of a positive definite form.

    The result is symmetric, positive definite, and exactly invariant under
    every element of the holonomy, because right multiplication permutes
    the summands. The average is a linear map of ``F``, the Reynolds
    projection onto the forms theta fixes, held once per theta by
    :func:`_reynolds_table`: each upper-triangle entry of the result is one
    integer dot product with ``F.num``, mirrored and reduced once. Over a
    trivial holonomy the average is the form itself, returned as it is.
    """
    if form.dim != theta.dim:
        raise DimensionMismatch(
            f"form dimension {form.dim} does not match group dimension {theta.dim}"
        )
    if not is_positive_definite(form):
        raise NotPositiveDefinite("theta average requires a positive definite form")
    if theta.order == 1:
        return form
    f = form.matrix
    num = f.num
    table, den = _reynolds_table(theta.elements)
    total = [[0] * form.dim for _ in range(form.dim)]
    for i, j, terms in table:
        total[i][j] = total[j][i] = sum(c * num[k][l] for k, l, c in terms)
    return SymmetricForm(Matrix.from_integer_rows(tuple(map(tuple, total)), den * f.den))


@lru_cache(maxsize=_CACHE_SIZE)
def _reynolds_table(elements: tuple[Matrix, ...]) -> tuple[tuple, int]:
    """``(table, den)`` with ``theta_average(F)`` at ``(i, j)`` equal to
    ``sum c F_kl / den`` over the ``(k, l, c)`` of ``table``'s entry
    ``(i, j, terms)``, for ``i <= j`` and ``k <= l``. With ``L`` the lcm of
    the elements' denominators, ``den = |theta| L^2`` and ``c`` is the
    integer ``sum_g (L / den g)^2 (g_ki g_lj + g_li g_kj)`` on ``g.num``,
    the second product only when ``k != l``; a ``c`` that cancels to 0 is
    left out. Each element is read through the nonzero entries of its
    columns, so a signed permutation costs one product per output entry.
    """
    n = elements[0].rows
    lcm = math.lcm(*(g.den for g in elements))
    sums: dict[tuple, dict] = {(i, j): {} for i in range(n) for j in range(i, n)}
    for g in elements:
        weight = (lcm // g.den) ** 2
        columns = [[(k, x) for k, x in enumerate(column) if x] for column in zip(*g.num)]
        for (i, j), acc in sums.items():
            for k, x in columns[i]:
                for l, y in columns[j]:
                    # g_ki F_kl g_lj, and F_kl = F_lk
                    if k <= l:
                        acc[k, l] = acc.get((k, l), 0) + weight * x * y
                    else:
                        acc[l, k] = acc.get((l, k), 0) + weight * x * y
    return tuple(
        (i, j, tuple((k, l, c) for (k, l), c in acc.items() if c)) for (i, j), acc in sums.items()
    ), len(elements) * lcm * lcm


# ---------------------------------------------------------------------------
# Catalog of verified low-dimensional flat-manifold groups
# ---------------------------------------------------------------------------


_HALF = Fraction(1, 2)


def _torus_generators(n: int) -> list[AffineMap]:
    ident = Matrix.identity(n)
    return [
        AffineMap(ident, [1 if j == i else 0 for j in range(n)]) for i in range(n)
    ]


def _klein_generators() -> list[AffineMap]:
    return [
        AffineMap(Matrix.identity(2), [0, 1]),
        AffineMap(Matrix.diagonal([1, -1]), [_HALF, 0]),
    ]


def _turn_generators(block: Sequence[Sequence[int]], shift: Fraction) -> list[AffineMap]:
    """A screw motion by ``block`` about the third axis, then two unit translations."""
    ident = Matrix.identity(3)
    screw = Matrix([list(block[0]) + [0], list(block[1]) + [0], [0, 0, 1]])
    return [
        AffineMap(screw, [0, 0, shift]),
        AffineMap(ident, [1, 0, 0]),
        AffineMap(ident, [0, 1, 0]),
    ]


def _hantzsche_wendt_generators() -> list[AffineMap]:
    return [
        AffineMap(Matrix.diagonal([1, -1, -1]), [_HALF, _HALF, 0]),
        AffineMap(Matrix.diagonal([-1, 1, -1]), [0, _HALF, _HALF]),
    ]


def _amphicosm_generators(second: bool) -> list[AffineMap]:
    ident = Matrix.identity(3)
    glide = AffineMap(Matrix.diagonal([1, -1, 1]), [_HALF, 0, _HALF if second else 0])
    return [glide, AffineMap(ident, [0, 1, 0]), AffineMap(ident, [0, 0, 1])]


#: Each catalog name with the function making its generators and that function's arguments.
_CATALOG: dict[str, tuple] = {
    **{f"torus-{n}": (_torus_generators, (n,)) for n in range(1, 7)},
    "klein": (_klein_generators, ()),
    "half-turn": (_turn_generators, (((-1, 0), (0, -1)), _HALF)),
    "third-turn": (_turn_generators, (((0, -1), (1, -1)), Fraction(1, 3))),
    "quarter-turn": (_turn_generators, (((0, -1), (1, 0)), Fraction(1, 4))),
    "sixth-turn": (_turn_generators, (((0, -1), (1, 1)), Fraction(1, 6))),
    "hantzsche-wendt": (_hantzsche_wendt_generators, ()),
    "first-amphicosm": (_amphicosm_generators, (False,)),
    "second-amphicosm": (_amphicosm_generators, (True,)),
}


def catalog_names() -> list[str]:
    return list(_CATALOG.keys())


def catalog(name: str) -> BieberbachGroup:
    """Verified group from the built-in catalog.

    Tori up to dimension six, the Klein bottle group, and eight of the ten
    three-dimensional flat-manifold groups (the 3-torus, the four screw
    types, the Hantzsche-Wendt group, and both amphicosms). The first call
    for a name builds the entry and checks it: the holonomy must close, the
    translations must span, and the torsion test must pass. The checked
    group is kept, so later calls return that same immutable value.
    ``UnknownName`` is raised for anything else.
    """
    if name not in _CATALOG:
        known = ", ".join(catalog_names())
        raise UnknownName(f"unknown catalog group {name!r}; known names: {known}")
    builder, args = _CATALOG[name]
    return _checked_entry(name, builder, args)


@lru_cache(maxsize=None)
def _checked_entry(name: str, builder, args: tuple) -> BieberbachGroup:
    """The catalog entry made by ``builder(*args)``, checked in full. It is
    keyed on the builder and its arguments as well as the name, so a changed
    entry is built and checked afresh; a failed check raises and is not kept."""
    group = BieberbachGroup(builder(*args), name=name)
    theta = holonomy(group)
    lattice = translation_lattice(group, theta)
    if not is_torsion_free(group, theta, lattice):
        raise InvariantViolation(f"catalog entry {name!r} failed the torsion oracle")
    return group
