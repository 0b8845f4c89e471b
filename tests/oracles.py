"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the code paths they validate: torsion is decided
by enumerating group elements and powering them, best rational
approximations by scanning every denominator, and finite-order
characteristic polynomials via sympy companion matrices,
integralization by explicit conjugation with the hyperbolic element,
embedding checks by the full (n+2)-sized identities with no closed form,
integral solvability by Heger's determinantal criterion, and Lorentz
images as the product of the translation factor, the exponential of a
B-skew map built from outer pairings, and the block-diagonal linear
factor, matrix arithmetic by the per-entry ``Fraction`` kernel that
the integer one replaced, and congruence certificates by the word-ball
verifier that computes every element's characteristic polynomial and
raises each collapsing one to the lcm of all torsion orders, and the
primes that collapse a torsion polynomial onto ``(t-1)^n`` by a gcd
search over every torsion polynomial, prime factors and the least good
congruence prime by sympy, translation lattices by
Schreier's construction one ``Fraction`` at a time, a density row's
congruence certificate from its whole input, with the lattice
unipotents, holonomy witnesses by a closure over every generator,
translations included, and arithmetic shapes by checking every holonomy
element in ``Fraction`` products. The API that only tests use lives here
too, such as the ``Fraction`` vector helpers, the lattice basis of
rational vectors, the zero matrix, the transpose, powers of an affine
map, a matrix from its columns and the ``ghw-n`` groups.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import types
from fractions import Fraction

from flatcusps import density, lorentz
from flatcusps.bieberbach import (
    AffineMap,
    BieberbachGroup,
    HolonomyGroup,
    compose,
    holonomy,
    translation_lattice,
)
from flatcusps.errors import DimensionMismatch, InvariantViolation, RankDeficient, ValidationError
from flatcusps.exactlin import (
    Matrix,
    SymmetricForm,
    Vector,
    char_poly,
    integer_row_hermite,
    nilpotent_exp,
    rat,
    unipotent_polynomial,
)
from flatcusps.lorentz import (
    GeneratorChecks,
    LorentzEmbedding,
    LorentzModel,
    VerificationReport,
    embed_translation,
)
from flatcusps.selberg import (
    MAX_WORD_BALL,
    MatrixGroupInput,
    SelbergCertificate,
    euler_phi,
    good_prime,
    is_prime,
    torsion_polynomials,
)
from flatcusps.serialize import parse_group, parse_matrix
from flatcusps.shapes import ShapeDescriptor


def zeros(rows: int, cols: int) -> Matrix:
    return Matrix([[0] * cols for _ in range(rows)])


def transpose(m: Matrix) -> Matrix:
    return Matrix.from_integer_rows(tuple(zip(*m.num)), m.den)


def affine_power(g: AffineMap, exponent: int) -> AffineMap:
    """``g`` composed with itself ``exponent`` times; a negative exponent powers the inverse."""
    if exponent < 0:
        return affine_power(g.inverse(), -exponent)
    result = AffineMap.identity(g.dim)
    for _ in range(exponent):
        result = compose(result, g)
    return result


def from_columns(columns) -> Matrix:
    """The matrix whose columns are the given vectors."""
    return transpose(Matrix(columns))


def vec(entries) -> Vector:
    """A vector of ints, ``Fraction``s or strings as a tuple of ``Fraction``."""
    return tuple(rat(x) for x in entries)


def vec_add(u, v) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} and {len(v)} differ")
    return tuple(a + b for a, b in zip(u, v))


def lattice_basis(vectors, dim: int) -> list[Vector]:
    """Basis of the lattice spanned over the integers by rational vectors.

    Returns at most ``dim`` vectors; fewer means the span is rank deficient.
    """
    nonzero = [vec(v) for v in vectors if any(v)]
    if not nonzero:
        return []
    if any(len(v) != dim for v in nonzero):
        raise DimensionMismatch("lattice vectors have inconsistent lengths")
    m = Matrix(nonzero)
    return [tuple(Fraction(x, m.den) for x in row) for row in integer_row_hermite(m.num)]


def ref_translation_lattice(group: BieberbachGroup, theta: HolonomyGroup) -> Matrix:
    """Schreier's construction in ``Fraction``s: the vectors ``W t + u - r``
    for each witness ``(W, u)``, generator ``(A, t)`` and witness ``(R, r)``
    of ``W A``, formed one ``Fraction`` at a time from the ``translation``
    views, then their lattice basis as columns."""
    witness_for = {w.linear: w for w in theta.witnesses}
    vectors = []
    for witness in theta.witnesses:
        w = witness.linear
        for gen in group.generators:
            rep = witness_for.get(w * gen.linear)
            if rep is None:
                raise InvariantViolation("the holonomy lacks a witness-generator product")
            shift = vec_add(w.matvec(gen.translation), witness.translation)
            vectors.append(tuple(a - b for a, b in zip(shift, rep.translation)))
    basis = lattice_basis(vectors, group.dim)
    if len(basis) < group.dim:
        raise RankDeficient(f"translations span rank {len(basis)} < {group.dim}")
    return from_columns(basis)


def _torsion_boxes(group: BieberbachGroup):
    """For each nontrivial holonomy element: its norm, its witness
    translation, the lattice basis and the box of lattice offsets that
    :func:`brute_force_is_torsion_free` enumerates."""
    theta = holonomy(group)
    lattice = translation_lattice(group, theta)
    n = group.dim
    ident = Matrix.identity(n)
    columns = lattice.columns()
    to_lattice = lattice.inverse()
    for h, witness in zip(theta.elements, theta.witnesses):
        if h == ident:
            continue
        order = element_order(theta, h)
        norm = Matrix.identity(n)
        power = h
        for _ in range(order - 1):
            norm = norm + power
            power = power * h
        m = to_lattice * (ident - h) * lattice
        if not m.is_integral():
            raise InvariantViolation("the holonomy does not preserve the lattice")
        shift = to_lattice.matvec(witness.translation)
        ranges = [
            range(
                math.ceil(sum(x for x in row if x < 0) - s),
                math.floor(sum(x for x in row if x > 0) - s) + 1,
            )
            for row, s in zip(m.entries, shift)
        ]
        yield norm, witness.translation, columns, ranges


def brute_force_box_size(group: BieberbachGroup) -> int:
    """The number of elements :func:`brute_force_is_torsion_free` may enumerate."""
    return sum(math.prod(map(len, ranges)) for _, _, _, ranges in _torsion_boxes(group))


def brute_force_is_torsion_free(group: BieberbachGroup) -> bool:
    """Enumerate the elements ``(h, t + L x)`` of a proven box and check orders.

    An element over a nontrivial holonomy element h of order k is torsion
    exactly when (h, u)^k is the identity, i.e. when (I + h + ... +
    h^(k-1)) u = 0. The box meets every coset that holds torsion. A
    torsion element ``(h, u)`` fixes the barycentre p of the orbit of the
    origin, so ``u = (I - h) p``; conjugating it by the lattice translation
    ``T(m)`` gives ``(h, u + (I - h) m)``, torsion in the same coset, which
    fixes ``p + m``. So some torsion element of the coset with witness
    ``(h, t)`` fixes a point ``L y`` with ``y`` in ``[0, 1)^n``, and its
    translation is ``t + L x`` with ``x = M y - L^-1 t``, where
    ``M = L^-1 (I - h) L`` is integral because ``h L = L``. Each ``x_i`` then
    lies between the sums of the negative and of the positive entries of
    row i of M, less ``(L^-1 t)_i``; the box is every integer point there.
    """
    n = group.dim
    for norm, translation, columns, ranges in _torsion_boxes(group):
        for offsets in itertools.product(*ranges):
            u = list(translation)
            for coeff, col in zip(offsets, columns):
                for i in range(n):
                    u[i] += coeff * col[i]
            if all(x == 0 for x in norm.matvec(u)):
                return False
    return True


def ref_is_torsion_free(
    group: BieberbachGroup, theta: HolonomyGroup = None, lattice: Matrix = None
) -> bool:
    """The fixed-point criterion, in ``Fraction``s.

    An element ``(h, u)`` of finite order has a fixed point, and conversely,
    so the coset of a nontrivial ``h`` with witness ``(h, t)`` holds torsion
    exactly when ``t`` lies in ``im(I - h) + L``. Each vector ``nu`` of the
    left null space of ``I - h`` kills the image, leaving the equations
    ``nu (L x + t) = 0``, whose integral solvability Heger's criterion
    decides; an invertible ``I - h`` means torsion in every coset.
    """
    theta = theta if theta is not None else holonomy(group)
    lattice = lattice if lattice is not None else translation_lattice(group, theta)
    n = group.dim
    basis = lattice.columns()
    for h, witness in zip(theta.elements, theta.witnesses):
        if h.is_identity():
            continue
        transposed = ref_transpose(ref_difference(ref_identity(n), [list(r) for r in h.entries]))
        constraints = ref_null_space(transposed)
        if not constraints:
            return False
        a_rows, b = [], []
        for nu in constraints:
            row = [sum(x * y for x, y in zip(nu, col)) for col in basis]
            rhs = -sum(x * y for x, y in zip(nu, witness.translation))
            scale = math.lcm(*(x.denominator for x in row + [rhs]))
            a_rows.append([int(x * scale) for x in row])
            b.append(int(rhs * scale))
        if heger_has_integer_solution(a_rows, b):
            return False
    return True


def ref_plain_shape_distance(a: SymmetricForm, b: SymmetricForm) -> float:
    """The scale-free distance with each form divided by its plain Frobenius
    norm, each entry the double nearest it and every sum left to right. It
    is infinite or zero, and the distance wrong, when the squares of a
    form's doubles overflow or underflow."""

    def total(values):
        out = 0.0
        for x in values:
            out += x
        return out

    ea, eb = ([float(x) for row in f.matrix.entries for x in row] for f in (a, b))
    na, nb = (math.sqrt(total(x * x for x in e)) for e in (ea, eb))
    return math.sqrt(total((x / na - y / nb) ** 2 for x, y in zip(ea, eb)))


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


def sympy_divides(poly, exponent: int, power: int) -> bool:
    """Whether ``poly`` (an ``IntPolynomial``) divides ``(t^exponent - 1)^power``,
    decided by sympy's polynomial division over the rationals."""
    import sympy

    t = sympy.Symbol("t")
    divisor = sympy.Poly(list(reversed(poly.coeffs)), t, domain="QQ")
    dividend = sympy.Poly((t**exponent - 1) ** power, t, domain="QQ")
    return dividend.rem(divisor).is_zero


def _companion_entry(poly, i, j):
    deg = poly.degree()
    coeffs = poly.all_coeffs()  # descending, monic
    if j == deg - 1:
        return -coeffs[deg - i]
    return 1 if i == j + 1 else 0


def element_order(theta: HolonomyGroup, m: Matrix) -> int:
    """Multiplicative order of a point-group element."""
    ident = Matrix.identity(theta.dim)
    power = m
    for k in range(1, theta.order + 1):
        if power == ident:
            return k
        power = power * m
    raise ValueError("element order exceeds the group order; not a member")


def trace(m: Matrix):
    """Sum of the diagonal entries of a square matrix."""
    if not m.is_square():
        raise DimensionMismatch("trace of a non-square matrix")
    return sum(m[i, i] for i in range(m.rows))


def apply(g: AffineMap, point) -> Vector:
    """Image ``A x + t`` of a point under an affine map."""
    return vec_add(g.linear.matvec(point), g.translation)


def parse_shape(data, path: str = "shape") -> ShapeDescriptor:
    """Decode a group object with an extra ``"form"`` field."""
    group = parse_group(data, path)
    if "form" not in data:
        raise ValidationError(f"{path}.form", "missing required field")
    matrix = parse_matrix(data["form"], f"{path}.form")
    if not matrix.is_symmetric():
        raise ValidationError(f"{path}.form", "matrix is not symmetric")
    if matrix.rows != group.dim:
        raise ValidationError(
            f"{path}.form", f"form size {matrix.rows} does not match dim {group.dim}"
        )
    return ShapeDescriptor(group, SymmetricForm(matrix))


def evaluate(form: SymmetricForm, x, y) -> Fraction:
    """Value ``x^T B y`` of a form on a pair of vectors."""
    xv, yv = vec(x), vec(y)
    if len(xv) != form.dim or len(yv) != form.dim:
        raise DimensionMismatch("vector lengths do not match the form dimension")
    return sum(map(operator.mul, xv, form.matrix.matvec(yv)), Fraction(0))


def outer_pairing(x, y, form: SymmetricForm) -> Matrix:
    """Rank-one operator ``z -> B(z, y) x``, i.e. the matrix ``x (By)^T``."""
    xv, yv = vec(x), vec(y)
    if len(xv) != form.dim or len(yv) != form.dim:
        raise DimensionMismatch("vector lengths do not match the form dimension")
    by = form.matrix.matvec(yv)
    return Matrix([[a * b for b in by] for a in xv])


def lift(model: LorentzModel, v) -> Vector:
    """Ambient vector of a complement vector: ``v`` followed by two zeros."""
    w = vec(v)
    if len(w) != model.n:
        raise DimensionMismatch(f"expected a vector of length {model.n}, got {len(w)}")
    return w + (Fraction(0), Fraction(0))


def translation_log(v, model: LorentzModel) -> Matrix:
    """B-skew generator whose exponential is the translation image.

    ``M = lift(v) (B v_inf)^T - v_inf (B lift(v))^T``; it kills ``v_inf``,
    satisfies ``M^3 = 0``, and ``M^T B + B M = 0`` exactly.
    """
    lifted = lift(model, v)
    return outer_pairing(lifted, model.v_inf, model.model_form) - outer_pairing(
        model.v_inf, lifted, model.model_form
    )


def linear_image(a: Matrix, model: LorentzModel) -> Matrix:
    """``R(a) = blockdiag(a, I_2)``: ``a`` on the complement, the identity on
    the span of ``v_0`` and ``v_inf``."""
    return Matrix.block_diag(a, Matrix.identity(2))


def product_embed_affine(g: AffineMap, model: LorentzModel) -> Matrix:
    """Image of an affine map as the matrix product ``T(t) R(A)``."""
    return embed_translation(g.translation, model) * linear_image(g.linear, model)


def ref_decodes(image: Matrix, g: AffineMap, scale, model: LorentzModel) -> bool:
    """Whether ``image`` is the product ``T(c t) R(A)`` for the generator
    ``(A, t)`` at the scale ``c = c_num / c_den``, built as a matrix and
    compared whole."""
    c = Fraction(*scale)
    return image == product_embed_affine(AffineMap(g.linear, [c * x for x in g.translation]), model)


def ref_verify_embedding(embedding: LorentzEmbedding) -> VerificationReport:
    """Every check of ``verify_embedding`` computed in full on the
    (n+2)-by-(n+2) matrices, with no closed form: ``E^T B E = B``,
    ``E v_inf = v_inf``, the characteristic polynomial of translation
    images, ``E == exp(M(c t)) R(A)`` for the scale ``c`` read off the first
    nonzero translation, and the nilpotency degree of the log of
    ``E R(A)^{-1}``."""
    model = embedding.model
    n = model.n
    pairs = list(zip(embedding.group.generators, embedding.images))
    scale = next(
        (image[j, n] / x for g, image in pairs for j, x in enumerate(g.translation) if x),
        Fraction(1),
    )
    return VerificationReport([_ref_checks(g, image, scale, model) for g, image in pairs])


@functools.lru_cache(maxsize=1024)
def _ref_checks(g: AffineMap, image: Matrix, scale: Fraction, model: LorentzModel) -> GeneratorChecks:
    # one generator's checks; cached, since tests that change one image of
    # many re-check the others unchanged
    gram = model.model_form.matrix
    ambient = model.ambient_dim
    form_preserved = transpose(image) * gram * image == gram
    fixes_vinf = image.matvec(model.v_inf) == model.v_inf

    if g.is_translation():
        unipotent_translation = char_poly(image) == unipotent_polynomial(ambient)
    else:
        unipotent_translation = None

    scaled = translation_log([scale * x for x in g.translation], model)
    equivariance = scale > 0 and image == nilpotent_exp(scaled) * linear_image(g.linear, model)

    rotation_inv = Matrix.block_diag(g.linear.inverse(), Matrix.identity(2))
    shifted = image * rotation_inv - Matrix.identity(ambient)
    log = shifted - Fraction(1, 2) * (shifted * shifted)
    degree = None
    power = Matrix.identity(ambient)
    for k in range(1, ambient + 1):
        power = power * log
        if power.is_zero():
            degree = k
            break
    log_cubes_to_zero = degree is not None and degree <= 3

    return GeneratorChecks(
        form_preserved,
        fixes_vinf,
        unipotent_translation,
        equivariance,
        log_cubes_to_zero,
        degree,
    )


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


# ---------------------------------------------------------------------------
# The per-entry Fraction matrix kernel: the reference for exactlin.Matrix,
# which works on integer rows over one denominator. Matrices here are lists
# of rows of Fraction; every result is one too.
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)
_ONE = Fraction(1)


def ref_product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), _ZERO) for col in zip(*b)] for row in a]


def ref_sum(a, b):
    return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]


def ref_difference(a, b):
    return [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]


def ref_scaled(f, a):
    return [[f * x for x in row] for row in a]


def ref_transpose(a):
    return [list(col) for col in zip(*a)]


def ref_theta_average(form, elements):
    """``(1/|theta|) sum_g g^T F g``, one Fraction product at a time."""
    total = [[_ZERO] * len(form) for _ in form]
    for g in elements:
        total = ref_sum(total, ref_product(ref_product(ref_transpose(g), form), g))
    return ref_scaled(Fraction(1, len(elements)), total)


def ref_det(a) -> Fraction:
    """Gaussian elimination with a Fraction pivot inverse."""
    a = [list(row) for row in a]
    n = len(a)
    result = _ONE
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return _ZERO
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            result = -result
        result *= a[k][k]
        inv = _ONE / a[k][k]
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return result


def ref_rref(a):
    """Reduced row echelon form and pivot columns, in Fractions."""
    m = [list(row) for row in a]
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = _ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def ref_inverse(a):
    """Inverse by row reduction of ``[a | I]``; None when ``a`` is singular."""
    n = len(a)
    reduced, pivots = ref_rref(
        [list(row) + [_ONE if j == i else _ZERO for j in range(n)] for i, row in enumerate(a)]
    )
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced]


def ref_null_space(a):
    reduced, pivots = ref_rref(a)
    ncols = len(a[0])
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [_ZERO] * ncols
        v[f] = _ONE
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(tuple(v))
    return basis


def ref_char_poly(a) -> list[Fraction]:
    """Ascending coefficients of ``det(tI - a)`` by Faddeev-LeVerrier in
    Fractions: ``M_k = a M_(k-1) + c_(n-k+1) I`` and
    ``c_(n-k) = -tr(a M_k) / k``, each product taken in full."""
    n = len(a)
    coeffs = [_ZERO] * n + [_ONE]
    aux = [[_ZERO] * n for _ in range(n)]
    for k in range(1, n + 1):
        c = coeffs[n - k + 1]
        aux = ref_sum(ref_product(a, aux), ref_scaled(c, ref_identity(n)))
        trace_ = sum((row[i] for i, row in enumerate(ref_product(a, aux))), _ZERO)
        coeffs[n - k] = -trace_ / k
    return coeffs


def ref_identity(n):
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def ref_ldl_signature(a) -> tuple[int, int, int]:
    """Inertia of a symmetric matrix by symmetric Gaussian elimination in
    Fractions, with a row-and-column addition when the trailing diagonal
    vanishes."""
    a = [list(row) for row in a]
    n = len(a)
    pos = neg = 0
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][i] != 0), None)
        if pivot is None:
            off = next(
                ((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j] != 0), None
            )
            if off is None:
                break
            i, j = off
            for c in range(n):
                a[i][c] += a[j][c]
            for r in range(n):
                a[r][i] += a[r][j]
            pivot = i
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            for r in range(n):
                a[r][k], a[r][pivot] = a[r][pivot], a[r][k]
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k]
            if f:
                f = f / d
                for j in range(k + 1, n):
                    a[i][j] -= f * a[k][j]
        for i in range(k + 1, n):
            a[i][k] = _ZERO
            a[k][i] = _ZERO
    return pos, neg, n - pos - neg


def torsion_order_bound(n: int) -> int:
    """lcm of all possible orders of torsion elements of ``GL(n; Q)``: the
    orders d of roots of unity of degree ``phi(d) <= n``, which
    ``phi(d) >= sqrt(d/2)`` confines below ``2 n^2 + 2``."""
    return math.lcm(*(d for d in range(1, 2 * n * n + 2) if euler_phi(d) <= n))


@functools.lru_cache(maxsize=None)
def ref_torsion_orders(n: int) -> types.MappingProxyType:
    """Each torsion polynomial of degree n with the lcm of the orders d of
    its cyclotomic factors ``Phi_d``, read off sympy's factorization.

    A matrix with that characteristic polynomial has finite order exactly
    when its power to the lcm is the identity: every eigenvalue is then an
    lcm-th root of unity, and a finite-order matrix is diagonalizable.
    """
    import sympy

    t = sympy.Symbol("t")
    order_of = {}  # each admissible Phi_d by its descending coefficients
    for d in range(1, 2 * n * n + 2):
        if sympy.totient(d) <= n:
            order_of[tuple(sympy.Poly(sympy.cyclotomic_poly(d, t), t).all_coeffs())] = d
    orders = {}
    for poly in torsion_polynomials(n):
        _, factors = sympy.Poly(list(reversed(poly.coeffs)), t).factor_list()
        orders[poly] = math.lcm(*(order_of[tuple(f.all_coeffs())] for f, _ in factors))
    return types.MappingProxyType(orders)  # cached, so read-only


def ref_prime_factors(m: int) -> list[int]:
    """Distinct prime factors of a positive integer, ascending, by sympy."""
    import sympy

    return sorted(sympy.primefactors(m))


def ref_least_good_prime(group_input: MatrixGroupInput) -> int:
    """The least prime above ``n + 1`` that is no prime factor, by sympy, of
    an integer of ``denominators()``."""
    import sympy

    factors = {p for d in group_input.denominators() for p in ref_prime_factors(d)}
    q = sympy.nextprime(group_input.n + 1)
    while q in factors:
        q = sympy.nextprime(q)
    return q


def ref_coefficient_divisor_primes(n: int) -> tuple[int, ...]:
    """Primes modulo which some degree-n torsion polynomial equals
    ``(t-1)^n``, found by search: the prime factors of the gcd of the
    coefficients of each polynomial's difference from ``(t-1)^n``."""
    unipotent = unipotent_polynomial(n).coeffs
    primes: set[int] = set()
    for poly in torsion_polynomials(n):
        # both have degree n, so the coefficient tuples line up
        difference = [a - b for a, b in zip(poly.coeffs, unipotent, strict=True)]
        assert all(type(c) is int for c in difference) and any(difference), poly
        content = math.gcd(*difference)
        if content > 1:
            primes.update(ref_prime_factors(content))
    return tuple(sorted(primes))


def ref_verify_certificate(
    group_input: MatrixGroupInput,
    certificate: SelbergCertificate,
    word_length: int = 6,
) -> bool:
    """Brute-force falsifier for a certificate.

    Enumerates all products of the ambient generators and their inverses
    up to the given word length. For each nontrivial element the exact
    characteristic polynomial is computed once: if it is ``(t-1)^n`` the
    element is unipotent, hence of infinite order, and passes; otherwise
    it must reduce modulo the certified prime (a prime dividing one of its
    denominators is a counterexample), and a residue equal to that of
    ``(t-1)^n`` is a counterexample when the element is torsion, decided
    exactly by raising it to the lcm of all possible torsion orders in
    ``GL(n; Q)``. The inverses come from ``ref_inverse``. Returns False when
    q divides the denominator of an entry of a generator or an inverse
    (reduction modulo q is then undefined there) and on any counterexample,
    True otherwise. A verifier, not
    a prover: word_length bounds the search. A negative one, or one whose
    ball would hold more than ``MAX_WORD_BALL`` elements, raises
    ``ValueError``.
    """
    if word_length < 0:
        raise ValueError("word length must be non-negative")
    q = certificate.prime
    if not is_prime(q):
        return False
    inverses = [Matrix(ref_inverse(m.entries)) for m in group_input.lambda_gens]
    known = [*group_input.lambda_gens, *group_input.gamma_gens, *inverses]
    if any(x.denominator % q == 0 for m in known for row in m.entries for x in row):
        return False  # reduction modulo q is undefined on a generator or an inverse
    n = group_input.n
    unipotent = unipotent_polynomial(n)
    unipotent_mod = unipotent.reduce_mod(q)
    order_bound = torsion_order_bound(n)
    identity = Matrix.identity(n)

    generators = list(group_input.lambda_gens) + inverses
    seen = {identity}
    frontier = [identity]
    for _ in range(word_length):
        fresh = []
        for w in frontier:
            for g in generators:
                element = w * g
                if element not in seen:
                    if len(seen) == MAX_WORD_BALL:
                        raise ValueError(
                            f"words of length {word_length} exceed "
                            f"MAX_WORD_BALL = {MAX_WORD_BALL} elements"
                        )
                    seen.add(element)
                    fresh.append(element)
        frontier = fresh
    for element in seen:
        if element == identity:
            continue
        poly = char_poly(element)
        if poly == unipotent:
            continue  # genuinely unipotent, infinite order
        try:
            reduced = poly.reduce_mod(q)
        except ValueError:
            return False  # q divides a denominator of the characteristic polynomial
        if reduced == unipotent_mod and element ** order_bound == identity:
            return False  # nontrivial torsion collapsed onto the unipotent residue
    return True


def ref_congruence_certificate(
    integral: LorentzEmbedding, lattice: Matrix, scale: int
) -> SelbergCertificate:
    """A density row's certificate from its whole congruence input: the
    integral images and ``-I`` as ambient generators, and ``T(scale l)`` for
    each column ``l`` of the translation lattice as unipotent ones."""
    model = integral.model
    size = model.ambient_dim
    unipotent = [embed_translation([scale * x for x in l], model) for l in lattice.columns()]
    return good_prime(
        MatrixGroupInput(size, list(integral.images) + [-Matrix.identity(size)], unipotent)
    )


def ref_holonomy_witnesses(group: BieberbachGroup) -> tuple[AffineMap, ...]:
    """Holonomy witnesses, identity first, by a breadth-first closure that
    multiplies every frontier element by every generator, translations
    included."""
    ident = Matrix.identity(group.dim)
    seen = {ident: AffineMap.identity(group.dim)}
    frontier = [ident]
    while frontier:
        fresh = []
        for h in frontier:
            for gen in group.generators:
                product = h * gen.linear
                if product not in seen:
                    seen[product] = compose(seen[h], gen)
                    fresh.append(product)
        frontier = fresh
    return tuple(seen.values())


def ref_is_arithmetic_shape(shape: ShapeDescriptor, theta: HolonomyGroup) -> bool:
    """Definiteness by ``ref_ldl_signature`` and ``g^T F g == F`` in
    ``Fraction`` products for every element g of theta."""
    form = [list(row) for row in shape.form.matrix.entries]
    if ref_ldl_signature(form) != (len(form), 0, 0):
        return False
    for g in theta.elements:
        rows = [list(row) for row in g.entries]
        if ref_product(ref_product(ref_transpose(rows), form), rows) != form:
            return False
    return True


def ghw(n: int) -> BieberbachGroup:
    """The group ``ghw-n``, with holonomy of order ``2^(n-1)``: the n-1
    generators ``(diag(-1, ..., +1 at i, ..., -1), (e_i + e_(i+1))/2)`` and
    the n unit translations."""
    generators = [
        AffineMap(
            Matrix.diagonal([1 if j == i else -1 for j in range(n)]),
            [Fraction(1, 2) if j in (i, i + 1) else 0 for j in range(n)],
        )
        for i in range(n - 1)
    ]
    generators += [AffineMap.translation_by([int(j == i) for j in range(n)]) for i in range(n)]
    return BieberbachGroup(generators, name=f"ghw-{n}")


def bump_conjugate(monkeypatch) -> None:
    """Make the density leg's ``_integral_embedding`` add 1 to entry (0, 0)
    of every image it returns: the images stay integral but no longer
    decode."""
    build = density._integral_embedding

    def bumped(group: BieberbachGroup, shape: ShapeDescriptor) -> tuple[LorentzEmbedding, int]:
        embedding, c = build(group, shape)
        images = [
            m + Matrix([[int(i == j == 0) for j in range(m.cols)] for i in range(m.rows)])
            for m in embedding.images
        ]
        return LorentzEmbedding(embedding.model, group, images), c

    monkeypatch.setattr(density, "_integral_embedding", bumped)


def assembled_denominators(monkeypatch, group: BieberbachGroup, shape: ShapeDescriptor) -> list:
    """The denominators ``lorentz._integral_embedding(group, shape)`` passes
    to ``Matrix.from_integer_rows``, one per matrix it builds, in order."""
    dens = []
    build = Matrix.from_integer_rows.__func__

    def spy(cls, num, den):
        dens.append(den)
        return build(cls, num, den)

    with monkeypatch.context() as patch:
        patch.setattr(Matrix, "from_integer_rows", classmethod(spy))
        lorentz._integral_embedding(group, shape)
    return dens
