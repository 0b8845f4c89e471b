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
search over every torsion polynomial. The API that only tests use lives
here too.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from flatcusps.bieberbach import (
    AffineMap,
    BieberbachGroup,
    HolonomyGroup,
    holonomy,
    translation_lattice,
)
from flatcusps.errors import DimensionMismatch, ValidationError
from flatcusps.exactlin import (
    Matrix,
    SymmetricForm,
    Vector,
    char_poly,
    nilpotent_exp,
    unipotent_polynomial,
    vec,
    vec_add,
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
    is_prime,
    prime_factors,
    torsion_polynomials,
)
from flatcusps.serialize import parse_group, parse_matrix
from flatcusps.shapes import ShapeDescriptor


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
        order = element_order(theta, h)
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


def ref_verify_embedding(embedding: LorentzEmbedding) -> VerificationReport:
    """Every check of ``verify_embedding`` computed in full on the
    (n+2)-by-(n+2) matrices, with no closed form: ``E^T B E = B``,
    ``E v_inf = v_inf``, the characteristic polynomial of translation
    images, ``E == exp(M(c t)) R(A)`` for the scale ``c`` read off the first
    nonzero translation, and the nilpotency degree of the log of
    ``E R(A)^{-1}``."""
    model = embedding.model
    gram = model.model_form.matrix
    n = model.n
    ambient = model.ambient_dim
    unipotent = unipotent_polynomial(ambient)
    pairs = list(zip(embedding.group.generators, embedding.images))
    scale = next(
        (image[j, n] / x for g, image in pairs for j, x in enumerate(g.translation) if x),
        Fraction(1),
    )

    results = []
    for g, image in pairs:
        form_preserved = image.transpose() * gram * image == gram
        fixes_vinf = image.matvec(model.v_inf) == model.v_inf

        if g.is_translation():
            unipotent_translation = char_poly(image) == unipotent
        else:
            unipotent_translation = None

        scaled = translation_log([scale * x for x in g.translation], model)
        equivariance = scale > 0 and image == nilpotent_exp(scaled) * linear_image(
            g.linear, model
        )

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

        results.append(
            GeneratorChecks(
                form_preserved,
                fixes_vinf,
                unipotent_translation,
                equivariance,
                log_cubes_to_zero,
                degree,
            )
        )
    return VerificationReport(results)


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
            primes.update(prime_factors(content))
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
    ``GL(n; Q)``. Returns False on any counterexample (including a prime
    that divides a generator denominator), True otherwise. A verifier, not
    a prover: word_length bounds the search. A negative one, or one whose
    ball would hold more than ``MAX_WORD_BALL`` elements, raises
    ``ValueError``.
    """
    if word_length < 0:
        raise ValueError("word length must be non-negative")
    q = certificate.prime
    if not is_prime(q):
        return False
    if any(d % q == 0 for d in group_input.denominators()):
        return False  # reduction modulo q is undefined on these generators
    n = group_input.n
    unipotent = unipotent_polynomial(n)
    unipotent_mod = unipotent.reduce_mod(q)
    order_bound = torsion_order_bound(n)
    identity = Matrix.identity(n)

    generators = list(group_input.lambda_gens)
    generators += [m.inverse() for m in group_input.lambda_gens]
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
