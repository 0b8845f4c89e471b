"""Embeddings of flat-manifold groups into rational Lorentz groups.

Given a positive definite rational form ``B_K`` on n-space, the model form
``B = B_K (+) diag(1, -1)`` has signature ``(n+1, 1)`` on (n+2)-space; the
vectors ``v_inf = e_{n+1} + e_{n+2}`` and ``v_0 = e_{n+1} - e_{n+2}`` are
B-null, and the first n coordinate vectors span their B-orthogonal
complement. Translations embed into the unipotent stabilizer of ``v_inf``
as the exponential of the B-skew rank-two map built from outer pairings;
that map cubes to zero, so the exponential has a closed form which
:func:`embed_translation` writes down directly. B_K-isometries embed
block-diagonally. The images generate a subgroup of ``O(B; Q)`` fixing
``v_inf``. Conjugating by the rational hyperbolic element that scales
``v_inf`` by a positive integer ``c`` and fixes the complement scales every
translation by ``c`` and leaves the linear factors alone, so
:func:`integralize` performs that conjugation by re-embedding with scaled
translations; for a suitable smallest ``c`` every image lands in integer
matrices. Every identity used along the way is checkable in exact
arithmetic, and :func:`verify_embedding` rechecks them all from scratch on
the finished matrices.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .bieberbach import AffineMap, BieberbachGroup
from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NotFormIsometry,
    NotPositiveDefinite,
)
from .exactlin import (
    Frozen,
    Matrix,
    SymmetricForm,
    Vector,
    char_poly,
    denominator_lcm,
    is_positive_definite,
    ldl_signature,
    unipotent_polynomial,
    unit_vector,
    vec,
)
from .shapes import ShapeDescriptor


class LorentzModel(Frozen):
    """Signature (n+1, 1) model data attached to a base form.

    Built by :func:`model_form`. Holds the model form ``B`` and the null
    vectors ``v_inf`` and ``v_0``; the first n coordinate vectors span
    their B-orthogonal complement (the translation directions).
    """

    __slots__ = ("n", "base_form", "model_form", "v_inf", "v_0")

    def __init__(
        self,
        base_form: SymmetricForm,
        model: SymmetricForm,
        v_inf: Vector,
        v_0: Vector,
    ):
        super().__init__(base_form.dim, base_form, model, v_inf, v_0)

    @property
    def ambient_dim(self) -> int:
        return self.n + 2

    def lift(self, v: Sequence) -> Vector:
        """Ambient vector of a complement vector: ``v`` followed by two zeros."""
        w = vec(v)
        if len(w) != self.n:
            raise DimensionMismatch(
                f"expected a vector of length {self.n}, got {len(w)}"
            )
        return w + (Fraction(0), Fraction(0))

    def __repr__(self) -> str:
        return f"<LorentzModel n={self.n}>"


def model_form(base: SymmetricForm) -> LorentzModel:
    """Model data for a positive definite rational base form.

    ``B = base (+) diag(1, -1)``, with ``v_inf``, ``v_0`` in the last two
    coordinates and the first n coordinate vectors as the complement basis.
    """
    if not is_positive_definite(base):
        raise NotPositiveDefinite("base form must be positive definite")
    n = base.dim
    model = base.direct_sum(SymmetricForm.diagonal([1, -1]))
    v_inf = tuple(
        Fraction(1) if i >= n else Fraction(0) for i in range(n + 2)
    )
    v_0 = tuple(
        Fraction(1) if i == n else Fraction(-1) if i == n + 1 else Fraction(0)
        for i in range(n + 2)
    )
    if ldl_signature(model) != (n + 1, 1, 0):
        raise InvariantViolation("model form does not have signature (n+1, 1)")
    if model.evaluate(v_inf, v_inf) != 0 or model.evaluate(v_0, v_0) != 0:
        raise InvariantViolation("v_inf and v_0 are not both null")
    if model.evaluate(v_inf, v_0) == 0:
        raise InvariantViolation("v_inf and v_0 are orthogonal")
    return LorentzModel(base, model, v_inf, v_0)


def outer_pairing(x: Sequence, y: Sequence, form: SymmetricForm) -> Matrix:
    """Rank-one operator ``z -> B(z, y) x``, i.e. the matrix ``x (By)^T``."""
    xv, yv = vec(x), vec(y)
    if len(xv) != form.dim or len(yv) != form.dim:
        raise DimensionMismatch("vector lengths do not match the form dimension")
    by = form.matrix.matvec(yv)
    return Matrix([[a * b for b in by] for a in xv])


def translation_log(v: Sequence, model: LorentzModel) -> Matrix:
    """B-skew generator whose exponential is the translation image.

    ``M = lift(v) (B v_inf)^T - v_inf (B lift(v))^T``; it kills ``v_inf``,
    satisfies ``M^3 = 0``, and ``M^T B + B M = 0`` exactly. The library
    writes ``exp(M)`` in closed form (:func:`embed_translation`); this
    matrix is kept as the reference it is checked against.
    """
    lifted = model.lift(v)
    return outer_pairing(lifted, model.v_inf, model.model_form) - outer_pairing(
        model.v_inf, lifted, model.model_form
    )


def _translation_parts(v: Sequence, model: LorentzModel) -> tuple[Vector, Vector, Fraction]:
    """``w = v``, ``k = B_K w`` and ``h = B_K(w, w) / 2``."""
    w = model.lift(v)[: model.n]
    k = model.base_form.matrix.matvec(w)
    return w, k, sum(a * b for a, b in zip(w, k)) / 2


def embed_translation(v: Sequence, model: LorentzModel) -> Matrix:
    """Unipotent image of a translation vector.

    The exponential ``I + M + M^2/2`` of :func:`translation_log`, written
    out: with ``w = v``, ``k = B_K w`` and ``h = B_K(w, w) / 2``, row
    ``i < n`` is the identity row with ``w_i`` and ``-w_i`` in columns n and
    n+1; rows n and n+1 both start with ``-k``; the corner two-by-two block
    is ``[[1 - h, h], [-h, 1 + h]]``. It preserves the model form, fixes
    ``v_inf``, and is additive in ``v``.
    """
    w, k, h = _translation_parts(v, model)
    n = model.n
    rows = []
    for i, x in enumerate(w):
        row = [Fraction(0)] * n + [x, -x]
        row[i] = Fraction(1)
        rows.append(row)
    minus_k = [-x for x in k]
    rows.append(minus_k + [1 - h, h])
    rows.append(minus_k + [-h, 1 + h])
    return Matrix(rows)


def linear_image(a: Matrix, model: LorentzModel) -> Matrix:
    """Extension of a base-form isometry acting trivially on the null plane.

    ``blockdiag(a, I_2)``: ``a`` on the complement, the identity on the
    span of ``v_0`` and ``v_inf``. Raises ``NotFormIsometry`` when ``a``
    does not preserve the base form.
    """
    base = model.base_form.matrix
    if a.transpose() * base * a != base:
        raise NotFormIsometry("linear part does not preserve the base form")
    return Matrix.block_diag(a, Matrix.identity(2))


def embed_affine(g: AffineMap, model: LorentzModel) -> Matrix:
    """Image of an affine isometry: unipotent factor times linear factor."""
    if g.dim != model.n:
        raise DimensionMismatch(
            f"affine map dimension {g.dim} does not match model dimension {model.n}"
        )
    rotation = linear_image(g.linear, model)
    return embed_translation(g.translation, model) * rotation


class LorentzEmbedding(Frozen):
    """A group's generators together with their images in ``O(B; Q)``."""

    __slots__ = ("model", "group", "images")

    def __init__(
        self, model: LorentzModel, group: BieberbachGroup, images: Sequence[Matrix]
    ):
        if len(images) != len(group.generators):
            raise DimensionMismatch("one image per generator is required")
        super().__init__(model, group, tuple(images))

    def __repr__(self) -> str:
        return f"<LorentzEmbedding group={self.group.name or 'anonymous'} n={self.model.n}>"


def embed_group(group: BieberbachGroup, shape: ShapeDescriptor) -> LorentzEmbedding:
    """Embed a group using one of its arithmetic shapes as the base form.

    The shape must belong to the group; each generator's linear part must
    preserve the shape's form (``NotFormIsometry`` otherwise, which is
    exactly a failure of holonomy invariance).
    """
    if shape.group != group:
        raise DimensionMismatch("shape was built for a different group")
    model = model_form(shape.form)
    images = [embed_affine(g, model) for g in group.generators]
    return LorentzEmbedding(model, group, images)


# ---------------------------------------------------------------------------
# Integralization by hyperbolic conjugation
# ---------------------------------------------------------------------------


def _smallest_integral_scale(embedding: LorentzEmbedding) -> int:
    """Exact smallest conjugation scale that clears all denominators.

    The conjugated image of a generator ``(A, t)`` is ``T(c t) R(A)``. Its
    entries outside the (integral, unimodular) linear factor are ``c w_i``,
    ``c (k^T A)_j`` and ``c^2 h``, which occupy disjoint positions, so no
    cancellation between them is possible. Since ``A`` and ``A^{-1}`` are
    integral, ``k^T A`` has the same denominators as ``k``. So ``c`` must
    be a multiple of ``L``, the lcm of the denominators of every ``w`` and
    ``k``. Once ``c w`` and ``c k`` are integral, ``c^2 h = (c w)^T (c k) / 2``
    lies in ``Z/2``: the smallest scale is ``L`` when every ``L^2 h`` is an
    integer, and ``2 L`` otherwise (an odd multiple of ``L`` leaves the
    half, and ``(2 L)^2 h`` is four times a half-integer).
    """
    model = embedding.model
    linear_values = []
    quadratic_values = []
    for g in embedding.group.generators:
        if not g.linear.is_integral():
            raise ValueError(
                "a linear factor has fractional entries; hyperbolic conjugation "
                "cannot integralize this embedding"
            )
        w, k, h = _translation_parts(g.translation, model)
        linear_values.extend(w)
        linear_values.extend(k)
        quadratic_values.append(h)
    scale = denominator_lcm(linear_values)
    if all((scale * scale * h).denominator == 1 for h in quadratic_values):
        return scale
    return 2 * scale


def integralize(embedding: LorentzEmbedding) -> tuple[LorentzEmbedding, int]:
    """Conjugate an embedding into integer matrices.

    Finds the smallest positive integer ``c`` such that conjugating every
    image by the hyperbolic element ``H_c`` of scale ``c`` yields integer
    entries. ``H_c`` is the B-isometry that scales ``v_inf`` by ``c`` (and
    ``v_0`` by ``1/c``) and fixes the complement, so it commutes with each
    linear factor ``R(A)`` and scales each translation log by ``c``:
    ``H_c T(t) R(A) H_c^{-1} = T(c t) R(A)``. The conjugation is therefore
    performed by re-embedding every generator with its translation scaled
    by ``c``. Group relations are untouched (conjugation is an
    automorphism), the model form is preserved exactly, and all
    verification checks survive. Returns the conjugated embedding and
    ``c``; an already integral embedding comes back unchanged with scale 1.

    Raises ``InvariantViolation`` when an image is not the embedding of its
    generator, since rescaling would then not be a conjugation.
    """
    model = embedding.model
    generators = embedding.group.generators
    rotations = []
    for g, image in zip(generators, embedding.images):
        rotation = linear_image(g.linear, model)
        if embed_translation(g.translation, model) * rotation != image:
            raise InvariantViolation(
                "an image is not the embedding of its generator; "
                "rescaling translations would not be a conjugation"
            )
        rotations.append(rotation)
    c = _smallest_integral_scale(embedding)
    if c > 1:
        images = [
            embed_translation([c * x for x in g.translation], model) * rotation
            for g, rotation in zip(generators, rotations)
        ]
        embedding = LorentzEmbedding(model, embedding.group, images)
    if not all(m.is_integral() for m in embedding.images):
        raise InvariantViolation("integralized images have fractional entries")
    return embedding, c


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


class GeneratorChecks(Frozen):
    """Outcome of the exact checks for a single generator image."""

    __slots__ = (
        "form_preserved",
        "fixes_vinf",
        "unipotent_translation",
        "equivariance",
        "log_cubes_to_zero",
        "nilpotency_degree",
    )

    def passed(self) -> bool:
        return (
            self.form_preserved
            and self.fixes_vinf
            and (self.unipotent_translation is not False)
            and self.equivariance
            and self.log_cubes_to_zero
        )


class VerificationReport(Frozen):
    """Per-generator exact checks plus their conjunction."""

    __slots__ = ("per_generator", "overall")

    def __init__(self, per_generator: Sequence[GeneratorChecks]):
        checks = tuple(per_generator)
        super().__init__(checks, all(c.passed() for c in checks))

    def __repr__(self) -> str:
        status = "ok" if self.overall else "FAILED"
        return f"<VerificationReport {status} generators={len(self.per_generator)}>"


def verify_embedding(embedding: LorentzEmbedding) -> VerificationReport:
    """Recompute every exact identity the construction promises.

    Per generator ``(A, t)`` with image ``E``: form preservation
    ``E^T B E = B``; ``E v_inf = v_inf``; for pure translations the
    characteristic polynomial is ``(t-1)^(n+2)``; the semidirect
    compatibility ``R(A) T(w) R(A)^{-1} = T(A w)`` on basis vectors; and
    the log of the unipotent factor cubes to zero. Failures are recorded,
    never raised.
    """
    model = embedding.model
    gram = model.model_form.matrix
    n = model.n
    ambient = model.ambient_dim
    unipotent = unipotent_polynomial(ambient)
    basis = [unit_vector(n, i) for i in range(n)]
    translation_cache: dict[tuple, Matrix] = {}

    def cached_translation(w) -> Matrix:
        key = tuple(w)
        if key not in translation_cache:
            translation_cache[key] = embed_translation(key, model)
        return translation_cache[key]

    results = []
    for g, image in zip(embedding.group.generators, embedding.images):
        form_preserved = image.transpose() * gram * image == gram
        fixes_vinf = image.matvec(model.v_inf) == model.v_inf

        if g.is_translation():
            unipotent_translation: Optional[bool] = char_poly(image) == unipotent
        else:
            unipotent_translation = None

        try:
            rotation = linear_image(g.linear, model)
            rotation_inv = rotation.inverse()
            equivariance = all(
                rotation * cached_translation(w) * rotation_inv
                == cached_translation(g.linear.matvec(w))
                for w in basis
            )
            unipotent_factor = image * rotation_inv
        except NotFormIsometry:
            equivariance = False
            unipotent_factor = image

        shifted = unipotent_factor - Matrix.identity(ambient)
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
