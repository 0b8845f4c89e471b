"""Embeddings of flat-manifold groups into rational Lorentz groups.

Given a positive definite rational form ``B_K`` on n-space, the model form
``B = B_K (+) diag(1, -1)`` has signature ``(n+1, 1)`` on (n+2)-space; the
vectors ``v_inf = e_{n+1} + e_{n+2}`` and ``v_0 = e_{n+1} - e_{n+2}`` are
B-null, and the first n coordinate vectors span their B-orthogonal
complement. An affine isometry ``(A, t)`` of ``B_K`` embeds as
``T(t) R(A)``: ``R(A) = blockdiag(A, I_2)``, and ``T(t)`` is the
exponential of a B-skew rank-two map that cubes to zero. Every entry of
the product has a closed form, which :func:`embed_affine` writes down with
no matrix product. Every element of ``O(B)`` fixing ``v_inf`` has this
shape, so :func:`verify_embedding` checks images by decoding them, and
:func:`integralize` conjugates them into integer matrices by a hyperbolic
element that scales each translation.

Every leg reads a generator ``(A, t)`` through one flat record of
closed-form parts, ``(ka_num, ka_den, h_num, h_den, isometry)`` from
:func:`_generator_parts`: ``k^T A = ka_num / ka_den`` for ``k = B_K t``
(``k`` itself when ``A = I``), ``h = B_K(t, t) / 2 = h_num / h_den``, and
the verdict of ``A^T B_K A = B_K``. :func:`_parts_table` builds the
records once per embedding and the embedding carries them; the legs
scale them in closed form (``k^T A`` by ``c``, ``h`` by ``c^2``) instead
of recomputing them. The table is a function of the form and the
generators alone, so an embedding built by hand computes it from those.
A group and a shape enter the legs through one check,
:func:`_checked_parts`, which :func:`embed_group` and a density row's
:func:`_integral_embedding` share: the shape's group, the definiteness of
its form, then every isometry verdict.

Two writers turn records into images and one reader checks them, all on
whole integer rows. :func:`_assemble` writes a rational image in lowest
terms from parts it first reduces, so the rows need no gcd;
:func:`_integral_images` writes integralized images over denominator 1.
:func:`_decodes` compares the corner as scalars, the upper-left block as
one tuple of rows against ``A``'s, and the translation column and the
``-k^T A`` row in loops that stop at the first mismatch. ``A``'s rows are
rescaled only when the image's denominator is not ``den A``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

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
    _matrix,
    _restore,
    _scaled,
    is_positive_definite,
    is_unipotent,
    preserves_form,
)
from .shapes import ShapeDescriptor


# The hyperbolic plane spanned by the last two coordinates.
_PLANE = SymmetricForm.diagonal([1, -1])


class LorentzModel(Frozen):
    """Signature (n+1, 1) model data attached to a positive definite base form.

    ``B = base (+) diag(1, -1)``, with the null vectors ``v_inf`` and
    ``v_0`` in the last two coordinates; the first n coordinate vectors
    span their B-orthogonal complement (the translation directions). The
    inertia of ``B`` is that of the base plus ``(1, 1, 0)``, so ``B`` has
    signature ``(n+1, 1)`` exactly when the base is positive definite.
    Only ``n`` and the base form are stored: ``model_form``, ``v_inf`` and
    ``v_0`` are derived from them on read, since the embedding, its decode
    and integralization use only the base form.
    """

    __slots__ = ("n", "base_form")

    def __init__(self, base: SymmetricForm):
        if not is_positive_definite(base):
            raise NotPositiveDefinite("base form must be positive definite")
        super().__init__(base.dim, base)

    @property
    def model_form(self) -> SymmetricForm:
        return self.base_form.direct_sum(_PLANE)

    @property
    def v_inf(self) -> tuple:
        # (1, 1) and (1, -1) are null under diag(1, -1), with pairing 2
        return (Fraction(0),) * self.n + (Fraction(1), Fraction(1))

    @property
    def v_0(self) -> tuple:
        return (Fraction(0),) * self.n + (Fraction(1), Fraction(-1))

    @property
    def ambient_dim(self) -> int:
        return self.n + 2

    def __repr__(self) -> str:
        return f"<LorentzModel n={self.n}>"


def _assemble(
    a: Matrix, w_num: Sequence[int], w_den: int, ka_num: Sequence[int], ka_den: int,
    h_num: int, h_den: int,
) -> Matrix:
    """The entries of ``T(w) R(a)`` for ``w = w_num / w_den``, written out
    with no matrix product, from ``k^T a = ka_num / ka_den`` and
    ``h = h_num / h_den``, where ``k = B_K w`` and ``h = B_K(w, w) / 2``.

    Row ``i < n`` is row i of ``a`` followed by ``w_i, -w_i``; rows n and
    n+1 both start with ``-(k^T a)``; the corner two-by-two block is
    ``[[1 - h, h], [-h, 1 + h]]``. The entries are written in lowest terms:
    ``a`` and ``w`` arrive canonical, ``k^T a`` and ``h`` are reduced over
    their own denominators, and over the lcm of the four each prime power
    of the denominator keeps an entry of the part it came from a unit at
    that prime, so the rows need no gcd.
    """
    g = math.gcd(ka_den, *ka_num)
    if g != 1:
        ka_num, ka_den = [x // g for x in ka_num], ka_den // g
    g = math.gcd(h_num, h_den)
    h_num, h_den = h_num // g, h_den // g
    den = math.lcm(a.den, w_den, ka_den, h_den)
    fa, fw, fk = den // a.den, den // w_den, den // ka_den
    h = h_num * (den // h_den)
    rows = [row + (fw * x, -fw * x) for row, x in zip(_scaled(a.num, fa), w_num)]
    minus_ka = tuple([-fk * x for x in ka_num])
    rows.append(minus_ka + (den - h, h))
    rows.append(minus_ka + (-h, den + h))
    return _matrix(tuple(rows), den)


def embed_translation(v: Sequence, model: LorentzModel) -> Matrix:
    """Unipotent image ``T(v)`` of a translation vector.

    :func:`embed_affine` at ``A = I``. It is the exponential
    ``I + M + M^2/2`` of the B-skew map ``M = u (B v_inf)^T - v_inf (B u)^T``,
    with ``u`` the vector ``v`` followed by two zeros; ``M`` cubes to zero,
    and ``T(v)`` preserves the model form, fixes ``v_inf``, and is additive
    in ``v``.
    """
    if len(v) != model.n:
        raise DimensionMismatch(f"expected a vector of length {model.n}, got {len(v)}")
    return embed_affine(AffineMap.translation_by(v), model)


def embed_affine(g: AffineMap, model: LorentzModel) -> Matrix:
    """Image ``T(t) R(A)`` of an affine isometry ``(A, t)``.

    ``R(A) = blockdiag(A, I_2)`` acts as ``A`` on the complement and
    trivially on the null plane; :func:`_assemble` writes the entries of
    the product from the generator's :func:`_generator_parts`, as
    :func:`embed_group` writes them. Raises ``NotFormIsometry`` when ``A``
    does not preserve the base form.
    """
    if g.dim != model.n:
        raise DimensionMismatch(
            f"affine map dimension {g.dim} does not match model dimension {model.n}"
        )
    ka_num, ka_den, h_num, h_den, isometry = _generator_parts(g, model)
    if not isometry:
        raise NotFormIsometry("linear part does not preserve the base form")
    return _assemble(g.linear, g.num, g.den, ka_num, ka_den, h_num, h_den)


def _generator_parts(g: AffineMap, model: LorentzModel) -> tuple:
    """One entry of :func:`_parts_table` for the generator ``(A, t)``, the
    flat record ``(ka_num, ka_den, h_num, h_den, isometry)``: with
    ``k = B_K t``, ``k^T A = ka_num / ka_den`` (``k`` itself when
    ``A = I``), ``h = B_K(t, t) / 2 = h_num / h_den``, and ``isometry``
    whether ``A^T B_K A = B_K``. The parts are over ``k``'s denominator
    ``den B_K * den t``, times ``den A`` for ``k^T A`` and ``2 den t`` for
    ``h``, and not reduced."""
    a, base = g.linear, model.base_form.matrix
    k_num = tuple([sum(map(mul, row, g.num)) for row in base.num])
    k_den = base.den * g.den
    ka_num = k_num if a.is_identity() else tuple([sum(map(mul, k_num, col)) for col in zip(*a.num)])
    isometry = preserves_form(a, base)
    return ka_num, k_den * a.den, sum(map(mul, g.num, k_num)), 2 * g.den * k_den, isometry


def _parts_table(model: LorentzModel, group: BieberbachGroup) -> tuple:
    """Each generator's :func:`_generator_parts`, in order, at scale 1: the
    table a :class:`LorentzEmbedding` carries. It reads the form and the
    generators only, never an image."""
    return tuple(_generator_parts(g, model) for g in group.generators)


def _checked_parts(group: BieberbachGroup, shape: ShapeDescriptor) -> tuple:
    """``(model, table)`` for a group at one of its shapes: the model of the
    shape's form and the generators' :func:`_parts_table`, after the checks
    every builder from a shape makes, in order. ``DimensionMismatch`` when
    the shape belongs to another group, ``NotPositiveDefinite`` from
    :class:`LorentzModel`, then ``NotFormIsometry`` when a linear part does
    not preserve the form, which is exactly a failure of holonomy
    invariance."""
    if shape.group != group:
        raise DimensionMismatch("shape was built for a different group")
    model = LorentzModel(shape.form)
    table = _parts_table(model, group)
    if not all(isometry for _, _, _, _, isometry in table):
        raise NotFormIsometry("linear part does not preserve the base form")
    return model, table


class LorentzEmbedding(Frozen):
    """A group's generators together with their images in ``O(B; Q)``.

    ``_parts`` is the generators' :func:`_parts_table` under the model's
    base form. The constructor computes it from the model and the group,
    never from the images; :func:`embed_group`, :func:`_integral_embedding`
    and :func:`integralize` bypass the constructor and hand over the table
    they assembled the images from.
    """

    __slots__ = ("model", "group", "images", "_parts")

    def __init__(
        self, model: LorentzModel, group: BieberbachGroup, images: Sequence[Matrix]
    ):
        if len(images) != len(group.generators):
            raise DimensionMismatch("one image per generator is required")
        if group.dim != model.n:
            raise DimensionMismatch(f"a dimension-{group.dim} group in a dimension-{model.n} model")
        size = model.ambient_dim
        if any(m.rows != size or m.cols != size for m in images):
            raise DimensionMismatch(f"images must be {size}x{size}")
        super().__init__(model, group, tuple(images), _parts_table(model, group))

    def __repr__(self) -> str:
        return f"<LorentzEmbedding group={self.group.name or 'anonymous'} n={self.model.n}>"


def embed_group(group: BieberbachGroup, shape: ShapeDescriptor) -> LorentzEmbedding:
    """Embed a group using one of its arithmetic shapes as the base form.

    The checks of :func:`_checked_parts` come first: the shape must belong
    to the group, and each generator's linear part must preserve the
    shape's form. Each image is assembled as :func:`embed_affine`
    assembles it, from the generator's entry of :func:`_parts_table`, and
    the embedding carries that table.
    """
    model, table = _checked_parts(group, shape)
    images = tuple(
        _assemble(g.linear, g.num, g.den, ka_num, ka_den, h_num, h_den)
        for g, (ka_num, ka_den, h_num, h_den, _) in zip(group.generators, table)
    )
    return _restore(LorentzEmbedding, (model, group, images, table))


def _shared_scale(embedding: LorentzEmbedding) -> tuple[int, int]:
    """The scale ``c = E[j, n] / t_j`` at the first nonzero translation
    coordinate of a generator, or 1 when every translation is zero, as
    integers ``(c_num, c_den)`` with ``c_den > 0``, not reduced."""
    n = embedding.model.n
    for g, image in zip(embedding.group.generators, embedding.images):
        for j, x in enumerate(g.num):
            if x:
                # t_j = x / g.den and E[j, n] = image.num[j][n] / image.den
                c_num, c_den = image.num[j][n] * g.den, image.den * x
                return (c_num, c_den) if x > 0 else (-c_num, -c_den)
    return 1, 1


def _decodes(
    image: Matrix,
    g: AffineMap,
    scale: tuple[int, int],
    model: LorentzModel,
    entry: tuple,
) -> bool:
    """Whether ``image`` is ``T(w) R(A)`` for the generator ``(A, t)`` and
    ``w = c t`` at ``c = c_num / c_den``: each entry is compared with the
    closed form of :func:`_assemble`, cross-multiplied by the two
    denominators, and no matrix is built. ``w`` is ``c_num`` times the
    numerators of ``t`` over ``c_den`` times their denominator, not reduced.
    A canonical image whose upper-left block is ``A`` has ``den A`` dividing
    its denominator, so that block is one comparison of a tuple of rows;
    ``A``'s rows are rescaled only when the two denominators differ.

    ``entry`` is the generator's :func:`_generator_parts`. Its ``k^T A``
    and ``h`` are those of ``t``; at ``c t`` they are ``c k^T A`` and
    ``c^2 h``, scaled here by the unreduced ``(c_num, c_den)``, so a decode
    forms no product with ``B_K`` or ``A``."""
    ka_num, ka_den, h_num, h_den, _ = entry
    n, num, den, a = model.n, image.num, image.den, g.linear
    c_num, c_den = scale
    h_num, h_den = c_num * c_num * h_num, c_den * c_den * h_den
    top, bottom = num[n], num[n + 1]
    h = top[n + 1]  # the corner is [[1 - h, h], [-h, 1 + h]]
    if top[n] != den - h or bottom[n] != -h or bottom[n + 1] != den + h or h * h_den != h_num * den:
        return False
    # rows < n end in w, -w; rows n and n+1 start with -(k^T A); the block is A
    if top[:n] != bottom[:n] or den % a.den:
        return False
    if tuple([row[:n] for row in num[:n]]) != _scaled(a.num, den // a.den):
        return False
    w_den, scaled = c_den * g.den, c_num * den
    for row, x in zip(num, g.num):
        if row[n] * w_den != scaled * x or row[n + 1] != -row[n]:
            return False
    ka_den = c_den * ka_den
    for x, y in zip(top, ka_num):
        if x * ka_den != -scaled * y:
            return False
    return True


# ---------------------------------------------------------------------------
# Integralization by hyperbolic conjugation
# ---------------------------------------------------------------------------


def integralize(embedding: LorentzEmbedding) -> tuple[LorentzEmbedding, int]:
    """Conjugate an embedding into integer matrices.

    Finds the smallest positive integer ``c`` such that conjugating every
    image by the hyperbolic element ``H_c`` of scale ``c`` yields integer
    entries. ``H_c`` is the B-isometry that scales ``v_inf`` by ``c`` (and
    ``v_0`` by ``1/c``) and fixes the complement, so it commutes with each
    linear factor ``R(A)`` and scales each translation log by ``c``:
    ``H_c T(t) R(A) H_c^{-1} = T(c t) R(A)``. Group relations are
    untouched (conjugation is an automorphism), the model form is
    preserved exactly, and all verification checks survive; decoding the
    result with :func:`verify_embedding` checks it independently. Returns
    the conjugated embedding and ``c``; an already integral embedding comes
    back unchanged with scale 1.

    Images are decoded as :func:`verify_embedding` decodes them, at the
    shared scale ``s = E[j, n] / t_j``: each must be ``T(s t) R(A)`` for its
    generator ``(A, t)``, with one ``s > 0`` for all of them. The result
    ``T(c s t) R(A)`` is then assembled from the generators' parts by
    :func:`_integral_images` at ``s``, which chooses ``c``, as it does for
    a density row at ``s = 1``.

    Raises ``NotFormIsometry`` when an ``A`` does not preserve ``B_K``,
    ``InvariantViolation`` when an image does not decode (rescaling would
    then not be a conjugation) and ``ValueError`` when an ``A`` is
    fractional; every image is decoded before any ``A`` is tested for
    integrality. The isometry verdicts, and the parts each decode scales,
    come from the table the embedding carries, and the result carries the
    same table: conjugation changes the images, not the generators.
    """
    model = embedding.model
    generators = embedding.group.generators
    table = embedding._parts
    scale = _shared_scale(embedding)
    for g, image, entry in zip(generators, embedding.images, table):
        _, _, _, _, isometry = entry
        if not isometry:
            raise NotFormIsometry("linear part does not preserve the base form")
        if scale[0] <= 0 or not _decodes(image, g, scale, model, entry):
            raise InvariantViolation(
                "an image is not the embedding of its generator; "
                "rescaling translations would not be a conjugation"
            )
    images, c = _integral_images(generators, table, scale)
    if c > 1:
        embedding = _restore(LorentzEmbedding, (model, embedding.group, images, table))
    return embedding, c


def _integral_embedding(
    group: BieberbachGroup, shape: ShapeDescriptor
) -> tuple[LorentzEmbedding, int]:
    """``integralize(embed_group(group, shape))``, with no rational image
    built: the same checks and errors, in the same order (those of
    :func:`_checked_parts`, then every linear part integral), and the
    images of :func:`_integral_images` at the shared scale 1 of
    :func:`embed_group` output. The embedding carries the table they were
    assembled from."""
    model, table = _checked_parts(group, shape)
    images, c = _integral_images(group.generators, table, (1, 1))
    return _restore(LorentzEmbedding, (model, group, images, table)), c


def _integral_images(
    generators: Sequence[AffineMap], table: tuple, scale: tuple[int, int]
) -> tuple[tuple[Matrix, ...], int]:
    """``T(c s t) R(A)`` for each generator ``(A, t)``, assembled over
    denominator 1, and the smallest positive integer ``c`` that makes them
    integral, at the shared scale ``s = s_num / s_den`` (both positive, not
    reduced); ``table`` is the generators' :func:`_parts_table`.

    Write ``w = s t``: the table's ``k^T A`` and ``h`` at ``t`` are
    ``s k^T A`` and ``s^2 h`` at ``w``. A fractional ``A`` raises
    ``ValueError``; an integral one is unimodular (a ``B_K``-isometry of
    determinant ``±1``), so ``k^T A`` has the denominators of ``k``. The
    entries of ``T(c w) R(A)`` outside ``A`` are ``c w``, ``-c k^T A`` and
    ``c^2 h``, in disjoint positions, so ``c`` is a multiple of ``L``, the
    lcm of the denominators of every ``w`` and ``k^T A``. Then
    ``c^2 h = (c w)^T (c k) / 2`` lies in ``Z/2``: the smallest scale is
    ``L`` when every ``L^2 h`` is an integer, and ``2 L`` otherwise (an odd
    multiple of ``L`` leaves the half, and ``(2 L)^2 h`` is four times a
    half). Each part is tested once, ``c^2 h`` by its ``divmod`` and
    ``c w`` and ``-c k^T A`` by the gcd of their numerators, ``c s_num``
    times that of ``t`` or ``k^T A``: a remainder raises
    ``InvariantViolation``. Each image is then written straight onto
    integer rows, one list comprehension per part, as :func:`_assemble`
    writes it: row ``i < n`` is row i of ``A`` followed by ``c w_i, -c w_i``, and
    the last two are ``-c k^T A`` followed by ``1 - c^2 h, c^2 h`` and by
    ``-c^2 h, 1 + c^2 h``.
    """
    if not all(g.linear.is_integral() for g in generators):
        raise ValueError(
            "a linear factor has fractional entries; hyperbolic conjugation "
            "cannot integralize this embedding"
        )
    s_num, s_den = scale
    # gcd(d, s x_1, ..., s x_n) is gcd(d, s gcd(x_1, ..., x_n))
    c = 1
    for g, (ka_num, ka_den, _, _, _) in zip(generators, table):
        w_den, ka_den = s_den * g.den, s_den * ka_den
        w_gcd, ka_gcd = s_num * math.gcd(*g.num), s_num * math.gcd(*ka_num)
        c = math.lcm(c, w_den // math.gcd(w_den, w_gcd), ka_den // math.gcd(ka_den, ka_gcd))
    if any((c * s_num) ** 2 * h % (s_den * s_den * h_den) for _, _, h, h_den, _ in table):
        c *= 2
    cs = c * s_num
    images = []
    for g, (ka_num, ka_den, h_num, h_den, _) in zip(generators, table):
        w_den, ka_den, h_den = s_den * g.den, s_den * ka_den, s_den * s_den * h_den
        h, h_rem = divmod(cs * cs * h_num, h_den)
        if h_rem or cs * math.gcd(*g.num) % w_den or cs * math.gcd(*ka_num) % ka_den:
            raise InvariantViolation("integralized images have fractional entries")
        rows = [row + (x, -x) for row, x in zip(g.linear.num, [cs * x // w_den for x in g.num])]
        minus_ka = tuple([-cs * x // ka_den for x in ka_num])
        rows.append(minus_ka + (1 - h, h))
        rows.append(minus_ka + (-h, 1 + h))
        images.append(Matrix.from_integer_rows(tuple(rows), 1))
    return tuple(images), c


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


# The checks of an image that decodes, decided by the decode alone: one
# shared value per (A^T B_K A = B_K, A = I, t != 0)
_DECODED = {
    (iso, tr, mv): GeneratorChecks(iso, True, True if tr else None, True, True, 3 if mv else 1)
    for iso in (False, True) for tr in (False, True) for mv in (False, True)
}


def verify_embedding(embedding: LorentzEmbedding) -> VerificationReport:
    """Recheck the finished matrices against the generators they encode.

    Per generator ``(A, t)`` with image ``E`` there are five checks: form
    preservation ``E^T B E = B``; ``E v_inf = v_inf``; for pure
    translations, characteristic polynomial ``(t-1)^(n+2)``; equivariance,
    meaning that ``E`` decodes to ``(A, c t)``, i.e. equals the closed form
    ``T(c t) R(A)`` entry by entry, for one ``c > 0`` shared by all
    generators; and the log of the unipotent factor ``E R(A)^{-1}`` cubes
    to zero. The scale ``c`` is read off the first nonzero translation
    coordinate, ``c = E[j, n] / t_j``, and is 1 when every translation is
    zero: 1 for :func:`embed_group` output, the integralization scale after
    :func:`integralize`.

    The decode is tested first, in place: each entry of the image is
    compared with the closed form of ``T(c t) R(A)``, cross-multiplied by
    the two denominators, with no matrix assembled. When it holds, the
    other four checks follow from closed forms, with no (n+2)-sized product:

    - ``T(w)`` preserves ``B`` for every ``w``, and ``R(A)`` does exactly
      when ``A`` preserves ``B_K``, so ``E^T B E = B`` is the n-by-n
      identity ``A^T B_K A = B_K``, decided by
      :func:`preserves_form` on integer rows, once per table;
    - ``T(w)`` and ``R(A)`` both fix ``v_inf``;
    - a translation image is ``T(c t)``, unipotent;
    - ``E R(A)^{-1} = T(c t)`` is the exponential ``I + M + M^2/2`` of the
      B-skew map ``M`` of :func:`embed_translation`, so the log is ``M``
      itself. ``M^3 = 0``, and ``M^2`` is ``-B_K(c t, c t)`` times a nonzero
      rank-one map, so the nilpotency degree is 3 when ``t != 0`` and 1
      when ``t = 0``.

    They read three bits alone, the isometry verdict, ``A = I`` and
    ``t != 0``, so a decoded image's checks are one of eight shared values,
    and it passes exactly when its isometry verdict holds: ``overall`` is
    formed in the loop, with no ``passed()`` call for a decoded image.
    When the decode fails, all five checks run in full on the
    (n+2)-by-(n+2) matrices, so a failure report says which of them fail.

    The verdict of ``A^T B_K A = B_K`` and the parts the decode scales
    (``k^T A`` and ``h`` at ``t``) come from the table the embedding
    carries. A report on the output of :func:`embed_group` or
    :func:`integralize` reads the table that built it.

    Decoding is enough. An element of ``O(B)`` fixing ``v_inf`` is
    ``T(w) R(A)`` with ``A`` a ``B_K``-isometry; its upper-left n-by-n block
    is ``A`` and rows ``< n`` of column n hold ``w``. Reading off ``(A, w)``
    is an isomorphism from the stabilizer of ``v_inf`` onto
    ``Isom(R^n, B_K)``, so the semidirect-product rule and every group
    relation hold for the images because they hold for the affine maps
    they decode to, with no product to recompute. A shared positive ``c``
    is conjugation by the hyperbolic element ``H_c``, a similarity of the
    flat metric, which is exactly what the similarity classes of shapes
    allow. Failures are recorded, never raised.
    """
    model = embedding.model
    scale = _shared_scale(embedding)
    results, overall = [], True
    for g, image, entry in zip(embedding.group.generators, embedding.images, embedding._parts):
        if scale[0] > 0 and _decodes(image, g, scale, model, entry):
            _, _, _, _, isometry = entry
            checks = _DECODED[isometry, g.is_translation(), any(g.num)]
            overall = overall and isometry
        else:
            checks = _full_checks(g, image, model)
            overall = overall and checks.passed()
        results.append(checks)
    return _restore(VerificationReport, (tuple(results), overall))


def _full_checks(g: AffineMap, image: Matrix, model: LorentzModel) -> GeneratorChecks:
    """Every check of :func:`verify_embedding` on an image that does not
    decode to its generator, computed on the (n+2)-by-(n+2) matrices."""
    gram = model.model_form.matrix
    ambient = model.ambient_dim
    form_preserved = preserves_form(image, gram)
    fixes_vinf = image.matvec(model.v_inf) == model.v_inf
    unipotent_translation = is_unipotent(image) if g.is_translation() else None

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
    return GeneratorChecks(
        form_preserved, fixes_vinf, unipotent_translation,
        False, degree is not None and degree <= 3, degree,
    )
