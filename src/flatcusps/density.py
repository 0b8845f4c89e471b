"""Seeded density experiments: approximate random metrics, run the pipeline.

For a fixed group, targets are drawn as ``A^T A + eps*I`` with entries of
``A`` uniform in [-1, 1] and ``eps = 1e-3``, read exactly, and averaged
over the holonomy exactly, once per target. Each average is approximated
by arithmetic shapes at a ladder of denominator bounds; optionally every
approximant is pushed through the whole realization pipeline (embed
straight into integer matrices at the integralization scale, then verify
the integral images exactly by decoding each one) and, in torus-manifold
mode, certified with a congruence prime. The certificate is for the
ambient group of the integral images and ``-I``, a designated
finite-order test element, with the image of the translation lattice as
its unipotent subgroup. Every generator of that input is integral of
determinant ±1, so the certificate is the same on every row of an
ambient degree: it is decided once per degree, from ``-I`` alone (see
:func:`_pipeline_legs`).

Reproducibility is the point: randomness comes from a 64-bit linear
congruential generator with fixed constants (Knuth's MMIX multiplier
6364136223846793005 and increment 1442695040888963407, doubles from the
top 53 bits), so identical configurations produce byte-identical CSV on
any platform. Recorded errors measure the distance to the exactly averaged
target, since the non-invariant part of a raw target is unreachable by any
invariant shape.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

from .bieberbach import (
    BieberbachGroup,
    HolonomyGroup,
    holonomy,
    theta_average,
    translation_lattice,
)
from .errors import InvariantViolation, NotPositiveDefinite
from .exactlin import Frozen, Matrix, SymmetricForm
from .lorentz import _integral_embedding, verify_embedding
from .selberg import MatrixGroupInput, SelbergCertificate, good_prime
from .shapes import (
    ShapeDescriptor, _dyadic_form, _float_sum, _float_view, _view_distance, rationalize
)

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
LCG_MODULUS = 1 << 64

#: How far the per-row retry ladder is allowed to push the denominator
#: bound when rounding destroys definiteness (factor applied repeatedly).
RETRY_FACTOR = 10
RETRY_LIMIT = 10**9


class Lcg:
    """64-bit linear congruential generator with fixed, documented constants."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed % LCG_MODULUS

    def next_u64(self) -> int:
        self.state = (LCG_MULTIPLIER * self.state + LCG_INCREMENT) % LCG_MODULUS
        return self.state

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_symmetric(self) -> float:
        """Uniform double in [-1, 1)."""
        return 2.0 * self.uniform() - 1.0


class ExperimentConfig(Frozen):
    """Validated configuration for one density run."""

    __slots__ = (
        "group",
        "sample_count",
        "denom_bounds",
        "seed",
        "run_pipeline",
        "torus_manifold_mode",
    )

    def __init__(
        self,
        group: BieberbachGroup,
        sample_count: int,
        denom_bounds: Sequence[int],
        seed: int,
        run_pipeline: bool = False,
        torus_manifold_mode: bool = False,
    ):
        bounds = tuple(int(b) for b in denom_bounds)
        if sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if not bounds or any(b < 1 for b in bounds):
            raise ValueError("denominator bounds must be positive")
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError("denominator bounds must be strictly increasing")
        super().__init__(
            group,
            sample_count,
            bounds,
            int(seed),
            bool(run_pipeline),
            bool(torus_manifold_mode),
        )


class DensityRow(Frozen):
    """One (sample, bound) measurement.

    ``pipeline_ok`` and ``selberg_prime`` are None when the corresponding
    leg did not run; ``reason`` explains a failed leg and is exported in
    JSON only (the CSV schema is fixed).
    """

    __slots__ = ("sample_id", "denom_bound", "error", "pipeline_ok", "selberg_prime", "reason")

    def __init__(
        self,
        sample_id: int,
        denom_bound: int,
        error: float,
        pipeline_ok: Optional[bool],
        selberg_prime: Optional[int],
        reason: Optional[str] = None,
    ):
        super().__init__(sample_id, denom_bound, error, pipeline_ok, selberg_prime, reason)


def sample_targets(group: BieberbachGroup, count: int, seed: int) -> list[SymmetricForm]:
    """Deterministic positive definite target metrics ``A^T A + 1e-3 I``,
    each the exact form of its doubles. They are not averaged over the
    holonomy: :func:`run_experiment` does that, exactly."""
    if count < 1:
        raise ValueError("count must be at least 1")
    n = group.dim
    rng = Lcg(seed)
    targets = []
    for _ in range(count):
        a = [[rng.uniform_symmetric() for _ in range(n)] for _ in range(n)]
        gram = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                value = _float_sum(a[k][i] * a[k][j] for k in range(n))
                if i == j:
                    value += 1e-3
                gram[i][j] = value
                gram[j][i] = value
        targets.append(_dyadic_form(gram))
    return targets


def _rationalize_with_retry(
    target: SymmetricForm, theta: HolonomyGroup, bound: int
) -> ShapeDescriptor:
    """Approximate, enlarging the bound tenfold while rounding kills definiteness.

    The target is already the exact holonomy average, which
    :func:`rationalize` takes as its own average and rounds directly.
    The retry ladder is deterministic, so two rows whose ladders stop at
    the same effective bound get identical shapes. Errors need not fall as
    the nominal bound grows: a larger bound never rounds an entry worse,
    but the recorded error is a scale-free distance taken after a second
    holonomy average, and it can rise slightly (torus-2 at seed 1 has 3
    such rises in its first 100 targets).
    """
    effective = bound
    while True:
        try:
            return rationalize(target, theta, effective)
        except NotPositiveDefinite:
            if effective > bound * RETRY_LIMIT:
                raise
            effective *= RETRY_FACTOR


def _pipeline_legs(group: BieberbachGroup, shape: ShapeDescriptor, certify: bool) -> Optional[int]:
    """Embed into integer matrices and verify; when asked to certify,
    return the prime.

    :func:`_integral_embedding` is ``integralize(embed_group(...))``
    with no rational image built: it checks the shape, the form and the
    linear parts as that composition does, and its images come from the
    builder ``integralize`` calls, at the shared scale 1. Decoding the
    integral images is the independent check of the assembly; a failure
    raises ``InvariantViolation``, like every other leg's.

    The row's congruence input has the integral images and ``-I`` as
    ambient generators and, for each lattice basis vector ``l``, ``T(c l)``
    at the integralization scale ``c`` as unipotent ones. None of them
    has a non-unit, so :func:`good_prime`, which reads an input only
    through its degree, the unipotence of its unipotent generators and its
    non-units, certifies it as it does :func:`_degree_certificate`'s input:

    - :func:`_integral_embedding` assembles the images over denominator 1,
      so they are integral;
    - :func:`verify_embedding` decides ``A^T B_K A = B_K``, so each image
      ``E`` preserves ``B``, which is nondegenerate, and ``det E = ±1``;
    - ``-I`` has determinant ±1;
    - each ``T(c l)`` is unipotent by its closed form, and integral as the
      image of a lattice element.
    """
    integral, _ = _integral_embedding(group, shape)
    if not verify_embedding(integral).overall:
        raise InvariantViolation("re-verification after integralization failed")
    return _degree_certificate(integral.model.ambient_dim).prime if certify else None


@lru_cache(maxsize=None)
def _degree_certificate(size: int) -> SelbergCertificate:
    """The certificate of ``-I`` in degree ``size``, with no unipotent
    generator. A failure raises, and is not cached."""
    return good_prime(MatrixGroupInput(size, [-Matrix.identity(size)]))


def run_experiment(
    config: ExperimentConfig, targets: Optional[Sequence[SymmetricForm]] = None
) -> list[DensityRow]:
    """All (sample, bound) rows for a configuration, in deterministic order.

    ``targets`` overrides the seeded sampler (used by tests to inject
    exact targets); by default targets are drawn from the configured seed.
    Each target is averaged over the holonomy exactly, once, and every row
    of its ladder rounds that average and records its distance to it.
    Construction failures in the optional pipeline legs are recorded per
    row, never raised.
    """
    group = config.group
    theta = holonomy(group)
    if targets is None:
        targets = sample_targets(group, config.sample_count, config.seed)
    else:
        targets = list(targets)
        if len(targets) != config.sample_count:
            raise ValueError("explicit target count does not match sample_count")
    needs_pipeline = config.run_pipeline or config.torus_manifold_mode
    if config.torus_manifold_mode:
        translation_lattice(group, theta)  # translations that do not span raise here
    rows = []
    for sample_id, target in enumerate(targets):
        reference = theta_average(target, theta)
        reference_view = None  # read once, after the first rung's shape, as shape_distance does
        for bound in config.denom_bounds:
            shape = _rationalize_with_retry(reference, theta, bound)
            shape_view = _float_view(shape.form)
            reference_view = reference_view or _float_view(reference)
            error = _view_distance(shape_view, reference_view)
            pipeline_ok: Optional[bool] = None
            prime: Optional[int] = None
            reason: Optional[str] = None
            if needs_pipeline:
                try:
                    prime = _pipeline_legs(group, shape, config.torus_manifold_mode)
                    pipeline_ok = True
                except ValueError as exc:  # every leg failure is a ValueError
                    pipeline_ok, reason = False, f"{type(exc).__name__}: {exc}"
            rows.append(DensityRow(sample_id, bound, error, pipeline_ok, prime, reason))
    return rows


CSV_HEADER = "sample_id,denom_bound,error,pipeline_ok,selberg_prime"


def rows_to_csv(rows: Sequence[DensityRow]) -> str:
    """Fixed-schema CSV; floats use shortest round-trip formatting."""
    lines = [CSV_HEADER]
    for row in rows:
        ok = "" if row.pipeline_ok is None else ("true" if row.pipeline_ok else "false")
        prime = "" if row.selberg_prime is None else str(row.selberg_prime)
        lines.append(f"{row.sample_id},{row.denom_bound},{row.error!r},{ok},{prime}")
    return "\n".join(lines) + "\n"


def rows_to_json(rows: Sequence[DensityRow]) -> list[dict]:
    """CSV columns as JSON objects, plus the failure reason when present."""
    out = []
    for row in rows:
        item = {
            "sample_id": row.sample_id,
            "denom_bound": row.denom_bound,
            "error": row.error,
            "pipeline_ok": row.pipeline_ok,
            "selberg_prime": row.selberg_prime,
        }
        if row.reason is not None:
            item["reason"] = row.reason
        out.append(item)
    return out
