"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup``, runs one item
with ``run`` (only calls into ``flatcusps``, which is what the timed loop
measures) and judges that item's output with ``check``. ``finish`` runs
the checks that need many items, after the timed loop, and returns how
many such checks it made and how many failed. Why each workload
exists, and which layer it stresses, is in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import math
import random

# ROADMAP's acceptance configuration and the sha256 of its seed-8 CSV.
DENSITY_GROUP = "torus-2"
DENSITY_BOUNDS = (10, 100, 1000, 10**4, 10**5, 10**6)
DENSITY_SEED = 8
DENSITY_SAMPLES = 100
DENSITY_SHA256 = "ba7793eedd6db970803d07bcb940816a571f890908531086a75b25ab48fd0c4e"

CERTIFY_EXTRA_GROUPS = ("torus-4",)
# Word length of the certificate check. On a 2-vCPU Xeon VM length 4 costs
# 0.36 s per item on average, so two passes of 100 items would take over a
# minute; length 3 runs the same code (ball enumeration, char_poly mod q,
# exact unipotence test) at 0.1 s.
CERTIFY_WORD_LENGTH = 3


def integer_form(fc, rng: random.Random, n: int):
    """Seeded integer positive definite form ``A^T A + I``, entries of A in [-2, 2]."""
    a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    gram = [
        [sum(a[k][i] * a[k][j] for k in range(n)) + (i == j) for j in range(n)]
        for i in range(n)
    ]
    return fc.SymmetricForm(gram)


class DensityT2:
    """One item pushes one seeded torus-2 target through the whole bound ladder.

    A pass is the first 100 targets, which at seed 8 are the acceptance run.
    """

    name = "density-t2"
    keep_outputs = DENSITY_SAMPLES

    def setup(self, fc, seed: int) -> None:
        self.fc = fc
        self.seed = seed
        self.ladders = self.rising_ladders = 0
        self.group = fc.catalog(DENSITY_GROUP)
        targets = fc.sample_targets(self.group, DENSITY_SAMPLES + 1, seed)
        self.items = targets[:DENSITY_SAMPLES]
        self.traced = self.items[:30]
        self.config = fc.ExperimentConfig(
            self.group, 1, DENSITY_BOUNDS, seed, run_pipeline=True, torus_manifold_mode=True
        )
        warm = targets[DENSITY_SAMPLES]
        if not self.check(warm, self.run(warm)):
            raise RuntimeError("density-t2 warm-up item failed its check")
        self.ladders = self.rising_ladders = 0

    def run(self, item):
        return self.fc.run_experiment(self.config, targets=[item])

    def check(self, item, rows) -> bool:
        """Every row passed the pipeline and has a prime and a finite error.

        A rise of the error along the ladder is counted, not failed: the
        scale-free distance is not monotone under per-entry best
        approximation, and seeds other than 8 show rises (seed 1: 3 of the
        first 100 targets). The seed-8 CSV check still requires none.
        """
        self.ladders += 1
        self.rising_ladders += any(b.error > a.error for a, b in zip(rows, rows[1:]))
        return [r.denom_bound for r in rows] == list(DENSITY_BOUNDS) and all(
            r.pipeline_ok is True and r.selberg_prime and 0 <= r.error < math.inf
            for r in rows
        )

    def finish(self, outputs: list) -> tuple[int, int]:
        """Whole-run checks made and failed: at seed 8 the CSV must match ROADMAP.

        ``outputs`` holds the first pass's outputs in order.
        """
        print(f"density-t2: error rose along the ladder on {self.rising_ladders} of {self.ladders} items")
        if self.seed != DENSITY_SEED:
            return 0, 0
        if len(outputs) < DENSITY_SAMPLES or None in outputs:
            return 1, 1
        rows = [
            self.fc.DensityRow(i, r.denom_bound, r.error, r.pipeline_ok, r.selberg_prime)
            for i, out in enumerate(outputs)
            for r in out
        ]
        digest = hashlib.sha256(self.fc.rows_to_csv(rows).encode()).hexdigest()
        return 1, int(digest != DENSITY_SHA256)


class CatalogEmbed:
    """One item builds, embeds, integralizes and verifies one catalog group."""

    name = "catalog-embed"
    keep_outputs = 0
    forms_per_group = 8  # 14 names, so a pass has 112 items

    def setup(self, fc, seed: int) -> None:
        self.fc = fc
        rng = random.Random(seed)
        pairs = []
        for name in fc.catalog_names():
            dim = fc.catalog(name).dim
            pairs += [(name, integer_form(fc, rng, dim)) for _ in range(self.forms_per_group)]
        warm = pairs[0]  # the first catalog name, so set-up cost does not depend on the seed
        rng.shuffle(pairs)
        self.items = self.traced = pairs
        if not self.check(warm, self.run(warm)):
            raise RuntimeError("catalog-embed warm-up item failed its check")

    def run(self, item):
        fc = self.fc
        name, base = item
        group = fc.catalog(name)
        theta = fc.holonomy(group)
        lattice = fc.translation_lattice(group, theta)
        torsion_free = fc.is_torsion_free(group, theta, lattice)
        shape = fc.ShapeDescriptor(group, fc.theta_average(base, theta))
        embedding = fc.embed_group(group, shape)
        first = fc.verify_embedding(embedding)
        integral, scale = fc.integralize(embedding)
        second = fc.verify_embedding(integral)
        return torsion_free, first, integral, scale, second

    def check(self, item, out) -> bool:
        torsion_free, first, integral, scale, second = out
        return (
            torsion_free
            and first.overall
            and second.overall
            and scale >= 1
            and integral.group.name == item[0]
            and all(m.is_integral() for m in integral.images)
        )

    def finish(self, outputs: list) -> tuple[int, int]:
        return 0, 0


class CertifyWords:
    """One item certifies a congruence prime and rechecks it on short words.

    Set-up embeds each group with its translation-lattice basis appended as
    pure translations and integralizes, so one conjugation serves both the
    ambient generators (group generators plus ``-I``) and the unipotent
    generators (the lattice basis), as in the paper. ``flatcusps.density``'s
    own congruence leg is not used: it declares every generator image
    unipotent and so fails every non-torus group (ROADMAP item 4).
    """

    name = "certify-words"
    keep_outputs = 0
    rounds = 5  # a pass runs each of the 21 inputs five times: 105 items

    def setup(self, fc, seed: int) -> None:
        self.fc = fc
        rng = random.Random(seed)
        groups = [fc.catalog(n) for n in fc.catalog_names()]
        # Two forms per small group and one for torus-4 keep torus-4 under a
        # tenth of the items, so the p90 does not sit on its cost step.
        plan = [(g, 2) for g in groups if g.dim in (2, 3)]
        plan += [(g, 1) for g in groups if g.name in CERTIFY_EXTRA_GROUPS]
        self.items = []
        for group, forms in plan:
            for _ in range(forms):
                self.items.append(self._input(group, integer_form(fc, rng, group.dim)))
        warm = self.items[0]  # the first planned group, whatever the seed
        self.traced = list(self.items)
        rng.shuffle(self.traced)
        self.items = self.items * self.rounds
        rng.shuffle(self.items)
        if not self.check(warm, self.run(warm)):
            raise RuntimeError("certify-words warm-up item failed its check")

    def _input(self, group, base):
        fc = self.fc
        name = group.name
        theta = fc.holonomy(group)
        lattice = fc.translation_lattice(group, theta)
        extended = fc.BieberbachGroup(
            list(group.generators) + [fc.AffineMap.translation_by(c) for c in lattice.columns()],
            name=name,
        )
        shape = fc.ShapeDescriptor(extended, fc.theta_average(base, theta))
        integral, _ = fc.integralize(fc.embed_group(extended, shape))
        if not fc.verify_embedding(integral).overall:
            raise RuntimeError(f"certify-words set-up: {name} embedding failed verification")
        k = len(group.generators)
        size = integral.model.ambient_dim
        ambient = list(integral.images[:k]) + [-fc.Matrix.identity(size)]
        group_input = fc.MatrixGroupInput(size, ambient, integral.images[k:])
        return name, group_input, fc.good_prime(group_input)

    def run(self, item):
        _, group_input, _ = item
        certificate = self.fc.good_prime(group_input)
        return certificate, self.fc.verify_certificate(
            group_input, certificate, CERTIFY_WORD_LENGTH
        )

    def check(self, item, out) -> bool:
        _, _, reference = item
        certificate, verified = out
        return (
            verified is True
            and certificate.prime == reference.prime
            and certificate.bad_primes == reference.bad_primes
        )

    def finish(self, outputs: list) -> tuple[int, int]:
        return 0, 0


WORKLOADS = {w.name: w for w in (DensityT2, CatalogEmbed, CertifyWords)}
