"""Command-line interface tying the pipeline together.

Exit codes: 0 on success, 1 on validation failure (malformed input,
unknown names, dimension mismatches, rejected groups), 2 on verification
failure, meaning some exact check evaluated to false. Floating-point
tolerances never decide an exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import density as density_mod
from .bieberbach import (
    BieberbachGroup,
    catalog,
    catalog_names,
    holonomy,
    is_torsion_free,
    theta_average,
    translation_lattice,
)
from .errors import (
    InvariantViolation,
    NotFormIsometry,
    NotPositiveDefinite,
    UnknownName,
)
from .lorentz import _integral_embedding, embed_group, verify_embedding
from .selberg import good_prime, verify_certificate
from .serialize import (
    build_matrix_group_input,
    certificate_to_dict,
    embedding_to_dict,
    form_to_dict,
    matrix_to_lists,
    parse_form,
    parse_group,
    parse_real_form,
    report_to_dict,
    shape_to_dict,
    vector_to_list,
)
from .shapes import ShapeDescriptor, rationalize

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2

_VERIFICATION_ERRORS = (NotPositiveDefinite, NotFormIsometry, InvariantViolation)


class _CliError(ValueError):
    """Argument-level problem; reported as a validation failure."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep 2 for verification
        raise _CliError(message)


def _load_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _CliError(f"{path}: not UTF-8: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliError(f"{path}: malformed JSON: {exc}") from None
    except RecursionError:
        raise _CliError(f"{path}: malformed JSON: nested too deeply") from None


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}") from None


def _load_group(source: str) -> BieberbachGroup:
    """A catalog name, or a path to a group JSON file."""
    if source in catalog_names():
        return catalog(source)
    if Path(source).exists():
        return parse_group(_load_json(source))
    raise UnknownName(f"{source!r} is neither a catalog name nor an existing file")


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2), flush=True)  # a closed pipe raises inside main


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for name in catalog_names():
            print(name)
        return EXIT_OK
    if not args.name:
        raise _CliError("catalog show requires a name")
    group = catalog(args.name)
    theta = holonomy(group)
    lattice = translation_lattice(group, theta)
    torsion_free = is_torsion_free(group, theta, lattice)
    print(f"name: {group.name}")
    print(f"dim: {group.dim}")
    print("generators:")
    for i, g in enumerate(group.generators):
        linear = matrix_to_lists(g.linear, f"generators[{i}].linear")
        translation = vector_to_list(g.translation, f"generators[{i}].translation")
        print(f"  [{i}] linear={linear} translation={translation}")
    print(f"holonomy order: {theta.order}")
    print(f"lattice basis (columns): {matrix_to_lists(lattice, 'lattice')}")
    print(f"torsion-free: {'true' if torsion_free else 'false'}")
    return EXIT_OK if torsion_free else EXIT_VERIFICATION


def _cmd_verify_group(args) -> int:
    group = _load_group(args.group)
    theta = holonomy(group)
    lattice = translation_lattice(group, theta)
    torsion_free = is_torsion_free(group, theta, lattice)
    _print_json(
        {
            "name": group.name,
            "dim": group.dim,
            "holonomy_order": theta.order,
            "lattice": matrix_to_lists(lattice, "lattice"),
            "torsion_free": torsion_free,
        }
    )
    return EXIT_OK if torsion_free else EXIT_VERIFICATION


def _cmd_average(args) -> int:
    group = _load_group(args.group)
    form = parse_form(_load_json(args.form))
    averaged = theta_average(form, holonomy(group))
    _print_json(form_to_dict(averaged))
    return EXIT_OK


def _cmd_approximate(args) -> int:
    group = _load_group(args.group)
    target = parse_real_form(_load_json(args.target))
    shape = rationalize(target, holonomy(group), args.denom_bound)
    _print_json(shape_to_dict(shape))
    return EXIT_OK


def _cmd_embed(args) -> int:
    group = _load_group(args.group)
    form = parse_form(_load_json(args.form))
    shape = ShapeDescriptor(group, form)
    if args.integralize:
        embedding, scale = _integral_embedding(group, shape)
    else:
        embedding, scale = embed_group(group, shape), None
    payload = {"embedding": embedding_to_dict(embedding, scale)}
    code = EXIT_OK
    if args.report:
        report = verify_embedding(embedding)
        payload["report"] = report_to_dict(report)
        if not report.overall:
            code = EXIT_VERIFICATION
    _print_json(payload)
    return code


def _cmd_selberg(args) -> int:
    group_input = build_matrix_group_input(
        _load_json(args.lambda_gens), _load_json(args.unipotent_gens)
    )
    certificate = good_prime(group_input)
    payload = certificate_to_dict(certificate)
    code = EXIT_OK
    if args.verify_words is not None:
        verified = verify_certificate(group_input, certificate, args.verify_words)
        payload["verified"] = verified
        if not verified:
            code = EXIT_VERIFICATION
    _print_json(payload)
    return code


def _parse_denoms(raw: str) -> list[int]:
    try:
        bounds = [int(x) for x in raw.split(",") if x.strip()]
    except ValueError:
        raise _CliError(f"--denoms must be comma-separated integers, got {raw!r}") from None
    if not bounds:
        raise _CliError("--denoms must list at least one bound")
    return bounds


def _cmd_density(args) -> int:
    group = _load_group(args.group)
    config = density_mod.ExperimentConfig(
        group,
        args.samples,
        _parse_denoms(args.denoms),
        args.seed,
        run_pipeline=args.pipeline,
        torus_manifold_mode=args.torus_manifold,
    )
    rows = density_mod.run_experiment(config)
    _write_text(args.output, density_mod.rows_to_csv(rows))
    if args.json_output:
        _write_text(args.json_output, json.dumps(density_mod.rows_to_json(rows), indent=2))
    failures = [r for r in rows if r.pipeline_ok is False]
    print(f"wrote {len(rows)} rows to {args.output}")
    if failures:
        print(f"{len(failures)} rows failed pipeline verification", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="flatcusps", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list or show built-in verified groups")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?")
    p.set_defaults(handler=_cmd_catalog)

    p = sub.add_parser("verify-group", help="holonomy, lattice, torsion report")
    p.add_argument("-g", "--group", required=True, help="catalog name or group JSON file")
    p.set_defaults(handler=_cmd_verify_group)

    p = sub.add_parser("average", help="holonomy-average an exact form")
    p.add_argument("-g", "--group", required=True)
    p.add_argument("-f", "--form", required=True, help="form JSON file")
    p.set_defaults(handler=_cmd_average)

    p = sub.add_parser("approximate", help="best arithmetic shape for a target metric")
    p.add_argument("-g", "--group", required=True)
    p.add_argument("-t", "--target", required=True, help="target JSON file (decimals allowed)")
    p.add_argument("-d", "--denom-bound", required=True, type=int)
    p.set_defaults(handler=_cmd_approximate)

    p = sub.add_parser("embed", help="embed a group with a given shape form")
    p.add_argument("-g", "--group", required=True)
    p.add_argument("-f", "--form", required=True, help="form JSON file")
    p.add_argument("--integralize", action="store_true")
    p.add_argument("--report", action="store_true")
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("selberg", help="congruence prime certificate")
    p.add_argument("-l", "--lambda-gens", required=True, dest="lambda_gens",
                   help="ambient group JSON file")
    p.add_argument("-u", "--unipotent-gens", required=True, dest="unipotent_gens",
                   help="unipotent subgroup JSON file")
    p.add_argument("--verify-words", type=int, default=None, metavar="K",
                   help="run the brute-force verifier up to word length K")
    p.set_defaults(handler=_cmd_selberg)

    p = sub.add_parser("density", help="seeded approximation experiment, CSV output")
    p.add_argument("-g", "--group", required=True)
    p.add_argument("--samples", required=True, type=int)
    p.add_argument("--denoms", required=True, help="comma-separated denominator bounds")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--pipeline", action="store_true")
    p.add_argument("--torus-manifold", action="store_true")
    p.add_argument("-o", "--output", required=True, help="CSV output path")
    p.add_argument("--json", dest="json_output", default=None, help="optional JSON output path")
    p.set_defaults(handler=_cmd_density)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except BrokenPipeError:  # the reader left: the rest goes to devnull, as signal's docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VALIDATION
    except _VERIFICATION_ERRORS as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (ValueError, UnknownName) as exc:  # every other library error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
