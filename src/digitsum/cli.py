"""Command-line entry point.

Subcommands: ``verify`` (identity certificates), ``weights`` (table dumps),
``pte-show`` / ``pte-search`` (partitions), ``bernoulli`` (polynomial
coefficients).  Exit codes: 0 success, 1 identity/certificate mismatch,
2 usage error, 3 cost-cap refusal.  Rationals are always serialized as
"p/q" strings, never floats.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import identities
from .arith import euler_phi
from .bernoulli import bernoulli_poly
from .cost import DEFAULT_MAX_COST, CostCapExceeded, charge
from .identities import (
    DEFAULT_SEED,
    IdentityReport,
    report_to_dict,
    scalar_to_json,
)
from .pte import cancel_common, generalized_partition, search_small_solutions, verify_power_sums
from .weights import alpha_table, beta_columns, beta_table

ENV_MAX_COST = "DIGITSUM_MAX_COST"


@dataclass
class RunConfig:
    """Resolved invocation: subcommand plus the knobs shared by all of them."""

    subcommand: str
    output_format: str
    output_path: str | None
    seed: int
    max_cost: int

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        if args.max_cost is not None:
            max_cost = parse_cost(args.max_cost)
        else:
            env = os.environ.get(ENV_MAX_COST)
            max_cost = parse_cost(env) if env else DEFAULT_MAX_COST
        return cls(
            subcommand=args.subcommand,
            output_format=args.format,
            output_path=args.output,
            seed=parse_seed(args.seed),
            max_cost=max_cost,
        )


def parse_cost(text: str) -> int:
    """Cost caps accept plain integers or power notation like 2^20."""
    text = text.strip()
    if "^" in text:
        base, _, exp = text.partition("^")
        value = int(base) ** int(exp)
    else:
        value = int(text)
    if value < 1:
        raise ValueError(f"max cost must be >= 1, got {value}")
    return value


def parse_seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {value}")
    return value


def parse_fraction(text: str) -> Fraction:
    """A rational such as ``3``, ``-1/2`` or ``0.25``; a zero denominator is
    a ValueError like any other malformed value."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_fraction_list(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_fraction(token) for token in text.split(",") if token.strip())


def parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(token) for token in text.split(",") if token.strip())


def parse_grid(spec: str, max_cost: int | None = None) -> tuple[Fraction, ...]:
    """Grid specs: an explicit comma list of rationals, or ``lo..hi/step``.

    In range form the text after ``..`` is split on ``/``: one token is a
    bare upper bound (step 1), two tokens are integer hi/step, three are
    hi plus a rational step p/q, four are rational hi and step (p/q/p/q).
    Use a comma list when that is too rigid.  A range's point count is
    charged against ``max_cost`` before the grid is built.
    """
    spec = spec.strip()
    if ".." in spec:
        lo_text, rest = spec.split("..", 1)
        lo = parse_fraction(lo_text)
        parts = rest.split("/")
        if len(parts) == 1:
            hi, step = parse_fraction(parts[0]), Fraction(1)
        elif len(parts) == 2:
            hi, step = parse_fraction(parts[0]), parse_fraction(parts[1])
        elif len(parts) == 3:
            hi, step = parse_fraction(parts[0]), parse_fraction("/".join(parts[1:]))
        elif len(parts) == 4:
            hi, step = parse_fraction("/".join(parts[:2])), parse_fraction("/".join(parts[2:]))
        else:
            raise ValueError(f"cannot parse grid range {spec!r}")
        if step <= 0:
            raise ValueError(f"grid step must be positive, got {step}")
        charge(max(0, (hi - lo) // step + 1), max_cost)
        values = []
        current = lo
        while current <= hi:
            values.append(current)
            current += step
        return tuple(values)
    return parse_fraction_list(spec)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digitsum",
        description="Exact digit-sum identity verifier and partition search.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, default_format: str) -> None:
        p.add_argument(
            "--format",
            choices=("json", "csv", "text"),
            default=default_format,
            help=f"output format (default: {default_format})",
        )
        p.add_argument("--output", default=None, help="write to this path instead of stdout")
        p.add_argument(
            "--seed", type=str, default=str(DEFAULT_SEED), help="seed for randomized inputs"
        )
        p.add_argument(
            "--max-cost",
            type=str,
            default=None,
            help=f"summand-evaluation cap, e.g. 1048576 or 2^20 "
            f"(default: ${ENV_MAX_COST} or {DEFAULT_MAX_COST})",
        )

    p_verify = sub.add_parser("verify", help="run identity verifications")
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true", help="run the full suite")
    group.add_argument(
        "--identity", help="run one identity by id: " + ", ".join(identities.FAMILY_OF)
    )
    p_verify.add_argument("--base", type=int, default=None)
    p_verify.add_argument(
        "--order", type=parse_int_list, default=None, help="order N, or comma list for multi-index sums"
    )
    p_verify.add_argument("--x", type=parse_fraction, default=None)
    p_verify.add_argument("--y", type=parse_fraction, default=None)
    p_verify.add_argument("--x-list", type=parse_fraction_list, default=None, help="comma list of rationals")
    p_verify.add_argument("--y-list", type=parse_fraction_list, default=None, help="comma list of rationals")
    p_verify.add_argument("--x1", type=parse_fraction, default=None)
    p_verify.add_argument("--x2", type=parse_fraction, default=None)
    p_verify.add_argument("--t", type=parse_fraction, default=None)
    p_verify.add_argument("--l", type=int, default=None, help="power for the mixed sums")
    p_verify.add_argument("--draws", type=int, default=3, help="random draws per configuration")
    p_verify.add_argument(
        "--timings", action="store_true", help="include wall-clock timings in the output"
    )
    common(p_verify, "json")

    p_weights = sub.add_parser("weights", help="dump a weight table")
    p_weights.add_argument("--base", type=int, required=True)
    p_weights.add_argument("--order", type=int, required=True)
    p_weights.add_argument("--kind", choices=("alpha", "beta"), default="beta")
    common(p_weights, "json")

    p_show = sub.add_parser("pte-show", help="print one partition with its certificate")
    p_show.add_argument("--base", type=int, required=True)
    p_show.add_argument("--order", type=int, required=True)
    p_show.add_argument("--x", type=parse_fraction, required=True)
    p_show.add_argument("--y", type=parse_fraction, required=True)
    p_show.add_argument("--kmax", type=int, default=None, help="check powers up to this (default N-1)")
    common(p_show, "text")

    p_search = sub.add_parser("pte-search", help="grid search for small partitions")
    p_search.add_argument("--base", type=int, required=True)
    p_search.add_argument("--order", type=int, required=True)
    p_search.add_argument("--x-grid", required=True, help="comma list or lo..hi/step")
    p_search.add_argument("--y-grid", required=True, help="comma list or lo..hi/step")
    p_search.add_argument("--top", type=int, default=10, help="keep this many best results")
    p_search.add_argument("--kmax", type=int, default=None)
    p_search.add_argument(
        "--min-size", type=int, default=1, help="drop reduced partitions smaller than this (default: 1)"
    )
    common(p_search, "json")

    p_bern = sub.add_parser("bernoulli", help="print Bernoulli polynomial coefficients")
    p_bern.add_argument("--degree", type=int, required=True)
    common(p_bern, "text")

    return parser


def _emit(text: str, output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
    else:
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# verify


def _single_identity_reports(args, rng: random.Random, max_cost: int) -> list[IdentityReport]:
    """The id's default point with the given flags laid over it, run once,
    or ``--draws`` times when the suite draws that family more than once."""
    name = args.identity
    family = identities.FAMILY_OF.get(name)
    if family is None:
        raise ValueError(f"unknown identity {name!r}")
    flags = {
        "b": args.base, "x": args.x, "y": args.y, "x1": args.x1, "x2": args.x2, "t": args.t,
        "l": args.l, "x_list": args.x_list, "y_list": args.y_list, "N_list": args.order,
    }
    defaults = family.defaults[name]
    if args.order is not None and "N" in defaults:
        if len(args.order) != 1:
            raise ValueError(f"{name} takes one order, got --order {','.join(map(str, args.order))}")
        flags["N"] = args.order[0]
    point = {key: value if flags.get(key) is None else flags[key] for key, value in defaults.items()}
    point["id"] = name
    draws = max(args.draws, 1) if family.draws > 1 else 1
    charge(draws, max_cost)
    return [rep for _ in range(draws) for rep in family.case(rng, point, max_cost)]


def _format_reports(reports: list[IdentityReport], fmt: str, timings: bool) -> str:
    if fmt == "json":
        payload = [report_to_dict(rep, include_timing=timings) for rep in reports]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["identity", "params", "lhs", "rhs", "equal"])
        for rep in reports:
            writer.writerow(
                [
                    rep.identity,
                    json.dumps({k: scalar_to_json(v) for k, v in rep.params.items()}, sort_keys=True),
                    json.dumps(scalar_to_json(rep.lhs)),
                    json.dumps(scalar_to_json(rep.rhs)),
                    rep.equal,
                ]
            )
        return buffer.getvalue()
    lines = []
    for rep in reports:
        bits = " ".join(f"{k}={scalar_to_json(v)}" for k, v in rep.params.items())
        status = "ok" if rep.equal else "MISMATCH"
        suffix = f" [{rep.elapsed_ms:.1f} ms]" if timings and rep.elapsed_ms is not None else ""
        lines.append(f"{rep.identity}: {status} ({bits}){suffix}")
    total = len(reports)
    good = sum(rep.equal for rep in reports)
    lines.append(f"{good}/{total} identities verified")
    return "\n".join(lines) + "\n"


def _cmd_verify(args, config: RunConfig) -> int:
    if args.all:
        reports = identities.run_suite(seed=config.seed, max_cost=config.max_cost)
    else:
        rng = random.Random(config.seed)
        reports = _single_identity_reports(args, rng, config.max_cost)
        for rep in reports:
            rep.params.setdefault("seed", config.seed)
    _emit(_format_reports(reports, config.output_format, args.timings), config.output_path)
    return 0 if all(rep.equal for rep in reports) else 1


# ---------------------------------------------------------------------------
# weights


def _cmd_weights(args, config: RunConfig) -> int:
    b, N, kind = args.base, args.order, args.kind
    if kind == "alpha" and b != 2:
        raise ValueError("alpha tables exist only for base 2")
    if N >= 0:  # a negative order is left to the builders' usage error
        charge(b ** (N + 1) - N - 1, config.max_cost)
    if config.output_format == "text":
        table = alpha_table(N) if kind == "alpha" else beta_table(b, N)
        lines = [f"{kind} table b={b} N={N} ({len(table)} entries)"]
        for k, v in enumerate(table):
            lines.append(f"  {k}: {v}")
        _emit("\n".join(lines) + "\n", config.output_path)
        return 0
    # Every entry has integer coordinates, and str(int) == str(Fraction(int)).
    if kind == "alpha":
        coeff_lists = [[str(v)] for v in alpha_table(N)]
    else:
        coeff_lists = [list(map(str, coords)) for coords in zip(*beta_columns(b, N))]
    if config.output_format == "json":
        payload = {
            "b": b,
            "N": N,
            "kind": kind,
            "phi_b": euler_phi(b),
            "values": coeff_lists,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        phi = euler_phi(b)
        writer.writerow(["k"] + [f"c{i}" for i in range(phi if kind == "beta" else 1)])
        for k, coeffs in enumerate(coeff_lists):
            writer.writerow([k] + coeffs)
        text = buffer.getvalue()
    _emit(text, config.output_path)
    return 0


# ---------------------------------------------------------------------------
# pte


def _class_lines(label: str, expanded: list[list[Fraction]]) -> list[str]:
    return [
        f"{label} {i}: " + ", ".join(str(v) for v in values)
        for i, values in enumerate(expanded)
    ]


def _cmd_pte_show(args, config: RunConfig) -> int:
    kmax = args.kmax if args.kmax is not None else args.order - 1
    # Power-sum terms of one certificate; bad values are left to the usage errors.
    if args.base >= 2 and args.order >= 1 and kmax >= 0:
        charge(args.base**args.order * (kmax + 1), config.max_cost)
    partition = generalized_partition(args.base, args.order, args.x, args.y, config.max_cost)
    certificate = verify_power_sums(partition, kmax)
    reduced = cancel_common(partition)
    reduced_certificate = verify_power_sums(reduced, kmax)

    if config.output_format == "json":
        payload = {
            "b": partition.b,
            "N": partition.N,
            "x": str(partition.x),
            "y": str(partition.y),
            "classes": [[str(v) for v in values] for values in partition.expanded()],
            "power_sums": [[str(v) for v in row] for row in certificate.power_sums],
            "valid": certificate.valid,
            "reduced": {
                "classes": [[str(v) for v in values] for values in reduced.expanded()],
                "size": reduced.reduced_size,
                "power_sums": [[str(v) for v in row] for row in reduced_certificate.power_sums],
                "valid": reduced_certificate.valid,
            },
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif config.output_format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["class", "values", "power_sums"])
        for i, values in enumerate(partition.expanded()):
            writer.writerow(
                [i, " ".join(map(str, values)), " ".join(map(str, certificate.power_sums[i]))]
            )
        text = buffer.getvalue()
    else:
        lines = [f"base={partition.b} order={partition.N} x={partition.x} y={partition.y}"]
        lines += _class_lines("class", partition.expanded())
        lines.append(f"power sums (k = 0..{kmax}):")
        for k in range(kmax + 1):
            row = " = ".join(str(certificate.power_sums[i][k]) for i in range(partition.b))
            lines.append(f"  k={k}: {row}")
        lines.append(f"certificate: {'VALID' if certificate.valid else 'INVALID'} (k <= {kmax})")
        lines.append(f"reduced partition (size {reduced.reduced_size}):")
        lines += _class_lines("reduced class", reduced.expanded())
        text = "\n".join(lines) + "\n"
    _emit(text, config.output_path)
    return 0 if certificate.valid and reduced_certificate.valid else 1


def _cmd_pte_search(args, config: RunConfig) -> int:
    if args.top < 1:
        raise ValueError(f"--top must be >= 1, got {args.top}")
    results = search_small_solutions(
        args.base,
        args.order,
        parse_grid(args.x_grid, config.max_cost),
        parse_grid(args.y_grid, config.max_cost),
        k_max=args.kmax,
        min_size=args.min_size,
        max_cost=config.max_cost,
    )[: args.top]
    if config.output_format == "json":
        payload = {
            "b": args.base,
            "N": args.order,
            "solutions": [
                {
                    "x": str(res.x),
                    "y": str(res.y),
                    "classes": [[str(v) for v in values] for values in res.reduced.expanded()],
                    "reduced_size": res.reduced.reduced_size,
                    "power_sums": [[str(v) for v in row] for row in res.certificate.power_sums],
                }
                for res in results
            ],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif config.output_format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["x", "y", "reduced_size", "classes"])
        for res in results:
            writer.writerow(
                [
                    res.x,
                    res.y,
                    res.reduced.reduced_size,
                    " | ".join(" ".join(map(str, values)) for values in res.reduced.expanded()),
                ]
            )
        text = buffer.getvalue()
    else:
        lines = [f"search base={args.base} order={args.order}: {len(results)} result(s)"]
        for res in results:
            classes = " | ".join(
                "{" + ", ".join(map(str, values)) + "}" for values in res.reduced.expanded()
            )
            lines.append(f"  x={res.x} y={res.y} size={res.reduced.reduced_size}: {classes}")
        text = "\n".join(lines) + "\n"
    _emit(text, config.output_path)
    return 0


def _cmd_bernoulli(args, config: RunConfig) -> int:
    d = args.degree
    if d >= 0:  # a negative degree is left to bernoulli_poly's usage error
        charge((d + 1) * (d + 2) // 2, config.max_cost)  # Akiyama-Tanigawa steps
    poly = bernoulli_poly(d)
    coeffs = list(poly.coeffs) or [Fraction(0)]
    if config.output_format == "json":
        text = json.dumps({"degree": args.degree, "coeffs": [str(c) for c in coeffs]}) + "\n"
    elif config.output_format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["power", "coefficient"])
        for i, c in enumerate(coeffs):
            writer.writerow([i, c])
        text = buffer.getvalue()
    else:
        terms = ", ".join(f"x^{i}: {c}" for i, c in enumerate(coeffs))
        text = f"B_{args.degree}(x) coefficients (constant first): {terms}\n"
    _emit(text, config.output_path)
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "weights": _cmd_weights,
    "pte-show": _cmd_pte_show,
    "pte-search": _cmd_pte_search,
    "bernoulli": _cmd_bernoulli,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config = RunConfig.from_args(args)
        return _COMMANDS[args.subcommand](args, config)
    except CostCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
