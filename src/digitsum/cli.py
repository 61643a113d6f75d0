"""Command-line entry point.

Subcommands: ``verify`` (identity certificates), ``weights`` (table dumps),
``pte-show`` / ``pte-search`` (partitions), ``bernoulli`` (polynomial
coefficients).  Exit codes: 0 success, 1 identity/certificate mismatch,
2 usage error, 3 cost-cap refusal.  Rationals are always serialized as
"p/q" strings, never floats.

Each ``_cmd_*`` takes the parsed arguments and the resolved cost cap and
returns ``(exit_code, text)``; :func:`run` is the one place that writes the
text, to stdout or ``--output``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import identities
from .bernoulli import bernoulli_poly
from .cost import COST_CEILING, DEFAULT_MAX_COST, CostCapExceeded, bernoulli_steps, block_size, charge, table_size
from .digits import check_block
from .identities import DEFAULT_SEED, IdentityReport, report_to_dict
from .pte import cancel_common, generalized_partition, search_small_solutions, verify_power_sums
from .weights import alpha_table, beta_columns, from_columns

ENV_MAX_COST = "DIGITSUM_MAX_COST"


def parse_cost(text: str) -> int:
    """Cost caps accept plain integers or power notation like 2^20, from 1
    to 2^64.  A negative exponent, or a larger cap by its digit count or by
    its exponent times the base's bit length, is refused before it is built."""
    text = text.strip()
    if "^" in text:
        base, _, exp = text.partition("^")
        base, exp = int(base), int(exp)
        if exp < 0:
            raise ValueError(f"exponent must be >= 0, got {exp}")
        # |base|^exp >= 2^((bit length - 1) * exp)
        huge = (abs(base).bit_length() - 1) * exp >= COST_CEILING.bit_length()
        value = None if huge else base**exp
    else:
        digits = text.replace("_", "").lstrip("+-").lstrip("0")
        value = None if digits.isdigit() and len(digits) > len(str(COST_CEILING)) else int(text)
    if value is None or abs(value) > COST_CEILING:
        raise ValueError("max cost must be between 1 and 2^64")
    if value < 1:
        raise ValueError(f"max cost must be >= 1, got {value}")
    return value


def _max_cost(flag: str | None) -> int:
    """``--max-cost``, else a nonempty ``$DIGITSUM_MAX_COST``, else the default;
    a malformed value is a usage error that names where it came from."""
    if flag is not None:
        source, text = "--max-cost", flag
    else:
        source, text = f"${ENV_MAX_COST}", os.environ.get(ENV_MAX_COST) or None
    if text is None:
        return DEFAULT_MAX_COST
    try:
        return parse_cost(text)
    except ValueError as exc:
        raise ValueError(f"{source} {text!r}: {exc}") from None


def parse_seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {value}")
    return value


def parse_fraction(text: str) -> Fraction:
    """A rational such as ``3``, ``-1/2``, ``0.25`` or ``1e-3``; a zero
    denominator is a ValueError like any other malformed value.  An exponent
    above 4300 in magnitude, the interpreter's default limit on the digits
    of a literal, is refused before 10^exponent is built."""
    exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*$", text)
    if exponent and abs(int(exponent[1])) > 4300:
        raise ValueError(f"exponent of {text!r} is above 4300 in magnitude")
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

    In range form the text after ``..`` is split on ``/``; the first half
    of the tokens (at least one) is hi and the rest is the step.  So one
    token is a bare upper bound (step 1), two are integer hi/step, three
    are hi plus a rational step p/q, four are rational hi and step (p/q/p/q).
    Use a comma list when that is too rigid.  A range's point count is
    charged against ``max_cost`` before the grid is built.
    """
    spec = spec.strip()
    if ".." in spec:
        lo_text, rest = spec.split("..", 1)
        lo = parse_fraction(lo_text)
        parts = rest.split("/")
        if len(parts) > 4:
            raise ValueError(f"cannot parse grid range {spec!r}")
        cut = max(1, len(parts) // 2)
        hi = parse_fraction("/".join(parts[:cut]))
        step = parse_fraction("/".join(parts[cut:])) if len(parts) >= 2 else Fraction(1)
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


def _grid_flag(flag: str, spec: str, max_cost: int) -> tuple[Fraction, ...]:
    """``parse_grid`` with the flag and its spec in front of any usage error,
    an empty grid among them."""
    try:
        grid = parse_grid(spec, max_cost)
        if not grid:
            raise ValueError("grid is empty")
        return grid
    except ValueError as exc:
        raise ValueError(f"{flag} {spec!r}: {exc}") from None


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
    # Single-id flags land under their point keys, ready for run_identity.
    p_verify.add_argument("--base", dest="b", metavar="BASE", type=int, default=None)
    p_verify.add_argument(
        "--order", dest="N_list", metavar="ORDER", type=parse_int_list, default=None,
        help="order N, or comma list for multi-index sums",
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
    p_verify.add_argument(
        "--seed", type=str, default=str(DEFAULT_SEED), help="seed for randomized inputs"
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


def _json(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for byte,
    in one pass.  Before 3.13 the stdlib indents only in pure Python, about
    twice as slow as this writer; one writer keeps every Python on the same
    code.  Payloads are dicts with str keys, lists, tuples, str,
    int, bool, None and finite floats; anything else is a TypeError, and a
    NaN or infinity is a ValueError, as under ``allow_nan=False``."""
    parts: list[str] = []
    append = parts.append
    escape = json.encoder.encode_basestring_ascii
    # seps[d] = (newline and indent of an item at depth d + 1, the same after
    # a comma, newline and indent of the closing bracket at depth d).
    seps: list[tuple[str, str, str]] = []

    def write(o, depth: int) -> None:
        kind = type(o)
        if kind is str:
            append(escape(o))
        elif kind is dict or kind is list or kind is tuple:
            if not o:
                append("{}" if kind is dict else "[]")
                return
            if depth == len(seps):
                inner = "\n" + "  " * (depth + 1)
                seps.append((inner, "," + inner, "\n" + "  " * depth))
            first, sep, close = seps[depth]
            depth += 1
            if kind is dict:
                append("{")
                for key in sorted(o):
                    append(first)
                    first = sep
                    append(escape(key))  # a TypeError for a key that is not a str
                    append(": ")
                    write(o[key], depth)
                append(close)
                append("}")
            else:
                append("[")
                for item in o:
                    append(first)
                    first = sep
                    write(item, depth)
                append(close)
                append("]")
        elif kind is int:
            append(int.__repr__(o))
        elif kind is bool:
            append("true" if o else "false")
        elif o is None:
            append("null")
        elif kind is float:
            if not math.isfinite(o):
                raise ValueError(f"out of range float value: {o!r}")
            append(float.__repr__(o))
        else:
            raise TypeError(f"object of type {kind.__name__} is not JSON serializable")

    write(payload, 0)
    append("\n")
    return "".join(parts)


def _csv(header: list, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# verify


def _format_reports(reports: list[IdentityReport], fmt: str, timings: bool) -> str:
    rows = [report_to_dict(rep, include_timing=timings) for rep in reports]
    if fmt == "json":
        return _json(rows)
    if fmt == "csv":
        # The elapsed_ms column exists only under --timings, so default bytes hold.
        timed = ["elapsed_ms"] if timings else []
        return _csv(
            ["identity", "params", "lhs", "rhs", "equal", *timed],
            (
                [
                    row["identity"],
                    json.dumps(row["params"], sort_keys=True),
                    json.dumps(row["lhs"]),
                    json.dumps(row["rhs"]),
                    row["equal"],
                    *(row[key] for key in timed),
                ]
                for row in rows
            ),
        )
    lines = []
    for row in rows:
        bits = " ".join(f"{k}={v}" for k, v in row["params"].items())
        status = "ok" if row["equal"] else "MISMATCH"
        suffix = f" [{row['elapsed_ms']:.1f} ms]" if row["elapsed_ms"] is not None else ""
        lines.append(f"{row['identity']}: {status} ({bits}){suffix}")
    good = sum(row["equal"] for row in rows)
    lines.append(f"{good}/{len(rows)} identities verified")
    return "\n".join(lines) + "\n"


def _cmd_verify(args, max_cost: int) -> tuple[int, str]:
    seed = parse_seed(args.seed)
    if args.all:
        reports = identities.run_suite(seed=seed, max_cost=max_cost)
    else:
        reports = identities.run_identity(args.identity, vars(args), args.draws, seed, max_cost)
    code = 0 if all(rep.equal for rep in reports) else 1
    return code, _format_reports(reports, args.format, args.timings)


# ---------------------------------------------------------------------------
# weights


def _cmd_weights(args, max_cost: int) -> tuple[int, str]:
    b, N, kind = args.base, args.order, args.kind
    if kind == "alpha" and b != 2:
        raise ValueError("alpha tables exist only for base 2")
    check_block(b, N)
    charge(table_size(b, N, max_cost), max_cost)
    # The phi(b) integer power-basis columns of the table; base 2 has one.
    columns = (alpha_table(N),) if kind == "alpha" else beta_columns(b, N)
    if args.format == "text":
        table = from_columns(b, columns)
        lines = [f"{kind} table b={b} N={N} ({len(table)} entries)"]
        for k, v in enumerate(table):
            lines.append(f"  {k}: {v}")
        return 0, "\n".join(lines) + "\n"
    # Every entry has integer coordinates, and str(int) == str(Fraction(int)).
    coeff_lists = [list(map(str, coords)) for coords in zip(*columns)]
    if args.format == "json":
        return 0, _json({"b": b, "N": N, "kind": kind, "phi_b": len(columns), "values": coeff_lists})
    header = ["k"] + [f"c{i}" for i in range(len(columns))]
    return 0, _csv(header, ([k] + coeffs for k, coeffs in enumerate(coeff_lists)))


# ---------------------------------------------------------------------------
# pte


def _class_lines(label: str, expanded: list[list[Fraction]]) -> list[str]:
    return [
        f"{label} {i}: " + ", ".join(str(v) for v in values)
        for i, values in enumerate(expanded)
    ]


def _cmd_pte_show(args, max_cost: int) -> tuple[int, str]:
    kmax = args.kmax if args.kmax is not None else args.order - 1
    check_block(args.base, args.order, 1)
    if kmax < 0:
        raise ValueError(f"--kmax must be >= 0, got {kmax}")
    charge(block_size(args.base, args.order, max_cost) * (kmax + 1), max_cost)  # one certificate's power sums
    partition = generalized_partition(args.base, args.order, args.x, args.y, max_cost)
    certificate = verify_power_sums(partition, kmax)
    reduced = cancel_common(partition)
    reduced_certificate = verify_power_sums(reduced, kmax)
    code = 0 if certificate.valid and reduced_certificate.valid else 1

    if args.format == "json":
        return code, _json({
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
        })
    if args.format == "csv":
        return code, _csv(
            ["class", "values", "power_sums"],
            (
                [i, " ".join(map(str, values)), " ".join(map(str, certificate.power_sums[i]))]
                for i, values in enumerate(partition.expanded())
            ),
        )
    lines = [f"base={partition.b} order={partition.N} x={partition.x} y={partition.y}"]
    lines += _class_lines("class", partition.expanded())
    lines.append(f"power sums (k = 0..{kmax}):")
    for k in range(kmax + 1):
        row = " = ".join(str(certificate.power_sums[i][k]) for i in range(partition.b))
        lines.append(f"  k={k}: {row}")
    lines.append(f"certificate: {'VALID' if certificate.valid else 'INVALID'} (k <= {kmax})")
    lines.append(f"reduced partition (size {reduced.reduced_size}):")
    lines += _class_lines("reduced class", reduced.expanded())
    return code, "\n".join(lines) + "\n"


def _cmd_pte_search(args, max_cost: int) -> tuple[int, str]:
    if args.top < 1:
        raise ValueError(f"--top must be >= 1, got {args.top}")
    if args.kmax is not None and args.kmax < 0:
        raise ValueError(f"--kmax must be >= 0, got {args.kmax}")
    results = search_small_solutions(
        args.base,
        args.order,
        _grid_flag("--x-grid", args.x_grid, max_cost),
        _grid_flag("--y-grid", args.y_grid, max_cost),
        k_max=args.kmax,
        min_size=args.min_size,
        max_cost=max_cost,
    )[: args.top]
    if args.format == "json":
        return 0, _json({
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
        })
    if args.format == "csv":
        return 0, _csv(
            ["x", "y", "reduced_size", "classes"],
            (
                [
                    res.x,
                    res.y,
                    res.reduced.reduced_size,
                    " | ".join(" ".join(map(str, values)) for values in res.reduced.expanded()),
                ]
                for res in results
            ),
        )
    lines = [f"search base={args.base} order={args.order}: {len(results)} result(s)"]
    for res in results:
        classes = " | ".join("{" + ", ".join(map(str, values)) + "}" for values in res.reduced.expanded())
        lines.append(f"  x={res.x} y={res.y} size={res.reduced.reduced_size}: {classes}")
    return 0, "\n".join(lines) + "\n"


def _cmd_bernoulli(args, max_cost: int) -> tuple[int, str]:
    d = args.degree
    charge(bernoulli_steps(d), max_cost)
    coeffs = list(bernoulli_poly(d).coeffs) or [Fraction(0)]
    if args.format == "json":
        return 0, _json({"degree": d, "coeffs": [str(c) for c in coeffs]})
    if args.format == "csv":
        return 0, _csv(["power", "coefficient"], enumerate(coeffs))
    terms = ", ".join(f"x^{i}: {c}" for i, c in enumerate(coeffs))
    return 0, f"B_{d}(x) coefficients (constant first): {terms}\n"


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
    # Exact output is the contract, so a result the cost cap allowed prints
    # however many digits it has.  Python 3.10.0-3.10.6 have no such limit.
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        code, text = _COMMANDS[args.subcommand](args, _max_cost(args.max_cost))
        _emit(text, args.output)
        return code
    except CostCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # OSError: an unwritable --output
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
