"""The benchmark workloads: fixed sizes, free inputs drawn from a seed, and
the output check of every case.

Free inputs (x, y, f, grid offsets) come from ``random.Random(seed)``
through ``digitsum.identities.random_fraction`` / ``random_poly``, so the
same seed gives the same inputs.  Each case looks up the program's function
when it runs, not when it is built, so a tracer installed after the inputs
are drawn still sees every call.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from digitsum import cli, identities, pte
from digitsum.identities import random_fraction, random_poly

# sha256 of `digitsum verify --all --seed 42` stdout, pinned in ROADMAP.md.
SUITE_SEED42_SHA256 = "341fc79919acf820079a1fc26100100eb83c65516c9d37a99d089aab6024d5a6"


@dataclass
class Case:
    """One call into the program.  ``run`` returns the failed checks as
    messages; an exception fails all ``checks`` of the case."""

    label: str
    checks: int
    run: Callable[[], list[str]]


def _report_case(label: str, verify: str, *args) -> Case:
    def run() -> list[str]:
        report = getattr(identities, verify)(*args)
        return [] if report.equal else [f"{label}: unequal report"]

    return Case(label, 1, run)


def _distinct_pair(rng: random.Random) -> tuple[Fraction, Fraction]:
    x1 = random_fraction(rng)
    x2 = random_fraction(rng)
    while x2 == x1:
        x2 = random_fraction(rng)
    return x1, x2


def suite(seed: int, max_cost: int | None) -> list[Case]:
    """`verify --all` in-process: 333 small reports plus JSON serialization."""
    argv = ["verify", "--all", "--seed", str(seed)]
    if max_cost is not None:
        argv += ["--max-cost", str(max_cost)]

    def run() -> list[str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
        text = out.getvalue()
        if code != 0:
            return [f"verify --all exited {code}: {err.getvalue().strip()}"]
        failures = [
            f"{rep['identity']} {rep['params']}: unequal report"
            for rep in json.loads(text)
            if not rep["equal"]
        ]
        digest = hashlib.sha256(text.encode()).hexdigest()
        if seed == 42 and digest != SUITE_SEED42_SHA256:
            failures.append(f"seed-42 output sha256 {digest} != pinned digest")
        return failures

    return [Case("verify --all", 1, run)]


def brute_large(seed: int, max_cost: int | None) -> list[Case]:
    """Identities whose closed side is an O(N) moment formula, so the time
    goes to the brute-force digit-weighted loop and none to beta tables."""
    rng = random.Random(seed)
    cases = []
    for b, N in ((2, 14), (3, 8), (7, 4)):
        x, y = random_fraction(rng), random_fraction(rng)
        cases.append(
            _report_case(
                f"mixed-sum-closed-form b={b} N={N}",
                "verify_mixed_closed_form", b, N, x, y, max_cost,
            )
        )
    for b, N in ((2, 12), (7, 4)):
        for which in ("N", "N+1"):
            x, y = random_fraction(rng), random_fraction(rng)
            cases.append(
                _report_case(
                    f"power-sum-{'n' if which == 'N' else 'n1'} b={b} N={N}",
                    "verify_power_sum", b, N, x, y, which, max_cost,
                )
            )
    for b, N in ((5, 5), (2, 12)):
        x, y = random_fraction(rng), random_fraction(rng, nonzero=True)
        f = random_poly(rng, N - 1)
        cases.append(
            _report_case(
                f"generalized-pte b={b} N={N}",
                "verify_generalized_pte", b, N, f, x, y, max_cost,
            )
        )
    x1, x2 = _distinct_pair(rng)
    t = random_fraction(rng)
    cases.append(
        _report_case("joint-line-base2 N=6", "verify_joint_line_base2", 6, x1, x2, t, max_cost)
    )
    return cases


def tables_large(seed: int, max_cost: int | None) -> list[Case]:
    """Identities whose time goes to beta-table expansion and CycloNum
    multiply; beta_table(7, 3) is built once and then hit twice."""
    rng = random.Random(seed)
    x, y = random_fraction(rng), random_fraction(rng)
    f = random_poly(rng, 6)
    cases = [
        _report_case(
            "difference-identity b=7 N=4", "verify_difference_identity", 7, 4, f, x, y, max_cost
        )
    ]
    for b, N in ((7, 4), (12, 3), (5, 5)):
        for order in (0, 1):
            cases.append(_report_case(f"moment{order} b={b} N={N}", "verify_moment", b, N, order))
    cases.append(_report_case("betaconv-dual2 b=5 N=4", "verify_betaconv_dual2", 5, 4, max_cost))
    cases.append(_report_case("beta-alpha-reduction N=10", "verify_beta_alpha_reduction", 10))
    return cases


def pte_search(seed: int, max_cost: int | None) -> list[Case]:
    """Grid search for small partitions: 75 (x, y) points at (b, N) = (2, 8)
    and (3, 5); every point must come back with a valid certificate."""
    rng = random.Random(seed)
    cases = []
    for b, N, nx, ny in ((2, 8, 5, 8), (3, 5, 5, 7)):
        x0, y0 = random_fraction(rng), random_fraction(rng)
        xs = [x0 + Fraction(i, 2) for i in range(nx)]
        ys = [y0 + Fraction(j, 3) for j in range(ny)]

        def run(b=b, N=N, xs=xs, ys=ys) -> list[str]:
            results = pte.search_small_solutions(b, N, xs, ys, max_cost=max_cost)
            valid = {(res.x, res.y) for res in results if res.certificate.valid}
            return [
                f"pte-search b={b} N={N}: no valid certificate at x={x} y={y}"
                for x in xs
                for y in ys
                if (x, y) not in valid
            ]

        cases.append(Case(f"pte-search b={b} N={N}", nx * ny, run))
    return cases


WORKLOADS = {
    "suite": suite,
    "brute-large": brute_large,
    "tables-large": tables_large,
    "pte-search": pte_search,
}
