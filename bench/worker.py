"""One workload pass in a fresh interpreter, so the pass starts with the cold
caches a `digitsum` command pays on every call.

    python3 bench/worker.py WORKLOAD SEED LAUNCHED_NS [--max-cost C] [--spans PATH --pass-id K]

LAUNCHED_NS is the parent's ``time.monotonic_ns()`` just before it started
this process; set-up time runs from there until ``digitsum.cli`` is
imported.  With ``--spans`` the pass is traced and its spans are written to
PATH.  The last line of stdout is one JSON object with the measurements.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import digitsum.cli  # noqa: E402  (the import whose cost set-up time measures)

READY_NS = time.monotonic_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from fractions import Fraction  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("launched_ns", type=int)
    parser.add_argument("--max-cost", type=int, default=None)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--pass-id", type=int, default=0)
    args = parser.parse_args()
    if not Path(digitsum.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported digitsum from {digitsum.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    cases = workloads.WORKLOADS[args.workload](args.seed, args.max_cost)
    tracer = None
    if args.spans is not None:
        tracer = spans.Tracer()
        tracer.install()

    attempted = 0
    failures: list[str] = []
    wall = cpu = wall_ref = cpu_ref = 0.0
    ref = None if tracer else _reference()
    with tracer.root() if tracer else nullcontext():
        for case in cases:
            attempted += case.checks
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                failed = case.run()
            except Exception as exc:  # a failed check, reported, never a crash
                failed = [f"{case.label}: {type(exc).__name__}: {exc}"] * case.checks
            case_wall = time.perf_counter() - t0
            case_cpu = time.process_time() - cpu0
            failures += failed[: case.checks]
            wall += case_wall
            cpu += case_cpu
            if ref is not None:
                after = _reference()
                wall_ref += case_wall / ((ref[0] + after[0]) / 2)
                cpu_ref += case_cpu / ((ref[1] + after[1]) / 2)
                ref = after

    result = {
        "setup_s": (READY_NS - args.launched_ns) / 1e9,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failures": failures,
    }
    if tracer is None:
        result.update(wall_ref=wall_ref, cpu_ref=cpu_ref)
    else:
        by_name = tracer.by_name()
        result["layers"] = spans.layer_metrics(by_name, tracer.counts)
        result["spans"] = {k: [c, s / 1e9] for k, (c, s, _) in sorted(by_name.items())}
        tracer.write(args.spans, args.pass_id)
    print(json.dumps(result))
    return 0


def _reference() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed stdlib-only Fraction loop (about 30 ms
    on a 2-vCPU Xeon VM): the unit of the `*_ref` metrics.

    It shares no code with digitsum.  Timing it between the cases of a pass
    and dividing each case's time by it keeps the program's cost and cancels
    the speed the shared machine happens to run at during that case.
    """
    cpu0, t0 = time.process_time(), time.perf_counter()
    total = 0
    for i in range(4_000):
        f = Fraction(i % 17 - 8, i % 9 + 1) * Fraction(i % 5 + 1, 7) + Fraction(1, i % 11 + 1)
        total += f.numerator
    return time.perf_counter() - t0, time.process_time() - cpu0


if __name__ == "__main__":
    sys.exit(main())
