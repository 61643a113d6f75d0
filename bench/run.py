"""Benchmark of the digitsum engine: run one workload for a fixed time and
print its metrics.

    python3 bench/run.py --workload suite --seed 42 --seconds 25 --trace 0

Run from anywhere inside a source tree that has ``src/digitsum``; nothing
needs installing.  Each pass runs in a fresh interpreter (bench/worker.py),
one at a time, so every pass pays the cold caches and the import a
`digitsum` command pays.  Passes repeat until ``--seconds`` have elapsed.
Pass 0 draws its inputs from ``--seed``; pass k from a seed derived from
``--seed`` and k, so a run's medians average over inputs as well as over
the machine's noise, and the same seed still gives the same inputs.

``--trace 0`` reports the end-to-end metrics (median over passes).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.
Stdout ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record (every sample, percentiles, failures, the
environment) goes to ``.bench_out/<workload>-trace<T>-seed<S>.json``;
traced passes write their spans under ``.bench_out/spans/<workload>/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"
WORKLOADS = ("suite", "brute-large", "tables-large", "pte-search")
# Raw pass times, reported next to the end-to-end metrics but not bounded:
# on a shared machine they move with its speed as much as with the code.
RAW = {"wall_s": "s", "cpu_s": "s"}
# A run must end within 180 s; stop starting passes well before that.
DEADLINE_S = 165


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=_seed, default=42)
    parser.add_argument("--seconds", type=int, default=10, help="measure this long (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--max-cost", type=int, default=None,
        help="cost cap handed to every call (default: the engine's own 2^20)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "digitsum" / "cli.py").is_file():
        print(f"error: no digitsum sources at {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)  # passes find bytecode cached, as an installed CLI does

    spans_dir = OUT / "spans" / args.workload
    if args.trace:
        for old in spans_dir.glob("pass*.csv.gz"):
            old.unlink()
    begin = time.monotonic()
    passes: list[dict] = []
    while True:
        elapsed = time.monotonic() - begin
        enough = elapsed >= args.seconds and (not args.trace or len(passes) % 2 == 0)
        if passes and (enough or elapsed >= DEADLINE_S / 2):
            break
        traced = bool(args.trace) and len(passes) % 2 == 1
        spans = spans_dir / f"pass{len(passes)}.csv.gz" if traced else None
        passes.append(_run_pass(args, len(passes), spans, begin + DEADLINE_S))
        passes[-1]["traced"] = traced

    record = _record(args, passes)
    _print_table(record)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if not record["metrics"]:
        print("error: no pass produced measurements", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["median"], "unit": m["unit"]} for k, m in record["metrics"].items()},
    }))
    return 0


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2^64), got {value}")
    return value


def _pass_seed(seed: int, index: int) -> int:
    return seed if index == 0 else random.Random(f"{seed}:{index}").randrange(2**63)


def _run_pass(args, index: int, spans: Path | None, deadline: float) -> dict:
    options = []
    if args.max_cost is not None:
        options += ["--max-cost", str(args.max_cost)]
    if spans is not None:
        options += ["--spans", str(spans), "--pass-id", str(index)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    launched = time.monotonic_ns()
    with subprocess.Popen(
        [sys.executable, str(WORKER), args.workload, str(_pass_seed(args.seed, index)),
         str(launched), *options],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"attempted": 1, "failures": [f"pass {index} timed out"]}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(err.strip().splitlines()[-3:])
        return {"attempted": 1, "failures": [f"pass {index} exited {proc.returncode}: {tail}"]}
    return json.loads(lines[-1])


def _percentile(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples above it."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    i = len(ordered) - 11
    return {"p": 100 * (i + 1) // len(ordered), "value": ordered[i]}


def _summary(samples: list[float], unit: str) -> dict:
    return {
        "median": statistics.median(samples),
        "percentile": _percentile(samples),
        "samples": len(samples),
        "unit": unit,
        "values": samples,
    }


def _record(args, passes: list[dict]) -> dict:
    measured = [p for p in passes if "wall_s" in p]
    plain = [p for p in measured if not p["traced"]]
    traced = [p for p in measured if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    failed = min(len(failures), attempted)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics: dict = {}
    raw: dict = {}
    if not args.trace and plain:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = _summary([p[m["name"]] for p in plain], m["unit"])
        raw = {k: _summary([p[k] for p in plain], unit) for k, unit in RAW.items()}
    elif args.trace and plain and traced:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in traced[0]["layers"]:
            metrics[name] = _summary([p["layers"][name] for p in traced], units[name])
        ratio = statistics.median(p["wall_s"] for p in traced) / statistics.median(
            p["wall_s"] for p in plain
        )
        metrics["trace.overhead_ratio"] = dict(
            _summary([ratio], "ratio"), samples=len(traced) + len(plain)
        )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "max_cost": args.max_cost,
        "passes": len(passes),
        "pass_seeds": [_pass_seed(args.seed, i) for i in range(len(passes))],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": failures[:20],
        "metrics": metrics,
        "raw": raw,
        "spans_by_name": _span_medians(traced),
        "env": _environment(),
    }


def _span_medians(traced: list[dict]) -> dict:
    names = sorted({k for p in traced for k in p["spans"]})
    return {
        k: {
            "calls": statistics.median(p["spans"].get(k, [0, 0])[0] for p in traced),
            "self_s": statistics.median(p["spans"].get(k, [0, 0])[1] for p in traced),
        }
        for k in names
    }


def _environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _print_table(record: dict) -> None:
    env = record["env"]
    print(
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"passes {record['passes']}  python {env['python']}  nproc {env['nproc']}  "
        f"cpu {env['cpu_model']}  commit {env['git_commit']}  src {env['src_sha256'][:12]}"
    )
    print(f"{'metric':34} {'unit':6} {'median':>14} {'percentile':>22} {'samples':>7}")
    rows = list(record["metrics"].items())
    rows += [(f"{name} (raw)", m) for name, m in record["raw"].items()]
    for name, m in rows:
        pct = m["percentile"]
        pct_text = f"p{pct['p']}={pct['value']:.6g}" if pct else "n/a (<11 samples)"
        print(f"{name:34} {m['unit']:6} {m['median']:>14.6g} {pct_text:>22} {m['samples']:>7}")
    print(
        f"{'failed_frac':34} {'ratio':6} {record['failed_frac']:>14.6g} "
        f"{record['failed']:>10} of {record['attempted']:<8} checks"
    )
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


if __name__ == "__main__":
    sys.exit(main())
