"""In-memory span tracer for one benchmark pass, installed from outside the
program.

``Tracer.install`` replaces every public function of each digitsum module
(its ``__all__``), the CycloNum operators, ``RationalPoly.__call__``,
``cli.run`` and the CLI's report serializer with wrappers that record a
span: name, start, end and parent span.  A function imported by name into
another module is replaced there too, so every call site is seen.  Spans
stay in flat arrays until the pass ends; ``layer_metrics`` then reduces
them to per-layer counts and self times, and ``write`` saves them.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the root span.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from digitsum import arith, bernoulli, cli, cost, digits, findiff, identities, poly, pte, weights
from digitsum.arith import CycloNum
from digitsum.poly import RationalPoly

MODULES = {
    "arith": arith,
    "bernoulli": bernoulli,
    "cost": cost,
    "digits": digits,
    "findiff": findiff,
    "identities": identities,
    "poly": poly,
    "pte": pte,
    "weights": weights,
}

ARITH_GROUPS = {
    "add": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"),
    "mul": ("__mul__", "__rmul__", "__pow__"),
    "inverse": ("inverse", "__truediv__", "__rtruediv__"),
}

ROOT = "bench.pass"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, hook=None):
        """Wrap ``fn`` so each call records one span; ``hook(args, kwargs,
        result)`` updates counters after a call returns."""
        nid = self._nid(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        counts = self.counts
        raised = name + ".raised"
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[raised] += 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, fn, name: str):
        """Wrap a generator function: one span for the call and one
        ``<name>.next`` span per item, each a child of the consumer's span."""
        create = self.wrap(fn, name)
        nid = self._nid(name + ".next")
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        counts = self.counts
        values = name.split(".")[0] + ".values"
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = create(*args, **kwargs)

            def items():
                while True:
                    sid = len(names)
                    names.append(nid)
                    parents.append(stack[-1])
                    ends.append(0)
                    stack.append(sid)
                    starts.append(clock())
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        ends[sid] = clock()
                        stack.pop()
                    counts[values] += 1
                    yield value

            return items()

        return traced

    @contextmanager
    def root(self):
        """Record the span that covers the whole pass."""
        sid = len(self.name)
        self.name.append(self._nid(ROOT))
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(sid)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[sid] = time.perf_counter_ns()
            self.stack.pop()

    def install(self) -> None:
        hooks = self._hooks()
        for prefix, module in MODULES.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isclass(fn) or not callable(fn):
                    continue
                name = f"{prefix}.{attr}"
                if inspect.isgeneratorfunction(fn):
                    wrapped = self.wrap_generator(fn, name)
                else:
                    if name.startswith("identities.verify_"):
                        name_hook = hooks["identities.verify_*"]
                    else:
                        name_hook = hooks.get(name)
                    wrapped = self.wrap(fn, name, name_hook)
                _replace_everywhere(fn, wrapped)
        for group in ARITH_GROUPS.values():
            for op in group:
                setattr(CycloNum, op, self.wrap(vars(CycloNum)[op], f"arith.CycloNum.{op}"))
        RationalPoly.__call__ = self.wrap(vars(RationalPoly)["__call__"], "poly.RationalPoly.__call__")
        cli.run = self.wrap(cli.run, "cli.run")
        cli._format_reports = self.wrap(cli._format_reports, "cli.serialize", hooks["cli.serialize"])

    def _hooks(self) -> dict:
        counts = self.counts
        beta_cache = weights.beta_table
        lhs_signature = inspect.signature(findiff.lhs_sum)
        seen_misses = [beta_cache.cache_info().misses]

        def digit_sum(args, kwargs, result):
            counts["digits.values"] += 1

        def lhs_sum(args, kwargs, result):
            bound = lhs_signature.bind(*args, **kwargs).arguments
            counts["findiff.lhs_sum.terms"] += bound["b"] ** bound["N"]

        def beta_table(args, kwargs, result):
            misses = beta_cache.cache_info().misses
            if misses > seen_misses[0]:
                counts["weights.beta_table.misses"] += misses - seen_misses[0]
                counts["weights.beta_table.entries"] += len(result)
                seen_misses[0] = misses

        def verify(args, kwargs, result):
            counts["identities.reports"] += 1
            counts["identities.unequal"] += not result.equal

        def partition(args, kwargs, result):
            counts["pte.points"] += 1

        def cancel(args, kwargs, result):
            counts["pte.cancelled"] += 1
            counts["pte.nontrivial"] += result.reduced_size > 0
            counts["pte.size_before"] += args[0].size
            counts["pte.size_after"] += result.reduced_size

        def certify(args, kwargs, result):
            counts["pte.certificates"] += 1
            counts["pte.valid"] += result.valid

        def charge(args, kwargs, result):
            counts["cost.charged"] += args[0] if args else kwargs["cost"]

        def serialize(args, kwargs, result):
            counts["cli.out_bytes"] += len(result.encode())

        return {
            "digits.digit_sum": digit_sum,
            "findiff.lhs_sum": lhs_sum,
            "weights.beta_table": beta_table,
            "identities.verify_*": verify,
            "pte.generalized_partition": partition,
            "pte.cancel_common": cancel,
            "pte.verify_power_sums": certify,
            "cost.charge": charge,
            "cli.serialize": serialize,
        }

    def by_name(self) -> dict[str, tuple[int, int, int]]:
        """Span name -> (calls, self ns, total ns)."""
        n = len(self.name)
        child = [0] * n
        starts, ends, parents = self.start, self.end, self.parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        total_ns: Counter = Counter()
        for i in range(n):
            nid = self.name[i]
            dur = ends[i] - starts[i]
            calls[nid] += 1
            self_ns[nid] += dur - child[i]
            total_ns[nid] += dur
        return {self.names[k]: (calls[k], self_ns[k], total_ns[k]) for k in calls}

    def write(self, path: Path, pass_id: int) -> None:
        """Write the spans as gzip CSV, times in ns from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", compresslevel=1, newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["pass", "span", "parent", "name", "start_ns", "end_ns"])
            for i in range(len(self.name)):
                writer.writerow(
                    [pass_id, i, self.parent[i], self.names[self.name[i]],
                     self.start[i] - origin, self.end[i] - origin]
                )


def _replace_everywhere(original, wrapped) -> None:
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "digitsum" and not mod_name.startswith("digitsum."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def layer_metrics(spans: dict[str, tuple[int, int, int]], counts: Counter) -> dict[str, float]:
    """Reduce span totals and hook counters to the per-layer metrics named in
    BENCHMARK.json.  A ratio whose base is zero (layer not called) is 0."""

    def pick(pred):
        return [v for k, v in spans.items() if pred(k)]

    def calls(pred):
        return sum(v[0] for v in pick(pred))

    def self_s(pred):
        return sum(v[1] for v in pick(pred)) / 1e9

    def named(*names):
        full = set(names)
        return lambda k: k in full

    def ratio(num, den):
        return num / den if den else 0.0

    digits_span = lambda k: k.startswith("digits.")  # noqa: E731
    out: dict[str, float] = {
        "digits.calls": calls(lambda k: digits_span(k) and not k.endswith(".next")),
        "digits.values": counts["digits.values"],
        "digits.busy_s": self_s(digits_span),
        "poly.eval.calls": calls(named("poly.RationalPoly.__call__")),
        "poly.eval.busy_s": self_s(named("poly.RationalPoly.__call__")),
    }
    for group, ops in ARITH_GROUPS.items():
        pred = named(*(f"arith.CycloNum.{op}" for op in ops))
        out[f"arith.{group}.calls"] = calls(pred)
        out[f"arith.{group}.busy_s"] = self_s(pred)

    beta = named("weights.beta_table")
    beta_calls = calls(beta)
    misses = counts["weights.beta_table.misses"]
    out.update({
        "weights.beta_table.calls": beta_calls,
        "weights.beta_table.misses": misses,
        "weights.beta_table.hit_ratio": ratio(beta_calls - misses, beta_calls),
        "weights.beta_table.entries": counts["weights.beta_table.entries"],
        "weights.beta_table.busy_s": self_s(beta),
        "weights.beta_table.total_s": sum(v[2] for v in pick(beta)) / 1e9,
        "weights.closed_busy_s": self_s(named(
            "weights.beta_moment0", "weights.beta_moment1", "weights.alpha_moment0",
            "weights.alpha_moment1", "weights.beta_from_convolution", "weights.xi_from_convolution",
        )),
        "findiff.lhs_sum.calls": calls(named("findiff.lhs_sum")),
        "findiff.lhs_sum.terms": counts["findiff.lhs_sum.terms"],
        "findiff.lhs_sum.busy_s": self_s(named("findiff.lhs_sum")),
        "findiff.weighted_rhs.busy_s": self_s(named("findiff.weighted_rhs")),
        "identities.reports": counts["identities.reports"],
        "identities.unequal": counts["identities.unequal"],
        "identities.brute_busy_s": self_s(
            named("identities.mixed_power_sum", "identities.joint_weight_polynomial")
        ),
        "identities.self_s": self_s(lambda k: k.startswith("identities.verify_")),
        "bernoulli.calls": calls(lambda k: k.startswith("bernoulli.")),
        "bernoulli.busy_s": self_s(lambda k: k.startswith("bernoulli.")),
        "pte.points": counts["pte.points"],
        "pte.partition.busy_s": self_s(named("pte.generalized_partition", "pte.prouhet_partition")),
        "pte.cancel.busy_s": self_s(named("pte.cancel_common")),
        "pte.certify.busy_s": self_s(named("pte.verify_power_sums")),
        "pte.valid_ratio": ratio(counts["pte.valid"], counts["pte.certificates"]),
        "pte.nontrivial_ratio": ratio(counts["pte.nontrivial"], counts["pte.cancelled"]),
        "pte.reduction_ratio": ratio(counts["pte.size_after"], counts["pte.size_before"]),
        "cost.charge.calls": calls(named("cost.charge")),
        "cost.charged": counts["cost.charged"],
        "cost.refusals": counts["cost.charge.raised"],
        "cli.serialize_busy_s": sum(v[2] for v in pick(named("cli.serialize"))) / 1e9,
        "cli.out_bytes": counts["cli.out_bytes"],
    })
    _, root_self, root_total = spans.get(ROOT, (0, 0, 0))
    out["trace.spans"] = sum(v[0] for v in spans.values())
    out["trace.coverage"] = ratio(root_total - root_self, root_total)
    return out
