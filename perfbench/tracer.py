"""Span recorder that wraps tricache's layer boundaries from outside.

Wrapping works by rebinding module attributes: the program looks its module
globals up at call time, so rebinding every global that holds a boundary
function (also the copies made by ``from .x import f``) routes the program's
own calls through the wrapper.  Nothing in the program changes.

A boundary that no longer exists (renamed or merged by a refactor) is
reported as missing rather than raising, so later versions stay measurable.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from math import comb
from typing import Callable

now = time.perf_counter

PACKAGE = "tricache"

# Spans whose self time the traced run reports, as "<module>.<function>".
SPAN_BOUNDARIES = (
    "pairing.build_layers",
    "pairing.build_pair_graph",
    "pairing.max_matching",
    "pairing.check_saturation",
    "mn.verify_full_recovery",
    "mn.mn_delivery",
    "delivery.build_plan",
    "delivery.assemble_plan",
    "delivery.coverage_errors",
    "delivery.origin_errors",
    "delivery.measure_rate",
    "cli.main",
    "cli.load_plan",
    "analysis.ratio_curves",
)

# Hidden span that holds the time spent computing counts, so counting is
# charged to no layer.
COUNTING = "trace.counting"


def _graph_counts(counts: Counter, args, result) -> None:
    counts["pairing.vertices"] += len(result.x) + len(result.y)
    counts["pairing.edges"] += result.edge_count()


def _matching_counts(counts: Counter, args, result) -> None:
    counts["pairing.matched_pairs"] += len(result)


def _middle_counts(counts: Counter, args, result) -> None:
    counts["pairing.unmatched"] += len(result.unmatched)


def _recovery_counts(counts: Counter, args, result) -> None:
    config, _demand, broadcasts = args[:3]
    counts["mn.payload_terms"] += sum(len(bc.payload) for bc in broadcasts)
    # Each user checks every packet of its file it does not cache: C(K-1, t).
    counts["mn.packets_checked"] += len(result.users) * comb(config.K - 1, config.t)
    counts["mn.missing"] += sum(u.missing for u in result.users)


def _plan_counts(counts: Counter, args, result) -> None:
    plan = args[0]
    counts["delivery.broadcasts"] += len(plan.all_broadcasts())
    counts["delivery.pairs"] += len(plan.paired)
    counts["delivery.unpaired"] += len(plan.unpaired)
    counts["delivery.singles"] += len(plan.singles)


def _curve_counts(counts: Counter, args, result) -> None:
    rows, skipped = result
    counts["analysis.rows"] += len(rows)
    counts["analysis.skipped"] += len(skipped)


# Boundaries whose results carry the structural counters, with the counters
# each one feeds.  These counters depend only on the workload's structure,
# never on the demand or the timing, so two runs must agree on them exactly.
COUNT_HOOKS: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "pairing.build_pair_graph": (_graph_counts, ("pairing.vertices", "pairing.edges")),
    "pairing.max_matching": (_matching_counts, ("pairing.matched_pairs",)),
    "pairing.middle_pairing": (_middle_counts, ("pairing.unmatched",)),
    "mn.verify_full_recovery": (
        _recovery_counts, ("mn.payload_terms", "mn.packets_checked", "mn.missing")),
    "delivery.verify_plan": (
        _plan_counts,
        ("delivery.broadcasts", "delivery.pairs", "delivery.unpaired", "delivery.singles"),
    ),
    "analysis.ratio_curves": (_curve_counts, ("analysis.rows", "analysis.skipped")),
}


def changed_counters(counts: dict, recorded: dict, missing: list[str]) -> list[str]:
    """Structural counters that differ from a recorded run, skipping those
    whose boundary is missing."""
    skip = {c for name, (_, fed) in COUNT_HOOKS.items() if name in missing for c in fed}
    return [
        f"{name}: {counts.get(name, 0)} != recorded {want}"
        for name, want in sorted(recorded.items())
        if name not in skip and counts.get(name, 0) != want
    ]


class Tracer:
    """In-memory spans (name, start, end, parent index, op id) plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.op_id = -1  # index of the running op over the whole run

    # -- installation -------------------------------------------------------

    def install(self, boundaries=SPAN_BOUNDARIES, hooks=COUNT_HOOKS) -> None:
        for name in dict.fromkeys((*boundaries, *hooks)):
            target = self._resolve(name)
            if target is None:
                self.missing.append(name)
                continue
            span_name = name if name in boundaries else None
            hook = hooks[name][0] if name in hooks else None
            self._rebind(target, self._wrap(name, target, span_name, hook))

    def _resolve(self, name: str):
        module_name, attr = name.split(".", 1)
        module = sys.modules.get(f"{PACKAGE}.{module_name}")
        fn = getattr(module, attr, None)
        return fn if callable(fn) else None

    def _rebind(self, original, wrapper) -> None:
        """Point every global of the package that holds `original` at `wrapper`."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def _wrap(self, name: str, fn, span_name: str | None, hook: Callable | None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span_name is None:
                result = fn(*args, **kwargs)
            else:
                with tracer.span(span_name):
                    result = fn(*args, **kwargs)
            if hook is not None and name not in tracer.missing:
                with tracer.span(COUNTING):
                    try:
                        hook(tracer.counts, args, result)
                    except (AttributeError, IndexError, TypeError, ValueError):
                        # The boundary changed shape; its counters go missing.
                        tracer.missing.append(name)
            return result

        return wrapper

    def count_gf2_adds(self) -> None:
        """Count GF2Basis.add calls and the ones that raise the rank.

        These run about 10^5 times per decode, so they are counted only;
        their time stays inside mn.verify_full_recovery.
        """
        module = sys.modules.get(f"{PACKAGE}.gf2")
        cls = getattr(module, "GF2Basis", None)
        original = getattr(cls, "add", None)
        if original is None:
            self.missing.append("gf2.GF2Basis.add")
            return
        counts = self.counts

        @functools.wraps(original)
        def add(basis, vec):
            grew = original(basis, vec)
            counts["gf2.add_calls"] += 1
            if grew:
                counts["gf2.rank_adds"] += 1
            return grew

        cls.add = add

    # -- recording ----------------------------------------------------------

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    # -- reporting ----------------------------------------------------------

    def self_times(self, op_scale: list[float]) -> dict[str, float]:
        """Self time per span name: duration minus the children's durations,
        scaled by the calibration factor of the op the span belongs to."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, _parent, op_id) in enumerate(self.spans):
            own = (end - start - child_time[i]) * op_scale[op_id]
            totals[name] = totals.get(name, 0.0) + own
        return totals


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, now(), None, parent, tr.op_id])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc) -> None:
        tr = self.tracer
        tr.spans[self.index][2] = now()
        tr.stack.pop()
