"""Spans around calls into ptareach's layers, recorded from outside ``src/``.

``Tracer.install`` replaces each wrapped function under the name its
caller looks it up by (a module global), so no source file changes.  A span
is ``[id, parent id, name, start, end, counts]``; the spans of one operation
share the operation id the worker attaches when it sends them.
``layer_metrics`` turns the spans of a pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter


def _search_counts(run) -> dict:
    if run is None:
        return {"hit": 0}
    return {"hit": 1, "len": len(run), "peak": run.maximum()}


# (module, global name, span name, counts taken from the result)
WRAPPED = (
    ("solver", "to_zero_one_pta", "zero_one", lambda b: {"states_out": len(b.states)}),
    ("solver", "build_poca", "poca_build.build",
     lambda r: {"states": len(r.poca.states), "rules": len(r.poca.rules)}),
    ("solver", "derive_constants", "automata.derive_constants", None),
    ("solver", "poca_reach_bounded", "semantics.search", _search_counts),
    ("solver", "pta_reach_bruteforce", "semantics.oracle", None),
    ("solver", "decode_witness", "poca_build.decode", None),
    ("solver", "validate_run", "semantics.validate", None),
    ("solver", "zero_one_run_to_pta_run", "solver.project", None),
    ("poca_build", "reach_lengths", "semilinear", lambda s: {"pairs_out": len(s.pairs)}),
    ("poca_build", "region_automaton", "regions", None),
    ("poca_build", "region_oca", "regions", None),
    # decode_witness imports this from ptareach.semantics at call time.
    ("semantics", "zero_one_reach_bruteforce", "semantics.small_oracle", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0

    def call(self, name, fn, *args, counts=None, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._stack.pop()
            self.spans.append([sid, parent, name, t0, perf_counter(), None])
            raise
        t1 = perf_counter()
        self._stack.pop()
        self.spans.append([sid, parent, name, t0, t1, counts(result) if counts else None])
        return result

    def install(self) -> None:
        for module_name, attr, name, counts in WRAPPED:
            module = importlib.import_module(f"ptareach.{module_name}")
            original = getattr(module, attr)

            def wrapper(*args, _fn=original, _name=name, _counts=counts, **kwargs):
                return self.call(_name, _fn, *args, counts=_counts, **kwargs)

            setattr(module, attr, functools.wraps(original)(wrapper))

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


# Root spans the worker opens around each operation and each check.
OP_SPANS = {"decide-acc": "solver.decide", "crosscheck-s0": "solver.cross_check",
            "query-acc": "bench.query"}
REPLAY_SPAN = "serialize.replay"


def layer_metrics(spans: list) -> tuple:
    """(metrics, sum of all self times) of spans ``[key, parent key, name,
    start, end, counts, ...]``, keys unique across the pass."""
    by_key = {span[0]: span for span in spans}
    children = defaultdict(float)
    for key, parent, name, t0, t1, *_ in spans:
        if parent is not None:
            children[parent] += t1 - t0
    self_s = defaultdict(float)
    calls = defaultdict(int)
    totals = defaultdict(int)
    peak = 0
    nonempty = 0
    builds_under_solver = 0
    for key, parent, name, t0, t1, extra, *_ in spans:
        self_s[name] += t1 - t0 - children[key]
        calls[name] += 1
        for field, value in (extra or {}).items():
            totals[(name, field)] += value
        if name == "semilinear" and extra and extra["pairs_out"]:
            nonempty += 1
        if name == "semantics.search" and extra and extra["hit"]:
            peak = max(peak, extra["peak"])
        if name == "poca_build.build":
            root = by_key[key]
            while root[1] is not None:
                root = by_key[root[1]]
            builds_under_solver += root[2].startswith("solver.")
    solver_ops = calls["solver.decide"] + calls["solver.cross_check"]

    def frac(num, den):
        return num / den if den else 0.0

    def busy(name):
        return (self_s[name], "s", calls[name])

    def count(value, name):
        return (value, "count", calls[name])

    search = "semantics.search"
    metrics = {
        "automata.derive_constants_calls": count(
            calls["automata.derive_constants"], "automata.derive_constants"),
        "automata.derive_constants_s": busy("automata.derive_constants"),
        "semilinear.calls": count(calls["semilinear"], "semilinear"),
        "semilinear.busy_s": busy("semilinear"),
        "semilinear.pairs_out": count(totals[("semilinear", "pairs_out")], "semilinear"),
        "semilinear.nonempty_frac": (frac(nonempty, calls["semilinear"]), "ratio", calls["semilinear"]),
        "regions.calls": count(calls["regions"], "regions"),
        "regions.busy_s": busy("regions"),
        "poca_build.calls": count(calls["poca_build.build"], "poca_build.build"),
        "poca_build.self_s": busy("poca_build.build"),
        "poca_build.states": count(totals[("poca_build.build", "states")], "poca_build.build"),
        "poca_build.rules": count(totals[("poca_build.build", "rules")], "poca_build.build"),
        "poca_build.decode_s": busy("poca_build.decode"),
        "semantics.search_calls": count(calls[search], search),
        "semantics.search_s": busy(search),
        "semantics.search_hit_frac": (frac(totals[(search, "hit")], calls[search]), "ratio", calls[search]),
        "semantics.witness_len": count(totals[(search, "len")], search),
        "semantics.witness_peak": count(peak, search),
        "semantics.oracle_calls": count(calls["semantics.oracle"], "semantics.oracle"),
        "semantics.oracle_s": busy("semantics.oracle"),
        "semantics.small_oracle_s": busy("semantics.small_oracle"),
        "semantics.validate_s": busy("semantics.validate"),
        "solver.project_s": busy("solver.project"),
        "serialize.busy_s": busy(REPLAY_SPAN),
        "zero_one.calls": count(calls["zero_one"], "zero_one"),
        "zero_one.busy_s": busy("zero_one"),
        "zero_one.states_out": count(totals[("zero_one", "states_out")], "zero_one"),
        "solver.self_s": (self_s["solver.decide"] + self_s["solver.cross_check"], "s", solver_ops),
        "solver.build_cache_hits": (solver_ops - builds_under_solver, "count", solver_ops),
        "bench.self_s": busy("bench.query"),
    }
    return metrics, sum(self_s.values())
