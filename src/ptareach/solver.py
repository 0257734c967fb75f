"""End-to-end decision procedure for (2,1)-PTA reachability.

``decide`` sweeps parameter values in increasing order, either with the
direct brute-force oracle or through the full one-counter pipeline, and
returns the smallest satisfying value with a validated witness.  The sweep
bound makes the verdict COMPLETE only when it reaches max(M, |C|), the
threshold under which a satisfying value must exist if any does; below that
the verdict is explicitly BOUNDED.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .automata import PTA, derive_constants
from .poca_build import BuildResult, build_poca, decode_witness
from .semantics import (
    Run,
    apply_op,
    poca_reach_bounded,
    pta_reach_bruteforce,
    shortest_path,
    validate_run,
)
from .zero_one import product_origin, to_zero_one_pta

MODES = ("direct", "via-poca")


@dataclass
class Verdict:
    reachable: bool
    param_value: Optional[int]
    mode: str
    n_max: int
    completeness: str  # "COMPLETE" | "BOUNDED"
    threshold: int
    witness: Optional[Run] = None
    decoded_pta_run: Optional[Run] = None

    def summary(self) -> str:
        if self.reachable:
            return f"reachable at N={self.param_value} ({self.completeness})"
        return f"unreachable for N <= {self.n_max} ({self.completeness})"


@dataclass
class CrossCheckReport:
    agree: bool
    first_divergence: Optional[int]
    per_value: list = field(default_factory=list)

    def summary(self) -> str:
        if self.agree:
            return f"modes agree on all {len(self.per_value)} parameter values"
        return f"modes diverge first at N={self.first_divergence}"


def _completeness(n_max: int, poca_size: int, m_const: int) -> tuple:
    threshold = max(m_const, poca_size)
    return ("COMPLETE" if n_max >= threshold else "BOUNDED"), threshold


def decide(pta: PTA, n_max: int, mode: str = "via-poca", budget: int = 200_000) -> Verdict:
    """Search parameter values 0..n_max in order; smallest hit wins."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if pta.classification() != (2, 1):
        raise ValueError("decide expects a (2,1)-PTA")

    c_max = max(pta.consts(), default=0)
    if mode == "direct":
        # Completeness threshold still comes from the pipeline's automaton.
        result = _build(pta, budget)
        qual, threshold = _completeness(
            n_max, result.poca.size(), derive_constants(result.poca).m
        )
        for n in range(n_max + 1):
            run = pta_reach_bruteforce(pta, n, max(n, c_max) + 1)
            if run is not None:
                return Verdict(True, n, mode, n_max, qual, threshold, witness=run)
        return Verdict(False, None, mode, n_max, qual, threshold)

    result = _build(pta, budget)
    poca = result.poca
    size = poca.size()
    qual, threshold = _completeness(n_max, size, derive_constants(poca).m)
    for n in range(n_max + 1):
        witness = poca_reach_bounded(poca, n, 0, 4 * max(n, size))
        if witness is not None:
            b_run = decode_witness(result, n, witness)
            a_run = zero_one_run_to_pta_run(pta, n, b_run)
            ok, idx = validate_run(a_run, pta, n)
            if not ok:
                raise RuntimeError(f"decoded witness failed validation at step {idx}")
            return Verdict(
                True, n, mode, n_max, qual, threshold,
                witness=witness, decoded_pta_run=a_run,
            )
    return Verdict(False, None, mode, n_max, qual, threshold)


_BUILD_CACHE: dict = {}


def _build(pta: PTA, budget: int) -> BuildResult:
    key = (pta, budget)
    if key not in _BUILD_CACHE:
        if len(_BUILD_CACHE) > 64:
            _BUILD_CACHE.clear()
        _BUILD_CACHE[key] = build_poca(to_zero_one_pta(pta), budget)
    return _BUILD_CACHE[key]


def cross_check(pta: PTA, n_max: int, budget: int = 200_000) -> CrossCheckReport:
    """Compare the two decision routes value by value."""
    result = _build(pta, budget)
    poca = result.poca
    size = poca.size()
    c_max = max(pta.consts(), default=0)
    rows = []
    first = None
    for n in range(n_max + 1):
        direct = pta_reach_bruteforce(pta, n, max(n, c_max) + 1) is not None
        via = poca_reach_bounded(poca, n, 0, 4 * max(n, size)) is not None
        rows.append({"n": n, "direct": direct, "via_poca": via})
        if direct != via and first is None:
            first = n
    return CrossCheckReport(agree=first is None, first_divergence=first, per_value=rows)


def zero_one_run_to_pta_run(pta: PTA, n: int, b_run: Run) -> Run:
    """Project a 0/1 product run back onto the original automaton.

    Time rules accumulate into the delay of the next original rule; the
    original rule behind each +0 step is recovered by matching endpoints
    and replaying against the product's stored (saturated) valuation.
    """
    from .semantics import PtaConfiguration, pta_step

    cap = max(pta.consts(), default=0) + 1
    clocks = sorted(pta.clocks)
    configs = [PtaConfiguration.make(pta.initial, {c: 0 for c in clocks})]
    labels = []
    pending = 0
    for i, (_, bit) in enumerate(b_run.labels):
        if bit == 1:
            pending += 1
            continue
        src_state, _ = product_origin(b_run.configs[i].state)
        dst_state, dst_stored = product_origin(b_run.configs[i + 1].state)
        chosen = None
        for j, rule in enumerate(pta.rules):
            if rule.src != src_state or rule.dst != dst_state:
                continue
            nxt = pta_step(pta, n, configs[-1], rule, pending)
            if nxt is None:
                continue
            if all(min(nxt.value(c), cap) == dst_stored[c] for c in clocks):
                chosen = (j, nxt)
                break
        if chosen is None:
            raise RuntimeError(f"no original rule matches product step {i}")
        j, nxt = chosen
        configs.append(nxt)
        labels.append((j, pending))
        pending = 0
    return Run("pta", tuple(configs), tuple(labels))


# ---------------------------------------------------------------------------
# Value-bound audit
# ---------------------------------------------------------------------------


def find_bound_violation(poca, n: int, bound: int, slack: int) -> Optional[tuple]:
    """Search for an accepting run touching a value outside [0, bound].

    Explores configurations within [-slack, bound + slack] with a flag
    recording whether the path so far left [0, bound]; returns a violating
    accepting configuration if one exists in that window.
    """
    by_src = {}
    for rule in poca.rules:
        by_src.setdefault(rule.src, []).append(rule)
    lo, hi = -slack, bound + slack

    def successors(node):
        state, z, flagged = node
        for rule in by_src.get(state, ()):
            z2 = apply_op(rule.op, n, z)
            if z2 is not None and lo <= z2 <= hi:
                yield None, (rule.dst, z2, flagged or not 0 <= z2 <= bound)

    found = shortest_path(
        (poca.initial, 0, False), successors, lambda node: node[2] and node[0] in poca.finals
    )
    return None if found is None else found[0][:2]
