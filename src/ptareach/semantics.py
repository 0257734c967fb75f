"""Ground-truth operational semantics and brute-force reachability oracles.

Every reduction pass in this package is validated against the step
functions and explicit-state searches defined here.  These searches, and
those of the 0/1 product, the POCA construction and the solver's audit, run
on one breadth-first kernel (``shortest_path``, ``reachable``), so returned
witnesses are shortest, which keeps golden outputs stable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .automata import (
    POCA,
    PTA,
    AddConst,
    AddParam,
    CmpConst,
    CmpParam,
    ModTest,
    PocaRule,
    PtaRule,
    ZeroOnePTA,
    cmp_holds,
)


@dataclass(frozen=True)
class PtaConfiguration:
    state: str
    valuation: tuple  # ((clock, value), ...) sorted by clock name

    @classmethod
    def make(cls, state: str, valuation: dict) -> "PtaConfiguration":
        return cls(state, tuple(sorted(valuation.items())))

    def value(self, clock: str) -> int:
        for c, v in self.valuation:
            if c == clock:
                return v
        raise KeyError(clock)

    def as_dict(self) -> dict:
        return dict(self.valuation)


@dataclass(frozen=True)
class PocaConfiguration:
    state: str
    counter: int


@dataclass(frozen=True)
class Run:
    """A run of a PTA, 0/1-PTA, or POCA.

    ``labels[i]`` describes the step from ``configs[i]`` to ``configs[i+1]``:
    (rule_index, delay) for PTAs, (rule_index, time_bit) for 0/1-PTAs and a
    bare rule_index for POCAs.  Rule indices refer to the automaton's rule
    tuple (``rules0 + rules1`` for 0/1-PTAs).
    """

    kind: str  # "pta" | "zero-one-pta" | "poca"
    configs: tuple
    labels: tuple

    def __post_init__(self):
        if len(self.configs) != len(self.labels) + 1:
            raise ValueError("a run needs exactly one more config than labels")
        if self.kind not in ("pta", "zero-one-pta", "poca"):
            raise ValueError(f"unknown run kind: {self.kind}")

    def __len__(self):
        return len(self.labels)

    # POCA-run accessors
    def counter_values(self) -> set:
        return {c.counter for c in self.configs}

    def delta(self) -> int:
        return self.configs[-1].counter - self.configs[0].counter

    def minimum(self) -> int:
        return min(self.counter_values())

    def maximum(self) -> int:
        return max(self.counter_values())

    def subrun(self, c: int, d: int) -> "Run":
        if not 0 <= c <= d <= len(self):
            raise ValueError("subrun endpoints out of range")
        return Run(self.kind, self.configs[c : d + 1], self.labels[c:d])

    def concat(self, other: "Run") -> "Run":
        if self.kind != other.kind or self.configs[-1] != other.configs[0]:
            raise ValueError("concatenation requires matching end configurations")
        return Run(self.kind, self.configs + other.configs[1:], self.labels + other.labels)


# ---------------------------------------------------------------------------
# Step functions
# ---------------------------------------------------------------------------


def pta_step(
    pta: PTA, n: int, conf: PtaConfiguration, rule: PtaRule, delay: int
) -> Optional[PtaConfiguration]:
    """One PTA step; None on guard violation, ValueError on malformed input."""
    if rule not in pta.rules:
        raise ValueError("rule does not belong to the automaton")
    if delay < 0:
        raise ValueError("delay must be non-negative")
    vals = conf.as_dict()
    if set(vals) != set(pta.clocks):
        raise ValueError("valuation must be total over the clock set")
    advanced = {c: v + delay for c, v in vals.items()}
    if not rule.guard.holds(advanced[rule.guard.clock], n):
        return None
    for c in rule.resets:
        advanced[c] = 0
    return PtaConfiguration.make(rule.dst, advanced)


def zero_one_step(
    b: ZeroOnePTA, n: int, conf: PtaConfiguration, rule: PtaRule, i: int
) -> Optional[PtaConfiguration]:
    """One 0/1-PTA step with time bit i; None on guard violation."""
    if i not in (0, 1):
        raise ValueError("time bit must be 0 or 1")
    if rule not in b.rules(i):
        raise ValueError("rule does not belong to the indicated rule set")
    vals = conf.as_dict()
    if set(vals) != set(b.clocks):
        raise ValueError("valuation must be total over the clock set")
    advanced = {c: v + i for c, v in vals.items()}
    if not rule.guard.holds(advanced[rule.guard.clock], n):
        return None
    for c in rule.resets:
        advanced[c] = 0
    return PtaConfiguration.make(rule.dst, advanced)


def apply_op(op, n: int, z: int, enforce_comparisons: bool = True) -> Optional[int]:
    """Apply one counter operation; None when an enforced test fails."""
    if isinstance(op, AddConst):
        return z + op.value
    if isinstance(op, AddParam):
        return z + op.sign * n
    if isinstance(op, ModTest):
        return z if z % op.value == 0 else None
    if isinstance(op, CmpConst):
        if enforce_comparisons and not cmp_holds(z, op.cmp, op.value):
            return None
        return z
    if isinstance(op, CmpParam):
        if enforce_comparisons and not cmp_holds(z, op.cmp, n):
            return None
        return z
    raise ValueError(f"unknown counter operation: {op!r}")


def poca_step(
    poca: POCA, n: int, conf: PocaConfiguration, rule: PocaRule
) -> Optional[PocaConfiguration]:
    """One POCA transition; None on test violation."""
    if rule not in poca.rules:
        raise ValueError("rule does not belong to the automaton")
    if rule.src != conf.state:
        raise ValueError("rule source does not match the configuration")
    z = apply_op(rule.op, n, conf.counter)
    return None if z is None else PocaConfiguration(rule.dst, z)


def semitransition_step(
    poca: POCA, n: int, conf: PocaConfiguration, rule: PocaRule
) -> Optional[PocaConfiguration]:
    """Like poca_step but comparison tests always pass; modulo still enforced."""
    if rule not in poca.rules:
        raise ValueError("rule does not belong to the automaton")
    if rule.src != conf.state:
        raise ValueError("rule source does not match the configuration")
    z = apply_op(rule.op, n, conf.counter, enforce_comparisons=False)
    return None if z is None else PocaConfiguration(rule.dst, z)


# ---------------------------------------------------------------------------
# Search kernel
# ---------------------------------------------------------------------------


def shortest_path(start, successors, is_goal) -> Optional[tuple]:
    """Breadth-first search from start for a node satisfying is_goal.

    successors(node) yields (label, next node) pairs.  Each node is tested
    when it is first reached, the start included, and the search stops at
    the first goal without resuming the pending successor generator.
    Returns (goal node, list of labels along a shortest path) or None.
    """
    if is_goal(start):
        return start, []
    parents = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for label, nxt in successors(node):
            if nxt in parents:
                continue
            parents[nxt] = (node, label)
            if is_goal(nxt):
                labels = []
                step = parents[nxt]
                while step is not None:
                    node, label = step
                    labels.append(label)
                    step = parents[node]
                labels.reverse()
                return nxt, labels
            queue.append(nxt)
    return None


def reachable(seeds, successors) -> set:
    """The set of nodes reachable from the distinct seeds.

    successors(node) yields next nodes.  It runs exactly once per reached
    node, in breadth-first order, so callers may emit output from it.
    """
    queue = deque(seeds)
    seen = set(queue)
    while queue:
        for nxt in successors(queue.popleft()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


def _saturate(vals: dict, cap: int) -> tuple:
    return tuple(sorted((c, min(v, cap)) for c, v in vals.items()))


def _replay(kind: str, start: PtaConfiguration, labels: list, step) -> Run:
    """Replay the labels of a saturated search under exact semantics."""
    configs = [start]
    for label in labels:
        conf = step(configs[-1], *label)
        if conf is None:
            raise RuntimeError("saturated witness failed exact replay")
        configs.append(conf)
    return Run(kind, tuple(configs), tuple(labels))


def pta_reach_bruteforce(pta: PTA, n: int, clock_cap: int) -> Optional[Run]:
    """BFS reachability for a PTA at parameter value n.

    Clock values saturate at clock_cap during the search; the returned run is
    replayed under exact semantics, which is sound because no guard can
    distinguish values >= clock_cap when clock_cap > max(n, max consts).
    """
    consts = pta.consts()
    needed = max(n, max(consts, default=0)) + 1
    if clock_cap < needed:
        raise ValueError(f"clock_cap {clock_cap} below required {needed}")

    def successors(node):
        state, vals = node
        for ridx, rule in enumerate(pta.rules):
            if rule.src != state:
                continue
            for delay in range(clock_cap + 1):
                advanced = {c: min(v + delay, clock_cap) for c, v in vals}
                if not rule.guard.holds(advanced[rule.guard.clock], n):
                    continue
                for c in rule.resets:
                    advanced[c] = 0
                yield (ridx, delay), (rule.dst, _saturate(advanced, clock_cap))

    start = PtaConfiguration.make(pta.initial, {c: 0 for c in pta.clocks})
    found = shortest_path(
        (start.state, start.valuation), successors, lambda node: node[0] in pta.finals
    )
    if found is None:
        return None
    return _replay(
        "pta", start, found[1],
        lambda conf, ridx, delay: pta_step(pta, n, conf, pta.rules[ridx], delay),
    )


def zero_one_successors(
    b: ZeroOnePTA,
    n: int,
    node: tuple,
    coord_cap: Optional[int] = None,
    rule_filter: Optional[Callable[[PtaRule], bool]] = None,
):
    """Enabled 0/1-PTA steps from node = (state, sorted valuation tuple).

    Yields ((index into rules0 + rules1, time bit), target state, valuation
    dict after the step): time bit 0 first, then rule order.  Steps whose
    rule fails rule_filter, or whose advanced clocks exceed coord_cap, are
    skipped.
    """
    state, vals = node
    for i, offset in ((0, 0), (1, len(b.rules0))):
        for j, rule in enumerate(b.rules(i)):
            if rule.src != state or (rule_filter is not None and not rule_filter(rule)):
                continue
            advanced = {c: v + i for c, v in vals}
            if coord_cap is not None and max(advanced.values(), default=0) > coord_cap:
                continue
            if not rule.guard.holds(advanced[rule.guard.clock], n):
                continue
            for c in rule.resets:
                advanced[c] = 0
            yield (offset + j, i), rule.dst, advanced


def zero_one_reach_bruteforce(b: ZeroOnePTA, n: int, clock_cap: int) -> Optional[Run]:
    """BFS reachability for a 0/1-PTA with clock saturation at clock_cap."""
    consts = {c for c in b.consts()}
    needed = max(n, max(consts, default=0)) + 1
    if clock_cap < needed:
        raise ValueError(f"clock_cap {clock_cap} below required {needed}")

    # Guards read the unsaturated value, at most clock_cap + 1: no guard
    # constant reaches clock_cap, so that agrees with the saturated one.
    def successors(node):
        for label, dst, vals in zero_one_successors(b, n, node):
            yield label, (dst, _saturate(vals, clock_cap))

    start = PtaConfiguration.make(b.initial, {c: 0 for c in b.clocks})
    found = shortest_path(
        (start.state, start.valuation), successors, lambda node: node[0] in b.finals
    )
    if found is None:
        return None
    all_rules = b.rules0 + b.rules1
    return _replay(
        "zero-one-pta", start, found[1],
        lambda conf, ridx, i: zero_one_step(b, n, conf, all_rules[ridx], i),
    )


def zero_one_reach_configs(
    b: ZeroOnePTA,
    n: int,
    start: PtaConfiguration,
    coord_cap: int,
    rule_filter: Optional[Callable[[PtaRule], bool]] = None,
    valuation_pred: Optional[Callable[[dict], bool]] = None,
) -> set:
    """Exact-configuration forward reachability for bounded 0/1-PTA searches.

    Explores configurations with every clock value <= coord_cap, optionally
    restricted to rules passing rule_filter and valuations passing
    valuation_pred.  Returns the set of reached (state, valuation) pairs.
    """
    if valuation_pred is not None and not valuation_pred(start.as_dict()):
        return set()

    def successors(node):
        for _, dst, vals in zero_one_successors(b, n, node, coord_cap, rule_filter):
            if valuation_pred is None or valuation_pred(vals):
                yield dst, tuple(sorted(vals.items()))

    return reachable([(start.state, start.valuation)], successors)


def poca_reach_bounded(poca: POCA, n: int, lo: int, hi: int) -> Optional[Run]:
    """Shortest accepting run with all counter values inside [lo, hi].

    Accepting means: starts at initial(0), ends in a final state.  No
    counter-zero normalization is imposed here.
    """
    if not lo <= 0 <= hi:
        raise ValueError("window must satisfy lo <= 0 <= hi")

    by_src = {}
    for idx, rule in enumerate(poca.rules):
        by_src.setdefault(rule.src, []).append((idx, rule))

    def successors(node):
        state, z = node
        for idx, rule in by_src.get(state, ()):
            z2 = apply_op(rule.op, n, z)
            if z2 is not None and lo <= z2 <= hi:
                yield idx, (rule.dst, z2)

    found = shortest_path((poca.initial, 0), successors, lambda node: node[0] in poca.finals)
    if found is None:
        return None
    labels = found[1]
    configs = [PocaConfiguration(poca.initial, 0)]
    for idx in labels:
        rule = poca.rules[idx]
        configs.append(PocaConfiguration(rule.dst, apply_op(rule.op, n, configs[-1].counter)))
    return Run("poca", tuple(configs), tuple(labels))


# ---------------------------------------------------------------------------
# Run validation
# ---------------------------------------------------------------------------


def validate_run(run: Run, automaton, n: int) -> tuple:
    """Replay a run through exact semantics.

    Returns (True, None) or (False, first_failing_step_index).
    """
    for i, label in enumerate(run.labels):
        conf = run.configs[i]
        try:
            if run.kind == "pta":
                ridx, delay = label
                nxt = pta_step(automaton, n, conf, automaton.rules[ridx], delay)
            elif run.kind == "zero-one-pta":
                ridx, bit = label
                all_rules = automaton.rules0 + automaton.rules1
                nxt = zero_one_step(automaton, n, conf, all_rules[ridx], bit)
            else:
                nxt = poca_step(automaton, n, conf, automaton.rules[label])
        except (ValueError, IndexError):
            return (False, i)
        if nxt is None or nxt != run.configs[i + 1]:
            return (False, i)
    return (True, None)
