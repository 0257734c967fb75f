"""Ground-truth operational semantics and brute-force reachability oracles.

Every reduction pass in this package is validated against the step
functions and explicit-state searches defined here.  These searches, and
those of the 0/1 product, the POCA construction, the arithmetic-progression
tables, the solver's audit and the automata's ``live`` sets, run on one
breadth-first kernel (``shortest_path``, ``reachable``), so returned
witnesses are shortest, which keeps golden outputs stable.

The counter searches (``poca_reach_bounded`` and the solver's audit) run
the kernel on integer nodes: state(z) in the window [lo, hi] is the key
(z - lo) * |Q| + number(state), the states numbered by ``POCA.numbering``.
When a search first expands a state, the rules that ``leaving`` lists for
it are specialised to the search's N and window (``_specialise``), each to
a key shift and a key interval, with a modulus for a modulo test, so a step
costs one interval test and at most one ``%``.  Keys are one-to-one with
the window's configurations and rules keep their order, so the search
visits configurations in the order a search over (state, counter) pairs
through ``apply_op`` would, and returns the same witnesses.
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


# The run kind of each automaton class, as ``Run.kind`` and the JSON "kind" spell it.
_RUN_KINDS = {PTA: "pta", ZeroOnePTA: "zero-one-pta", POCA: "poca"}


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
    bare rule_index for POCAs.  Rule indices refer to the automaton's
    ``rules`` tuple.
    """

    kind: str  # "pta" | "zero-one-pta" | "poca"
    configs: tuple
    labels: tuple

    def __post_init__(self):
        if len(self.configs) != len(self.labels) + 1:
            raise ValueError("a run needs exactly one more config than labels")
        if self.kind not in _RUN_KINDS.values():
            raise ValueError(f"unknown run kind: {self.kind}")

    def __len__(self):
        return len(self.labels)

    # POCA-run accessors
    def counter_values(self) -> set:
        return {c.counter for c in self.configs}

    def maximum(self) -> int:
        return max(self.counter_values())


# ---------------------------------------------------------------------------
# Step functions
# ---------------------------------------------------------------------------


def initial_configuration(automaton):
    """The automaton's initial zero configuration: every clock 0, or counter 0."""
    if isinstance(automaton, POCA):
        return PocaConfiguration(automaton.initial, 0)
    return PtaConfiguration.make(automaton.initial, {c: 0 for c in automaton.clocks})


def _clock_step(rule: PtaRule, n: int, valuation: tuple, delay: int) -> Optional[dict]:
    """Wait delay, test the rule's guard, reset: the valuation dict after, or None."""
    advanced = {c: v + delay for c, v in valuation}
    if not rule.guard.holds(advanced[rule.guard.clock], n):
        return None
    for c in rule.resets:
        advanced[c] = 0
    return advanced


def _rule_index(automaton, rule) -> int:
    try:
        return automaton.rules.index(rule)
    except ValueError:
        raise ValueError("rule does not belong to the automaton") from None


def pta_step(
    pta: PTA, n: int, conf: PtaConfiguration, rule: PtaRule, delay: int
) -> Optional[PtaConfiguration]:
    """One PTA step; None on guard violation, ValueError on malformed input."""
    return _label_step(pta, n)(conf, (_rule_index(pta, rule), delay))


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
    return _label_step(poca, n)(conf, _rule_index(poca, rule))


def semitransition_step(
    poca: POCA, n: int, conf: PocaConfiguration, rule: PocaRule
) -> Optional[PocaConfiguration]:
    """Like poca_step but comparison tests always pass; modulo still enforced."""
    return _label_step(poca, n, False)(conf, _rule_index(poca, rule))


def _label_step(automaton, n: int, enforce_comparisons: bool = True):
    """The exact step of one run label: step(conf, label) -> next conf or None.

    The label names its rule by index into the automaton's ``rules``.
    ValueError for an index, delay or time bit that is not a plain int, an
    index outside that tuple, a negative delay, a 0/1 time bit naming the
    other rule set, a rule that does not leave the configuration's state,
    or a valuation that is not total over the clocks.
    """
    poca = isinstance(automaton, POCA)
    zero_one = isinstance(automaton, ZeroOnePTA)
    rules = automaton.rules

    def step(conf, label):
        idx, delay = (label, 0) if poca else label
        if type(idx) is not int or type(delay) is not int:
            raise ValueError(f"label value {delay if type(idx) is int else idx!r} is not an int")
        if not 0 <= idx < len(rules):
            raise ValueError(f"rule index {idx} outside 0..{len(rules) - 1}")
        rule = rules[idx]
        if rule.src != conf.state:
            raise ValueError("rule source does not match the configuration")
        if poca:
            z = apply_op(rule.op, n, conf.counter, enforce_comparisons)
            return None if z is None else PocaConfiguration(rule.dst, z)
        if delay < 0:
            raise ValueError("delay must be non-negative")
        if zero_one and delay != (0 if idx < len(automaton.rules0) else 1):
            raise ValueError(f"time bit {delay} does not match the rule set of rule {idx}")
        if {c for c, _ in conf.valuation} != automaton.clocks:
            raise ValueError("valuation must be total over the clock set")
        vals = _clock_step(rule, n, conf.valuation, delay)
        return None if vals is None else PtaConfiguration.make(rule.dst, vals)

    return step


def _replay(automaton, n: int, start, labels) -> Run:
    """The run that labels drive from start under exact semantics."""
    step = _label_step(automaton, n)
    configs = [start]
    for label in labels:
        conf = step(configs[-1], label)
        if conf is None:
            raise RuntimeError("witness failed exact replay")
        configs.append(conf)
    return Run(_RUN_KINDS[type(automaton)], tuple(configs), tuple(labels))


def _check_labels(automaton, n: int, configs: tuple, labels: tuple, enforce_comparisons=True):
    """(True, None) if every label steps configs[i] to configs[i + 1], else (False, i)."""
    step = _label_step(automaton, n, enforce_comparisons)
    for i, label in enumerate(labels):
        try:
            nxt = step(configs[i], label)
        except ValueError:
            return (False, i)
        if nxt is None or nxt != configs[i + 1]:
            return (False, i)
    return (True, None)


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


# For ``x cmp rhs``: the least and the greatest x - rhs admitted, None where unbounded.
_CMP_OFFSETS = {"<": (None, -1), "<=": (None, 0), "=": (0, 0), ">=": (0, None), ">": (1, None)}


def _guard_window(cmp: str, rhs: int, value: int, cap: int) -> tuple:
    """The d in 0..cap with ``value + d cmp rhs``, as (lo, hi); empty if lo > hi.

    The delays a clock guard admits, and the window offsets a counter
    comparison admits.
    """
    least, greatest = _CMP_OFFSETS[cmp]
    d = rhs - value
    lo = 0 if least is None else max(d + least, 0)
    return lo, cap if greatest is None else min(d + greatest, cap)


def _oracle(a, n: int, clock_cap: Optional[int]) -> Optional[Run]:
    """Search a PTA or 0/1-PTA from the zero valuation to a final state, then replay.

    A step's label is (rule index, delay), and a 0/1 rule's delay is fixed
    to its time bit.  Clock values saturate at clock_cap, by default the
    least sound cap max(n, max consts) + 1; the labels of a shortest
    accepting path are replayed under exact semantics.  Each rule tries
    only its guard window, cut to its fixed delay, in ascending order, up
    to the delay that saturates every clock it keeps: later delays repeat
    that successor.

    The search keeps to ``a.live``: from a dead initial state it returns
    None at once, and no row lists a rule into a dead state.  A dead
    state's successors are all dead, so the search meets the live nodes in
    the same order, through the same parents, and stops at the same goal.
    """
    needed = max(n, max(a.consts(), default=0)) + 1
    if clock_cap is not None and clock_cap < needed:
        raise ValueError(f"clock_cap {clock_cap} below required {needed}")
    live = a.live
    if a.initial not in live:
        return None
    cap = needed if clock_cap is None else clock_cap
    clocks = sorted(a.clocks)  # the positions of a node's valuation tuple
    split = len(a.rules0) if isinstance(a, ZeroOnePTA) else None  # the first time-1 index
    rows = {}  # source -> [(index, fixed delay, dst, guard clock position, cmp, rhs at n, kept)]

    def row(state):
        """The state's rules into live states as rows in index order, built
        when the search first expands it."""
        out = rows[state] = []
        for ridx in a.leaving.get(state, ()):
            rule = a.rules[ridx]
            if rule.dst not in live:
                continue
            g = rule.guard
            fixed = None if split is None else int(ridx >= split)
            kept = tuple(i for i, c in enumerate(clocks) if c not in rule.resets)
            rhs = n if g.parametric else g.rhs
            out.append((ridx, fixed, rule.dst, clocks.index(g.clock), g.cmp, rhs, kept))
        return out

    def successors(node):
        state, vals = node
        for ridx, fixed, dst, g, cmp, rhs, kept in rows[state] if state in rows else row(state):
            lo, hi = _guard_window(cmp, rhs, vals[g][1], cap)
            if fixed is not None:
                lo, hi = max(lo, fixed), min(hi, fixed)
            last = cap - min(vals[i][1] for i in kept) if kept else lo
            for delay in range(lo, min(hi, max(lo, last)) + 1):
                sat = tuple([(c, min(v + delay, cap) if i in kept else 0)
                             for i, (c, v) in enumerate(vals)])
                yield (ridx, delay), (dst, sat)

    start = initial_configuration(a)
    found = shortest_path(
        (start.state, start.valuation), successors, lambda node: node[0] in a.finals
    )
    return None if found is None else _replay(a, n, start, found[1])


def pta_reach_bruteforce(pta: PTA, n: int, clock_cap: Optional[int] = None) -> Optional[Run]:
    """BFS reachability for a PTA at parameter value n.

    Clock values saturate at clock_cap during the search; the returned run is
    replayed under exact semantics, which is sound because no guard can
    distinguish values >= clock_cap when clock_cap > max(n, max consts).
    The cap defaults to the least sound one.
    """
    return _oracle(pta, n, clock_cap)


def zero_one_reach_bruteforce(
    b: ZeroOnePTA, n: int, clock_cap: Optional[int] = None
) -> Optional[Run]:
    """BFS reachability for a 0/1-PTA with clock saturation at clock_cap,
    by default the least sound cap: the PTA oracle with each rule's delay
    fixed to its time bit."""
    return _oracle(b, n, clock_cap)


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
    split = len(b.rules0)  # the first time-1 index

    def successors(node):
        state, vals = node
        top = max(v for _, v in vals)
        for idx in b.leaving.get(state, ()):
            rule, bit = b.rules[idx], int(idx >= split)
            if top + bit > coord_cap or (rule_filter is not None and not rule_filter(rule)):
                continue
            advanced = _clock_step(rule, n, vals, bit)
            if advanced is not None and (valuation_pred is None or valuation_pred(advanced)):
                yield rule.dst, tuple(sorted(advanced.items()))

    return reachable([(start.state, start.valuation)], successors)


def _specialise(poca: POCA, state: str, q: int, n: int, lo: int, hi: int) -> list:
    """The rules leaving state at parameter n and counter window [lo, hi], on keys.

    A node state(z) is the key (z - lo) * q + numbering[state], q = |Q|.
    Each rule in ``leaving`` order becomes (rule index, key shift, key_lo,
    key_hi, modulus): from key, the rule reaches key + shift exactly when
    key_lo <= key <= key_hi and, for a nonzero modulus, (key - key_lo) %
    modulus == 0.  The window check on the counter after the step is folded
    into key_lo and key_hi; rules that no counter passes are dropped.
    """
    rules, ids = poca.rules, poca.numbering
    src = ids[state]
    width = hi - lo
    out = []
    for idx in poca.leaving.get(state, ()):
        rule = rules[idx]
        op = rule.op
        kind = type(op)
        delta = modulus = 0
        if kind is AddConst or kind is AddParam:
            delta = op.value if kind is AddConst else op.sign * n
            u_lo, u_hi = -delta, width - delta
        elif kind is CmpConst or kind is CmpParam:
            u_lo, u_hi = _guard_window(op.cmp, op.value if kind is CmpConst else n, lo, width)
        elif kind is ModTest:
            # The least u = z - lo with z % m == 0, then every m-th one.
            u_lo, u_hi = -lo % op.value, width
            if op.value > 1:
                modulus = op.value * q
        else:
            raise ValueError(f"unknown counter operation: {op!r}")
        if u_lo <= u_hi:
            shift = delta * q + ids[rule.dst] - src
            out.append((idx, shift, u_lo * q + src, u_hi * q + src, modulus))
    return out


def _counter_successors(poca: POCA, n: int, lo: int, hi: int):
    """successors(key) over the POCA's rules at n in the window [lo, hi].

    Yields (rule index, next key) in rule order; each visited state's rules
    are specialised once per call, when the search first expands that state.
    """
    states = poca._numbered
    q = len(states)
    specialised = {}

    def successors(key):
        src = key % q
        row = specialised.get(src)
        if row is None:
            row = specialised[src] = _specialise(poca, states[src], q, n, lo, hi)
        for idx, shift, key_lo, key_hi, modulus in row:
            if key_lo <= key <= key_hi and (not modulus or not (key - key_lo) % modulus):
                yield idx, key + shift

    return successors


def poca_reach_bounded(poca: POCA, n: int, lo: int, hi: int) -> Optional[Run]:
    """Shortest accepting run with all counter values inside [lo, hi].

    Accepting means: starts at initial(0), ends in a final state.  No
    counter-zero normalization is imposed here.

    The search runs on the kernel over integer keys (z - lo) * |Q| +
    number, the states numbered by ``POCA.numbering``, with the rules
    leaving each visited state specialised to n, lo and hi
    (``_specialise``).  Keys are one-to-one with the configurations of the
    window and rules keep their order, so the breadth-first order, and with
    it every witness, is that of a search over (state, counter) pairs that
    tries the rules in order.  The labels found are replayed into the
    returned run.
    """
    if not lo <= 0 <= hi:
        raise ValueError("window must satisfy lo <= 0 <= hi")
    ids = poca.numbering
    q = len(ids)
    finals = {ids[s] for s in poca.finals}
    successors = _counter_successors(poca, n, lo, hi)
    found = shortest_path(-lo * q, successors, lambda key: key % q in finals)
    return None if found is None else _replay(poca, n, initial_configuration(poca), found[1])


# ---------------------------------------------------------------------------
# Run validation
# ---------------------------------------------------------------------------


def validate_run(run: Run, automaton, n: int) -> tuple:
    """Replay a run through exact semantics.

    Returns (True, None) or (False, first_failing_step_index).  Raises
    ValueError when the run's kind is not the automaton's.
    """
    if _RUN_KINDS.get(type(automaton)) != run.kind:
        raise ValueError(f"a {run.kind} run cannot replay on a {type(automaton).__name__}")
    return _check_labels(automaton, n, run.configs, run.labels)
