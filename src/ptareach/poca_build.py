"""Assemble a parametric one-counter automaton from a 0/1-PTA.

The counter stores the clock difference v(x) - v(y) of the simulated
automaton, offset by 2N so that accepting runs never go negative.  Between
two resets the difference is invariant and the clock pair moves along a
diagonal, so the visited regions form a fixed chain determined by the
difference's class: zero, strictly between 0 and N, exactly N, or beyond N
(clamped to the sentinel N+1), with mirrored classes when x was reset last.

An anchor is a (class, chain slot, 0/1 state) triple.  The builder first
walks the anchor graph without allocating a state, keeps the anchors on a
path from the start anchor to an accept event, and only then emits the kept
anchors' gadgets.  The counter ignored, every gadget state lies on a path
between its two anchors, so no emitted state is dead and the state budget
counts only states the POCA keeps.

Per chain slot the builder emits gadgets that verify region-internal
reachability through the arithmetic-progression tables of the region's
one-counter projection: full traversals check the forced dwell time against
a chosen progression and restore the counter; resets lock a nondeterministic
dwell into the new counter value; point-like regions admit only zero dwell,
which is a static epsilon-reachability check.

Every unannotated state is named by its whole future: a chain interior by
its one (op, next state), and a loop hub -- a lock's dwell loop or a walk of
the counter to the pin -- by (step, period, exit ops, destination).  The
emitter creates such a state with all its rules when its name is first asked
for and never adds a rule to it later, so gadgets with the same future share
it and no two unannotated states are bisimilar.  Annotated states (init, acc
and the anchors) are never shared.  Each event is recorded on the one rule
that leaves its anchor and enters its gadget, so the decoder reads anchors
off a witness's states and events off its rule labels.  No rule is emitted
twice: two events whose gadgets have the same ops and target share one
entry rule, which records the first.

A gadget whose progression has period b >= 2 and whose bound is N also
checks w = N (mod b) in place: a ("residue", b) marker expands into b
restoring branches, branch r testing w = r and then w + N = 2r (mod b).  Some
branch passes exactly when w = N (mod b) (take r = w mod b; conversely
N = 2r - w = r = w), so the anchor graph is emitted once.  A branch starts
after the gadget's comparison test and adds at most N + b - 1 to w.  From
w <= N it peaks at 2N + b - 1.  In lock_y_mirror (w >= N), w lies N + 1 + a
below the dwell loop's exit value, at most 3N - 2 (the loop descends from
c + N - 1 for an XMID anchor value c <= 2N - 1), so it peaks at 3N + b - 4
at most.  Both stay inside the gadget envelope 3N + 6 + a + b.

Parameter values 0 and 1 lack the geometry above.  The builder decides each
with the brute-force 0/1 oracle, and where it accepts emits one branch that
tests the parameter for equality and goes straight to the accepting state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from . import semantics
from .automata import (
    POCA,
    AddConst,
    AddParam,
    CmpConst,
    CmpParam,
    ModTest,
    PocaRule,
    ZeroOnePTA,
)
from .regions import Region, region_automaton, region_oca, region_satisfies
from .semantics import (
    PtaConfiguration,
    Run,
    _label_step,
    reachable,
    shortest_path,
    zero_one_successors,
)
from .semilinear import letter_graph, reach_lengths

PARAM = "p"
SMALL_LIMIT = 2  # parameter values below this are decided by the 0/1 oracle


class BudgetExceeded(RuntimeError):
    """The construction allocated more states than its budget.  The anchor
    walk allocates none, so the budget counts only states the POCA keeps."""


# Counter-difference classes and their region chains.
CHAINS = {
    "Z0": (Region.CORNER_00, Region.LOWER_LEFT, Region.CORNER_NN, Region.UPPER_RIGHT),
    "YMID": (
        Region.SEG_BOTTOM_LEFT,
        Region.LOWER_LEFT,
        Region.SEG_RIGHT_LOW,
        Region.LOWER_RIGHT,
        Region.RAY_TOP_HIGH,
        Region.UPPER_RIGHT,
    ),
    "YN": (Region.CORNER_N0, Region.LOWER_RIGHT, Region.RAY_TOP_HIGH, Region.UPPER_RIGHT),
    "YHI": (Region.RAY_BOTTOM_HIGH, Region.LOWER_RIGHT, Region.RAY_TOP_HIGH, Region.UPPER_RIGHT),
    "XMID": (
        Region.SEG_LEFT_LOW,
        Region.LOWER_LEFT,
        Region.SEG_TOP_LEFT,
        Region.UPPER_LEFT,
        Region.RAY_RIGHT_HIGH,
        Region.UPPER_RIGHT,
    ),
    "XN": (Region.CORNER_0N, Region.UPPER_LEFT, Region.RAY_RIGHT_HIGH, Region.UPPER_RIGHT),
    "XHI": (Region.RAY_LEFT_HIGH, Region.UPPER_LEFT, Region.RAY_RIGHT_HIGH, Region.UPPER_RIGHT),
}

# Chain successor edges: (kappa, slot) -> ((next_slot, z_condition), ...).
# Conditions name the runtime test guarding the crossing; None is always-on.
CROSSINGS = {
    ("Z0", 0): ((1, None),),
    ("Z0", 1): ((2, None),),
    ("Z0", 2): ((3, None),),
    ("YMID", 0): ((1, "z<=N-2"), (2, "z=N-1")),
    ("YMID", 1): ((2, None),),
    ("YMID", 2): ((3, "z>=2"), (4, "z=1")),
    ("YMID", 3): ((4, None),),
    ("YMID", 4): ((5, None),),
    ("YN", 0): ((1, None),),
    ("YN", 1): ((2, None),),
    ("YN", 2): ((3, None),),
    ("YHI", 0): ((1, None),),
    ("YHI", 1): ((2, None),),
    ("YHI", 2): ((3, None),),
    ("XMID", 0): ((1, "z>=2-N"), (2, "z=1-N")),
    ("XMID", 1): ((2, None),),
    ("XMID", 2): ((3, "z<=-2"), (4, "z=-1")),
    ("XMID", 3): ((4, None),),
    ("XMID", 4): ((5, None),),
    ("XN", 0): ((1, None),),
    ("XN", 1): ((2, None),),
    ("XN", 2): ((3, None),),
    ("XHI", 0): ((1, None),),
    ("XHI", 1): ((2, None),),
    ("XHI", 2): ((3, None),),
}

# Gadget case for an open cell in a given class chain.
CELL_CASE = {
    ("Z0", Region.LOWER_LEFT): "LL_MAIN",
    ("YMID", Region.LOWER_LEFT): "LL_MAIN",
    ("XMID", Region.LOWER_LEFT): "LL_MIRROR",
    ("YMID", Region.LOWER_RIGHT): "LR_LEFT",
    ("YN", Region.LOWER_RIGHT): "LR_ZN",
    ("YHI", Region.LOWER_RIGHT): "LR_ZN1",
    ("XMID", Region.UPPER_LEFT): "UL_TOP",
    ("XN", Region.UPPER_LEFT): "UL_ZN",
    ("XHI", Region.UPPER_LEFT): "UL_ZN1",
    ("Z0", Region.UPPER_RIGHT): "UR",
    ("YMID", Region.UPPER_RIGHT): "UR",
    ("YN", Region.UPPER_RIGHT): "UR",
    ("YHI", Region.UPPER_RIGHT): "UR",
    ("XMID", Region.UPPER_RIGHT): "UR",
    ("XN", Region.UPPER_RIGHT): "UR",
    ("XHI", Region.UPPER_RIGHT): "UR",
}

# New-difference action per (point-like region, reset set).  Actions:
# noop / zero / plus_n / minus_n / plus_sent / minus_sent / add_p / sub_p.
POINT_RESET_ACTIONS = {
    Region.CORNER_00: {"y": "noop", "x": "noop", "xy": "noop"},
    Region.SEG_BOTTOM_LEFT: {"y": "noop", "x": "zero", "xy": "zero"},
    Region.SEG_RIGHT_LOW: {"y": "plus_n", "x": "sub_p", "xy": "zero"},
    Region.CORNER_NN: {"y": "plus_n", "x": "minus_n", "xy": "noop"},
    Region.CORNER_N0: {"y": "noop", "x": "zero", "xy": "zero"},
    Region.RAY_BOTTOM_HIGH: {"y": "noop", "x": "zero", "xy": "zero"},
    Region.RAY_TOP_HIGH: {"y": "plus_sent", "x": "minus_n", "xy": "zero"},
    Region.SEG_LEFT_LOW: {"y": "zero", "x": "noop", "xy": "zero"},
    Region.SEG_TOP_LEFT: {"y": "add_p", "x": "minus_n", "xy": "zero"},
    Region.CORNER_0N: {"y": "zero", "x": "noop", "xy": "zero"},
    Region.RAY_LEFT_HIGH: {"y": "zero", "x": "noop", "xy": "zero"},
    Region.RAY_RIGHT_HIGH: {"y": "plus_n", "x": "minus_sent", "xy": "zero"},
}

ACTION_TARGET_KAPPA = {
    "zero": "Z0",
    "plus_n": "YN",
    "minus_n": "XN",
    "plus_sent": "YHI",
    "minus_sent": "XHI",
    "add_p": "YMID",
    "sub_p": "XMID",
}


@dataclass(frozen=True)
class GadgetSpec:
    """Contract met by one emitted gadget.

    The envelope bounds every counter value from the gadget's entry rule
    (its key in ``BuildResult.gadgets``, as in ``BuildResult.events``) to the
    next anchor on an accepting run, as alpha * N + beta; tests replay
    witnesses against it.
    """

    name: str
    gen: Optional[tuple]
    case: Optional[str]
    lo: tuple  # (alpha, beta): value >= alpha * N + beta
    hi: tuple  # (alpha, beta): value <= alpha * N + beta

    def check_value(self, value: int, n: int) -> bool:
        lo = self.lo[0] * n + self.lo[1]
        hi = self.hi[0] * n + self.hi[1]
        return lo <= value <= hi


@dataclass
class BuildResult:
    poca: POCA
    annotations: dict
    source: ZeroOnePTA
    max_gadget_const: int
    events: dict = field(default_factory=dict)  # entry rule index -> event with its anchor's u
    gadgets: dict = field(default_factory=dict)  # entry rule index -> GadgetSpec
    small_runs: dict = field(default_factory=dict)  # accepted k < SMALL_LIMIT -> 0/1 run

    def annotation(self, state: str) -> dict:
        return self.annotations.get(state, {})


def _plus(k: int):
    return [AddConst(1)] * k


def _minus(k: int):
    return [AddConst(-1)] * k


class _Emitter:
    """Allocates states and threads op lists between them.

    The caller names annotated states and passes them as chain ends; every
    other state is a shared tail, named by its whole future (see the module
    doc).
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.rules = {}  # rule -> its index: one rule per (src, op, dst)
        self.annotations = {}
        self.counter = itertools.count()
        self.tails = {}  # (op, dst) -> the unannotated state whose future is op, then dst

    def fresh(self, meta: Optional[dict] = None) -> str:
        index = next(self.counter)
        if index >= self.budget:
            raise BudgetExceeded(f"state budget {self.budget} exhausted")
        name = f"c{index}"
        if meta:
            self.annotations[name] = meta
        return name

    def edge(self, src: str, op, dst: str) -> int:
        return self.rules.setdefault(PocaRule(src, op, dst), len(self.rules))

    def link(self, src: str, op, dst: str) -> Optional[int]:
        """One op from src to dst; returns the index of the rule it adds from
        src.  A loop marker enters its hub; a ("residue", b) marker checks the
        counter against N modulo b (see the module doc) by b rules."""
        if not isinstance(op, tuple):
            return self.edge(src, op, dst)
        if op[0] == "loop":
            # A +0 hop: the cycle sits on the shared hub, never on src.
            return self.edge(src, AddConst(0), self.tail(op, dst))
        b = op[1]
        for r in range(b):
            ops = _residue_ops(b, r) + [_PLUS_N] + _residue_ops(b, 2 * r % b) + [_MINUS_N]
            self.chain(src, ops, dst)
        return None

    def tail(self, op, dst: str) -> str:
        """The unannotated state whose whole future is op, then dst.

        It is created, with its rules, when (op, dst) is first asked for,
        and no rule is added to it later.  A ("loop", step, period, exit)
        marker names its hub: a cycle adding step at each of period rules,
        and the exit ops from the hub to dst.
        """
        if (op, dst) not in self.tails:
            state = self.tails[op, dst] = self.fresh()
            if isinstance(op, tuple) and op[0] == "loop":
                _, step, period, exit_ops = op
                cur = state
                for _ in range(period - 1):
                    cur = self.tail(AddConst(step), cur)
                self.edge(state, AddConst(step), cur)
                self.chain(state, exit_ops, dst)
            else:
                self.link(state, op, dst)
        return self.tails[op, dst]

    def chain(self, src: str, ops, dst: str) -> Optional[int]:
        """Thread a list of counter operations from src to dst, as ``link``.

        The interior is built backwards from dst out of shared tail states,
        so chains that end in the same ops to the same state share them.
        """
        ops = list(ops) or [AddConst(0)]
        for op in reversed(ops[1:]):
            dst = self.tail(op, dst)
        return self.link(src, ops[0], dst)


class _RegionTables(dict):
    """Per region: the 0/1 rules it enables, and its AP memo.

    A region's table is built the first time the region is looked up, in one
    pass over the 0/1 rules that checks each distinct guard against the
    region once.  It lists the enabled resetting rules0 ("resets") and the
    enabled rules1 ("times"), each as (index, rule), and the epsilon graph
    of the enabled reset-free rules0 ("eps").  The region automaton, its OCA
    and the OCA's letter graph are built on the region's first AP-memo miss.
    Every later ``reach_lengths`` call on the region shares that graph, and
    with it the walks from each source, searched on the source's first call:
    the other targets of that source only read them off.  A build looks up
    about half of the sixteen regions and asks AP tables of about three.
    """

    def __init__(self, b: ZeroOnePTA, clocks: tuple):
        super().__init__()
        self.b = b
        self.clocks = clocks

    def __missing__(self, region):
        b = self.b
        guards = dict.fromkeys(r.guard for r in b.rules0 + b.rules1)
        holds = {g: region_satisfies(region, g, self.clocks) for g in guards}
        eps = {s: set() for s in b.states}
        for rule in b.rules0:
            if not rule.resets and holds[rule.guard]:
                eps[rule.src].add(rule.dst)
        table = self[region] = {
            "resets": [(i, r) for i, r in enumerate(b.rules0) if r.resets and holds[r.guard]],
            "eps": eps,
            "times": [(i, r) for i, r in enumerate(b.rules1) if holds[r.guard]],
            "gens": {},
        }
        return table

    def gens(self, region, u, v) -> tuple:
        """The dwell progressions from u to v inside the region."""
        table = self[region]
        memo = table["gens"]
        if (u, v) not in memo:
            if "oca" not in table:
                table["oca"] = region_oca(region_automaton(self.b, region))
                table["letters"] = letter_graph(table["oca"])
            memo[u, v] = reach_lengths(table["oca"], u, v, table["letters"]).pairs
        return memo[u, v]


# ---------------------------------------------------------------------------
# Gadget op-lists (all relative to the shifted counter c = z + 2N)
# ---------------------------------------------------------------------------

_MINUS_N, _PLUS_N = AddParam(-1, PARAM), AddParam(1, PARAM)


def _undo(ops):
    """The updates that walk the counter back through ops."""
    return [
        AddConst(-op.value) if isinstance(op, AddConst) else AddParam(-op.sign, op.param)
        for op in reversed(ops)
    ]


def _restore(there, tests):
    """Move the counter by `there`, run the tests, and move it back."""
    return there + tests + _undo(there)


# Restoring tests on the difference z, per condition: (moves, test).  With
# c = z + 2N, "z<=N-2" lifts by 2 and descends by 2N to test z + 2 <= N.
# Beside the crossing conditions of CROSSINGS: the lock checks "z<=N-1" and
# "z>=1-N" and the collapse pin "z=0".
ZCONDS = {
    "z<=N-2": (_plus(2) + [_MINUS_N] * 2, CmpParam("<=", PARAM)),
    "z<=N-1": (_plus(1) + [_MINUS_N] * 2, CmpParam("<=", PARAM)),
    "z=N-1": (_plus(1) + [_MINUS_N] * 2, CmpParam("=", PARAM)),
    "z>=2": ([_MINUS_N] * 2, CmpConst(">=", 2)),
    "z=1": ([_MINUS_N] * 2, CmpConst("=", 1)),
    "z=0": ([_MINUS_N] * 2, CmpConst("=", 0)),
    "z>=2-N": ([_MINUS_N], CmpConst(">=", 2)),
    "z>=1-N": ([_MINUS_N], CmpConst(">=", 1)),
    "z=1-N": ([_MINUS_N], CmpConst("=", 1)),
    "z<=-2": (_plus(2) + [_MINUS_N], CmpParam("<=", PARAM)),
    "z=-1": (_plus(1) + [_MINUS_N], CmpParam("=", PARAM)),
}


def _zcond_ops(cond: str):
    there, test = ZCONDS[cond]
    return _restore(there, [test])


def _residue_ops(b_period: int, r: int):
    """Restoring test that the counter is r modulo b_period."""
    return _restore(_plus((b_period - r) % b_period), [ModTest(b_period)])


def _bound_test(bound: str, cmp: str, b_period: int):
    """The counter equals the bound ("N" or "0") for period 0; otherwise it
    compares `cmp` with the bound and agrees with it modulo the period."""
    cmp = "=" if b_period == 0 else cmp
    if bound == "0":
        return [CmpConst(cmp, 0)] + (_residue_ops(b_period, 0) if b_period >= 2 else [])
    return [CmpParam(cmp, PARAM)] + ([("residue", b_period)] if b_period >= 2 else [])


# Open-cell cases other than UR: (bound the checked value meets, "N" or "0";
# parameter descents; extra dwell).  After the descents the counter holds
# w = z + (2 - descents) * N, and a full crossing dwells
# (N - w or w) - 2 - extra time units.
CASES = {
    "LL_MAIN": ("N", 2, 0),
    "LL_MIRROR": ("0", 1, 0),
    "LR_LEFT": ("0", 2, 0),
    "LR_ZN": ("0", 2, 0),
    "LR_ZN1": ("0", 2, 1),
    "UL_TOP": ("N", 1, 0),
    "UL_ZN": ("N", 1, 0),
    "UL_ZN1": ("N", 1, 1),
}


def _traverse_ops(case: str, gen: tuple):
    """Restoring check that the forced full-cell dwell lies in the progression."""
    a, b_period = gen
    bound, descents, extra = CASES[case]
    lift = a + 2 + extra
    if bound == "N":
        return _restore(_plus(lift) + [_MINUS_N] * descents, _bound_test("N", "<=", b_period))
    return _restore([_MINUS_N] * descents + _minus(lift), _bound_test("0", ">=", b_period))


def _exist_ops(case: str, gen: tuple):
    """Restoring check that the progression meets the cell's dwell range."""
    if case == "UR":
        return []
    bound, descents, extra = CASES[case]
    lift = gen[0] + 2 + extra
    if bound == "N":
        return _restore(_plus(lift) + [_MINUS_N] * descents, [CmpParam("<=", PARAM)])
    return _restore([_MINUS_N] * descents, [CmpConst(">=", lift)])


def _loop(step: int, period: int, exit_ops):
    """Ops that run a cycle of `period` rules adding step any number of
    times, then exit_ops; with period 0 there is no cycle."""
    return [("loop", step, period, tuple(exit_ops))] if period else list(exit_ops)


# Lock resets turn the dwell beyond the progression offset a into the new
# counter.  Per style, (a, period, extra dwell) -> the gadget's ops: a lead-in,
# a dwell loop of the period, and a restoring check after it.
LOCKS = {
    # new difference z+1+delta, verified <= N-1
    "lock_y_main": lambda a, b, extra: _plus(1 + a) + _loop(1, b, _zcond_ops("z<=N-1")),
    # new difference -(1+delta): descend by N, climb at least once, then
    # pin the climb target against the progression.
    "lock_x_main": lambda a, b, extra: [_MINUS_N, AddConst(1)] + _loop(
        1, 1, _restore(_plus(1 + a) + [_MINUS_N], _bound_test("N", "<=", b)),
    ),
    # new difference 1+delta: climb by N, descend at least once, pin.
    "lock_y_mirror": lambda a, b, extra: [_PLUS_N, AddConst(-1)] + _loop(
        -1, 1, _restore(_minus(1 + a) + [_MINUS_N], _bound_test("N", ">=", b)),
    ),
    # new difference z-1-delta, verified >= 1-N
    "lock_x_mirror": lambda a, b, extra: _minus(1 + a) + _loop(-1, b, _zcond_ops("z>=1-N")),
    # from LOWER_RIGHT: new difference z-N-1-delta (left entry) or
    # -(1+delta) (bottom entries), same shifted form either way.
    "lock_x_lr": lambda a, b, extra: (
        [_MINUS_N] + _minus(1 + extra + a) + _loop(-1, b, _zcond_ops("z>=1-N"))
    ),
    # from UPPER_LEFT: new difference N+1+z+delta (top entry) or 1+delta
    # (left entries), verified <= N-1.
    "lock_y_ul": lambda a, b, extra: (
        [_PLUS_N] + _plus(1 + extra + a) + _loop(1, b, _zcond_ops("z<=N-1"))
    ),
}

# Reset inside an open cell, per case family (the LR_* and UL_* cases share
# one row each) and reset key: a lock style, or the action applied after an
# existence check.  A lock on y enters YMID, a lock on x enters XMID.
_CELL_RESET_STYLE = {
    "LL_MAIN": {"y": "lock_y_main", "x": "lock_x_main", "xy": "zero"},
    "LL_MIRROR": {"y": "lock_y_mirror", "x": "lock_x_mirror", "xy": "zero"},
    "LR": {"y": "plus_sent", "x": "lock_x_lr", "xy": "zero"},
    "UL": {"y": "lock_y_ul", "x": "minus_sent", "xy": "zero"},
    "UR": {"y": "plus_sent", "x": "minus_sent", "xy": "zero"},
}


def _reset(kappa, region, case, rk):
    """(style, action, target class) of a reset by key rk at an anchor."""
    if case is None:
        action = POINT_RESET_ACTIONS[region][rk]
        return "point", action, ACTION_TARGET_KAPPA.get(action, kappa)
    entry = _CELL_RESET_STYLE[case if case.startswith("LL_") else case[:2]][rk]
    if entry in LOCKS:
        return entry, None, "YMID" if rk == "y" else "XMID"
    return "ur" if case == "UR" else "exist_then", entry, ACTION_TARGET_KAPPA[entry]


def _dwell_keys(gen):
    """Event keys of a dwell progression: none for zero dwell (gen None)."""
    return {} if gen is None else {"gen": gen}


# Ops taking the shifted counter from z + 2N to exactly 2N, per class.  The
# ranged classes walk the counter in a loop until z = 0.
_COLLAPSE = {
    "Z0": [],
    "YN": [_MINUS_N],
    "YHI": [_MINUS_N, AddConst(-1)],
    "XN": [_PLUS_N],
    "XHI": [_PLUS_N, AddConst(1)],
    "YMID": _loop(-1, 1, _zcond_ops("z=0")),
    "XMID": _loop(+1, 1, _zcond_ops("z=0")),
}

# Reset action -> (collapses first, ops realizing the new difference).
_ACTIONS = {
    "noop": (False, []),
    "add_p": (False, [_PLUS_N]),
    "sub_p": (False, [_MINUS_N]),
    "zero": (True, []),
    "plus_n": (True, [_PLUS_N]),
    "minus_n": (True, [_MINUS_N]),
    "plus_sent": (True, [_PLUS_N, AddConst(1)]),
    "minus_sent": (True, [_MINUS_N, AddConst(-1)]),
}


def _action_ops(kappa: str, action: str):
    """Counter ops realizing a reset to a known new difference."""
    collapse, ops = _ACTIONS[action]
    return (_COLLAPSE[kappa] if collapse else []) + ops


class _Builder:
    def __init__(self, b: ZeroOnePTA, budget: int):
        if len(b.clocks) != 2:
            raise ValueError("builder expects a two-clock 0/1 automaton")
        bad = [c for c in b.consts() if c != 0]
        if bad:
            raise ValueError(f"builder expects constants inside {{0}}, found {bad}")
        if any(r.resets for r in b.rules1):
            raise ValueError("builder expects reset-free time rules")
        self.b = b
        self.em = _Emitter(budget)
        self.clocks = tuple(sorted(b.clocks))
        self.tables = _RegionTables(b, self.clocks)
        self.acc = self.em.fresh({"role": "acc"})
        self.events = {}  # entry rule index -> event
        self.gadget_specs = {}  # entry rule index -> GadgetSpec
        self.max_const = 0

    def discover(self):
        """Walk the anchor graph, keep the anchors on a path from the start
        to an accept event, then emit their gadgets in walk order (see the
        module doc); returns the start anchor's state, None if it is dead."""
        start = ("Z0", 0, self.b.initial)
        walked, preds = {}, {}  # anchor key -> its events; -> keys with an event into it

        def successors(key):
            walked[key] = self._anchor_events(*key)
            for ev in walked[key]:
                if "next" in ev:
                    preds.setdefault(ev["next"], []).append(key)
                    yield ev["next"]

        reachable([start], successors)
        accepting = [key for key, evs in walked.items() if any("next" not in ev for ev in evs)]
        live = reachable(accepting, lambda key: preds.get(key, ()))
        anchors = {}

        def anchor(key):
            if key not in anchors:
                kappa, slot, u = key
                region = CHAINS[kappa][slot].name
                anchors[key] = self.em.fresh(
                    {"role": "anchor", "kappa": kappa, "slot": slot, "region": region, "bstate": u}
                )
            return anchors[key]

        for key in (key for key in walked if key in live):
            for ev in walked[key]:
                if "next" not in ev or ev["next"] in live:  # accepts have no next
                    self._emit_event(anchor(key), key, ev, anchor)
        return anchors.get(start)

    def _anchor_events(self, kappa, slot, u):
        """Crossings, resets and accepts feasible from one anchor.

        reach(v) lists the dwell progressions from u to v: the region's AP
        table in an open cell, and None (zero dwell) in a point-like region
        when v lies in u's epsilon closure.  Where the dwell is unconstrained
        (point-like regions and UR) one progression stands for all and only
        the first accepting final is kept.
        """
        region = CHAINS[kappa][slot]
        case = CELL_CASE.get((kappa, region))
        if case is None:
            closure = reachable([u], self.tables[region]["eps"].__getitem__)
            reach = lambda v: (None,) if v in closure else ()
        elif case == "UR":
            reach = lambda v: self.tables.gens(region, u, v)[:1]
        else:
            reach = lambda v: self.tables.gens(region, u, v)
        checked = case in CASES  # the gadget checks the dwell
        out = []
        for nxt_slot, cond in CROSSINGS.get((kappa, slot), ()):
            for ridx, rule in self.tables[CHAINS[kappa][nxt_slot]]["times"]:
                for gen in reach(rule.src):
                    out.append({
                        "type": "cross", "cond": cond, **_dwell_keys(gen),
                        "rule1": ridx, "v": rule.src, "next": (kappa, nxt_slot, rule.dst),
                    })
        for ridx, rule in self.tables[region]["resets"]:
            gens = reach(rule.src)
            if not gens:
                continue
            rk = _reset_key(rule.resets, *self.clocks)
            style, action, kappa2 = _reset(kappa, region, case, rk)
            for gen in gens:
                out.append({
                    "type": "reset", "style": style, "action": action, **_dwell_keys(gen),
                    "rule0": ridx, "v": rule.src, "next": (kappa2, 0, rule.dst),
                })
        for f in sorted(self.b.finals):
            gens = reach(f)
            out += ({"type": "accept", **_dwell_keys(gen), "v": f} for gen in gens)
            if gens and not checked:
                break
        return out

    def _emit_event(self, src, key, ev, anchor):
        """The event's gadget from anchor src; its first rule carries the
        event (never a residue marker: each gadget opens with a move)."""
        kappa, slot, u = key
        case = CELL_CASE.get((kappa, CHAINS[kappa][slot]))
        gen = ev.get("gen")
        target = self.acc if ev["type"] == "accept" else anchor(ev["next"])
        if ev.get("style") in LOCKS:
            # A lock turns a nondeterministic dwell into the new counter.
            a, b_period = gen
            self.max_const = max(self.max_const, a + 3, b_period)
            ops = LOCKS[ev["style"]](a, b_period, CASES[case][2])
        else:
            ops = _zcond_ops(ev["cond"]) if ev.get("cond") else []
            if gen:
                check = _traverse_ops if ev["type"] == "cross" else _exist_ops
                ops += check(case, gen)
            if ev["type"] == "reset":
                ops += _action_ops(kappa, ev["action"])
            self._note_consts(ops)
        rule = self.em.chain(src, ops, target)
        if rule in self.events:  # an earlier event's gadget has the same ops and target
            return
        self.events[rule] = {**{k: v for k, v in ev.items() if k != "next"}, "u": u}
        name = f"{ev['type']}:{ev.get('style') or ev.get('cond') or case or 'point'}"
        slack = 6 + (gen[0] + gen[1] if gen else 0)
        self.gadget_specs[rule] = GadgetSpec(name, gen, case, lo=(0, 0), hi=(3, slack))

    def _note_consts(self, ops):
        for op in ops:
            if isinstance(op, (ModTest, CmpConst)):
                self.max_const = max(self.max_const, op.value)
            elif isinstance(op, tuple) and op[0] == "residue":  # expands to ModTest(b)
                self.max_const = max(self.max_const, op[1])


def _reset_key(resets, clock_x, clock_y) -> str:
    has_x = clock_x in resets
    has_y = clock_y in resets
    if has_x and has_y:
        return "xy"
    return "x" if has_x else "y"


def build_poca(b: ZeroOnePTA, budget: int = 200_000) -> BuildResult:
    """Compile a 0/1-PTA with Consts = {0} into an equivalent POCA.

    The output accepts at parameter value N exactly when the input does,
    and every accepting run keeps its counter within [0, 4 * max(N, |C|)].
    Each state lies on an initial-to-accepting path, except that a POCA with
    no final state is its initial state alone; ``budget`` caps the states.
    """
    builder = _Builder(b, budget)
    em = builder.em
    init = em.fresh({"role": "init"})

    # Small parameter values: the 0/1 oracle decides each, and where b accepts
    # an equality test on k leads from init straight to the accepting state.
    # The oracle is read off its module at call time, so a wrapper installed
    # there sees it.
    small_runs = {}
    for k in range(SMALL_LIMIT):
        run = semantics.zero_one_reach_bruteforce(b, k, max(k, 1) + 1)
        if run is not None:
            small_runs[k] = run
            em.chain(init, _plus(k) + [CmpParam("=", PARAM)], builder.acc)

    # Large branch: verify N >= SMALL_LIMIT, then offset the counter by 2N.
    start = builder.discover()
    if start is not None:
        gate = _restore(_plus(SMALL_LIMIT), [CmpParam("<=", PARAM)]) + [_PLUS_N] * 2
        em.chain(init, gate, start)

    rules = tuple(em.rules)  # in emission order
    states = {init, *(r.src for r in rules), *(r.dst for r in rules)}
    poca = POCA(
        states=frozenset(states),
        params=frozenset({PARAM}),
        rules=rules,
        initial=init,
        finals=frozenset({builder.acc} & states),
    )
    return BuildResult(
        poca=poca,
        annotations={s: m for s, m in em.annotations.items() if s in states},
        source=b,
        max_gadget_const=builder.max_const,
        events=builder.events,
        gadgets=builder.gadget_specs,
        small_runs=small_runs,
    )


# ---------------------------------------------------------------------------
# Witness decoding
# ---------------------------------------------------------------------------


class DecodeError(RuntimeError):
    pass


def decode_witness(result: BuildResult, n: int, run) -> "object":
    """Reconstruct an accepting run of the source 0/1-PTA from a POCA witness.

    Below SMALL_LIMIT the run is the one the 0/1 oracle found while building.
    Above it each event is read off its entry rule in the witness's labels,
    names the 0/1 rule it takes, and its dwell follows from the clock
    valuation reached so far: a full crossing of an open cell dwells until
    the largest clock inside (0, N) reaches N - 1; a lock reset dwells until
    the clock it keeps reaches |z| at the next anchor, where z is the new
    difference; any other event dwells the least element of its
    progression, or zero without one.
    """
    b = result.source
    if n < SMALL_LIMIT:
        if n not in result.small_runs:
            raise DecodeError(f"the 0/1 oracle rejected N = {n} while building")
        return result.small_runs[n]

    cx, cy = sorted(b.clocks)
    configs = [PtaConfiguration.make(b.initial, {cx: 0, cy: 0})]
    labels = []
    step = _label_step(b, n)

    def extend(rule_global_idx, bit):
        nxt = step(configs[-1], (rule_global_idx, bit))
        if nxt is None:
            raise DecodeError(f"decoded step failed replay at rule {rule_global_idx}")
        configs.append(nxt)
        labels.append((rule_global_idx, bit))

    def dwell(u, v, steps):
        """Append a region path from u to v using exactly `steps` time rules."""
        start = configs[-1]
        if start.state != u:
            raise DecodeError(f"dwell starts in {start.state}, expected {u}")
        # Reset-free steps move both clocks together, so capping the clocks
        # at their largest start value plus `steps` caps the time steps.
        cap = max(t for _, t in start.valuation) + steps
        goal = (v, tuple((c, t + steps) for c, t in start.valuation))

        def successors(node):
            for label, dst, vals in zero_one_successors(b, n, node, cap, lambda r: not r.resets):
                yield label, (dst, tuple(sorted(vals.items())))

        found = shortest_path((u, start.valuation), successors, goal.__eq__)
        if found is None:
            raise DecodeError(f"no region path {u} -> {v} with {steps} time steps")
        for label in found[1]:
            extend(*label)

    def fire(ev, steps):
        """Dwell `steps` time units, then take the event's rule."""
        dwell(ev["u"], ev["v"], steps)
        if ev["type"] == "cross":
            extend(len(b.rules0) + ev["rule1"], 1)
        elif ev["type"] == "reset":
            extend(ev["rule0"], 0)

    lock = None  # a lock reset's event, until the next anchor shows its new difference
    for conf, label in zip(run.configs, run.labels):
        if lock is not None and result.annotation(conf.state).get("role") == "anchor":
            kept = cy if cx in b.rules0[lock["rule0"]].resets else cx
            fire(lock, abs(conf.counter - 2 * n) - configs[-1].value(kept))
            lock = None
        ev = result.events.get(label)
        if ev is None:
            continue
        if ev.get("style") in LOCKS:
            lock = ev
        elif ev["type"] == "cross" and "gen" in ev:
            fire(ev, n - 1 - max(t for _, t in configs[-1].valuation if 0 < t < n))
        else:
            fire(ev, ev["gen"][0] if "gen" in ev else 0)
    if lock is not None:
        raise DecodeError("lock reset without a following anchor")

    # Every step went through the exact stepper in extend, so the run is
    # valid by construction; only acceptance is left to check.
    decoded = Run("zero-one-pta", tuple(configs), tuple(labels))
    if decoded.configs[-1].state not in b.finals:
        raise DecodeError("decoded run does not end in a final state")
    return decoded


# ---------------------------------------------------------------------------
# Acceptance normalization
# ---------------------------------------------------------------------------


def normalize_accepting_zero(poca: POCA) -> POCA:
    """Route acceptance through a countdown so accepting runs end at zero.

    Adds a drain state reachable from every final state under a >= 0 test,
    a -1 self-loop, and an = 0 exit to the new unique final state.  Runs
    accepting at negative counter values are rejected by the entry gate.
    """
    drain, final = "r-", "r+"
    while drain in poca.states or final in poca.states:
        drain += "_"
        final += "_"
    rules = list(poca.rules)
    for f in sorted(poca.finals):
        rules.append(PocaRule(f, CmpConst(">=", 0), drain))
    rules.append(PocaRule(drain, AddConst(-1), drain))
    rules.append(PocaRule(drain, CmpConst("=", 0), final))
    return POCA(
        states=poca.states | {drain, final},
        params=poca.params,
        rules=tuple(rules),
        initial=poca.initial,
        finals=frozenset({final}),
    )
