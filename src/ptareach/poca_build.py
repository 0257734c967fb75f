"""Assemble a parametric one-counter automaton from a 0/1-PTA.

The counter stores the clock difference v(x) - v(y) of the simulated
automaton, offset by 2N so that accepting runs never go negative.  Between
two resets the difference is invariant and the clock pair moves along a
diagonal, so the visited regions form a fixed chain determined by the
difference's class: zero, strictly between 0 and N, exactly N, or beyond N
(clamped to the sentinel N+1), with mirrored classes when x was reset last.

Per chain slot the builder emits gadgets that verify region-internal
reachability through the arithmetic-progression tables of the region's
one-counter projection: full traversals check the forced dwell time against
a chosen progression and restore the counter; resets lock a nondeterministic
dwell into the new counter value; point-like regions admit only zero dwell,
which is a static epsilon-reachability check.

Parameter values 0 and 1 lack the geometry above and are handled by a
direct finite product branch guarded by an equality test on the parameter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

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
from .semantics import reachable, shortest_path, zero_one_successors
from .semilinear import reach_lengths

PARAM = "p"
SMALL_LIMIT = 2  # parameter values below this take the finite product branch


class BudgetExceeded(RuntimeError):
    """The construction grew past the caller-supplied state budget."""


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

    The envelope bounds every counter value between the gadget's entry and
    exit on an accepting run, as alpha * N + beta; tests replay witnesses
    against it.  Entry and exit name the automaton states delimiting the
    gadget's block.
    """

    name: str
    entry: str
    exit: str
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
    gadgets: dict = field(default_factory=dict)  # event-header state -> GadgetSpec

    def annotation(self, state: str) -> dict:
        return self.annotations.get(state, {})


def _plus(k: int):
    return [AddConst(1)] * k


def _minus(k: int):
    return [AddConst(-1)] * k


class _Emitter:
    def __init__(self, budget: int):
        self.budget = budget
        self.names = {}
        self.rules = []
        self.annotations = {}
        self.counter = itertools.count()

    def fresh(self, meta: Optional[dict] = None) -> str:
        name = f"c{next(self.counter)}"
        if len(self.names) >= self.budget:
            raise BudgetExceeded(f"state budget {self.budget} exhausted")
        self.names[name] = True
        if meta:
            self.annotations[name] = meta
        return name

    def edge(self, src: str, op, dst: str) -> None:
        self.rules.append(PocaRule(src, op, dst))

    def chain(self, src: str, ops, dst: str) -> None:
        """Thread a list of counter operations from src to dst."""
        if not ops:
            self.edge(src, AddConst(0), dst)
            return
        cur = src
        for op in ops[:-1]:
            nxt = self.fresh()
            self.edge(cur, op, nxt)
            cur = nxt
        self.edge(cur, ops[-1], dst)

    def loop(self, src: str, step: int, period: int) -> str:
        """A nondeterministic loop adding step*period per iteration.

        Returns the state from which any number of iterations (including
        zero) has been taken; period 0 emits nothing.
        """
        if period == 0:
            return src
        hub = self.fresh()
        self.edge(src, AddConst(0), hub)
        cur = hub
        for _ in range(period - 1):
            nxt = self.fresh()
            self.edge(cur, AddConst(step), nxt)
            cur = nxt
        self.edge(cur, AddConst(step), hub)
        return hub


def _region_tables(b: ZeroOnePTA):
    """Per region: the region automaton, its epsilon graph, and AP memo."""
    tables = {}
    for region in Region:
        b_r = region_automaton(b, region)
        eps = {s: set() for s in b.states}
        for rule in b_r.rules0:
            eps[rule.src].add(rule.dst)
        tables[region] = {
            "automaton": b_r,
            "oca": region_oca(b_r),
            "eps": eps,
            "gens": {},
        }
    return tables


def _gens(tables, region, u, v) -> tuple:
    memo = tables[region]["gens"]
    key = (u, v)
    if key not in memo:
        memo[key] = reach_lengths(tables[region]["oca"], u, v).pairs
    return memo[key]


def _cell_nonempty(tables, region, u, v) -> bool:
    return bool(_gens(tables, region, u, v))


# ---------------------------------------------------------------------------
# Gadget op-lists (all relative to the shifted counter c = z + 2N)
# ---------------------------------------------------------------------------


def _mod_n_residue_ops(b_period: int, rho: int):
    """Test 'current value == N (mod b)' given rho = N mod b."""
    lift = (b_period - rho) % b_period
    return _plus(lift) + [ModTest(b_period)] + _minus(lift)


def _zcond_ops(cond: str):
    le, ge, eqp, eqc = CmpParam("<=", PARAM), CmpConst(">=", 2), CmpParam("=", PARAM), None
    if cond == "z<=N-2":
        return _plus(2) + [AddParam(-1, PARAM), AddParam(-1, PARAM), le, AddParam(1, PARAM), AddParam(1, PARAM)] + _minus(2)
    if cond == "z=N-1":
        return _plus(1) + [AddParam(-1, PARAM), AddParam(-1, PARAM), eqp, AddParam(1, PARAM), AddParam(1, PARAM)] + _minus(1)
    if cond == "z>=2":
        return [AddParam(-1, PARAM), AddParam(-1, PARAM), ge, AddParam(1, PARAM), AddParam(1, PARAM)]
    if cond == "z=1":
        return [AddParam(-1, PARAM), AddParam(-1, PARAM), CmpConst("=", 1), AddParam(1, PARAM), AddParam(1, PARAM)]
    if cond == "z>=2-N":
        return [AddParam(-1, PARAM), ge, AddParam(1, PARAM)]
    if cond == "z=1-N":
        return [AddParam(-1, PARAM), CmpConst("=", 1), AddParam(1, PARAM)]
    if cond == "z<=-2":
        return _plus(2) + [AddParam(-1, PARAM), le, AddParam(1, PARAM)] + _minus(2)
    if cond == "z=-1":
        return _plus(1) + [AddParam(-1, PARAM), eqp, AddParam(1, PARAM)] + _minus(1)
    raise ValueError(f"unknown crossing condition {cond!r}")


def _traverse_ops(case: str, gen: tuple, rho_of: dict):
    """Restoring check that the forced full-cell dwell lies in the progression."""
    a, b_period = gen
    p_minus = [AddParam(-1, PARAM)]
    p_plus = [AddParam(1, PARAM)]
    if case == "LL_MAIN":
        # value z+2+a after two descents: needs = N (b=0) or <= N and == N mod b
        head = _plus(a + 2) + p_minus + p_minus
        tail = p_plus + p_plus + _minus(a + 2)
        if b_period == 0:
            return head + [CmpParam("=", PARAM)] + tail
        mid = [CmpParam("<=", PARAM)]
        if b_period >= 2:
            mid += _mod_n_residue_ops(b_period, rho_of[b_period])
        return head + mid + tail
    if case == "LL_MIRROR":
        head = p_minus + _minus(a + 2)
        tail = _plus(a + 2) + p_plus
        if b_period == 0:
            return head + [CmpConst("=", 0)] + tail
        mid = [CmpConst(">=", 0)]
        if b_period >= 2:
            mid += [ModTest(b_period)]
        return head + mid + tail
    if case in ("LR_LEFT", "LR_ZN", "LR_ZN1"):
        drop = a + 2 if case != "LR_ZN1" else a + 3
        head = p_minus + p_minus + _minus(drop)
        tail = _plus(drop) + p_plus + p_plus
        if b_period == 0:
            return head + [CmpConst("=", 0)] + tail
        mid = [CmpConst(">=", 0)]
        if b_period >= 2:
            mid += [ModTest(b_period)]
        return head + mid + tail
    if case in ("UL_TOP", "UL_ZN", "UL_ZN1"):
        lift = a + 2 if case != "UL_ZN1" else a + 3
        head = _plus(lift) + p_minus
        tail = p_plus + _minus(lift)
        if b_period == 0:
            return head + [CmpParam("=", PARAM)] + tail
        mid = [CmpParam("<=", PARAM)]
        if b_period >= 2:
            mid += _mod_n_residue_ops(b_period, rho_of[b_period])
        return head + mid + tail
    raise ValueError(f"no traversal gadget for case {case!r}")


def _exist_ops(case: str, gen: tuple):
    """Restoring check that the progression meets the cell's dwell range."""
    a, _ = gen
    p_minus = [AddParam(-1, PARAM)]
    p_plus = [AddParam(1, PARAM)]
    if case == "LL_MAIN":
        return (
            _plus(a + 2)
            + p_minus
            + p_minus
            + [CmpParam("<=", PARAM)]
            + p_plus
            + p_plus
            + _minus(a + 2)
        )
    if case == "LL_MIRROR":
        return p_minus + [CmpConst(">=", a + 2)] + p_plus
    if case in ("LR_LEFT", "LR_ZN"):
        return p_minus + p_minus + [CmpConst(">=", a + 2)] + p_plus + p_plus
    if case == "LR_ZN1":
        return p_minus + p_minus + [CmpConst(">=", a + 3)] + p_plus + p_plus
    if case in ("UL_TOP", "UL_ZN"):
        return _plus(a + 2) + p_minus + [CmpParam("<=", PARAM)] + p_plus + _minus(a + 2)
    if case == "UL_ZN1":
        return _plus(a + 3) + p_minus + [CmpParam("<=", PARAM)] + p_plus + _minus(a + 3)
    if case == "UR":
        return []
    raise ValueError(f"no existence gadget for case {case!r}")


_VERIFY_LE_N_MINUS_1 = (
    _plus(1)
    + [AddParam(-1, PARAM), AddParam(-1, PARAM), CmpParam("<=", PARAM), AddParam(1, PARAM), AddParam(1, PARAM)]
    + _minus(1)
)


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
        self.tables = _region_tables(b)
        self.clock_x, self.clock_y = sorted(b.clocks)
        self.acc = self.em.fresh({"role": "acc"})
        self.gadget_specs = {}
        self.max_const = 0

    # -- abstract event discovery ------------------------------------------

    def discover(self):
        """Walk the anchor graph once, recording feasible events.

        Returns (events per anchor key, set of modulo periods needing the
        parameter residue).
        """
        events = {}
        mods = set()

        def successors(key):
            events[key] = found = self._anchor_events(*key)
            for ev in found:
                gen = ev.get("gen")
                if gen and gen[1] >= 2 and ev.get("needs_rho"):
                    mods.add(gen[1])
                if "next" in ev:
                    yield ev["next"]

        reachable([("Z0", 0, self.b.initial)], successors)
        return events, mods

    def _anchor_events(self, kappa, slot, u):
        region = CHAINS[kappa][slot]
        out = []
        if region.is_open_cell():
            case = CELL_CASE[(kappa, region)]
            out += self._cell_events(kappa, slot, region, case, u)
        else:
            out += self._point_events(kappa, slot, region, u)
        return out

    def _point_events(self, kappa, slot, region, u):
        closure = reachable([u], self.tables[region]["eps"].__getitem__)
        out = []
        for nxt_slot, cond in CROSSINGS.get((kappa, slot), ()):
            target_region = CHAINS[kappa][nxt_slot]
            for ridx, rule in enumerate(self.b.rules1):
                if rule.src not in closure or rule.resets:
                    continue
                if not region_satisfies(target_region, rule.guard, (self.clock_x, self.clock_y)):
                    continue
                out.append(
                    {
                        "type": "cross",
                        "cond": cond,
                        "rule1": ridx,
                        "v": rule.src,
                        "next": (kappa, nxt_slot, rule.dst),
                    }
                )
        out += self._reset_events_point(kappa, region, closure)
        for f in sorted(self.b.finals):
            if f in closure:
                out.append({"type": "accept", "v": f})
                break
        return out

    def _reset_events_point(self, kappa, region, closure):
        out = []
        for ridx, rule in enumerate(self.b.rules0):
            if not rule.resets or rule.src not in closure:
                continue
            if not region_satisfies(region, rule.guard, (self.clock_x, self.clock_y)):
                continue
            action = POINT_RESET_ACTIONS[region][_reset_key(rule.resets, self.clock_x, self.clock_y)]
            kappa2 = ACTION_TARGET_KAPPA.get(action, kappa)
            out.append(
                {
                    "type": "reset",
                    "style": "point",
                    "action": action,
                    "rule0": ridx,
                    "v": rule.src,
                    "next": (kappa2, 0, rule.dst),
                }
            )
        return out

    def _cell_events(self, kappa, slot, region, case, u):
        out = []
        states = sorted(self.b.states)
        if case == "UR":
            for ridx, rule in enumerate(self.b.rules0):
                if not rule.resets:
                    continue
                if not region_satisfies(region, rule.guard, (self.clock_x, self.clock_y)):
                    continue
                gens = _gens(self.tables, region, u, rule.src)
                if not gens:
                    continue
                rk = _reset_key(rule.resets, self.clock_x, self.clock_y)
                action = {"y": "plus_sent", "x": "minus_sent", "xy": "zero"}[rk]
                out.append(
                    {
                        "type": "reset",
                        "style": "ur",
                        "action": action,
                        "gen": gens[0],
                        "rule0": ridx,
                        "v": rule.src,
                        "next": (ACTION_TARGET_KAPPA[action], 0, rule.dst),
                    }
                )
            for f in sorted(self.b.finals):
                gens = _gens(self.tables, region, u, f)
                if gens:
                    out.append({"type": "accept", "gen": gens[0], "v": f})
                    break
            return out

        needs_rho = case in ("LL_MAIN", "UL_TOP", "UL_ZN", "UL_ZN1")
        for nxt_slot, cond in CROSSINGS.get((kappa, slot), ()):
            target_region = CHAINS[kappa][nxt_slot]
            for ridx, rule in enumerate(self.b.rules1):
                if rule.resets:
                    continue
                if not region_satisfies(target_region, rule.guard, (self.clock_x, self.clock_y)):
                    continue
                for gen in _gens(self.tables, region, u, rule.src):
                    out.append(
                        {
                            "type": "cross",
                            "cond": cond,
                            "gen": gen,
                            "needs_rho": needs_rho and gen[1] >= 2,
                            "rule1": ridx,
                            "v": rule.src,
                            "next": (kappa, nxt_slot, rule.dst),
                        }
                    )
        for ridx, rule in enumerate(self.b.rules0):
            if not rule.resets:
                continue
            if not region_satisfies(region, rule.guard, (self.clock_x, self.clock_y)):
                continue
            rk = _reset_key(rule.resets, self.clock_x, self.clock_y)
            for gen in _gens(self.tables, region, u, rule.src):
                lock = _CELL_RESET_STYLE[case][rk]
                kappa2 = lock["kappa"]
                out.append(
                    {
                        "type": "reset",
                        "style": lock["style"],
                        "action": lock.get("action"),
                        "gen": gen,
                        "needs_rho": lock["style"] in ("lock_x_main", "lock_y_mirror") and gen[1] >= 2,
                        "rule0": ridx,
                        "v": rule.src,
                        "next": (kappa2, 0, rule.dst),
                    }
                )
        for f in sorted(self.b.finals):
            for gen in _gens(self.tables, region, u, f):
                out.append({"type": "accept", "gen": gen, "v": f})
        return out

    # -- emission ------------------------------------------------------------

    def emit(self, events, rho_vector):
        """Emit the large-parameter automaton for one residue assignment."""
        rho_of = dict(rho_vector)
        anchors = {}

        def anchor(key):
            if key not in anchors:
                kappa, slot, u = key
                anchors[key] = self.em.fresh(
                    {
                        "role": "anchor",
                        "kappa": kappa,
                        "slot": slot,
                        "region": CHAINS[kappa][slot].name,
                        "bstate": u,
                        "rho": rho_vector,
                    }
                )
            return anchors[key]

        for key, evs in events.items():
            src = anchor(key)
            kappa, slot, u = key
            region = CHAINS[kappa][slot]
            case = CELL_CASE.get((kappa, region))
            for ev in evs:
                self._emit_event(src, key, case, ev, rho_of, anchor)
        return anchors

    def _emit_event(self, src, key, case, ev, rho_of, anchor):
        kappa, slot, u = key
        meta = {
            "role": "event",
            "kappa": kappa,
            "slot": slot,
            "u": u,
            "event": {k: v for k, v in ev.items() if k != "next"},
        }
        head = self.em.fresh(meta)
        self.em.edge(src, AddConst(0), head)
        gen = ev.get("gen")
        slack = 6 + (gen[0] + gen[1] if gen else 0)
        self.gadget_specs[head] = GadgetSpec(
            name=f"{ev['type']}:{ev.get('style') or ev.get('cond') or case or 'point'}",
            entry=head,
            exit="<target>",
            gen=gen,
            case=case,
            lo=(0, 0),
            hi=(3, slack),
        )
        if ev["type"] == "accept":
            ops = _exist_ops(case, ev["gen"]) if "gen" in ev else []
            self._note_consts(ops)
            self.em.chain(head, ops, self.acc)
            return
        if ev["type"] == "cross":
            ops = []
            if ev.get("cond"):
                ops += _zcond_ops(ev["cond"])
            if "gen" in ev:
                ops += _traverse_ops(case, ev["gen"], rho_of)
            self._note_consts(ops)
            self.em.chain(head, ops, anchor(ev["next"]))
            return
        # resets
        style = ev["style"]
        if style in ("point", "ur"):
            ops = self._action_ops(kappa, ev["action"])
            self._note_consts(ops)
            self.em.chain(head, ops, anchor(ev["next"]))
            return
        if style == "exist_then":
            ops = _exist_ops(case, ev["gen"]) + self._action_ops(kappa, ev["action"])
            self._note_consts(ops)
            self.em.chain(head, ops, anchor(ev["next"]))
            return
        self._emit_lock_reset(head, kappa, case, style, ev, rho_of, anchor)

    def _emit_lock_reset(self, head, kappa, case, style, ev, rho_of, anchor):
        """Gadgets that turn a nondeterministic dwell into the new counter."""
        a, b_period = ev["gen"]
        target = anchor(ev["next"])
        em = self.em
        p_plus, p_minus = AddParam(1, PARAM), AddParam(-1, PARAM)
        self.max_const = max(self.max_const, a + 3, b_period)

        if style == "lock_y_main":
            # new difference z+1+delta, verified <= N-1
            cur = em.fresh()
            em.chain(head, _plus(1 + a) or [AddConst(0)], cur)
            hub = em.loop(cur, +1, b_period)
            em.chain(hub, list(_VERIFY_LE_N_MINUS_1), target)
            return
        if style == "lock_x_main":
            # new difference -(1+delta): descend by N, climb at least once,
            # then pin the climb target against the progression.
            cur = em.fresh()
            em.chain(head, [p_minus, AddConst(1)], cur)
            hub = em.loop(cur, +1, 1)
            ops = _plus(1 + a) + [p_minus]
            if b_period == 0:
                ops += [CmpParam("=", PARAM)]
            else:
                ops += [CmpParam("<=", PARAM)]
                if b_period >= 2:
                    ops += _mod_n_residue_ops(b_period, rho_of[b_period])
            ops += [p_plus] + _minus(1 + a)
            em.chain(hub, ops, target)
            return
        if style == "lock_y_mirror":
            # new difference 1+delta: climb by N, descend at least once, pin.
            cur = em.fresh()
            em.chain(head, [p_plus, AddConst(-1)], cur)
            hub = em.loop(cur, -1, 1)
            ops = _minus(1 + a) + [p_minus]
            if b_period == 0:
                ops += [CmpParam("=", PARAM)]
            else:
                ops += [CmpParam(">=", PARAM)]
                if b_period >= 2:
                    ops += _mod_n_residue_ops(b_period, rho_of[b_period])
            ops += [p_plus] + _plus(1 + a)
            em.chain(hub, ops, target)
            return
        if style == "lock_x_mirror":
            # new difference z-1-delta, verified >= 1-N
            cur = em.fresh()
            em.chain(head, _minus(1 + a), cur)
            hub = em.loop(cur, -1, b_period)
            em.chain(hub, [p_minus, CmpConst(">=", 1), p_plus], target)
            return
        if style == "lock_x_lr":
            # from LOWER_RIGHT: new difference z-N-1-delta (left entry) or
            # -(1+delta) (bottom entries), same shifted form either way.
            prefix = {"LR_LEFT": [p_minus], "LR_ZN": [p_minus], "LR_ZN1": [p_minus, AddConst(-1)]}[case]
            cur = em.fresh()
            em.chain(head, prefix + _minus(1 + a), cur)
            hub = em.loop(cur, -1, b_period)
            em.chain(hub, [p_minus, CmpConst(">=", 1), p_plus], target)
            return
        if style == "lock_y_ul":
            # from UPPER_LEFT: new difference N+1+z+delta (top entry) or
            # 1+delta (left entries), verified <= N-1.
            prefix = {"UL_TOP": [p_plus], "UL_ZN": [p_plus], "UL_ZN1": [p_plus, AddConst(1)]}[case]
            cur = em.fresh()
            em.chain(head, prefix + _plus(1 + a), cur)
            hub = em.loop(cur, +1, b_period)
            em.chain(hub, list(_VERIFY_LE_N_MINUS_1), target)
            return
        raise ValueError(f"unknown lock style {style!r}")

    def _action_ops(self, kappa, action):
        """Counter ops realizing a reset to a known new difference."""
        p_plus, p_minus = AddParam(1, PARAM), AddParam(-1, PARAM)
        if action == "noop":
            return []
        if action == "add_p":
            return [p_plus]
        if action == "sub_p":
            return [p_minus]
        collapse = self._collapse_ops(kappa)
        if action == "zero":
            return collapse
        if action == "plus_n":
            return collapse + [p_plus]
        if action == "minus_n":
            return collapse + [p_minus]
        if action == "plus_sent":
            return collapse + [p_plus, AddConst(1)]
        if action == "minus_sent":
            return collapse + [p_minus, AddConst(-1)]
        raise ValueError(f"unknown reset action {action!r}")

    def _collapse_ops(self, kappa):
        """Ops taking the shifted counter from z + 2N to exactly 2N."""
        if kappa == "Z0":
            return []
        if kappa == "YN":
            return [AddParam(-1, PARAM)]
        if kappa == "YHI":
            return [AddParam(-1, PARAM), AddConst(-1)]
        if kappa == "XN":
            return [AddParam(1, PARAM)]
        if kappa == "XHI":
            return [AddParam(1, PARAM), AddConst(1)]
        # ranged classes: walk to the pin and verify it exactly
        step = -1 if kappa == "YMID" else +1
        return [("collapse", step)]

    def _note_consts(self, ops):
        for op in ops:
            if isinstance(op, (ModTest, CmpConst)):
                self.max_const = max(self.max_const, op.value)


def _reset_key(resets, clock_x, clock_y) -> str:
    has_x = clock_x in resets
    has_y = clock_y in resets
    if has_x and has_y:
        return "xy"
    return "x" if has_x else "y"


_CELL_RESET_STYLE = {
    "LL_MAIN": {
        "y": {"style": "lock_y_main", "kappa": "YMID"},
        "x": {"style": "lock_x_main", "kappa": "XMID"},
        "xy": {"style": "exist_then", "action": "zero", "kappa": "Z0"},
    },
    "LL_MIRROR": {
        "y": {"style": "lock_y_mirror", "kappa": "YMID"},
        "x": {"style": "lock_x_mirror", "kappa": "XMID"},
        "xy": {"style": "exist_then", "action": "zero", "kappa": "Z0"},
    },
    "LR_LEFT": {
        "y": {"style": "exist_then", "action": "plus_sent", "kappa": "YHI"},
        "x": {"style": "lock_x_lr", "kappa": "XMID"},
        "xy": {"style": "exist_then", "action": "zero", "kappa": "Z0"},
    },
    "LR_ZN": {
        "y": {"style": "exist_then", "action": "plus_sent", "kappa": "YHI"},
        "x": {"style": "lock_x_lr", "kappa": "XMID"},
        "xy": {"style": "exist_then", "action": "zero", "kappa": "Z0"},
    },
    "LR_ZN1": {
        "y": {"style": "exist_then", "action": "plus_sent", "kappa": "YHI"},
        "x": {"style": "lock_x_lr", "kappa": "XMID"},
        "xy": {"style": "exist_then", "action": "zero", "kappa": "Z0"},
    },
    "UL_TOP": {
        "y": {"style": "lock_y_ul", "kappa": "YMID"},
        "x": {"style": "exist_then", "action": "minus_sent", "kappa": "XHI"},
        "xy": {"style": "exist_then", "action": "zero", "kappa": "Z0"},
    },
    "UL_ZN": {
        "y": {"style": "lock_y_ul", "kappa": "YMID"},
        "x": {"style": "exist_then", "action": "minus_sent", "kappa": "XHI"},
        "xy": {"style": "exist_then", "action": "zero", "kappa": "Z0"},
    },
    "UL_ZN1": {
        "y": {"style": "lock_y_ul", "kappa": "YMID"},
        "x": {"style": "exist_then", "action": "minus_sent", "kappa": "XHI"},
        "xy": {"style": "exist_then", "action": "zero", "kappa": "Z0"},
    },
}


def build_poca(b: ZeroOnePTA, budget: int = 200_000) -> BuildResult:
    """Compile a 0/1-PTA with Consts = {0} into an equivalent POCA.

    The output accepts at parameter value N exactly when the input does,
    and every accepting run keeps its counter within [0, 4 * max(N, |C|)].
    """
    builder = _Builder(b, budget)
    em = builder.em
    init = em.fresh({"role": "init"})

    # Small parameter values: equality-test branches with a finite product.
    for k in range(SMALL_LIMIT):
        _emit_small_branch(builder, init, k)

    # Large branch: verify N >= SMALL_LIMIT, extract parameter residues for
    # the modulo periods in use, then offset the counter by 2N.
    events, mods = builder.discover()
    gate = em.fresh({"role": "large-gate"})
    em.chain(
        init,
        _plus(SMALL_LIMIT) + [CmpParam("<=", PARAM)] + _minus(SMALL_LIMIT) + [AddParam(1, PARAM)],
        gate,
    )
    mods = sorted(mods)
    rho_choices = [[(b_, r) for r in range(b_)] for b_ in mods]
    for combo in itertools.product(*rho_choices) if mods else [()]:
        cur = gate
        for b_, r in combo:
            nxt = em.fresh()
            lift = (b_ - r) % b_
            em.chain(cur, _plus(lift) + [ModTest(b_)] + _minus(lift), nxt)
            cur = nxt
        entry = em.fresh({"role": "offset", "rho": combo})
        em.edge(cur, AddParam(1, PARAM), entry)
        anchors = builder.emit(events, combo)
        em.edge(entry, AddConst(0), anchors[("Z0", 0, b.initial)])

    rules = _resolve_collapses(builder)
    states, rules = _prune(set(em.names), rules, init, builder.acc)
    poca = POCA(
        states=frozenset(states),
        params=frozenset({PARAM}),
        rules=tuple(rules),
        initial=init,
        finals=frozenset({builder.acc} if builder.acc in states else ()),
    )
    return BuildResult(
        poca=poca,
        annotations={s: m for s, m in em.annotations.items() if s in states},
        source=b,
        max_gadget_const=builder.max_const,
        gadgets={s: g for s, g in builder.gadget_specs.items() if s in states},
    )


def _prune(states, rules, init, acc):
    """Drop states that cannot lie on any initial-to-accepting state path.

    Purely graph-level (counter ignored), so it preserves acceptance per
    parameter value and only removes dead branches.
    """
    fwd_adj, bwd_adj = {}, {}
    for r in rules:
        fwd_adj.setdefault(r.src, []).append(r.dst)
        bwd_adj.setdefault(r.dst, []).append(r.src)

    live = reachable([init], lambda u: fwd_adj.get(u, ())) & reachable(
        [acc], lambda u: bwd_adj.get(u, ())
    )
    live.add(init)
    return live, [r for r in rules if r.src in live and r.dst in live]


def _resolve_collapses(builder):
    """Expand symbolic collapse markers into pinned walk-to-2N loops."""
    em = builder.em
    pin_ops = [
        AddParam(-1, PARAM),
        AddParam(-1, PARAM),
        CmpConst("=", 0),
        AddParam(1, PARAM),
        AddParam(1, PARAM),
    ]
    for rule in list(em.rules):
        if isinstance(rule.op, tuple) and rule.op and rule.op[0] == "collapse":
            step = rule.op[1]
            em.chain(em.loop(rule.src, step, 1), pin_ops, rule.dst)
    return [r for r in em.rules if not isinstance(r.op, tuple)]


def _emit_small_branch(builder, init, k):
    """Finite product for parameter value k, entered through '= p' on k."""
    b = builder.b
    em = builder.em
    cap = k + 1
    cx, cy = builder.clock_x, builder.clock_y
    entry = em.fresh({"role": "small", "n": k})
    em.chain(init, _plus(k) + [CmpParam("=", PARAM)], entry)

    names = {}

    def product_state(bstate, vx, vy):
        key = (bstate, vx, vy)
        if key not in names:
            names[key] = em.fresh(
                {"role": "small-product", "n": k, "bstate": bstate, "vx": vx, "vy": vy}
            )
        return names[key]

    # Clock values saturate at cap = k + 1.  Guards read the unsaturated
    # value, at most cap + 1, which agrees with the saturated one because
    # the only guard constants are 0 and the parameter value k.
    def successors(key):
        bstate, vx, vy = key
        src = names[key]
        if bstate in b.finals:
            em.edge(src, AddConst(0), builder.acc)
        for _, dst, vals in zero_one_successors(b, k, (bstate, ((cx, vx), (cy, vy)))):
            nxt = (dst, min(vals[cx], cap), min(vals[cy], cap))
            em.edge(src, AddConst(0), product_state(*nxt))
            yield nxt

    em.edge(entry, AddConst(0), product_state(b.initial, 0, 0))
    reachable([(b.initial, 0, 0)], successors)


# ---------------------------------------------------------------------------
# Witness decoding
# ---------------------------------------------------------------------------


_TRAVERSE_DELTA = {
    "LL_MAIN": lambda z, n: n - 2 - z,
    "LL_MIRROR": lambda z, n: n - 2 + z,
    "LR_LEFT": lambda z, n: z - 2,
    "LR_ZN": lambda z, n: z - 2,
    "LR_ZN1": lambda z, n: z - 3,
    "UL_TOP": lambda z, n: -z - 2,
    "UL_ZN": lambda z, n: -z - 2,
    "UL_ZN1": lambda z, n: -z - 3,
}

_LOCK_DELTA = {
    "lock_y_main": lambda case, z0, z1, n: z1 - z0 - 1,
    "lock_x_main": lambda case, z0, z1, n: -z1 - 1,
    "lock_y_mirror": lambda case, z0, z1, n: z1 - 1,
    "lock_x_mirror": lambda case, z0, z1, n: z0 - z1 - 1,
    "lock_x_lr": lambda case, z0, z1, n: (z0 - n - 1 - z1) if case == "LR_LEFT" else (-z1 - 1),
    "lock_y_ul": lambda case, z0, z1, n: (z1 - n - 1 - z0) if case == "UL_TOP" else (z1 - 1),
}


class DecodeError(RuntimeError):
    pass


def decode_witness(result: BuildResult, n: int, run) -> "object":
    """Reconstruct an accepting run of the source 0/1-PTA from a POCA witness.

    For small parameter values the finite branch carries no dwell data, so
    the run is re-derived with the brute-force oracle; for the main branch
    the region chain, gadget annotations, and counter values determine the
    dwell times, from which concrete region paths are rebuilt.
    """
    from .semantics import (
        PtaConfiguration,
        Run,
        validate_run,
        zero_one_reach_bruteforce,
    )

    b = result.source
    states = [c.state for c in run.configs]
    if any(result.annotation(s).get("role") in ("small", "small-product") for s in states):
        decoded = zero_one_reach_bruteforce(b, n, max(n, 1) + 1)
        if decoded is None:
            raise DecodeError("small branch accepted but the oracle disagrees")
        return decoded

    cx, cy = sorted(b.clocks)
    events = []
    for i, state in enumerate(states):
        meta = result.annotation(state)
        if meta.get("role") == "event":
            events.append((i, meta))

    configs = [PtaConfiguration.make(b.initial, {cx: 0, cy: 0})]
    labels = []

    def extend(rule_global_idx, bit):
        rule = (b.rules0 + b.rules1)[rule_global_idx]
        from .semantics import zero_one_step

        nxt = zero_one_step(b, n, configs[-1], rule, bit)
        if nxt is None:
            raise DecodeError(f"decoded step failed replay at rule {rule_global_idx}")
        configs.append(nxt)
        labels.append((rule_global_idx, bit))

    def dwell(region, u, v, steps):
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

    for pos, meta in events:
        ev = meta["event"]
        kappa, slot = meta["kappa"], meta["slot"]
        region = CHAINS[kappa][slot]
        case = CELL_CASE.get((kappa, region))
        u = meta["u"]
        z_before = run.configs[pos].counter - 2 * n

        if ev["type"] == "cross":
            if "gen" in ev:
                steps = _TRAVERSE_DELTA[case](z_before, n)
            else:
                steps = 0
            dwell(region, u, ev["v"], steps)
            extend(len(b.rules0) + ev["rule1"], 1)
            continue

        if ev["type"] == "accept":
            steps = ev["gen"][0] if "gen" in ev else 0
            dwell(region, u, ev["v"], steps)
            break

        style = ev["style"]
        if style in _LOCK_DELTA:
            # find the counter at the event's target anchor
            z_after = None
            for j in range(pos + 1, len(run.configs)):
                role = result.annotation(run.configs[j].state).get("role")
                if role == "anchor":
                    z_after = run.configs[j].counter - 2 * n
                    break
            if z_after is None:
                raise DecodeError("lock reset without a following anchor")
            steps = _LOCK_DELTA[style](case, z_before, z_after, n)
        elif style in ("point",):
            steps = 0
        else:  # ur / exist_then use the minimal progression element
            steps = ev["gen"][0] if "gen" in ev else 0
        dwell(region, u, ev["v"], steps)
        extend(ev["rule0"], 0)

    decoded = Run("zero-one-pta", tuple(configs), tuple(labels))
    ok, idx = validate_run(decoded, b, n)
    if not ok:
        raise DecodeError(f"decoded run failed validation at step {idx}")
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
