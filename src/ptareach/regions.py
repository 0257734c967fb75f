"""The sixteen-region classification of clock pairs and its automata.

For a parameter value N >= 1, clock pairs (x, y) are classified by the
coordinate classes {0, (0,N), N, (N,inf)} in each axis; guards over the
constant 0 and the parameter cannot distinguish members of one class.  The
region automaton restricts a 0/1-PTA to a region, and its one-counter
projection drives the semilinear reachability sets.
"""

from __future__ import annotations

import enum
from typing import Optional

from .automata import POCA, AddConst, Guard, PocaRule, PtaRule, ZeroOnePTA, cmp_holds

# Coordinate classes (per axis)
ZERO, MID, AT_N, HIGH = range(4)


class Region(enum.Enum):
    """One of the sixteen equivalence classes, keyed by (x-class, y-class)."""

    CORNER_00 = (ZERO, ZERO)
    CORNER_0N = (ZERO, AT_N)
    CORNER_N0 = (AT_N, ZERO)
    CORNER_NN = (AT_N, AT_N)
    SEG_LEFT_LOW = (ZERO, MID)      # x = 0, 0 < y < N
    SEG_RIGHT_LOW = (AT_N, MID)     # x = N, 0 < y < N
    RAY_LEFT_HIGH = (ZERO, HIGH)    # x = 0, y > N
    RAY_RIGHT_HIGH = (AT_N, HIGH)   # x = N, y > N
    SEG_BOTTOM_LEFT = (MID, ZERO)   # 0 < x < N, y = 0
    SEG_TOP_LEFT = (MID, AT_N)      # 0 < x < N, y = N
    RAY_BOTTOM_HIGH = (HIGH, ZERO)  # x > N, y = 0
    RAY_TOP_HIGH = (HIGH, AT_N)     # x > N, y = N
    LOWER_LEFT = (MID, MID)
    UPPER_LEFT = (MID, HIGH)
    LOWER_RIGHT = (HIGH, MID)
    UPPER_RIGHT = (HIGH, HIGH)

    # Members are singletons, so an identity hash is exact, and it runs in C.
    __hash__ = object.__hash__

    @property
    def x_class(self) -> int:
        return self.value[0]

    @property
    def y_class(self) -> int:
        return self.value[1]

    def empty_for(self, n: int) -> bool:
        """Whether the region is the empty set at parameter value n."""
        return n == 1 and MID in self.value

    def contains(self, v: tuple, n: int) -> bool:
        return (
            _coord_class(v[0], n) == self.x_class
            and _coord_class(v[1], n) == self.y_class
        )


def _coord_class(value: int, n: int) -> int:
    if value == 0:
        return ZERO
    if value < n:
        return MID
    if value == n:
        return AT_N
    return HIGH


def region_of(v: tuple, n: int) -> Region:
    """The unique region containing the clock pair v = (x, y); needs n >= 1."""
    if n < 1:
        raise ValueError("region classification requires a parameter value >= 1")
    if v[0] < 0 or v[1] < 0:
        raise ValueError("clock values must be non-negative")
    return Region((_coord_class(v[0], n), _coord_class(v[1], n)))


def _class_satisfies(klass: int, cmp: str, against_param: bool) -> bool:
    """Truth of ``coordinate cmp rhs`` for rhs = 0 or rhs = N, any N >= 1.

    The class codes ZERO..HIGH = 0..3 are members of their own classes at
    N = 2, so comparing the code with 0 or with AT_N = 2 decides the class.
    Empty classes (MID at N = 1) are treated vacuously by their defining
    inequalities 0 < value < N.
    """
    return cmp_holds(klass, cmp, AT_N if against_param else ZERO)


def region_satisfies(region: Region, guard: Guard, clock_order: tuple = ("x", "y")) -> bool:
    """Whether every member of the region satisfies the guard, any N >= 1.

    Only guards over the constant 0 or over the parameter are supported;
    clock_order names the (x, y) axes.
    """
    if not guard.parametric and guard.rhs != 0:
        raise ValueError(f"region layer supports constants {{0}} only: {guard}")
    if guard.clock == clock_order[0]:
        klass = region.x_class
    elif guard.clock == clock_order[1]:
        klass = region.y_class
    else:
        raise ValueError(f"guard clock {guard.clock!r} not in {clock_order}")
    return _class_satisfies(klass, guard.cmp, guard.parametric)


def region_automaton(b: ZeroOnePTA, region: Region) -> ZeroOnePTA:
    """Drop resetting rules and region-unsatisfied guards; blank the rest.

    The input must have constants inside {0}; remaining guards are replaced
    by the always-true guard on the first parametric clock.
    """
    bad = [c for c in b.consts() if c != 0]
    if bad:
        raise ValueError(f"region automaton requires Consts <= {{0}}, found {bad}")
    clock_order = tuple(sorted(b.clocks))
    if len(clock_order) != 2:
        raise ValueError("region automaton expects exactly two clocks")
    empty_guard = Guard(clock_order[0], ">=", 0)

    def keep(rule: PtaRule) -> Optional[PtaRule]:
        if rule.resets:
            return None
        if not region_satisfies(region, rule.guard, clock_order):
            return None
        return PtaRule(rule.src, empty_guard, frozenset(), rule.dst)

    rules0 = tuple(r for r in map(keep, b.rules0) if r is not None)
    rules1 = tuple(r for r in map(keep, b.rules1) if r is not None)
    return ZeroOnePTA(
        states=b.states,
        clocks=b.clocks,
        params=b.params,
        rules0=rules0,
        rules1=rules1,
        initial=b.initial,
        finals=b.finals,
    )


def region_oca(b_r: ZeroOnePTA) -> POCA:
    """Project a region automaton to a one-counter automaton.

    Every +i rule becomes a counter update +i; the result has no parameters
    and no tests, so runs from q(0) to q'(n) match region runs advancing both
    clocks by n.
    """
    if any(rule.resets for rule in b_r.rules):
        raise ValueError("region OCA projection requires a reset-free input")
    split = len(b_r.rules0)
    rules = tuple(
        PocaRule(r.src, AddConst(int(i >= split)), r.dst) for i, r in enumerate(b_r.rules)
    )
    return POCA(
        states=b_r.states,
        params=frozenset(),
        rules=rules,
        initial=b_r.initial,
        finals=b_r.finals,
    )
