"""Automaton syntax: guards, PTAs, 0/1-PTAs, counter operations, POCAs.

Also houses the size/constant computations and the derived constants
(Z, Gamma, Upsilon, M) used by the run-surgery layer and the solver.
All constant arithmetic is exact big-integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Union

COMPARISONS = ("<", "<=", "=", ">=", ">")

_CMP_ALIASES = {"≤": "<=", "≥": ">=", "==": "="}


def normalize_cmp(sym: str) -> str:
    """Map a comparison symbol to its canonical form, rejecting unknowns."""
    sym = _CMP_ALIASES.get(sym, sym)
    if sym not in COMPARISONS:
        raise ValueError(f"unknown comparison symbol: {sym!r}")
    return sym


def cmp_holds(lhs: int, sym: str, rhs: int) -> bool:
    if sym == "<":
        return lhs < rhs
    if sym == "<=":
        return lhs <= rhs
    if sym == "=":
        return lhs == rhs
    if sym == ">=":
        return lhs >= rhs
    if sym == ">":
        return lhs > rhs
    raise ValueError(f"unknown comparison symbol: {sym!r}")


def bitlen(n: int) -> int:
    """Smallest number of bits to write n in binary: min{i+1 | n <= 2^i}.

    bitlen(0) = bitlen(1) = 1, bitlen(4) = 3.
    """
    if n < 0:
        raise ValueError("bitlen is defined on non-negative integers")
    if n <= 1:
        return 1
    return (n - 1).bit_length() + 1


def lcm_set(values: Iterable[int]) -> int:
    """LCM of a finite set of positive integers; empty set yields 1."""
    vals = list(values)
    if any(v < 1 for v in vals):
        raise ValueError("lcm_set requires every element >= 1")
    return math.lcm(*vals) if vals else 1


def lcm_range(j: int) -> int:
    """LCM of {1, ..., j}: the product of the largest power <= j of each prime.

    Folding ``math.lcm`` over 1..j is quadratic in the bit length of the
    result (about 1.44*j bits); a sieve plus a balanced product tree keeps
    every multiplication between operands of similar size.
    """
    if j < 1:
        raise ValueError("lcm_range requires j >= 1")
    sieve = bytearray([1]) * (j + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(j) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, j + 1, p)))
    factors = []
    for p in range(2, j + 1):
        if sieve[p]:
            power = p
            while power * p <= j:
                power *= p
            factors.append(power)
    while len(factors) > 1:
        paired = [a * b for a, b in zip(factors[::2], factors[1::2])]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0] if factors else 1


# ---------------------------------------------------------------------------
# Timed automata
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Guard:
    """A single comparison ``clock cmp rhs`` with rhs a constant or parameter."""

    clock: str
    cmp: str
    rhs: Union[int, str]

    def __post_init__(self):
        object.__setattr__(self, "cmp", normalize_cmp(self.cmp))
        if isinstance(self.rhs, bool) or (isinstance(self.rhs, int) and self.rhs < 0):
            raise ValueError("guard constant must be a non-negative integer")

    @property
    def parametric(self) -> bool:
        return isinstance(self.rhs, str)

    def size(self) -> int:
        return 1 if self.parametric else bitlen(self.rhs)

    def holds(self, value: int, n: int) -> bool:
        """Evaluate against a clock value, with parameter value n."""
        rhs = n if self.parametric else self.rhs
        return cmp_holds(value, self.cmp, rhs)

    def __str__(self):
        return f"{self.clock} {self.cmp} {self.rhs}"


@dataclass(frozen=True, order=True)
class PtaRule:
    src: str
    guard: Guard
    resets: frozenset = field(default_factory=frozenset)
    dst: str = ""

    def __post_init__(self):
        object.__setattr__(self, "resets", frozenset(self.resets))


class _RuleIndex:
    """The by-source rule index that PTAs, 0/1-PTAs and POCAs share."""

    @cached_property
    def leaving(self) -> dict:
        """State -> indices into ``rules`` of the rules leaving it, in rule order,
        built on first use.  The initial state comes first, even if no rule
        leaves it, then the sources in the order the rule tuple first leaves
        them; a state that no rule leaves is absent."""
        out = {self.initial: []}
        for idx, rule in enumerate(self.rules):
            out.setdefault(rule.src, []).append(idx)
        return {state: tuple(idxs) for state, idxs in out.items()}

    @cached_property
    def live(self) -> frozenset:
        """The states from which some rule path reaches a final state, built
        on first use: the finals and every state a rule path leads from into
        them, by the search kernel run over the reversed rules."""
        from .semantics import reachable

        entering = {}
        for rule in self.rules:
            entering.setdefault(rule.dst, []).append(rule.src)
        return frozenset(reachable(self.finals, lambda state: entering.get(state, ())))


class _ClockAutomaton(_RuleIndex):
    """What PTAs and 0/1-PTAs share: the declaration check, consts and size.

    ``_RULE_FIELDS`` names the rule fields; the size counts the declarations
    ``_DECLARED_WEIGHT`` times.
    """

    def __post_init__(self):
        for name in ("states", "clocks", "params", "finals"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))
        for name in self._RULE_FIELDS:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.states or not self.clocks:
            raise ValueError(f"{type(self).__name__} needs a non-empty state set and clock set")
        if self.initial not in self.states:
            raise ValueError("initial state not declared")
        if not self.finals <= self.states:
            raise ValueError("final states must be declared states")
        for name in self._RULE_FIELDS:
            for rule in getattr(self, name):
                if rule.src not in self.states or rule.dst not in self.states:
                    raise ValueError(f"rule endpoint not a declared state: {rule}")
                if rule.guard.clock not in self.clocks:
                    raise ValueError(f"guard clock not declared: {rule.guard}")
                if rule.guard.parametric and rule.guard.rhs not in self.params:
                    raise ValueError(f"guard parameter not declared: {rule.guard}")
                if not rule.resets <= self.clocks:
                    raise ValueError(f"reset set mentions undeclared clock: {rule}")

    @cached_property
    def _consts(self) -> frozenset:
        return frozenset(r.guard.rhs for r in self.rules if not r.guard.parametric)

    def consts(self) -> frozenset:
        """The guard constants, computed once per automaton."""
        return self._consts

    def size(self) -> int:
        declared = self._DECLARED_WEIGHT * (len(self.states) + len(self.clocks) + len(self.params))
        return declared + len(self.rules) + sum(r.guard.size() for r in self.rules)


@dataclass(frozen=True)
class PTA(_ClockAutomaton):
    """Parametric timed automaton (Q, clocks, params, rules, initial, finals)."""

    states: frozenset
    clocks: frozenset
    params: frozenset
    rules: tuple
    initial: str
    finals: frozenset

    _RULE_FIELDS = ("rules",)
    _DECLARED_WEIGHT = 1

    def parametric_clocks(self) -> frozenset:
        """Clocks compared against a parameter in at least one rule."""
        return frozenset(
            r.guard.clock for r in self.rules if r.guard.parametric
        )

    def classification(self) -> tuple:
        """(m, n): number of parametric clocks and number of parameters."""
        return (len(self.parametric_clocks()), len(self.params))


@dataclass(frozen=True)
class ZeroOnePTA(_ClockAutomaton):
    """0/1 timed automaton: each rule fixes whether one time unit elapses."""

    states: frozenset
    clocks: frozenset
    params: frozenset
    rules0: tuple
    rules1: tuple
    initial: str
    finals: frozenset

    _RULE_FIELDS = ("rules0", "rules1")
    _DECLARED_WEIGHT = 2

    @cached_property
    def rules(self) -> tuple:
        """The time-0 rules, then the time-1 rules: the tuple run labels index."""
        return self.rules0 + self.rules1


# ---------------------------------------------------------------------------
# Counter operations and POCAs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class AddConst:
    """Counter update by a constant in {-1, 0, +1}."""

    value: int

    def __post_init__(self):
        if self.value not in (-1, 0, 1):
            raise ValueError("constant update must lie in {-1, 0, +1}")

    def size(self) -> int:
        return 1

    def __str__(self):
        return f"{self.value:+d}" if self.value else "+0"


@dataclass(frozen=True, order=True)
class AddParam:
    """Counter update by +p or -p."""

    sign: int
    param: str

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("parameter update sign must be +1 or -1")

    def size(self) -> int:
        return 1

    def __str__(self):
        return ("+" if self.sign > 0 else "-") + self.param


@dataclass(frozen=True, order=True)
class ModTest:
    """Divisibility test: counter = 0 mod value."""

    value: int

    def __post_init__(self):
        if self.value < 1:
            raise ValueError("modulo constant must be >= 1")

    def size(self) -> int:
        return bitlen(self.value)

    def __str__(self):
        return f"mod {self.value}"


@dataclass(frozen=True, order=True)
class CmpConst:
    """Comparison test against a non-negative constant."""

    cmp: str
    value: int

    def __post_init__(self):
        object.__setattr__(self, "cmp", normalize_cmp(self.cmp))
        if self.value < 0:
            raise ValueError("comparison constant must be >= 0")

    def size(self) -> int:
        return bitlen(self.value)

    def __str__(self):
        return f"{self.cmp} {self.value}"


@dataclass(frozen=True, order=True)
class CmpParam:
    """Comparison test against a parameter."""

    cmp: str
    param: str

    def __post_init__(self):
        object.__setattr__(self, "cmp", normalize_cmp(self.cmp))

    def size(self) -> int:
        return 1

    def __str__(self):
        return f"{self.cmp} {self.param}"


CounterOp = Union[AddConst, AddParam, ModTest, CmpConst, CmpParam]


@dataclass(frozen=True, order=True)
class PocaRule:
    src: str
    op: CounterOp
    dst: str


@dataclass(frozen=True)
class POCA(_RuleIndex):
    """Parametric one-counter automaton (Q, params, rules, initial, finals)."""

    states: frozenset
    params: frozenset
    rules: tuple
    initial: str
    finals: frozenset

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "params", frozenset(self.params))
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "finals", frozenset(self.finals))
        if not self.states:
            raise ValueError("POCA needs a non-empty state set")
        if self.initial not in self.states:
            raise ValueError("initial state not declared")
        if not self.finals <= self.states:
            raise ValueError("final states must be declared states")
        for rule in self.rules:
            if rule.src not in self.states or rule.dst not in self.states:
                raise ValueError(f"rule endpoint not a declared state: {rule}")
            if isinstance(rule.op, AddParam) and rule.op.param not in self.params:
                raise ValueError(f"rule parameter not declared: {rule}")
            if isinstance(rule.op, CmpParam) and rule.op.param not in self.params:
                raise ValueError(f"rule parameter not declared: {rule}")

    def consts(self) -> frozenset:
        """Constants appearing in modulo and constant-comparison operations."""
        out = set()
        for rule in self.rules:
            if isinstance(rule.op, ModTest):
                out.add(rule.op.value)
            elif isinstance(rule.op, CmpConst):
                out.add(rule.op.value)
        return frozenset(out)

    def size(self) -> int:
        return (
            len(self.states)
            + len(self.params)
            + len(self.rules)
            + sum(r.op.size() for r in self.rules)
        )

    @cached_property
    def numbering(self) -> dict:
        """State -> number for the counter searches, built on first use: the
        states in ``leaving``'s order, so the initial state is 0, then those no
        rule leaves, sorted, so the numbering never depends on set order."""
        return dict(zip(self._numbered, range(len(self.states))))

    @cached_property
    def _numbered(self) -> tuple:
        """The states by number, as ``numbering`` numbers them."""
        leaving = self.leaving
        return (*leaving, *sorted(self.states.difference(leaving)))


# ---------------------------------------------------------------------------
# Derived constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivedConstants:
    """The quadruple (Z, Gamma, Upsilon, M) attached to a POCA."""

    z: int
    gamma: int
    upsilon: int
    m: int

    def __post_init__(self):
        if min(self.z, self.gamma, self.upsilon, self.m) < 1:
            raise ValueError("derived constants must be positive")
        if self.gamma % self.z != 0:
            raise ValueError("Gamma must be a multiple of Z")

    @classmethod
    def from_poca(cls, poca: POCA) -> "DerivedConstants":
        """Evaluate the defining formulas exactly for a POCA."""
        consts = [c for c in poca.consts() if c >= 1]
        z = lcm_set(consts)
        k = 17 * len(poca.states)
        big_lcm = lcm_range(k)
        gamma = big_lcm * z
        upsilon = k * big_lcm * (k * z + 2)
        m = 30 * (upsilon + gamma + 1)
        return cls(z=z, gamma=gamma, upsilon=upsilon, m=m)

    @classmethod
    def scaled(cls, k: int, z: int, upsilon: int) -> "DerivedConstants":
        """Test-scale constants: K replaces 17*|Q|, Gamma = LCM(K) * Z."""
        if k < 1 or z < 1 or upsilon < 1:
            raise ValueError("scaled constants must be positive")
        gamma = lcm_range(k) * z
        m = 30 * (upsilon + gamma + 1)
        return cls(z=z, gamma=gamma, upsilon=upsilon, m=m)


def derive_constants(poca: POCA) -> DerivedConstants:
    return DerivedConstants.from_poca(poca)
