"""Compile a (2,1)-PTA into a 0/1-PTA with only parametric clocks.

The product stores every original clock value up to c_max + 1 in the control
state; +1 rules advance stored values with saturation, +0 rules instantiate
the original rules with non-parametric guards evaluated against the stored
values.  The output satisfies Consts = {0} and has clock set exactly the two
parametric clocks of the input.
"""

from __future__ import annotations

from .automata import PTA, Guard, PtaRule, ZeroOnePTA
from .semantics import reachable


def _product_name(state: str, stored: tuple) -> str:
    body = ",".join(f"{c}={v}" for c, v in stored)
    return f"{state}|{body}"


def product_origin(name: str) -> tuple:
    """Recover (original state, stored valuation) from a product state name."""
    state, _, body = name.partition("|")
    stored = {}
    if body:
        for part in body.split(","):
            clock, _, value = part.partition("=")
            stored[clock] = int(value)
    return state, stored


def to_zero_one_pta(pta: PTA) -> ZeroOnePTA:
    """Product construction; only reachable product states are materialized."""
    m, n_params = pta.classification()
    if (m, n_params) != (2, 1):
        raise ValueError(f"expected a (2,1)-PTA, got a ({m},{n_params})-PTA")
    if any("|" in s for s in pta.states):
        raise ValueError("state names may not contain '|' (reserved separator)")

    param_clocks = sorted(pta.parametric_clocks())
    anchor = param_clocks[0]  # clock used by the always-true guard
    empty_guard = Guard(anchor, ">=", 0)
    c_max = max(pta.consts(), default=0)
    cap = c_max + 1
    all_clocks = sorted(pta.clocks)

    rules0, rules1 = [], []

    def successors(key):
        state, stored = key
        name = _product_name(*key)
        # Time elapse: advance every stored value, saturating at c_max + 1.
        advanced = (state, tuple((c, min(v + 1, cap)) for c, v in stored))
        rules1.append(PtaRule(name, empty_guard, frozenset(), _product_name(*advanced)))
        yield advanced

        base = dict(stored)
        for rule in pta.rules:
            if rule.src != state:
                continue
            after_reset = dict(base)
            for c in rule.resets:
                after_reset[c] = 0
            nxt_key = (rule.dst, tuple(sorted(after_reset.items())))
            kept_resets = frozenset(rule.resets & set(param_clocks))
            if rule.guard.parametric:
                guard = rule.guard
            elif rule.guard.holds(base[rule.guard.clock], 0):
                # Saturated comparison is exact: stored cap means "> c_max".
                guard = empty_guard
            else:
                continue
            rules0.append(PtaRule(name, guard, kept_resets, _product_name(*nxt_key)))
            yield nxt_key

    init_key = (pta.initial, tuple((c, 0) for c in all_clocks))
    names = {key: _product_name(*key) for key in reachable([init_key], successors)}
    bound = len(pta.states) * (c_max + 2) ** len(pta.clocks)
    if len(names) > bound:
        raise RuntimeError("product exceeded its worst-case state bound")

    return ZeroOnePTA(
        states=frozenset(names.values()),
        clocks=frozenset(param_clocks),
        params=pta.params,
        rules0=tuple(rules0),
        rules1=tuple(rules1),
        initial=names[init_key],
        finals=frozenset(name for (state, _), name in names.items() if state in pta.finals),
    )
