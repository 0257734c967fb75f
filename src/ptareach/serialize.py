"""JSON interchange for automata and witness runs.

Canonical form: object keys in the order written below, states/clocks/params
sorted, rules in the order of the automaton's ``rules`` tuple (time-0 rules
first for 0/1-PTAs), so the rule indices in witness labels survive a round
trip.  The parser rejects a 0/1-PTA that lists a time-0 rule after a time-1
rule, unknown comparison symbols and unknown operation kinds, a name set,
rule list or step list that is not a JSON list, a run step whose label is
missing (every step but the last) or present (the last), a bool or a float
where an integer is due, and a missing key, naming the key and the object
it is missing from.
"""

from __future__ import annotations

import json
from typing import Union

from .automata import (
    POCA,
    PTA,
    AddConst,
    AddParam,
    CmpConst,
    CmpParam,
    Guard,
    ModTest,
    PocaRule,
    PtaRule,
    ZeroOnePTA,
    normalize_cmp,
)
from .semantics import PocaConfiguration, PtaConfiguration, Run

Automaton = Union[PTA, ZeroOnePTA, POCA]


def _object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(obj).__name__}")
    return obj


def _field(obj, key: str, what: str):
    """obj[key] of the JSON object that `what` names."""
    if key not in _object(obj, what):
        raise ValueError(f"{what} has no {key!r} key")
    return obj[key]


def _list(value, what: str) -> list:
    """value, which must be a JSON list: a name set given as a string would
    otherwise read as its letters, and a number would not iterate."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, not {type(value).__name__}")
    return value


def guard_to_obj(g: Guard) -> dict:
    return {"clock": g.clock, "cmp": g.cmp, "rhs": g.rhs}


def guard_from_obj(obj: dict) -> Guard:
    rhs = _field(obj, "rhs", "guard")
    if not isinstance(rhs, (int, str)) or isinstance(rhs, bool):
        raise ValueError(f"guard rhs must be an integer or parameter name: {rhs!r}")
    return Guard(_field(obj, "clock", "guard"), normalize_cmp(_field(obj, "cmp", "guard")), rhs)


def op_to_obj(op) -> dict:
    if isinstance(op, AddConst):
        return {"kind": "add", "value": op.value}
    if isinstance(op, AddParam):
        return {"kind": "addp", "sign": op.sign, "param": op.param}
    if isinstance(op, ModTest):
        return {"kind": "mod", "value": op.value}
    if isinstance(op, CmpConst):
        return {"kind": "cmp", "cmp": op.cmp, "rhs": op.value}
    if isinstance(op, CmpParam):
        return {"kind": "cmp", "cmp": op.cmp, "rhs": op.param}
    raise ValueError(f"unknown counter operation: {op!r}")


def _int(value, what: str) -> int:
    """value, which must be a plain integer: a bool or a float is none."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer: {value!r}")
    return value


def _int_field(obj, key: str, what: str) -> int:
    """The integer obj[key] of the JSON object that `what` names."""
    return _int(_field(obj, key, what), f"{what} {key!r}")


def _op_int(obj: dict, key: str) -> int:
    return _int(_field(obj, key, "operation"), f"operation {key}")


def op_from_obj(obj: dict):
    kind = _field(obj, "kind", "operation")
    if kind == "add":
        return AddConst(_op_int(obj, "value"))
    if kind == "addp":
        return AddParam(_op_int(obj, "sign"), _field(obj, "param", "operation"))
    if kind == "mod":
        return ModTest(_op_int(obj, "value"))
    if kind == "cmp":
        cmp = normalize_cmp(_field(obj, "cmp", "operation"))
        if isinstance(_field(obj, "rhs", "operation"), str):
            return CmpParam(cmp, obj["rhs"])
        return CmpConst(cmp, _op_int(obj, "rhs"))
    raise ValueError(f"unknown operation kind: {kind!r}")


def _pta_rule_obj(rule: PtaRule, time=None) -> dict:
    obj = {
        "from": rule.src,
        "guard": guard_to_obj(rule.guard),
        "resets": sorted(rule.resets),
        "to": rule.dst,
    }
    if time is not None:
        obj["time"] = time
    return obj


def automaton_to_obj(a: Automaton) -> dict:
    if isinstance(a, POCA):
        return {
            "kind": "poca",
            "states": sorted(a.states),
            "params": sorted(a.params),
            "rules": [{"from": r.src, "op": op_to_obj(r.op), "to": r.dst} for r in a.rules],
            "initial": a.initial,
            "finals": sorted(a.finals),
        }
    if isinstance(a, PTA):
        kind, rules = "pta", [_pta_rule_obj(r) for r in a.rules]
    elif isinstance(a, ZeroOnePTA):
        kind = "zero-one-pta"
        rules = [_pta_rule_obj(r, int(i >= len(a.rules0))) for i, r in enumerate(a.rules)]
    else:
        raise TypeError(f"not an automaton: {a!r}")
    return {
        "kind": kind,
        "states": sorted(a.states),
        "clocks": sorted(a.clocks),
        "params": sorted(a.params),
        "rules": rules,
        "initial": a.initial,
        "finals": sorted(a.finals),
    }


def automaton_from_obj(obj: dict) -> Automaton:
    kind = _field(obj, "kind", "automaton")
    if kind not in ("poca", "pta", "zero-one-pta"):
        raise ValueError(f"unknown automaton kind: {kind!r}")

    def names(key):
        return frozenset(_list(_field(obj, key, "automaton"), f"automaton {key!r}"))

    # A PTA rule reads as a 0/1 rule with time 0; only a 0/1-PTA keeps rules1.
    rules0, rules1 = [], []
    for i, r in enumerate(_list(_field(obj, "rules", "automaton"), "automaton 'rules'")):
        what = f"rule {i}"
        src, dst = _field(r, "from", what), _field(r, "to", what)
        if kind == "poca":
            rules0.append(PocaRule(src, op_from_obj(_field(r, "op", what)), dst))
            continue
        guard = guard_from_obj(_field(r, "guard", what))
        resets = frozenset(_list(r.get("resets", []), f"{what} 'resets'"))
        rule = PtaRule(src, guard, resets, dst)
        time = _int_field(r, "time", what) if kind == "zero-one-pta" else 0
        if time not in (0, 1):
            raise ValueError(f"0/1-PTA rule needs time 0 or 1: {r!r}")
        if rules1 and not time:
            raise ValueError(f"{what} has time 0 after a time-1 rule; time-0 rules come first")
        (rules1 if time else rules0).append(rule)
    end = (_field(obj, "initial", "automaton"), names("finals"))
    if kind == "poca":
        return POCA(names("states"), names("params"), tuple(rules0), *end)
    declared = (names("states"), names("clocks"), names("params"))
    if kind == "pta":
        return PTA(*declared, tuple(rules0), *end)
    return ZeroOnePTA(*declared, tuple(rules0), tuple(rules1), *end)


def dumps(a: Automaton) -> str:
    return json.dumps(automaton_to_obj(a), indent=2)


def loads(text: str) -> Automaton:
    return automaton_from_obj(json.loads(text))


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run_to_obj(run: Run) -> dict:
    steps = []
    for i, conf in enumerate(run.configs):
        entry = {"state": conf.state}
        if run.kind == "poca":
            entry["counter"] = conf.counter
        else:
            entry["valuation"] = conf.as_dict()
        if i < len(run.labels):
            label = run.labels[i]
            if run.kind == "pta":
                entry["label"] = {"rule": label[0], "delay": label[1]}
            elif run.kind == "zero-one-pta":
                entry["label"] = {"rule": label[0], "time": label[1]}
            else:
                entry["label"] = {"rule": label}
        else:
            entry["label"] = None
        steps.append(entry)
    return {"kind": run.kind, "steps": steps}


def run_from_obj(obj: dict) -> Run:
    kind = _field(obj, "kind", "run")
    if kind not in ("poca", "pta", "zero-one-pta"):
        raise ValueError(f"unknown run kind: {kind!r}")
    # A PTA label is (rule, delay) and a 0/1-PTA label (rule, time).
    second = {"pta": "delay", "zero-one-pta": "time"}.get(kind)
    steps = _list(_field(obj, "steps", "run"), "run 'steps'")
    configs, labels = [], []
    for i, entry in enumerate(steps):
        what = f"run step {i}"
        state = _field(entry, "state", what)
        if kind == "poca":
            configs.append(PocaConfiguration(state, _int_field(entry, "counter", what)))
        else:
            clocks = _object(_field(entry, "valuation", what), f"{what} 'valuation'")
            valuation = {c: _int_field(clocks, c, f"{what} valuation") for c in clocks}
            configs.append(PtaConfiguration.make(state, valuation))
        # The label of step i is the step to configuration i + 1.
        label = entry.get("label")
        if label is None and i < len(steps) - 1:
            raise ValueError(f"{what} has no label; every step but the last needs one")
        if label is not None and i == len(steps) - 1:
            raise ValueError(f"{what} is the last step and must have no label")
        if label is not None:
            rule = _int_field(label, "rule", f"{what} label")
            if second is not None:
                rule = (rule, _int_field(label, second, f"{what} label"))
            labels.append(rule)
    return Run(kind, tuple(configs), tuple(labels))
