"""JSON interchange for automata and witness runs.

Canonical form: object keys in the order written below, states/clocks/params
sorted, rules in the automaton's own tuple order (rules0 before rules1 for
0/1-PTAs), so the rule indices in witness labels survive a round trip.  The
parser rejects unknown comparison symbols and unknown operation kinds.
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


def guard_to_obj(g: Guard) -> dict:
    return {"clock": g.clock, "cmp": g.cmp, "rhs": g.rhs}


def guard_from_obj(obj: dict) -> Guard:
    rhs = obj["rhs"]
    if not isinstance(rhs, (int, str)) or isinstance(rhs, bool):
        raise ValueError(f"guard rhs must be an integer or parameter name: {rhs!r}")
    return Guard(obj["clock"], normalize_cmp(obj["cmp"]), rhs)


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


def op_from_obj(obj: dict):
    kind = obj.get("kind")
    if kind == "add":
        return AddConst(obj["value"])
    if kind == "addp":
        return AddParam(obj["sign"], obj["param"])
    if kind == "mod":
        return ModTest(obj["value"])
    if kind == "cmp":
        rhs = obj["rhs"]
        cmp = normalize_cmp(obj["cmp"])
        if isinstance(rhs, str):
            return CmpParam(cmp, rhs)
        return CmpConst(cmp, rhs)
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
    if isinstance(a, PTA):
        return {
            "kind": "pta",
            "states": sorted(a.states),
            "clocks": sorted(a.clocks),
            "params": sorted(a.params),
            "rules": [_pta_rule_obj(r) for r in a.rules],
            "initial": a.initial,
            "finals": sorted(a.finals),
        }
    if isinstance(a, ZeroOnePTA):
        rules = [_pta_rule_obj(r, 0) for r in a.rules0]
        rules += [_pta_rule_obj(r, 1) for r in a.rules1]
        return {
            "kind": "zero-one-pta",
            "states": sorted(a.states),
            "clocks": sorted(a.clocks),
            "params": sorted(a.params),
            "rules": rules,
            "initial": a.initial,
            "finals": sorted(a.finals),
        }
    if isinstance(a, POCA):
        return {
            "kind": "poca",
            "states": sorted(a.states),
            "params": sorted(a.params),
            "rules": [{"from": r.src, "op": op_to_obj(r.op), "to": r.dst} for r in a.rules],
            "initial": a.initial,
            "finals": sorted(a.finals),
        }
    raise TypeError(f"not an automaton: {a!r}")


def automaton_from_obj(obj: dict) -> Automaton:
    kind = obj.get("kind")
    if kind == "pta":
        rules = tuple(
            PtaRule(r["from"], guard_from_obj(r["guard"]), frozenset(r.get("resets", ())), r["to"])
            for r in obj["rules"]
        )
        return PTA(
            frozenset(obj["states"]),
            frozenset(obj["clocks"]),
            frozenset(obj["params"]),
            rules,
            obj["initial"],
            frozenset(obj["finals"]),
        )
    if kind == "zero-one-pta":
        rules0, rules1 = [], []
        for r in obj["rules"]:
            rule = PtaRule(r["from"], guard_from_obj(r["guard"]), frozenset(r.get("resets", ())), r["to"])
            time = r.get("time")
            if time == 0:
                rules0.append(rule)
            elif time == 1:
                rules1.append(rule)
            else:
                raise ValueError(f"0/1-PTA rule needs time 0 or 1: {r!r}")
        return ZeroOnePTA(
            frozenset(obj["states"]),
            frozenset(obj["clocks"]),
            frozenset(obj["params"]),
            tuple(rules0),
            tuple(rules1),
            obj["initial"],
            frozenset(obj["finals"]),
        )
    if kind == "poca":
        rules = tuple(
            PocaRule(r["from"], op_from_obj(r["op"]), r["to"]) for r in obj["rules"]
        )
        return POCA(
            frozenset(obj["states"]),
            frozenset(obj["params"]),
            rules,
            obj["initial"],
            frozenset(obj["finals"]),
        )
    raise ValueError(f"unknown automaton kind: {kind!r}")


def dumps(a: Automaton, indent=2) -> str:
    return json.dumps(automaton_to_obj(a), indent=indent)


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
    kind = obj["kind"]
    configs, labels = [], []
    for entry in obj["steps"]:
        if kind == "poca":
            configs.append(PocaConfiguration(entry["state"], entry["counter"]))
        else:
            configs.append(PtaConfiguration.make(entry["state"], entry["valuation"]))
        label = entry.get("label")
        if label is not None:
            if kind == "pta":
                labels.append((label["rule"], label["delay"]))
            elif kind == "zero-one-pta":
                labels.append((label["rule"], label["time"]))
            else:
                labels.append(label["rule"])
    return Run(kind, tuple(configs), tuple(labels))
