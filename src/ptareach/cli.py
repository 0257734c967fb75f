"""Command-line entry point tying the reduction passes together.

Every subcommand supports --json for machine-readable output; exit codes
are 0 for success/reachable, 1 for unreachable-up-to-bound, 2 for errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import serialize
from .automata import DerivedConstants, derive_constants
from .fixtures import fixture_corpus, poca_mod6_fixture
from .poca_build import build_poca, normalize_accepting_zero
from .regions import Region, region_automaton, region_of
from .automata import PTA
from .semantics import (
    Run,
    poca_reach_bounded,
    pta_reach_bruteforce,
    validate_run,
    zero_one_reach_bruteforce,
)
from .semilinear import reach_lengths
from .semiruns import depump, from_run
from .solver import cross_check, decide
from .zero_one import to_zero_one_pta


def _load_automaton(path: str):
    return serialize.loads(Path(path).read_text())


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _cmd_parse(args) -> int:
    automaton = _load_automaton(args.input)
    text = serialize.dumps(automaton)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _cmd_reduce(args) -> int:
    pta = _load_automaton(args.pta)
    if args.stage == "zero-one":
        out = to_zero_one_pta(pta)
        payload = serialize.dumps(out)
    elif args.stage == "region":
        b = to_zero_one_pta(pta) if isinstance(pta, PTA) else pta
        region = Region[args.region]
        payload = serialize.dumps(region_automaton(b, region))
    elif args.stage == "poca":
        b = to_zero_one_pta(pta)
        result = build_poca(b, budget=args.budget)
        poca = result.poca
        if args.normalize_zero:
            poca = normalize_accepting_zero(poca)
        payload = serialize.dumps(poca)
        if args.annotations:
            Path(args.annotations).write_text(
                json.dumps(result.annotations, indent=2, default=str) + "\n"
            )
    else:
        raise ValueError(f"unknown stage {args.stage!r}")
    if args.out:
        Path(args.out).write_text(payload + "\n")
    else:
        print(payload)
    return 0


def _cmd_regions(args) -> int:
    x, y = (int(part) for part in args.classify.split(","))
    region = region_of((x, y), args.param)
    _emit({"point": [x, y], "param": args.param, "region": region.name}, args.json)
    return 0


def _cmd_semilinear(args) -> int:
    oca = _load_automaton(args.oca)
    result = reach_lengths(oca, getattr(args, "from"), args.to)
    _emit(
        {"from": getattr(args, "from"), "to": args.to, "pairs": list(result.pairs)},
        args.json,
    )
    return 0


def _cmd_solve(args) -> int:
    pta = _load_automaton(args.pta)
    # "both" reports the via-poca verdict after checking it per N against
    # the direct oracle.
    mode = "via-poca" if args.mode == "both" else args.mode
    verdict = decide(pta, args.max_n, mode, budget=args.budget)
    if args.mode == "both":
        report = cross_check(pta, args.max_n, budget=args.budget)
        if not report.agree:
            _emit({"error": report.summary()}, args.json)
            return 2
    payload = {
        "reachable": verdict.reachable,
        "param_value": verdict.param_value,
        "mode": args.mode,
        "max_n": args.max_n,
        "completeness": verdict.completeness,
        "threshold": str(verdict.threshold),
    }
    _emit(payload, args.json)
    if args.emit_witness and verdict.witness is not None:
        run = verdict.decoded_pta_run or verdict.witness
        Path(args.emit_witness).write_text(
            json.dumps(serialize.run_to_obj(run), indent=2) + "\n"
        )
    return 0 if verdict.reachable else 1


def _cmd_simulate(args) -> int:
    automaton = _load_automaton(args.automaton)
    kind = automaton.__class__.__name__
    if kind == "PTA":
        cap = args.cap or max(args.param, max(automaton.consts(), default=0)) + 1
        run = pta_reach_bruteforce(automaton, args.param, cap)
    elif kind == "ZeroOnePTA":
        cap = args.cap or max(args.param, max(automaton.consts(), default=0)) + 1
        run = zero_one_reach_bruteforce(automaton, args.param, cap)
    else:
        hi = args.cap or 4 * max(args.param, automaton.size())
        run = poca_reach_bounded(automaton, args.param, -hi, hi)
    if run is None:
        _emit({"reachable": False, "param": args.param}, args.json)
        return 1
    payload = serialize.run_to_obj(run)
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        _emit({"reachable": True, "witness": args.out, "length": len(run)}, args.json)
    else:
        print(json.dumps(payload, indent=2))
    return 0


def _cmd_validate(args) -> int:
    automaton = _load_automaton(args.automaton)
    run = serialize.run_from_obj(json.loads(Path(args.run).read_text()))
    ok, index = validate_run(run, automaton, args.param)
    _emit({"valid": ok, "first_failure": index}, args.json)
    return 0 if ok else 1


def _cmd_depump(args) -> int:
    poca = _load_automaton(args.automaton)
    run = serialize.run_from_obj(json.loads(Path(args.run).read_text()))
    overrides = json.loads(Path(args.consts).read_text())
    consts = DerivedConstants.scaled(
        k=overrides["k"], z=overrides["z"], upsilon=overrides["upsilon"]
    )
    semirun = from_run(poca, args.param, run)
    out, removed = depump(semirun, overrides["k"], consts)
    payload = {
        "delta_before": semirun.delta(),
        "delta_after": out.delta(),
        "removed_intervals": removed,
        "length": len(out),
    }
    _emit(payload, args.json)
    if args.out:
        out_run = serialize.run_to_obj(Run("poca", out.configs, out.rules))
        Path(args.out).write_text(json.dumps(out_run, indent=2) + "\n")
    return 0


def _cmd_fixtures(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    index = {}
    for fx in fixture_corpus():
        path = out_dir / f"{fx.name}.json"
        path.write_text(serialize.dumps(fx.pta) + "\n")
        index[fx.name] = {
            "file": path.name,
            "description": fx.description,
            "accepting_values_up_to_12": [n for n in range(13) if fx.accepts(n)],
            "in_corpus": fx.in_corpus,
        }
    mod6 = out_dir / "poca_mod6.json"
    mod6.write_text(serialize.dumps(poca_mod6_fixture()) + "\n")
    index["poca_mod6"] = {
        "file": mod6.name,
        "description": "counter fixture accepting parameter values = 5 mod 6",
        "accepting_values_up_to_12": [5, 11],
        "in_corpus": False,
    }
    (out_dir / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")
    _emit({"written": len(index), "directory": str(out_dir)}, args.json)
    return 0


def _cmd_constants(args) -> int:
    poca = _load_automaton(args.poca)
    dc = derive_constants(poca)
    _emit(
        {"Z": str(dc.z), "Gamma": str(dc.gamma), "Upsilon": str(dc.upsilon), "M": str(dc.m)},
        args.json,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptareach",
        description="two-clock one-parameter timed automata reachability toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and re-emit an automaton in canonical form")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("reduce", help="run one reduction stage")
    p.add_argument("--stage", required=True, choices=["zero-one", "region", "poca"])
    p.add_argument("--pta", required=True)
    p.add_argument("--region", help="region name for --stage region")
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--normalize-zero", action="store_true")
    p.add_argument("--annotations", help="sidecar file for state annotations")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("regions", help="classify a clock pair")
    p.add_argument("--classify", required=True, metavar="X,Y")
    p.add_argument("--param", type=int, required=True)
    p.set_defaults(func=_cmd_regions)

    p = sub.add_parser("semilinear", help="reachable counter values of a +0/+1 automaton")
    p.add_argument("--oca", required=True)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.set_defaults(func=_cmd_semilinear)

    p = sub.add_parser("solve", help="decide reachability over a parameter range")
    p.add_argument("--pta", required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--mode", choices=["direct", "via-poca", "both"], default="both")
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--emit-witness")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("simulate", help="brute-force search at one parameter value")
    p.add_argument("--automaton", required=True)
    p.add_argument("--param", type=int, required=True)
    p.add_argument("--cap", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate", help="replay a witness run")
    p.add_argument("--run", required=True)
    p.add_argument("--automaton", required=True)
    p.add_argument("--param", type=int, required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("depump", help="reduce a semirun's counter effect by Gamma")
    p.add_argument("--run", required=True)
    p.add_argument("--automaton", required=True)
    p.add_argument("--param", type=int, required=True)
    p.add_argument("--consts", required=True, help="JSON file with k, z, upsilon")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_depump)

    p = sub.add_parser("fixtures", help="regenerate the golden fixture corpus")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_fixtures)

    p = sub.add_parser("constants", help="derived constants of a counter automaton")
    p.add_argument("--poca", required=True)
    p.set_defaults(func=_cmd_constants)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # structured error, exit code 2
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if getattr(args, "json", False):
            print(json.dumps(payload), file=sys.stderr)
        else:
            print(f"error: {payload['message']}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
