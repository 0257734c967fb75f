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
from .automata import POCA, PTA, DerivedConstants, ZeroOnePTA, derive_constants
from .fixtures import fixture_corpus, poca_mod6_fixture
from .poca_build import build_poca, normalize_accepting_zero
from .regions import Region, region_automaton, region_of
from .semantics import (
    Run,
    initial_configuration,
    poca_reach_bounded,
    pta_reach_bruteforce,
    validate_run,
    zero_one_reach_bruteforce,
)
from .semilinear import reach_lengths
from .semiruns import depump, from_run
from .solver import cross_check, decide
from .zero_one import to_zero_one_pta


def _load_automaton(path: str, *kinds):
    """Parse an automaton file; if kinds are given, it must be one of them."""
    automaton = serialize.loads(Path(path).read_text())
    if kinds and not isinstance(automaton, kinds):
        expected = " or ".join(kind.__name__ for kind in kinds)
        raise ValueError(f"{path}: expected a {expected}, found a {type(automaton).__name__}")
    return automaton


def _dec(n: int) -> str:
    """Decimal digits of n, also beyond the interpreter's int-to-str limit.

    The exact threshold and derived constants run to hundreds of thousands
    of digits; the limit is lifted for this conversion only.
    """
    if not hasattr(sys, "get_int_max_str_digits"):
        return str(n)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


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
    kinds = (PTA, ZeroOnePTA) if args.stage == "region" else (PTA,)
    pta = _load_automaton(args.pta, *kinds)
    if args.stage == "zero-one":
        out = to_zero_one_pta(pta)
        payload = serialize.dumps(out)
    elif args.stage == "region":
        if args.region is None:
            raise ValueError("--stage region requires --region")
        b = to_zero_one_pta(pta) if isinstance(pta, PTA) else pta
        payload = serialize.dumps(region_automaton(b, Region[args.region]))
    elif args.stage == "poca":
        b = to_zero_one_pta(pta)
        result = build_poca(b, budget=args.budget)
        poca = result.poca
        if args.normalize_zero:
            poca = normalize_accepting_zero(poca)
        payload = serialize.dumps(poca)
        if args.annotations:
            sidecar = {"states": result.annotations, "rules": result.events}
            Path(args.annotations).write_text(json.dumps(sidecar, indent=2, default=str) + "\n")
    else:
        raise ValueError(f"unknown stage {args.stage!r}")
    if args.out:
        Path(args.out).write_text(payload + "\n")
    else:
        print(payload)
    return 0


def _cmd_regions(args) -> int:
    x, y = args.classify
    region = region_of((x, y), args.param)
    _emit({"point": [x, y], "param": args.param, "region": region.name}, args.json)
    return 0


def _cmd_semilinear(args) -> int:
    oca = _load_automaton(args.oca, POCA)
    result = reach_lengths(oca, getattr(args, "from"), args.to)
    _emit(
        {"from": getattr(args, "from"), "to": args.to, "pairs": list(result.pairs)},
        args.json,
    )
    return 0


def _cmd_solve(args) -> int:
    pta = _load_automaton(args.pta, PTA)
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
        "threshold": _dec(verdict.threshold),
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
    if isinstance(automaton, POCA):
        hi = 4 * max(args.param, automaton.size()) if args.cap is None else args.cap
        run = poca_reach_bounded(automaton, args.param, -hi, hi)
    else:
        oracle = pta_reach_bruteforce if isinstance(automaton, PTA) else zero_one_reach_bruteforce
        run = oracle(automaton, args.param, args.cap)
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
    # A witness also starts at the initial zero configuration and ends in a final state.
    if run.configs[0] != initial_configuration(automaton):
        ok, index = False, 0
    elif ok and run.configs[-1].state not in automaton.finals:
        ok, index = False, len(run)
    _emit({"valid": ok, "first_failure": index}, args.json)
    return 0 if ok else 1


def _cmd_depump(args) -> int:
    poca = _load_automaton(args.automaton, POCA)
    run = serialize.run_from_obj(json.loads(Path(args.run).read_text()))
    overrides = json.loads(Path(args.consts).read_text())
    if not isinstance(overrides, dict):
        overrides = {}
    keys = ("k", "z", "upsilon")
    bad = [key for key in keys if type(overrides.get(key)) is not int]
    if bad:
        raise ValueError(
            f"{args.consts} must give integers for {', '.join(keys)}; "
            f"missing or not an integer: {', '.join(bad)}"
        )
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
    poca = _load_automaton(args.poca, POCA)
    dc = derive_constants(poca)
    _emit(
        {"Z": _dec(dc.z), "Gamma": _dec(dc.gamma), "Upsilon": _dec(dc.upsilon), "M": _dec(dc.m)},
        args.json,
    )
    return 0


def _param_value(text: str) -> int:
    """The argparse type of every --param: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"parameter values are non-negative, got {value}")
    return value


def _point_value(text: str) -> tuple:
    """The argparse type of --classify: a clock pair X,Y of non-negative integers."""
    try:
        point = tuple(int(part) for part in text.split(","))
    except ValueError:
        point = ()
    if len(point) != 2 or min(point) < 0:
        raise argparse.ArgumentTypeError(f"expected two non-negative integers X,Y, got {text!r}")
    return point


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
    p.add_argument("--region", choices=[r.name for r in Region], help="region for --stage region")
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--normalize-zero", action="store_true")
    p.add_argument("--annotations", help="sidecar file for state and rule annotations")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("regions", help="classify a clock pair")
    p.add_argument("--classify", type=_point_value, required=True, metavar="X,Y")
    p.add_argument("--param", type=_param_value, required=True)
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
    p.add_argument("--param", type=_param_value, required=True)
    p.add_argument("--cap", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate", help="check a witness run: replay, initial start, final end")
    p.add_argument("--run", required=True)
    p.add_argument("--automaton", required=True)
    p.add_argument("--param", type=_param_value, required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("depump", help="reduce a semirun's counter effect by Gamma")
    p.add_argument("--run", required=True)
    p.add_argument("--automaton", required=True)
    p.add_argument("--param", type=_param_value, required=True)
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
