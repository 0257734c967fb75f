"""One benchmark client: runs operations one at a time and reports each.

Started by ``run.py`` as a fresh interpreter for every pass (and after every
operation that hit its time cap), so ``solver._BUILD_CACHE`` always starts
empty and a killed operation leaves nothing behind.  Reads one JSON config
line on stdin::

    {"workload": ..., "corpus_seed": ..., "ops": [op ids], "trace": bool,
     "setup_reps": k, "setup_min_s": s}

and sets up at least k times and for at least s seconds.

and writes JSON lines to its original stdout (anything ptareach prints goes
to stderr instead):

    {"k": "ready", "setup_s": [...], "states": n}   after set-up
    {"k": "built", "states": n}                     after each POCA build
    {"k": "op", "op": id, "t": seconds, "rss_kb": peak RSS so far, ...}
                                                    after each operation
    {"k": "end", "wall": seconds}                   after the last one
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
from time import perf_counter

from workloads import WORKLOADS, corpus
from tracing import OP_SPANS, REPLAY_SPAN, Tracer

from ptareach import solver
from ptareach.semantics import validate_run
from ptareach.serialize import dumps, loads, run_from_obj, run_to_obj


class Client:
    def __init__(self, config: dict, out):
        self.workload = WORKLOADS[config["workload"]]
        self.corpus_seed = config["corpus_seed"]
        self.out = out
        self.tracer = Tracer() if config["trace"] else None
        self.entries = None
        self.built = None
        self._probe_live = False
        self._install_build_probe()
        if self.tracer is not None:
            self.tracer.install()

    def send(self, msg: dict) -> None:
        self.out.write(json.dumps(msg) + "\n")
        self.out.flush()

    def _install_build_probe(self) -> None:
        # Reports every POCA an operation builds as soon as it exists, so the
        # state count survives an operation that is killed at its cap later.
        original = solver.build_poca

        def build_poca(*args, **kwargs):
            result = original(*args, **kwargs)
            if self._probe_live:
                self.send({"k": "built", "states": len(result.poca.states)})
            return result

        solver.build_poca = build_poca

    # -- set-up ------------------------------------------------------------

    def setup(self) -> int:
        """Generate the corpus; query-acc also compiles every entry once."""
        self.built = None
        self.entries = corpus(self.workload.corpus, self.corpus_seed)
        if not self.workload.per_n:
            return 0
        self.built = []
        for _, pta, _ in self.entries:
            result = solver.build_poca(solver.to_zero_one_pta(pta))
            self.built.append((result, result.poca.size()))
        return sum(len(result.poca.states) for result, _ in self.built)

    # -- operations ----------------------------------------------------------

    def op_decide(self, pta) -> tuple:
        v = solver.decide(pta, self.workload.n_values - 1, "via-poca")
        if v.reachable and v.decoded_pta_run is None:
            raise RuntimeError("reachable verdict without a decoded witness")
        witness = (len(v.witness), v.witness.maximum()) if v.reachable else None
        return {"first": v.param_value}, witness, v.decoded_pta_run, v.param_value

    def op_crosscheck(self, pta) -> tuple:
        report = solver.cross_check(pta, self.workload.n_values - 1)
        rows = report.per_value
        verdict = {
            "direct": "".join("1" if r["direct"] else "0" for r in rows),
            "via": "".join("1" if r["via_poca"] else "0" for r in rows),
        }
        return verdict, None, None, None

    def op_query(self, index: int, n: int) -> tuple:
        _, pta, _ = self.entries[index]
        result, size = self.built[index]
        witness = solver.poca_reach_bounded(result.poca, n, 0, 4 * max(n, size))
        if witness is None:
            return {"hit": False}, None, None, None
        b_run = solver.decode_witness(result, n, witness)
        a_run = solver.zero_one_run_to_pta_run(pta, n, b_run)
        ok, _ = solver.validate_run(a_run, pta, n)
        return {"hit": True, "valid": ok}, (len(witness), witness.maximum()), a_run, n

    def run_op(self, op: int):
        if self.workload.per_n:
            index, n = divmod(op, self.workload.n_values)
            return self.op_query(index, n)
        _, pta, _ = self.entries[op]
        if self.workload.name == "decide-acc":
            return self.op_decide(pta)
        return self.op_crosscheck(pta)

    # -- checks outside the timed operation ------------------------------------

    def replay(self, op: int, run, n: int) -> bool:
        """Witness interchange: the run must survive JSON and still validate
        against the automaton's own canonical JSON."""
        pta = self.entries[self.workload.entry(op)][1]
        again = run_from_obj(json.loads(json.dumps(run_to_obj(run))))
        ok, _ = validate_run(again, loads(dumps(pta)), n)
        return ok

    def main(self, ops: list, setup_reps: int, setup_min_s: float) -> None:
        times = []
        states = 0
        while len(times) < setup_reps or sum(times) < setup_min_s:
            t0 = perf_counter()
            states = self.setup()
            times.append(perf_counter() - t0)
        if self.tracer is not None:
            self.tracer.take()  # set-up spans are not part of the pass
        gc.collect()
        self.send({"k": "ready", "setup_s": times, "states": states})
        self._probe_live = True
        tracer = self.tracer
        op_span = OP_SPANS[self.workload.name]
        start = perf_counter()
        for op in ops:
            msg = {"k": "op", "op": op}
            t0 = perf_counter()
            try:
                if tracer is None:
                    verdict, witness, run, n = self.run_op(op)
                else:
                    verdict, witness, run, n = tracer.call(op_span, self.run_op, op)
            except Exception as exc:  # one failed operation must not end the pass
                msg["t"] = perf_counter() - t0
                msg["error"] = f"{type(exc).__name__}: {exc}"
            else:
                msg["t"] = perf_counter() - t0
                msg.update(verdict=verdict, witness=witness)
                if run is not None:
                    if tracer is None:
                        msg["replay"] = self.replay(op, run, n)
                    else:
                        msg["replay"] = tracer.call(REPLAY_SPAN, self.replay, op, run, n)
            if tracer is not None:
                msg["spans"] = tracer.take()
            msg["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self.send(msg)
        self.send({"k": "end", "wall": perf_counter() - start})


def main() -> int:
    # Keep the original stdout for messages; send stray prints to stderr.
    out = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    config = json.loads(sys.stdin.readline())
    Client(config, out).main(config["ops"], config["setup_reps"], config["setup_min_s"])
    out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
