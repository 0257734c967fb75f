"""The ptareach benchmark: one client, closed loop, one operation at a time.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload decide-acc --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` for the corpora):

* ``decide-acc``    -- ``decide(pta, 8, "via-poca")`` per acceptance-corpus entry
  (121 operations, each capped at ``CAP_S`` seconds).
* ``query-acc``     -- the 121 POCAs are compiled during set-up; one operation
  is ``poca_reach_bounded`` at one N in [0, 63] and, on a hit,
  ``decode_witness``, ``zero_one_run_to_pta_run`` and ``validate_run``
  (7,744 operations).
* ``crosscheck-s0`` -- ``cross_check(pta, 31)`` per seed-0 corpus entry (110).

``--seed`` fixes the order in which the operations are issued; the corpora
are fixed (``--corpus-seed`` swaps in another one, whose reference answers
are then derived by the direct oracle before the timed part).  A pass runs
every operation once in a fresh worker interpreter (``worker.py``); passes
repeat until ``--seconds`` of operations are measured (crosscheck-s0 runs at
least two, so that its 110 operations give enough samples).  An operation over
its cap is killed with its worker, recorded as a timeout, and the pass goes
on in a new worker.  Every verdict is checked against ``reference.json``;
every decoded witness is replayed through the JSON interchange format.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
untraced and one with spans around every layer's public functions, prints
the per-layer metrics, and writes the spans to ``perfbench/traces/``.
The last line of stdout is the JSON result; the lines above it are a report
with the sample count of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
from collections import deque
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

# Per-operation cap.  On a 2-vCPU x86 KVM guest the slowest decide-acc entries
# take: r21 ~42 s and r108 ~22 s (capped), r53 ~7 s and r12 ~3.5 s (not capped).
CAP_S = 12.0
RUN_LIMIT_S = 150.0  # no operation starts after this; the rest count as failed
SETUP_LIMIT_S = 120.0
# Set-up is timed at least SETUP_REPS times and for SETUP_MIN_S, so that the
# millisecond set-ups of decide-acc and crosscheck-s0 get a steady median.
SETUP_REPS = 3
SETUP_MIN_S = 0.5
TRACE_DIR = os.path.join(HERE, "traces")


class BenchError(Exception):
    pass


class Worker:
    """A worker interpreter and the JSON-lines channel it reports on."""

    def __init__(self, config: dict):
        # A fixed hash seed keeps set iteration order, and so the work done,
        # the same in every run.
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env,
        )
        self.proc.stdin.write(json.dumps(config).encode() + b"\n")
        self.proc.stdin.close()
        self.fd = self.proc.stdout.fileno()
        self.partial = []
        self.lines = deque()

    def recv(self, deadline: float):
        """The next message, "timeout" at the deadline, or "eof"."""
        while not self.lines:
            remaining = deadline - perf_counter()
            if remaining <= 0 or not select.select([self.fd], [], [], remaining)[0]:
                return "timeout"
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                return "eof"
            *done, rest = chunk.split(b"\n")
            if done:
                self.lines.append(b"".join(self.partial + [done[0]]))
                self.lines.extend(done[1:])
                self.partial = []
            self.partial.append(rest)
        return json.loads(self.lines.popleft())

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class Pass:
    """Everything one pass over the operations produced."""

    def __init__(self):
        self.records = []  # one dict per attempted operation
        self.setup_s = []
        self.states = 0  # POCA states built: set-up (query-acc) or operations
        self.wall = 0.0
        self.peak_rss_kb = 0  # of the workers, over the operations they completed
        self.spans = []  # [key, parent key, name, start, end, counts, op]


def run_pass(workload: str, corpus_seed: int, ops: list, trace: bool,
             time_setup: bool, run_deadline: float) -> Pass:
    result = Pass()
    remaining = deque(ops)
    segment = 0
    while remaining:
        worker = Worker({
            "workload": workload, "corpus_seed": corpus_seed, "ops": list(remaining),
            "trace": trace,
            "setup_reps": SETUP_REPS if time_setup and segment == 0 else 1,
            "setup_min_s": SETUP_MIN_S if time_setup and segment == 0 else 0.0,
        })
        try:
            msg = worker.recv(min(perf_counter() + SETUP_LIMIT_S, run_deadline))
            if not isinstance(msg, dict) or msg["k"] != "ready":
                raise BenchError(f"worker set-up failed ({msg if isinstance(msg, str) else msg['k']})")
            if segment == 0:
                result.setup_s = msg["setup_s"]
                result.states += msg["states"]
            start = last = perf_counter()
            while True:
                msg = worker.recv(min(last + CAP_S, run_deadline))
                now = perf_counter()
                if isinstance(msg, str):  # the operation in flight never reported
                    result.wall += now - start
                    if not remaining:
                        break
                    late = now >= run_deadline
                    kind = "not reached" if late else "timeout" if msg == "timeout" else "worker died"
                    result.records.append({"op": remaining.popleft(), "t": now - last, "fail": kind})
                    if late:
                        result.records += [{"op": op, "t": None, "fail": kind} for op in remaining]
                        remaining.clear()
                    break
                if msg["k"] == "built":
                    result.states += msg["states"]
                elif msg["k"] == "op":
                    remaining.popleft()
                    for sid, parent, name, t0, t1, counts in msg.pop("spans", ()):
                        result.spans.append([(segment, sid), None if parent is None else
                                             (segment, parent), name, t0, t1, counts, msg["op"]])
                    result.peak_rss_kb = max(result.peak_rss_kb, msg.pop("rss_kb"))
                    result.records.append(msg)
                    last = now
                elif msg["k"] == "end":
                    result.wall += now - start
                    break
        finally:
            worker.stop()
        segment += 1
    return result


def judge(spec, bits: str, rec: dict) -> None:
    """Set rec["fail"] when the operation erred or its verdict is wrong."""
    if "fail" in rec:
        return
    if "error" in rec:
        rec["fail"] = "error"
        return
    verdict = rec["verdict"]
    if spec.name == "decide-acc":
        first = bits.find("1")
        ok = verdict["first"] == (None if first < 0 else first)
    elif spec.name == "crosscheck-s0":
        ok = verdict["direct"] == bits and verdict["via"] == bits
    else:
        expected = bits[rec["op"] % spec.n_values] == "1"
        ok = verdict["hit"] == expected and (not expected or verdict["valid"])
    if not ok:
        rec["fail"] = "wrong verdict"


def quantile(values: list, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(passes: list) -> dict:
    """Metric name -> (value, unit, samples); set-up and states from the first pass."""
    p = passes[0]
    records = [r for q in passes for r in q.records]
    lat = [r["t"] for r in records if r["t"] is not None]
    replays = [r["replay"] for r in records if "replay" in r]
    failed = sum("fail" in r for r in records)
    return {
        "setup_s": (statistics.median(p.setup_s), "s", len(p.setup_s)),
        "ops_per_s": (len(lat) / sum(lat), "1/s", len(lat)),
        "latency_p50_ms": (1e3 * quantile(lat, 50), "ms", len(lat)),
        "latency_p90_ms": (1e3 * quantile(lat, 90), "ms", len(lat)),
        "latency_p99_ms": (1e3 * quantile(lat, 99), "ms", len(lat)),
        "succeeded_frac": (1 - failed / len(records), "ratio", len(records)),
        "witness_replay_frac": (
            sum(replays) / len(replays) if replays else 1.0, "ratio", len(replays)),
        "poca_states": (p.states, "count", 1),
        "peak_rss_mb": (max(q.peak_rss_kb for q in passes) / 1024, "MB", len(passes)),
    }


def per_layer(traced: Pass, untraced: Pass) -> dict:
    from tracing import layer_metrics

    metrics, self_sum = layer_metrics(traced.spans)
    timeouts = [r for r in traced.records if r.get("fail") in ("timeout", "not reached")]
    timeout_s = sum(r["t"] or 0.0 for r in timeouts)
    metrics.update({
        "serialize.replay_failures": (
            sum(not r["replay"] for r in traced.records if "replay" in r), "count", 1),
        "solver.timeouts": (len(timeouts), "count", 1),
        "solver.timeout_s": (timeout_s, "s", len(timeouts)),
        "solver.wrong_verdicts": (
            sum(r.get("fail") == "wrong verdict" for r in traced.records), "count", 1),
        "trace.wall_s": (traced.wall, "s", 1),
        "trace.untraced_wall_s": (untraced.wall, "s", 1),
        "trace.overhead_s": (traced.wall - untraced.wall, "s", 1),
        "trace.unattributed_s": (traced.wall - self_sum - timeout_s, "s", 1),
        "trace.spans": (len(traced.spans), "count", 1),
    })
    return metrics


def write_spans(path: str, spans: list) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for key, parent, name, t0, t1, counts, op in spans:
            fh.write(json.dumps({"op": op, "id": key, "parent": parent, "name": name,
                                 "start": t0, "end": t1, "counts": counts}) + "\n")


def run(workload: str, seed: int, seconds: float, trace: bool, corpus_seed=None) -> tuple:
    """(report lines, result object)."""
    from workloads import WORKLOADS, load_reference

    started = perf_counter()
    spec = WORKLOADS[workload]
    corpus_seed = spec.default_seed if corpus_seed is None else corpus_seed
    reference = load_reference(spec.corpus, corpus_seed, spec.n_values)
    if spec.per_n:
        ops = list(range(len(reference) * spec.n_values))
    else:
        ops = list(range(len(reference)))
    random.Random(seed).shuffle(ops)
    run_deadline = started + RUN_LIMIT_S

    def one_pass(traced: bool, time_setup: bool) -> Pass:
        p = run_pass(workload, corpus_seed, ops, traced, time_setup, run_deadline)
        for rec in p.records:
            judge(spec, reference[spec.entry(rec["op"])][1], rec)
        return p

    passes = [one_pass(False, True)]
    if trace:
        traced = one_pass(True, False)
        metrics = per_layer(traced, passes[0])
        reported = traced
        write_spans(os.path.join(TRACE_DIR, f"{workload}-seed{seed}.jsonl"), traced.spans)
    else:
        while (len(passes) < spec.min_passes
               or sum(r["t"] or 0.0 for q in passes for r in q.records) < seconds):
            took = perf_counter() - started
            if perf_counter() + took / len(passes) > run_deadline:
                break
            passes.append(one_pass(False, False))
        metrics = end_to_end(passes)
        reported = passes[0]

    records = reported.records if trace else [r for q in passes for r in q.records]
    fails = [r["fail"] for r in records if "fail" in r]
    summary = ", ".join(f"{kind} {fails.count(kind)}" for kind in sorted(set(fails)))
    lines = [
        f"workload {workload}  seed {seed}  corpus seed {corpus_seed}  "
        f"passes {len(passes)}{' + 1 traced' if trace else ''}",
        f"operations {len(records)}  failed {len(fails)}  failed_frac {len(fails) / len(records):.4g}"
        + (f" ({summary})" if fails else ""),
    ]
    for kind in sorted(set(fails)):
        names = sorted({reference[spec.entry(r["op"])][0] for r in records if r.get("fail") == kind})
        lines.append(f"  {kind}, by entry: {', '.join(names[:20])}{' ...' if len(names) > 20 else ''}")
    lines += [f"  error: {e}" for e in sorted({r["error"] for r in records if "error" in r})[:5]]
    no_replay = sorted({reference[spec.entry(r["op"])][0] for r in records if r.get("replay") is False})
    if no_replay:
        lines.append(f"witnesses that fail to replay from JSON, by entry: {', '.join(no_replay)}")
    lines.append(f"{'metric':34} {'value':>14} {'unit':>6} {'samples':>8}")
    lines += [f"{name:34} {value:14.6g} {unit:>6} {n:8d}"
              for name, (value, unit, n) in metrics.items()]
    result = {
        "correct": "wrong verdict" not in fails,
        "attempted": len(records),
        "failed": len(fails),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    return lines, result


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="order of the operations")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=None,
                        help="corpus seed (default: the workload's named seed)")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM so that every worker is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isfile(os.path.join(ROOT, "src", "ptareach", "__init__.py")):
        print(f"perfbench: no ptareach sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                            args.corpus_seed)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
