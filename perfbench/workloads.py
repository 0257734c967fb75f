"""Corpora, workloads and reference answers of the ptareach benchmark.

Two seeded corpora feed three workloads:

* ``acc`` -- the acceptance corpus: the in-corpus hand fixtures plus 110
  ``random_two_one_pta(Random(20260809), max_states=3)`` draws, named
  ``r0`` .. ``r109``.  ``decide-acc`` and ``query-acc`` run on it.
* ``s0`` -- 110 draws from ``Random(0)``, the corpus ``crosscheck-s0`` runs on.

The reference answer of an entry is one reachable bit per parameter value
N = 0, 1, ...  It comes from the fixture predicate where the entry has one
and from the direct oracle ``pta_reach_bruteforce`` otherwise, never from
the pipeline under test.  ``make_reference.py`` writes the committed answers
to ``reference.json``; a corpus seed without committed answers has them
derived in the same way before a run's timed part.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE_FILE = os.path.join(HERE, "reference.json")

if SRC not in sys.path:
    sys.path.insert(0, SRC)


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str  # "acc" | "s0"
    default_seed: int
    n_values: int  # reference bits needed per entry: N = 0 .. n_values - 1
    per_n: bool  # one operation per (entry, N) instead of one per entry
    min_passes: int = 1  # more samples of each operation where one pass is short

    def entry(self, op: int) -> int:
        """Index of the corpus entry an operation id refers to."""
        return op // self.n_values if self.per_n else op


DECIDE_N_MAX = 8
QUERY_N_VALUES = 64
CROSSCHECK_N_MAX = 31

WORKLOADS = {
    w.name: w
    for w in (
        Workload("decide-acc", "acc", 20260809, DECIDE_N_MAX + 1, per_n=False),
        Workload("query-acc", "acc", 20260809, QUERY_N_VALUES, per_n=True),
        Workload("crosscheck-s0", "s0", 0, CROSSCHECK_N_MAX + 1, per_n=False, min_passes=2),
    )
}

# Bits committed per corpus: enough for every workload that uses it.
COMMITTED_N_VALUES = {"acc": QUERY_N_VALUES, "s0": CROSSCHECK_N_MAX + 1}


def corpus(kind: str, seed: int) -> list:
    """``(name, pta, predicate or None)`` for every entry, in corpus order."""
    from ptareach.fixtures import fixture_corpus, random_two_one_pta

    entries = []
    if kind == "acc":
        entries = [(fx.name, fx.pta, fx.accepts) for fx in fixture_corpus() if fx.in_corpus]
    elif kind != "s0":
        raise ValueError(f"unknown corpus {kind!r}")
    rng = random.Random(seed)
    for i in range(110):
        entries.append((f"r{i}", random_two_one_pta(rng, max_states=3), None))
    return entries


def corpus_key(kind: str, seed: int) -> str:
    return f"{kind}-{seed}"


def reference_bits(pta, predicate, n_values: int) -> tuple:
    """(source, bits): bits[N] is "1" iff the target is reachable at N."""
    if predicate is not None:
        return "fixture", "".join("1" if predicate(n) else "0" for n in range(n_values))
    from ptareach.semantics import pta_reach_bruteforce

    c_max = max(pta.consts(), default=0)
    bits = "".join(
        "1" if pta_reach_bruteforce(pta, n, max(n, c_max) + 1) is not None else "0"
        for n in range(n_values)
    )
    return "bruteforce", bits


def load_reference(kind: str, seed: int, n_values: int) -> list:
    """``[(name, bits)]`` in corpus order, committed or derived now."""
    key = corpus_key(kind, seed)
    with open(REFERENCE_FILE) as fh:
        committed = json.load(fh)
    if key in committed and committed[key]["n_values"] >= n_values:
        return [(name, bits[:n_values]) for name, _, bits in committed[key]["entries"]]
    return [
        (name, reference_bits(pta, pred, n_values)[1])
        for name, pta, pred in corpus(kind, seed)
    ]
