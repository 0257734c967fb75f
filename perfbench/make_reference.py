"""Write the benchmark's reference answers to ``perfbench/reference.json``.

Usage: python3 perfbench/make_reference.py

For every corpus the benchmark uses at its default seed, records one
reachable bit per entry and parameter value, taken from the fixture
predicate where there is one and from ``pta_reach_bruteforce`` otherwise.
Fixture predicates are also checked against the direct oracle, so a wrong
predicate cannot slip into the reference.
"""

from __future__ import annotations

import json
import sys

from workloads import (
    COMMITTED_N_VALUES,
    REFERENCE_FILE,
    WORKLOADS,
    corpus,
    corpus_key,
    reference_bits,
)


def main() -> int:
    seeds = sorted({(w.corpus, w.default_seed) for w in WORKLOADS.values()})
    out = {}
    for kind, seed in seeds:
        n_values = COMMITTED_N_VALUES[kind]
        rows = []
        for name, pta, pred in corpus(kind, seed):
            source, bits = reference_bits(pta, pred, n_values)
            if pred is not None and reference_bits(pta, None, n_values)[1] != bits:
                print(f"{name}: fixture predicate disagrees with the oracle", file=sys.stderr)
                return 1
            rows.append([name, source, bits])
        out[corpus_key(kind, seed)] = {"n_values": n_values, "entries": rows}
        print(f"{corpus_key(kind, seed)}: {len(rows)} entries, N < {n_values}")
    with open(REFERENCE_FILE, "w") as fh:
        fh.write("{\n")
        for i, (key, body) in enumerate(out.items()):
            fh.write(f'  "{key}": {{"n_values": {body["n_values"]}, "entries": [\n')
            fh.write(",\n".join("    " + json.dumps(row) for row in body["entries"]))
            fh.write("\n  ]}" + (",\n" if i + 1 < len(out) else "\n"))
        fh.write("}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
