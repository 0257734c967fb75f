"""Self-tests of the benchmark: python3 -m pytest perfbench -q

They run short slices of each workload, so they take about a minute.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import WORKLOADS, corpus, load_reference, reference_bits  # noqa: E402

ENTRIES = 16  # the first corpus entries: acc fixtures plus a few random draws


def _ops(workload):
    spec = WORKLOADS[workload]
    per_entry = spec.n_values if spec.per_n else 1
    return list(range(ENTRIES * per_entry))


def _pass(workload, trace):
    spec = WORKLOADS[workload]
    p = run.run_pass(workload, spec.default_seed, _ops(workload), trace, False, math.inf)
    reference = load_reference(spec.corpus, spec.default_seed, spec.n_values)
    for rec in p.records:
        run.judge(spec, reference[spec.entry(rec["op"])][1], rec)
    return p


def _fingerprint(p):
    metrics, _ = layer_metrics(p.spans)
    return {
        "poca_states": p.states,
        "semilinear.calls": metrics["semilinear.calls"][0],
        "semantics.search_calls": metrics["semantics.search_calls"][0],
        "verdicts": [(r["op"], json.dumps(r.get("verdict"), sort_keys=True)) for r in p.records],
        "witnesses": [(r["op"], r.get("witness")) for r in p.records],
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_two_runs_count_the_same(workload):
    first, second = _pass(workload, True), _pass(workload, True)
    assert _fingerprint(first) == _fingerprint(second)
    assert not [r for r in first.records if "fail" in r]
    # Spans do not change what the program computes.
    untraced = _pass(workload, False)
    assert untraced.states == first.states
    assert [r.get("verdict") for r in untraced.records] == [r.get("verdict") for r in first.records]


def test_self_times_cover_the_traced_pass():
    traced = _pass("crosscheck-s0", True)
    _, self_sum = layer_metrics(traced.spans)
    unattributed = traced.wall - self_sum
    assert 0 <= unattributed < 0.05 * traced.wall


def test_timeout_is_recorded_not_raised(monkeypatch):
    monkeypatch.setattr(run, "CAP_S", 0.0)
    p = run.run_pass("decide-acc", WORKLOADS["decide-acc"].default_seed, [0, 1], False, False,
                     math.inf)
    assert [(r["op"], r["fail"]) for r in p.records] == [(0, "timeout"), (1, "timeout")]


def test_wrong_verdict_is_caught():
    rec = {"op": 0, "t": 0.1, "verdict": {"first": 1}}
    run.judge(WORKLOADS["decide-acc"], "1" * 9, rec)
    assert rec["fail"] == "wrong verdict"


def test_committed_answers_match_the_oracle():
    committed = load_reference("s0", 0, 32)
    for (name, pta, _), (ref_name, bits) in zip(corpus("s0", 0)[:8], committed):
        assert name == ref_name
        assert reference_bits(pta, None, 32) == ("bruteforce", bits)


def test_uncommitted_corpus_seed_gets_derived_answers():
    derived = load_reference("s0", 5, 3)
    assert len(derived) == 110 and all(len(bits) == 3 for _, bits in derived)


def test_without_sources_it_fails_without_a_result(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    shutil.copy(os.path.join(os.path.dirname(here), "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decide-acc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_reported_metrics_are_the_declared_ones():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    p = run.Pass()
    p.setup_s, p.records, p.peak_rss_kb = [1.0], [{"op": 0, "t": 0.1}], 1024
    assert list(run.end_to_end([p])) == [m["name"] for m in declared["end_to_end"]]
    assert list(run.per_layer(run.Pass(), run.Pass())) == [m["name"] for m in declared["per_layer"]]
