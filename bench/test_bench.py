"""Tests of the benchmark itself: generators, known answers, the gate.

Run with ``python -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

hp = run.load_library()
BENCH = Path(__file__).resolve().parent


@pytest.fixture
def small(monkeypatch):
    """Few, small instances, so generation and solving stay quick."""
    monkeypatch.setattr(workloads, "STREAM_INSTANCES", 12)
    monkeypatch.setattr(workloads, "INGEST_INSTANCES", 3)
    monkeypatch.setattr(workloads, "INGEST_RECORDS", 40)
    monkeypatch.setattr(workloads, "CHAIN_GENERATORS", 9)
    monkeypatch.setattr(workloads, "PAIRS_GENERATORS", 7)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(small, workload):
    first = workloads.generate(workload, 3)
    assert first == workloads.generate(workload, 3)
    if workload != "corpora":  # corpora only reorders the three files
        assert first != workloads.generate(workload, 4)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_known_answers_hold_on_small_sizes(small, workload):
    for instance in workloads.generate(workload, 5)[:6]:
        outcome = run.solve(hp, instance)
        assert run.check(hp, instance.expected, outcome) == []


def test_expected_resolution_per_workload(small):
    assert {i.expected.verdict for i in workloads.generate("pairs", 1)} == {"unresolved"}
    for workload in ("corpora", "ingest", "chain"):
        assert "unresolved" not in {i.expected.verdict for i in workloads.generate(workload, 1)}


def test_union_find_counts_merges_not_pairs():
    assert workloads.merges([("ㅐ", "ㅔ"), ("ㅖ", "ㅔ"), ("ㅐ", "ㅖ")]) == 2
    assert workloads.merges([("ㅚ", "ㅙ")]) == 1
    assert workloads.merges([]) == 0


def test_oracle_on_hand_computed_matrices():
    found = workloads.oracle_invariants([[[2, 0], [0, 3]], [[2, 4]], [[0, 0]], []], 2)
    assert found == [(0, (6,)), (1, (2,)), (2, ()), (2, ())]


def test_gate_counts_a_wrong_expected_verdict_as_failure():
    german = workloads.corpora(0)[0]
    wrong = workloads.Instance(german.name, german.text, workloads.Expected("free", 2))
    sample = run.run_instance(hp, wrong)
    assert sample.problems
    assert not run.run_instance(hp, german).problems


def test_gate_rejects_a_wrong_basis_and_wrong_torsion():
    korean = next(i for i in workloads.corpora(0) if i.name == "korean")
    outcome = run.solve(hp, korean)
    assert run.check(hp, workloads.Expected("free", 2, basis=("ㅓ", "ㅜ")), outcome)
    assert run.check(hp, workloads.Expected("free", 2, torsion=(2,)), outcome)


def test_report_check_flags_a_wrong_verdict_line():
    env = run.child_env()
    good = subprocess.run(
        [sys.executable, "-m", "homophonic", *run.REPORT_ARGS],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert run.check_report(good, 0) == []
    assert run.check_report(good.replace("free of rank 23", "free of rank 22"), 0)
    assert run.check_report(good, 3)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile = run.tail([float(x) for x in range(40, 0, -1)])
    assert (value, percentile) == (30.0, 75.0)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_tracing_restores_the_library_and_keeps_outcomes(small):
    instances = workloads.generate("chain", 2)[:3] + workloads.corpora(2)[:3]
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _, _ in tracing.WRAPPED}
    method = hp.Presentation.__dict__["from_relations"]
    plain = [run.run_instance(hp, i) for i in instances]
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        traced = [run.run_instance(hp, i, tracer) for i in instances]
        tracer.fold()
    assert [s.signature for s in plain] == [s.signature for s in traced]
    assert all(getattr(sys.modules[m], a) is f for (m, a), f in originals.items())
    assert hp.simplify is originals[("homophonic.presentation", "simplify")]
    assert hp.Presentation.__dict__["from_relations"] is method
    assert tracer.self_time["presentation.eliminate"] > 0
    assert tracer.counts["presentation.rounds"] > 0


def test_wrong_expected_verdict_makes_the_command_fail(monkeypatch, capsys):
    german = workloads.corpora(0)[0]
    wrong = workloads.Instance(german.name, german.text, workloads.Expected("trivial", 1))
    monkeypatch.setattr(run, "PROBES", 1)
    monkeypatch.setattr(workloads, "generate", lambda workload, seed: [wrong])
    code = run.main(["--workload", "corpora", "--seed", "0", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= result["attempted"] - 2  # every instance; not the probes


def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpora", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
