"""Tests of the benchmark itself: known-answer gates, metric names, tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The end-to-end tests start real worker interpreters on short runs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
REPO = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _benchmark_spec():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(monkeypatch, capsys, *args):
    monkeypatch.chdir(REPO)
    code = run.main(list(args))
    out = capsys.readouterr().out.strip().splitlines()
    return code, out, json.loads(out[-1])


# ---------------------------------------------------------------------------
# known answers
# ---------------------------------------------------------------------------

SEED_COMMIT_DETERMINING = {
    "constraints": 230,
    "linear_homogeneous": True,
    "digest": "327004d4aebe966f",
    "accepts_prolonged_6": True,
    "accepts_prolonged_6_flipped": False,
}


def test_determining_gate_accepts_the_seed_commit_verdict():
    assert workloads.judge_determining(SEED_COMMIT_DETERMINING) == []


def test_flipped_family_marked_valid_is_a_wrong_verdict(monkeypatch):
    monkeypatch.setitem(workloads.EXPECTED_DETERMINING, "accepts_prolonged_6_flipped", True)
    event = {"index": 0, "verdict": SEED_COMMIT_DETERMINING, "error": None}
    assert run.judge("determining", 1, event)


def test_pipeline_gate():
    checks = [{"name": name, "status": "pass", "ms": 1.0} for name in workloads.PIPELINE_PASS_CHECKS]
    checks.append({"name": "orbit-separation", "status": "info", "ms": 0.0})
    good = {"exit_code": 0, "report": {"schema": 2, "checks": checks + [{"name": "new", "status": "pass"}]}}
    assert workloads.judge_pipeline(good) == []
    failing = {"exit_code": 1, "report": {"schema": 1, "checks": checks[1:] + [
        {"name": checks[0]["name"], "status": "fail"}]}}
    assert len(workloads.judge_pipeline(failing)) == 3


def test_classification_answers_come_from_the_trace_form():
    # K(a) = 2 a1^2 - 8 a2 a3 for the paper's brackets.
    assert workloads.trace_form((1, 0, 0)) == 2
    assert workloads.trace_form((0, 1, 1)) == -8
    answer = workloads.expected_class((Fraction(1), Fraction(2), Fraction(3)))
    assert answer["representative"] == "g2 + alpha*g3"
    assert answer["alpha"] == Fraction(3, 2) - Fraction(1, 16)
    assert workloads.expected_class((0, 0, Fraction(-2)))["representative"] == "g3"


def test_candidate_stream_is_seeded_and_mixed():
    stream = [workloads.candidate_spec(5, i) for i in range(2 * workloads.CANDIDATE_BLOCK)]
    assert stream == [workloads.candidate_spec(5, i) for i in range(2 * workloads.CANDIDATE_BLOCK)]
    slow = sum(spec["family"] == "prolonged-6" for spec in stream)
    assert slow == 2 * workloads.PROLONGED_PER_BLOCK
    assert {workloads.expected_candidate(spec) for spec in stream} == {True, False}


def test_wrong_expected_candidate_verdict_raises_wrong_ratio(monkeypatch, capsys):
    # Mark every candidate valid, so the perturbed ones must count as wrong.
    monkeypatch.setattr(workloads, "expected_candidate", lambda spec: True)
    code, out, result = _run(monkeypatch, capsys, "--workload", "candidates", "--seed", "3",
                             "--seconds", "4", "--trace", "0")
    assert code == 0
    assert result["failed"] > 0 and result["correct"] is False
    ratio = next(line for line in out if "wrong_verdict_ratio" in line)
    assert float(ratio.split()[1]) > 0


# ---------------------------------------------------------------------------
# metric names and units
# ---------------------------------------------------------------------------


def test_end_to_end_metrics_match_benchmark_json(monkeypatch, capsys):
    code, out, result = _run(monkeypatch, capsys, "--workload", "classification", "--seed", "2",
                             "--seconds", "2", "--trace", "0")
    assert code == 0 and result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in _benchmark_spec()["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in (("wrong_verdict_ratio", "ratio"), ("verdict_s_tail", "s")):
        line = next(line for line in out if line.strip().startswith(name))
        assert line.split()[2] == unit


def test_per_layer_metrics_match_benchmark_json(monkeypatch, capsys):
    code, _out, result = _run(monkeypatch, capsys, "--workload", "classification", "--seed", "2",
                              "--seconds", "2", "--trace", "1")
    assert code == 0 and result["correct"]
    want = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert result["metrics"]["liealg.killing.calls"]["value"] == 2 * len(run.TRACE_UNITS["classification"])
    assert result["metrics"]["jetsys.reduce.calls"]["value"] == 0


def test_benchmark_json_names_every_metric():
    spec = _benchmark_spec()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_a_directory_without_the_engine(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def test_layer_metrics_from_spans():
    names = ["unit", "jetsys.reduce", "jetsys.rule", "expr.substitute"]
    # (id, name, parent, unit, start, end): a reduce with two substitution
    # passes, whose rule generation runs a nested reduce with one pass.
    spans = [
        (0, 0, -1, 0, 0.0, 10.0),
        (1, 1, 0, 0, 1.0, 9.0),
        (2, 2, 1, 0, 1.0, 5.0),
        (3, 1, 2, 0, 2.0, 4.0),
        (4, 3, 3, 0, 2.5, 3.5),
        (5, 3, 1, 0, 5.0, 6.0),
        (6, 3, 1, 0, 6.0, 8.0),
        (7, 2, 1, 0, 8.0, 8.5),
    ]
    out = tracer.layer_metrics(names, spans, Counter())
    assert out["jetsys.reduce.calls"] == 2
    assert out["jetsys.reduce.passes"] == 3
    assert out["jetsys.reduce.extra_passes"] == 1
    assert out["jetsys.rule.lookups"] == 2
    assert out["jetsys.rule.generated"] == 1
    assert out["jetsys.rule.hit_ratio"] == 0.5
    assert out["jetsys.rule.gen_s"] == pytest.approx(4.0)
    # outer reduce: 8 s minus children 4 + 1 + 2 + 0.5; inner: 2 s minus 1
    assert out["jetsys.reduce.self_s"] == pytest.approx(0.5 + 1.0)
    assert out["expr.substitute.self_s"] == pytest.approx(4.0)


def test_tracer_wraps_every_binding_site():
    script = (
        "import json, sys; sys.path.insert(0, 'perfbench'); import symflow; "
        "from symflow import conslaw, jetsys; from tracer import Tracer; "
        "t = Tracer(); t.install(); "
        "assert conslaw.consistent_assignment is jetsys.consistent_assignment; "
        "print(json.dumps(t.sites))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    done = subprocess.run([sys.executable, "-c", script], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    sites = json.loads(done.stdout)
    assert set(sites) == set(tracer.SPANS)
    assert sites["jetsys.consistent_assignment"] == 2  # jetsys and conslaw
    assert sites["expr.mul"] == 2 and sites["expr.add"] == 2  # __rmul__, __radd__
    assert sites["linsym.verify_symmetry"] == 2  # linsym and the package
    assert all(count >= 1 for count in sites.values())
