"""Tests of the benchmark itself.  Run with

    python3 -m pytest perfbench -q
"""

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import liftbench  # noqa: E402

SPEC = json.loads((liftbench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lc():
    return liftbench.import_liftcount()


def quick(workload):
    """The two smallest rungs of the main family and the smallest rung of
    every other family."""
    by_family = {}
    for case in workload.cases:
        by_family.setdefault(case.family.name, []).append(case)
    keep = []
    for name, cases in by_family.items():
        cases.sort(key=lambda c: c.n)
        keep += cases[:2] if name == workload.main else cases[:1]
    return dataclasses.replace(workload, cases=tuple(keep))


def run_quick(lc, workload, trace, **kwargs):
    out = io.StringIO()
    result = liftbench.run(lc, workload, 0, trace, setup_samples=1,
                           out=out, **kwargs)
    return result, json.loads(out.getvalue())


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(liftbench.WORKLOADS)


@pytest.mark.parametrize("name", liftbench.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_quick_run_reports_every_metric(lc, name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(liftbench, "OUT_DIR", tmp_path)
    result, detail = run_quick(lc, quick(liftbench.build_workload(name, 1)), trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert all(check["ok"] for check in detail["oracle_checks"])
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    for m in SPEC[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    json.dumps(result)   # the printed line holds no big integers
    if trace:
        spans = json.loads(next(tmp_path.glob("spans-*.json")).read_text())
        assert {s["name"] for s in spans} >= {"case", "formula.parse_problem"}


def test_wrong_expected_value_fails_the_run(lc):
    workload = quick(liftbench.build_workload("universal", 1))
    friends = workload.cases[0].family
    assert friends.name == "friends"
    bad = dataclasses.replace(
        friends, closed_form=lambda n: friends.closed_form(n) + (n == 100))
    cases = tuple(dataclasses.replace(c, family=bad) if c.family is friends
                  else c for c in workload.cases)
    result, detail = run_quick(lc, dataclasses.replace(workload, cases=cases), False)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert detail["mismatches"] == ["friends-n100"]
    assert detail["cases"][0]["failures"] == {"WrongValue": 1}


def test_wrong_closed_form_is_caught_by_the_oracle(lc):
    workload = quick(liftbench.build_workload("counting", 1))
    cases = tuple(c for c in workload.cases if c.family.name == "eq1")
    eq1 = cases[0].family
    bad = dataclasses.replace(eq1, closed_form=lambda n: eq1.closed_form(n) * 2)
    wrong = tuple(dataclasses.replace(c, family=bad) for c in cases)
    result, detail = run_quick(lc, dataclasses.replace(workload, cases=wrong), False)
    assert result["correct"] is False
    assert "oracle:eq1-n3" in detail["mismatches"]


def test_case_over_budget_counts_as_failure(lc):
    workload = quick(liftbench.build_workload("universal", 1))
    result, detail = run_quick(lc, workload, False, budget=1e-4)
    assert result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["solved_share"]["value"] < 1
    failures = {k for case in detail["cases"] for k in case["failures"]}
    assert failures == {"CaseTimeout"}


def test_known_defect_is_reported_not_counted(lc):
    workload = quick(liftbench.build_workload("counting", 1))
    result, detail = run_quick(lc, workload, False)
    assert detail["known_defects"] == [
        {"id": "le3-n2", "error": "CapacityError", "u": 24, "b": 20}]
    assert result["failed"] == 0


def test_seed_changes_order_and_weights_not_shapes():
    one = liftbench.build_workload("weighted-constrained", 1)
    two = liftbench.build_workload("weighted-constrained", 4)
    assert [c.id for c in one.cases] == [c.id for c in two.cases]
    assert one.params != two.params
    again = liftbench.build_workload("weighted-constrained", 1)
    assert one.params == again.params


def test_digest_needs_no_decimal_conversion():
    big = liftbench.friends_count(200)          # 12 042 decimal digits
    assert liftbench.result_digest(big) != liftbench.result_digest(big + 1)
    assert liftbench.result_bits(big) == big.numerator.bit_length() + 1


def command(cwd, seconds="0"):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "universal",
         "--seed", "1", "--seconds", seconds, "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def test_command_prints_the_result_last():
    done = command(liftbench.ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_command_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(liftbench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(liftbench.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = command(tmp_path, seconds="1")
    assert done.returncode != 0
    assert done.stdout == ""
