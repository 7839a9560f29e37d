"""Tier-1 smoke test of the end-to-end benchmark (``benchmarks/e2e/run.py``).

Runs the harness once at ``--smoke`` scale — the same code paths at tiny
shapes — and holds its output to ``BENCHMARK.json``: every workload runs,
every metric it names is emitted with its unit, and the spans the traced run
writes form one tree per round.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
LEGAL_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e_spans")
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    results = [json.loads(line) for line in completed.stdout.splitlines() if line.startswith("{")]
    return completed, results, out


def test_every_workload_runs_and_retrieves_correctly(smoke):
    completed, results, _ = smoke
    assert completed.returncode == 0, completed.stdout + completed.stderr
    # One untraced and one traced result per workload, in BENCHMARK.json order.
    assert len(results) == 2 * len(WORKLOADS)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= 1


@pytest.mark.parametrize("position, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(smoke, position, kind):
    _, results, _ = smoke
    expected = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
    for number, workload in enumerate(WORKLOADS):
        metrics = results[2 * number + position]["metrics"]
        assert {name: metric["unit"] for name, metric in metrics.items()} == expected, workload
        for name, metric in metrics.items():
            assert isinstance(metric["value"], (int, float)), (workload, name)
    if kind == "end_to_end":
        # The contract's bounds divide by the parent's median.
        for number in range(len(WORKLOADS)):
            assert all(m["value"] > 0 for m in results[2 * number]["metrics"].values())


def test_names_are_legal_and_used_once():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert LEGAL_NAME.match(name), name
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_of_one_round_share_an_id_and_nest_under_one_root(smoke, workload):
    _, _, out = smoke
    lines = (out / f"spans-{workload}.jsonl").read_text(encoding="utf-8").splitlines()
    spans = {span["id"]: span for span in map(json.loads, lines)}
    assert spans
    roots = defaultdict(list)
    for span in spans.values():
        assert span["round"] is not None, span
        assert span["end"] >= span["start"] and span["cpu"] >= 0
        if span["parent"] is None:
            roots[span["round"]].append(span["name"])
        else:
            assert spans[span["parent"]]["round"] == span["round"], span
    assert set(roots) == {span["round"] for span in spans.values()}
    assert all(len(names) == 1 and names[0].startswith("frontend.") for names in roots.values())
    layers = {span["name"].split(".")[0] for span in spans.values()}
    assert {"client", "frontend", "engine", "dpf"} <= layers


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to measure."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode != 0
    assert not any(line.startswith("{") for line in completed.stdout.splitlines())
