"""The PR 6/7 perf tooling: bench harness, history archive, diff tool, lints."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from repro.bench.perf import (
    archive_metrics,
    bench_tag,
    dpu_pipeline_model,
    render_bench,
    run_bench,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        f"tools_{name}", REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestRunBench:
    def test_quick_mode_structure_and_assertion(self, tmp_path):
        out = tmp_path / "bench.json"
        metrics = run_bench(quick=True, output_path=str(out))
        assert metrics["mode"] == "quick"
        wall = metrics["wall_clock"]
        # Quick mode only returns if its internal batched >= sequential
        # assertion held.
        assert wall["batched_vs_sequential_speedup"] >= 1.0
        assert wall["records_per_second"] > 0
        simulated = metrics["simulated_impir"]
        assert 0 < simulated["p50_latency_seconds"] <= simulated["p99_latency_seconds"]
        written = json.loads(out.read_text())
        assert written["shape"]["backend"] == "reference"
        assert written["wall_clock"]["batched_seconds"] > 0

    def test_render_mentions_speedup_and_percentiles(self):
        metrics = run_bench(quick=True, output_path=None)
        text = render_bench(metrics)
        assert "speedup" in text
        assert "p50" in text and "p99" in text
        assert "records/s" in text

    def test_simulated_percentiles_are_deterministic(self):
        first = run_bench(quick=True, output_path=None)["simulated_impir"]
        second = run_bench(quick=True, output_path=None)["simulated_impir"]
        assert first == second


class TestBenchArchive:
    def test_bench_tag_is_a_short_nonempty_token(self):
        tag = bench_tag()
        assert tag and " " not in tag

    def test_archive_metrics_writes_a_tagged_artifact(self, tmp_path):
        history = tmp_path / "history"
        path = archive_metrics({"a": 1}, str(history), tag="abc123")
        assert path == str(history / "BENCH_abc123.json")
        written = json.loads(Path(path).read_text())
        assert written == {"a": 1, "tag": "abc123"}

    def test_run_bench_archives_into_history_dir(self, tmp_path):
        history = tmp_path / "history"
        metrics = run_bench(
            quick=True, output_path=None, history_dir=str(history), tag="t1"
        )
        archived = Path(metrics["archived_to"])
        assert archived == history / "BENCH_t1.json"
        payload = json.loads(archived.read_text())
        assert payload["tag"] == "t1"
        # The archived payload is the pre-archive snapshot: no self-reference.
        assert "archived_to" not in payload
        assert payload["wall_clock"] == metrics["wall_clock"]


def _write_history(tmp_path, runs):
    """Write tagged quick-shaped artifacts with strictly increasing mtimes."""
    history = tmp_path / "history"
    history.mkdir()
    for order, (tag, qps) in enumerate(runs):
        payload = {
            "tag": tag,
            "wall_clock": {
                "batched_qps": qps,
                "batched_vs_sequential_speedup": 2.0,
                "records_per_second": qps * 100,
            },
            "simulated_impir": {
                "p50_latency_seconds": 1e-4,
                "p99_latency_seconds": 2e-4,
            },
        }
        path = history / f"BENCH_{tag}.json"
        path.write_text(json.dumps(payload))
        stamp = 1_000_000_000 + order
        os.utime(path, (stamp, stamp))
    return history


class TestBenchTrajectory:
    def test_load_history_orders_by_mtime_and_labels_by_tag(self, tmp_path):
        compare = _load_tool("bench_compare")
        history = _write_history(tmp_path, [("new", 900.0), ("old", 400.0)])
        # "old" was written second, so it is the newest run despite its name.
        loaded = compare.load_history(str(history))
        assert [label for label, _ in loaded] == ["new", "old"]
        assert loaded[0][1]["wall_clock.batched_qps"] == 900.0

    def test_render_trajectory_one_row_per_run(self, tmp_path):
        compare = _load_tool("bench_compare")
        history = _write_history(tmp_path, [("aaa", 400.0), ("bbb", 900.0)])
        text = compare.render_trajectory(compare.load_history(str(history)))
        lines = text.splitlines()
        assert "batched q/s" in lines[0] and "p99 us" in lines[0]
        assert lines[1].startswith("aaa") and lines[2].startswith("bbb")
        assert "900.00" in lines[2]

    def test_main_directory_mode_prints_trajectory_and_full_diff(
        self, tmp_path, capsys
    ):
        compare = _load_tool("bench_compare")
        history = _write_history(tmp_path, [("first", 400.0), ("last", 900.0)])
        assert compare.main([str(history)]) == 0
        out = capsys.readouterr().out
        assert "first" in out and "last" in out
        assert "full diff, first -> last:" in out
        assert "+125.0%" in out  # 400 -> 900 qps

    def test_main_empty_directory_is_an_error(self, tmp_path, capsys):
        compare = _load_tool("bench_compare")
        empty = tmp_path / "empty"
        empty.mkdir()
        assert compare.main([str(empty)]) == 1
        assert "no BENCH_" in capsys.readouterr().err


class TestBenchCompare:
    def test_flatten_and_compare(self, tmp_path, capsys):
        compare = _load_tool("bench_compare")
        old = {"a": {"x": 2.0, "y": 4}, "label": "text", "ok": True}
        new = {"a": {"x": 3.0, "y": 4}, "extra": 1}
        old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
        old_path.write_text(json.dumps(old))
        new_path.write_text(json.dumps(new))

        flat = compare.flatten_numeric(old)
        assert flat == {"a.x": 2.0, "a.y": 4.0}  # strings/bools are not metrics

        assert compare.main([str(old_path), str(new_path)]) == 0
        text = capsys.readouterr().out
        assert "+50.0%" in text
        assert "added" in text

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        compare = _load_tool("bench_compare")
        assert compare.main([str(tmp_path / "nope.json"), str(tmp_path / "x")]) == 2

    def _write_pair(self, tmp_path, old, new):
        old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
        old_path.write_text(json.dumps(old))
        new_path.write_text(json.dumps(new))
        return str(old_path), str(new_path)

    def test_mismatched_shape_warns_on_stderr(self, tmp_path, capsys):
        compare = _load_tool("bench_compare")
        old_path, new_path = self._write_pair(
            tmp_path,
            {"shape": {"num_records": 1024}, "wall_clock": {"qps": 1.0}},
            {"shape": {"num_records": 4096}, "wall_clock": {"qps": 2.0}},
        )
        assert compare.main([old_path, new_path]) == 0
        captured = capsys.readouterr()
        assert "shape context differs" in captured.err
        assert "+100.0%" in captured.out  # the diff still prints

    def test_mismatched_hardware_warns_on_stderr(self, tmp_path, capsys):
        compare = _load_tool("bench_compare")
        old_path, new_path = self._write_pair(
            tmp_path,
            {"hardware": {"cpu_count": 1}, "wall_clock": {"qps": 1.0}},
            {"hardware": {"cpu_count": 64}, "wall_clock": {"qps": 2.0}},
        )
        assert compare.main([old_path, new_path]) == 0
        assert "hardware context differs" in capsys.readouterr().err

    def test_matching_context_stays_silent(self, tmp_path, capsys):
        compare = _load_tool("bench_compare")
        context = {"shape": {"num_records": 1024}, "hardware": {"cpu_count": 2}}
        old_path, new_path = self._write_pair(
            tmp_path,
            dict(context, wall_clock={"qps": 1.0}),
            dict(context, wall_clock={"qps": 2.0}),
        )
        assert compare.main([old_path, new_path]) == 0
        assert capsys.readouterr().err == ""

    def test_missing_hardware_section_on_one_side_warns(self, tmp_path, capsys):
        # Old artifacts predate the hardware section; comparing against a new
        # run should say so rather than silently diffing.
        compare = _load_tool("bench_compare")
        old_path, new_path = self._write_pair(
            tmp_path,
            {"wall_clock": {"qps": 1.0}},
            {"hardware": {"cpu_count": 2}, "wall_clock": {"qps": 2.0}},
        )
        assert compare.main([old_path, new_path]) == 0
        assert "hardware context differs" in capsys.readouterr().err


class TestVectorizedScanLint:
    def _check(self, tmp_path, relative, source):
        lint = _load_tool("lint")
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return lint.check_file(path)

    @pytest.mark.parametrize("package", ["pir", "core"])
    def test_per_record_loop_flagged(self, tmp_path, package):
        findings = self._check(
            tmp_path,
            f"src/repro/{package}/scan.py",
            "def scan(num_records):\n"
            "    total = 0\n"
            "    for i in range(num_records):\n"
            "        total += i\n"
            "    return total\n",
        )
        assert any("per-record Python loop" in message for _, message in findings)

    def test_attribute_bound_flagged(self, tmp_path):
        findings = self._check(
            tmp_path,
            "src/repro/pir/scan.py",
            "def scan(db):\n"
            "    for i in range(db.num_records):\n"
            "        pass\n",
        )
        assert any("per-record Python loop" in message for _, message in findings)

    def test_chunked_range_is_legal(self, tmp_path):
        findings = self._check(
            tmp_path,
            "src/repro/pir/scan.py",
            "def scan(num_records, chunk):\n"
            "    for start in range(0, num_records, chunk):\n"
            "        pass\n",
        )
        assert not findings

    def test_other_packages_unaffected(self, tmp_path):
        findings = self._check(
            tmp_path,
            "src/repro/bench/scan.py",
            "def scan(num_records):\n"
            "    for i in range(num_records):\n"
            "        pass\n",
        )
        assert not findings

    def test_noqa_suppresses(self, tmp_path):
        findings = self._check(
            tmp_path,
            "src/repro/core/scan.py",
            "def scan(num_records):\n"
            "    for i in range(num_records):  # noqa\n"
            "        pass\n",
        )
        assert not findings

    def test_repo_source_is_clean(self):
        lint = _load_tool("lint")
        total = []
        for path in lint.iter_python_files([str(REPO_ROOT / "src"), str(REPO_ROOT / "tools")]):
            total.extend(lint.check_file(path))
        assert total == []


class TestBatchedScanLint:
    def _check(self, tmp_path, relative, source):
        lint = _load_tool("lint")
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return lint.check_file(path)

    @pytest.mark.parametrize("package", ["shard", "pim"])
    @pytest.mark.parametrize("bound", ["batch", "batch_size"])
    def test_per_query_batch_loop_flagged(self, tmp_path, package, bound):
        findings = self._check(
            tmp_path,
            f"src/repro/{package}/scan.py",
            f"def scan({bound}):\n"
            f"    for i in range({bound}):\n"
            "        pass\n",
        )
        assert any(
            "per-query Python loop" in message for _, message in findings
        )

    def test_scan_kernel_module_flagged(self, tmp_path):
        # The per-row half-pass dpxor_many used to run must not come back.
        findings = self._check(
            tmp_path,
            "src/repro/pir/xor_ops.py",
            "def dpxor_many(batch):\n"
            "    for row in range(batch):\n"
            "        pass\n",
        )
        assert any(
            "per-query Python loop" in message for _, message in findings
        )

    def test_scan_kernel_group_walk_is_legal(self, tmp_path):
        findings = self._check(
            tmp_path,
            "src/repro/pir/xor_ops.py",
            "def dpxor_many(batch):\n"
            "    for group in range(0, batch, 8):\n"
            "        pass\n",
        )
        assert not findings

    def test_scan_kernel_noqa_suppresses(self, tmp_path):
        findings = self._check(
            tmp_path,
            "src/repro/pir/xor_ops.py",
            "def dpxor_many(batch):\n"
            "    for row in range(batch):  # noqa\n"
            "        pass\n",
        )
        assert not findings

    def test_rest_of_pir_package_unaffected(self, tmp_path):
        findings = self._check(
            tmp_path,
            "src/repro/pir/frontend.py",
            "def drain(batch):\n"
            "    for i in range(batch):\n"
            "        pass\n",
        )
        assert not findings

    @pytest.mark.parametrize("module", ["frontend.py", "async_frontend.py"])
    def test_per_request_key_generation_in_a_frontend_flagged(self, tmp_path, module):
        # Keys are generated once per flush (client.query_batch); a
        # client.query call in a frontend is one GGM walk per request again.
        source = "def submit(self, index):\n    return self.client.query(index){}\n"
        flagged = self._check(tmp_path, f"src/repro/pir/{module}", source.format(""))
        assert any("per-request key generation" in message for _, message in flagged)
        assert not self._check(tmp_path, f"src/repro/pir/{module}", source.format("  # noqa"))
        # query_batch is the sanctioned call, and other modules may call query.
        assert not self._check(
            tmp_path,
            f"src/repro/pir/{module}",
            "def flush(client, indices):\n    return client.query_batch(indices)\n",
        )
        assert not self._check(tmp_path, "src/repro/pir/protocol.py", source.format(""))

    def test_attribute_bound_flagged(self, tmp_path):
        findings = self._check(
            tmp_path,
            "src/repro/pim/scan.py",
            "def scan(job):\n"
            "    for i in range(job.batch_size):\n"
            "        pass\n",
        )
        assert any(
            "per-query Python loop" in message for _, message in findings
        )

    def test_chunked_range_is_legal(self, tmp_path):
        findings = self._check(
            tmp_path,
            "src/repro/shard/scan.py",
            "def scan(batch, chunk):\n"
            "    for start in range(0, batch, chunk):\n"
            "        pass\n",
        )
        assert not findings

    def test_other_packages_unaffected(self, tmp_path):
        findings = self._check(
            tmp_path,
            "src/repro/bench/scan.py",
            "def scan(batch):\n"
            "    for i in range(batch):\n"
            "        pass\n",
        )
        assert not findings

    def test_noqa_suppresses(self, tmp_path):
        findings = self._check(
            tmp_path,
            "src/repro/shard/scan.py",
            "def scan(batch):\n"
            "    for i in range(batch):  # noqa\n"
            "        pass\n",
        )
        assert not findings


class TestPrintLint:
    def _check(self, tmp_path, relative, source):
        lint = _load_tool("lint")
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return lint.check_file(path)

    def test_print_flagged_in_library_code(self, tmp_path):
        findings = self._check(
            tmp_path,
            "src/repro/obs/report.py",
            "def report(value):\n    print(value)\n",
        )
        assert any("bare print()" in message for _, message in findings)

    @pytest.mark.parametrize("basename", ["cli.py", "__main__.py"])
    def test_cli_entry_points_exempt(self, tmp_path, basename):
        findings = self._check(
            tmp_path,
            f"src/repro/bench/{basename}",
            "def main():\n    print('ok')\n",
        )
        assert not findings

    def test_non_repro_packages_unaffected(self, tmp_path):
        findings = self._check(
            tmp_path,
            "src/other/mod.py",
            "def show(value):\n    print(value)\n",
        )
        assert not findings

    def test_noqa_suppresses(self, tmp_path):
        findings = self._check(
            tmp_path,
            "src/repro/obs/report.py",
            "def report(value):\n    print(value)  # noqa\n",
        )
        assert not findings


class TestEventLoopClockLint:
    """``loop.time()`` is a wall clock in disguise; banned where clocks are injected."""

    def _check(self, tmp_path, relative, source):
        lint = _load_tool("lint")
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return lint.check_file(path)

    @pytest.mark.parametrize("package", ["control", "shard"])
    def test_direct_loop_time_flagged(self, tmp_path, package):
        findings = self._check(
            tmp_path,
            f"src/repro/{package}/driver.py",
            "import asyncio\n"
            "\n"
            "\n"
            "def now():\n"
            "    return asyncio.get_running_loop().time()\n",
        )
        assert any("event-loop clock" in message for _, message in findings)

    @pytest.mark.parametrize("getter", ["get_running_loop", "get_event_loop"])
    def test_aliased_loop_time_flagged(self, tmp_path, getter):
        findings = self._check(
            tmp_path,
            "src/repro/control/driver.py",
            "import asyncio\n"
            "\n"
            "\n"
            "def now():\n"
            f"    loop = asyncio.{getter}()\n"
            "    return loop.time()\n",
        )
        assert any("event-loop clock" in message for _, message in findings)

    def test_other_packages_may_read_the_loop_clock(self, tmp_path):
        # The asyncio frontend legitimately schedules flush deadlines off the
        # loop clock; only the simulated-clock packages are restricted.
        findings = self._check(
            tmp_path,
            "src/repro/pir/async_frontend.py",
            "import asyncio\n"
            "\n"
            "\n"
            "def deadline(wait):\n"
            "    return asyncio.get_running_loop().time() + wait\n",
        )
        assert not findings

    def test_noqa_suppresses(self, tmp_path):
        findings = self._check(
            tmp_path,
            "src/repro/control/driver.py",
            "import asyncio\n"
            "\n"
            "\n"
            "def now():\n"
            "    return asyncio.get_running_loop().time()  # noqa\n",
        )
        assert not findings


class TestBackendSurveyAndDpuModel:
    def test_quick_metrics_include_survey_and_pipeline_rows(self):
        metrics = run_bench(quick=True, output_path=None)

        survey = metrics["backend_survey"]
        assert [row["backend"] for row in survey] == [
            "reference",
            "sharded",
            "im-pir-streamed",
        ]
        assert survey[0]["cores"] == 1
        for row in survey:
            assert row["records_per_second"] > 0
            assert row["records_per_second_per_core"] == pytest.approx(
                row["records_per_second"] / row["cores"]
            )

        pipeline = metrics["dpu_pipeline"]
        assert [(row["backend"], row["num_dpus"]) for row in pipeline] == [
            ("im-pir", 8),
            ("im-pir-streamed", 4),
        ]
        stage_keys = {
            "broadcast_seconds",
            "launch_seconds",
            "kernel_seconds",
            "gather_seconds",
            "fold_seconds",
        }
        for row in pipeline:
            assert row["records_per_second_per_dpu"] > 0
            assert set(row["stages"]) == stage_keys
            assert row["per_query_seconds"] == pytest.approx(
                sum(row["stages"].values())
            )

        text = render_bench(metrics)
        assert "backend survey" in text
        assert "DPU pipeline cost model" in text

    def test_dpu_pipeline_model_is_deterministic(self):
        assert dpu_pipeline_model(2048, 64) == dpu_pipeline_model(2048, 64)

    def test_dpu_pipeline_batched_view_amortizes(self):
        for row in dpu_pipeline_model(2048, 64, batch_size=16):
            batched = row["batched"]
            assert batched["batch_size"] == 16
            # Fixed per-dispatch charges amortise; per-row work never does,
            # so the per-query cost drops but stays above the kernel+fold floor.
            assert batched["per_query_seconds"] < row["per_query_seconds"]
            floor = (
                row["stages"]["kernel_seconds"] + row["stages"]["fold_seconds"]
            )
            assert batched["per_query_seconds"] > floor
            assert batched["amortized_speedup"] > 1.0


class TestCrossoverSweep:
    def test_quick_metrics_include_sweep_and_hardware(self):
        metrics = run_bench(quick=True, output_path=None)

        hardware = metrics["hardware"]
        assert hardware["cpu_count"] >= 1
        assert hardware["numpy_version"]
        assert isinstance(hardware["thread_env"], dict)

        sweep = metrics["crossover_sweep"]
        grid = sweep["grid"]
        seen = {(row["num_shards"], row["executor"]) for row in grid}
        assert seen == {
            (shards, executor)
            for shards in (1, 2, 4)
            for executor in ("serial", "threads")
        }
        for row in grid:
            assert row["scan_seconds"] > 0
            assert row["records_per_second"] > 0

        calibrations = sweep["scan_tuner"]
        assert calibrations, "the sweep must record at least one calibration"
        for calibration in calibrations:
            assert calibration["executor"] in ("serial", "threads")
            assert calibration["num_workers"] >= 2
            assert calibration["threads_speedup"] > 0

        text = render_bench(metrics)
        assert "crossover sweep" in text
        assert "tuner verdict" in text
