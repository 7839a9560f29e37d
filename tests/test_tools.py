"""The repo's own tooling: ``tools/bench_compare.py`` and the ``tools/lint.py`` rules."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        f"tools_{name}", REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


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
        roots = [str(REPO_ROOT / name) for name in ("src", "tools", "tests", "examples")]
        for path in lint.iter_python_files(roots):
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
        assert not self._check(tmp_path, "src/repro/core/impir.py", source.format(""))

    def test_per_query_scan_hook_flagged(self, tmp_path):
        # charge_many is the one backend hook (execute_many the one scan, on
        # PIRBackend only); a class growing an `execute` method is the
        # per-query twin coming back.
        source = (
            "class Backend:\n"
            "    def {}(self, selector_matrix, breakdowns, lanes):{}\n"
            "        return selector_matrix\n"
        )
        flagged = self._check(
            tmp_path, "src/repro/core/backend.py", source.format("execute", "")
        )
        assert any("per-query scan hook" in message for _, message in flagged)
        assert not self._check(
            tmp_path, "src/repro/core/backend.py", source.format("execute", "  # noqa")
        )
        assert not self._check(
            tmp_path, "src/repro/core/backend.py", source.format("charge_many", "")
        )
        # Module-level functions and code outside the library are not hooks.
        assert not self._check(
            tmp_path, "src/repro/core/run.py", "def execute(plan):\n    return plan\n"
        )
        assert not self._check(tmp_path, "tools/runner.py", source.format("execute", ""))

    def test_per_row_tolist_loop_in_pim_flagged(self, tmp_path):
        # The kernel's old scalar cost loop, one dpxor_kernel_cost per row.
        source = (
            "def cost(selected_per_row):\n"
            "    total = 0.0\n"
            "    for selected in selected_per_row.tolist():{}\n"
            "        total += selected\n"
            "    return total\n"
        )
        flagged = self._check(tmp_path, "src/repro/pim/kernels.py", source.format(""))
        assert any("per-row Python loop" in message for _, message in flagged)
        assert not self._check(tmp_path, "src/repro/pim/kernels.py", source.format("  # noqa"))

    def test_tolist_outside_a_loop_or_outside_pim_is_legal(self, tmp_path):
        # Converting once (zip over a .tolist(), a return value) and loops in
        # other packages stay legal: only `for ... in <expr>.tolist()` in pim.
        assert not self._check(
            tmp_path,
            "src/repro/pim/system.py",
            "def charge(dpus, seconds):\n"
            "    for dpu, value in zip(dpus, seconds.tolist()):\n"
            "        dpu.busy_seconds += value\n"
            "    return seconds.tolist()\n",
        )
        assert not self._check(
            tmp_path,
            "src/repro/core/partitioning.py",
            "def cost(counts):\n"
            "    for count in counts.tolist():\n"
            "        pass\n",
        )

    @pytest.mark.parametrize("bound", ["count", "num_keys", "self.num_keys"])
    def test_per_key_loop_in_the_dpf_package_flagged(self, tmp_path, bound):
        # The per-key cut-up of a key batch into key objects must not return.
        source = (
            "def cut(self, count, num_keys):\n"
            f"    for row in range({bound}):{{}}\n"
            "        pass\n"
        )
        flagged = self._check(tmp_path, "src/repro/dpf/dpf.py", source.format(""))
        assert any("per-key Python loop" in message for _, message in flagged)
        assert not self._check(tmp_path, "src/repro/dpf/dpf.py", source.format("  # noqa"))

    def test_chunked_or_other_loops_over_a_key_count_are_legal(self, tmp_path):
        # Chunk walks and other bounds in the dpf package, and loops over a
        # count in other packages, stay legal.
        assert not self._check(
            tmp_path,
            "src/repro/dpf/traversal.py",
            "def walk(count, num_chunks):\n"
            "    for start in range(0, count, 8):\n"
            "        pass\n"
            "    for chunk in range(num_chunks):\n"
            "        pass\n",
        )
        assert not self._check(
            tmp_path,
            "src/repro/core/engine.py",
            "def walk(count):\n"
            "    for row in range(count):\n"
            "        pass\n",
        )

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


class TestOneServerClassLint:
    """Every kind is ``repro/pir/server.py``'s ``PIRServer`` over a backend."""

    def _check(self, tmp_path, relative, source):
        lint = _load_tool("lint")
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return lint.check_file(path)

    @pytest.mark.parametrize(
        "relative,name",
        [
            ("src/repro/cpu/cpu_pir.py", "CPUPIRServer"),
            ("src/repro/shard/backend.py", "ShardedServer"),
            ("src/repro/pir/frontend.py", "PIRServer"),
            ("src/repro/pir/server.py", "StreamedServer"),
        ],
    )
    def test_second_server_class_flagged(self, tmp_path, relative, name):
        source = f"class {name}:{{}}\n    pass\n"
        flagged = self._check(tmp_path, relative, source.format(""))
        assert any("second server class" in message for _, message in flagged)
        assert not self._check(tmp_path, relative, source.format("  # noqa"))

    def test_the_server_and_other_names_are_legal(self, tmp_path):
        assert not self._check(
            tmp_path, "src/repro/pir/server.py", "class PIRServer:\n    pass\n"
        )
        assert not self._check(
            tmp_path,
            "src/repro/pir/server.py",
            "class ServerStats:\n    pass\n\n\nclass ServerPool:\n    pass\n",
        )
        # Outside the library (tests, examples) doubles may be named freely.
        assert not self._check(
            tmp_path, "tests/test_doubles.py", "class FakeServer:\n    pass\n"
        )


class TestOneScanLint:
    """Backends price a batch in ``charge_many``; the one scan is
    ``PIRBackend.execute_many``, the only ``dpxor_many`` call of the serving
    path."""

    def _check(self, tmp_path, relative, source):
        lint = _load_tool("lint")
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return lint.check_file(path)

    _OVERRIDE = (
        "class {}:\n"
        "    def execute_many(self, selector_matrix, breakdowns, lanes):{}\n"
        "        return selector_matrix\n"
    )
    _CALL = (
        "from repro.pir.xor_ops import dpxor_many\n\n\n"
        "class {}:\n"
        "    def {}(self, selector_matrix, breakdowns, lanes):\n"
        "        return dpxor_many(self._database.records, selector_matrix){}\n"
    )

    @pytest.mark.parametrize(
        "relative,name",
        [
            ("src/repro/shard/backend.py", "ShardedBackend"),
            ("src/repro/core/impir.py", "PIMClusterBackend"),
            ("src/repro/core/engine.py", "ReferenceBackend"),
            ("src/repro/core/base.py", "PIRBackend"),
        ],
    )
    def test_execute_many_override_flagged(self, tmp_path, relative, name):
        flagged = self._check(tmp_path, relative, self._OVERRIDE.format(name, ""))
        assert any("execute_many overridden" in message for _, message in flagged)
        assert not self._check(tmp_path, relative, self._OVERRIDE.format(name, "  # noqa"))

    @pytest.mark.parametrize(
        "relative,source",
        [
            ("src/repro/core/streaming.py", _CALL.format("StreamedPIMBackend", "charge_many", "{}")),
            ("src/repro/core/engine.py", _CALL.format("ReferenceBackend", "charge_many", "{}")),
            ("src/repro/core/engine.py", _CALL.format("PIRBackend", "charge_many", "{}")),
            (
                "src/repro/shard/backend.py",
                "from repro.pir import xor_ops\n\n\n"
                "def scan(records, selectors):\n"
                "    return xor_ops.dpxor_many(records, selectors){}\n",
            ),
        ],
    )
    def test_stray_dpxor_many_call_flagged(self, tmp_path, relative, source):
        flagged = self._check(tmp_path, relative, source.format(""))
        assert any("dpxor_many called outside" in message for _, message in flagged)
        assert not self._check(tmp_path, relative, source.format("  # noqa"))

    def test_the_one_scan_and_its_homes_are_legal(self, tmp_path):
        assert not self._check(
            tmp_path,
            "src/repro/core/engine.py",
            self._OVERRIDE.format("PIRBackend", "")
            + "\n\n" + self._CALL.format("PIRBackend", "execute_many", ""),
        )
        for relative in ("src/repro/pir/xor_ops.py", "src/repro/pim/kernels.py"):
            assert not self._check(
                tmp_path, relative, self._CALL.format("Kernel", "run", "")
            )
        # Pricing methods, module functions named alike and code outside the
        # library (tests, benches) are not scan sites.
        assert not self._check(
            tmp_path,
            "src/repro/core/impir.py",
            "class PIMClusterBackend:\n"
            "    def charge_many(self, selector_matrix, breakdowns, lanes):\n"
            "        return None\n",
        )
        assert not self._check(
            tmp_path, "tests/test_double.py", self._OVERRIDE.format("CountingBackend", "")
        )
        assert not self._check(
            tmp_path, "benchmarks/bench_scan.py", self._CALL.format("Bench", "run", "")
        )


class TestThreadedAnswerBatchLint:
    """Replicas answer on the calling thread: no ``answer_batch`` in a worker."""

    def _check(self, tmp_path, relative, source):
        lint = _load_tool("lint")
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return lint.check_file(path)

    @pytest.mark.parametrize(
        "source",
        [
            "import asyncio\n\n\nasync def flush(replica, queries):\n"
            "    return await asyncio.to_thread(replica.answer_batch, queries){}\n",
            "from asyncio import to_thread\n\n\nasync def flush(replica, queries):\n"
            "    return await to_thread(replica.answer_batch, queries){}\n",
            "import asyncio\n\n\nasync def flush(replica, queries):\n"
            "    loop = asyncio.get_running_loop()\n"
            "    return await loop.run_in_executor(None, replica.answer_batch, queries){}\n",
        ],
    )
    def test_answer_batch_in_a_worker_thread_flagged(self, tmp_path, source):
        relative = "src/repro/pir/async_frontend.py"
        flagged = self._check(tmp_path, relative, source.format(""))
        assert any("answer_batch handed to a worker thread" in m for _, m in flagged)
        assert not self._check(tmp_path, relative, source.format("  # noqa"))

    def test_inline_answers_other_callables_and_tests_are_legal(self, tmp_path):
        assert not self._check(
            tmp_path,
            "src/repro/pir/async_frontend.py",
            "import asyncio\n\n\nasync def write(replica, updates, mutator):\n"
            "    await asyncio.to_thread(replica.apply_updates, updates)\n"
            "    await asyncio.to_thread(mutator)\n"
            "    return [replica.answer_batch(q) for q in updates]\n",
        )
        assert not self._check(
            tmp_path,
            "tests/test_threads.py",
            "import asyncio\n\n\nasync def flush(replica, queries):\n"
            "    return await asyncio.to_thread(replica.answer_batch, queries)\n",
        )


class TestAssertionErrorLint:
    """Scenario checks live in ``tests/`` and ``examples/``, not the library."""

    def _check(self, tmp_path, relative, source):
        lint = _load_tool("lint")
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return lint.check_file(path)

    @pytest.mark.parametrize("raised", ["AssertionError", "AssertionError('drift')"])
    def test_raise_assertion_error_flagged(self, tmp_path, raised):
        source = f"def check(ok):\n    if not ok:\n        raise {raised}{{}}\n"
        flagged = self._check(tmp_path, "src/repro/bench/checks.py", source.format(""))
        assert any("raise AssertionError" in message for _, message in flagged)
        assert not self._check(
            tmp_path, "src/repro/bench/checks.py", source.format("  # noqa")
        )

    def test_tests_and_other_errors_are_legal(self, tmp_path):
        source = "def check(ok):\n    if not ok:\n        raise AssertionError('drift')\n"
        assert not self._check(tmp_path, "tests/test_checks.py", source)
        assert not self._check(
            tmp_path,
            "src/repro/bench/checks.py",
            "def check(ok):\n    if not ok:\n        raise ValueError('drift')\n",
        )


class TestUnpackbitsLint:
    """Selectors stay packed: only ``repro/dpf/dpf.py`` may unpack them."""

    def _check(self, tmp_path, relative, source):
        lint = _load_tool("lint")
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return lint.check_file(path)

    @pytest.mark.parametrize(
        "relative,source",
        [
            (
                "src/repro/core/engine.py",
                "import numpy as np\n\n\ndef bits(packed):\n"
                "    return np.unpackbits(packed, bitorder='little'){}\n",
            ),
            (
                "src/repro/pim/kernels.py",
                "from numpy import unpackbits{}\n\n\ndef bits(packed):\n"
                "    return unpackbits(packed)\n",
            ),
            (
                "src/repro/dpf/ggm.py",
                "import numpy\n\n\ndef bits(packed):\n    return numpy.unpackbits(packed){}\n",
            ),
        ],
    )
    def test_unpackbits_in_library_code_flagged(self, tmp_path, relative, source):
        flagged = self._check(tmp_path, relative, source.format(""))
        assert any("unpackbits in library code" in message for _, message in flagged)
        assert not self._check(tmp_path, relative, source.format("  # noqa"))

    def test_the_dpf_module_and_tests_are_legal(self, tmp_path):
        source = "import numpy as np\n\n\ndef bits(packed):\n    return np.unpackbits(packed)\n"
        assert not self._check(tmp_path, "src/repro/dpf/dpf.py", source)
        assert not self._check(tmp_path, "tests/test_selectors.py", source)
        assert not self._check(
            tmp_path,
            "src/repro/pir/xor_ops.py",
            "import numpy as np\n\n\ndef pack(bits):\n    return np.packbits(bits)\n",
        )


class TestCipherImportLint:
    """The AES primitive has one home: only ``repro/dpf/prf.py`` imports ``cryptography``."""

    def _check(self, tmp_path, relative, source):
        lint = _load_tool("lint")
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return lint.check_file(path)

    @pytest.mark.parametrize(
        "relative,source",
        [
            (
                "src/repro/pir/client.py",
                "from cryptography.hazmat.primitives.ciphers import Cipher{}\n\n\n"
                "def cipher():\n    return Cipher\n",
            ),
            (
                "src/repro/core/engine.py",
                "import cryptography.hazmat.primitives.ciphers{}\n\n\n"
                "def ciphers():\n    return cryptography.hazmat.primitives.ciphers\n",
            ),
            (
                "src/repro/dpf/dpf.py",
                "from cryptography import utils{}\n\n\ndef helpers():\n    return utils\n",
            ),
        ],
    )
    def test_cryptography_in_library_code_flagged(self, tmp_path, relative, source):
        flagged = self._check(tmp_path, relative, source.format(""))
        assert any("cryptography imported in library code" in m for _, m in flagged)
        assert not self._check(tmp_path, relative, source.format("  # noqa"))

    def test_the_prg_module_tests_and_lookalikes_are_legal(self, tmp_path):
        source = (
            "from cryptography.hazmat.primitives.ciphers import Cipher\n\n\n"
            "def cipher():\n    return Cipher\n"
        )
        assert not self._check(tmp_path, "src/repro/dpf/prf.py", source)
        assert not self._check(tmp_path, "tests/aes_oracle.py", source)
        assert not self._check(
            tmp_path,
            "src/repro/pir/serialization.py",
            "from repro.dpf import prf\nimport cryptographic_helpers\n\n\n"
            "def both():\n    return prf, cryptographic_helpers\n",
        )


class TestLoopFreeFlushLint:
    """The shared flush pipeline in ``repro/pir/frontend.py`` never imports ``asyncio``."""

    def _check(self, tmp_path, relative, source):
        lint = _load_tool("lint")
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return lint.check_file(path)

    @pytest.mark.parametrize(
        "source",
        [
            "import asyncio{}\n\n\ndef loop():\n    return asyncio.get_running_loop()\n",
            "from asyncio import gather{}\n\n\ndef fan_out():\n    return gather\n",
            "import asyncio.events{}\n\n\ndef events():\n    return asyncio.events\n",
        ],
    )
    def test_asyncio_in_the_sync_frontend_flagged(self, tmp_path, source):
        flagged = self._check(tmp_path, "src/repro/pir/frontend.py", source.format(""))
        assert any("asyncio imported in repro/pir/frontend.py" in m for _, m in flagged)
        assert not self._check(
            tmp_path, "src/repro/pir/frontend.py", source.format("  # noqa")
        )

    def test_the_async_frontend_and_loop_free_code_are_legal(self, tmp_path):
        source = "import asyncio\n\n\ndef loop():\n    return asyncio.get_running_loop()\n"
        assert not self._check(tmp_path, "src/repro/pir/async_frontend.py", source)
        assert not self._check(tmp_path, "src/repro/control/autoscaler.py", source)
        assert not self._check(
            tmp_path,
            "src/repro/pir/frontend.py",
            "import asyncore_helpers\n\n\ndef flush(plan):\n    return asyncore_helpers, plan\n",
        )
        shipped = (REPO_ROOT / "src" / "repro" / "pir" / "frontend.py").read_text()
        assert not self._check(tmp_path, "src/repro/pir/frontend.py", shipped)


class TestPerFlushMessageLint:
    """The client, frontend and engine never build one-row messages per row."""

    def _check(self, tmp_path, relative, source):
        lint = _load_tool("lint")
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return lint.check_file(path)

    MODULES = ["src/repro/pir/client.py", "src/repro/pir/frontend.py", "src/repro/core/engine.py"]

    @pytest.mark.parametrize("module", MODULES)
    @pytest.mark.parametrize(
        "source",
        [
            "def split(batch):\n"
            "    return [DPFQuery(q, 0, key, 8) for q, key in batch]{}\n",
            "def answers(ids, rows):\n"
            "    out = []\n"
            "    for query_id, row in zip(ids, rows):\n"
            "        out.append(messages.PIRAnswer(query_id, 0, row)){}\n"
            "    return out\n",
            "def rows(ids, keys):\n"
            "    return {{q: DPFQuery(q, 1, keys[q], 8) for q in ids}}{}\n",
        ],
    )
    def test_row_message_in_a_loop_flagged(self, tmp_path, module, source):
        flagged = self._check(tmp_path, module, source.format(""))
        assert any("one-row message" in message for _, message in flagged)
        assert not self._check(tmp_path, module, source.format("  # noqa"))

    def test_single_rows_and_other_modules_are_legal(self, tmp_path):
        # One message outside any loop is the one-query form; indexing a
        # batch (in messages.py / results.py) is where rows are built.
        single = "def one(query_id, key):\n    return DPFQuery(query_id, 0, key, 8)\n"
        looped = "def rows(ids, key):\n    return [DPFQuery(q, 0, key, 8) for q in ids]\n"
        for module in self.MODULES:
            assert not self._check(tmp_path, module, single)
        assert not self._check(tmp_path, "src/repro/pir/messages.py", looped)
        assert not self._check(tmp_path, "src/repro/core/results.py", looped)
        for module in self.MODULES:
            shipped = (REPO_ROOT / module).read_text()
            assert not self._check(tmp_path, module, shipped)


class TestExecutingDPULint:
    """Serving charges a ``DPULedger``; only tests and benches build ``DPU`` objects."""

    def _check(self, tmp_path, relative, source):
        lint = _load_tool("lint")
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return lint.check_file(path)

    @pytest.mark.parametrize(
        "relative,source",
        [
            (
                "src/repro/pim/system.py",
                "from repro.pim.dpu import DPU\n\n\ndef population(config):\n"
                "    return [DPU(i, config.dpu) for i in range(config.num_dpus)]{}\n",
            ),
            (
                "src/repro/core/impir.py",
                "from repro.pim import dpu\n\n\ndef one(config):\n"
                "    return dpu.DPU(0, config=config){}\n",
            ),
        ],
    )
    def test_dpu_construction_in_library_code_flagged(self, tmp_path, relative, source):
        flagged = self._check(tmp_path, relative, source.format(""))
        assert any("executing DPU(...)" in message for _, message in flagged)
        assert not self._check(tmp_path, relative, source.format("  # noqa"))

    def test_tests_benches_and_the_dpu_module_are_legal(self, tmp_path):
        source = "from repro.pim.dpu import DPU\n\n\ndef one():\n    return DPU(0)\n"
        assert not self._check(tmp_path, "tests/test_oracle.py", source)
        assert not self._check(tmp_path, "benchmarks/bench_kernel.py", source)
        assert not self._check(
            tmp_path,
            "src/repro/pim/dpu.py",
            "class DPU:\n    pass\n\n\ndef make():\n    return DPU()\n",
        )
        assert not self._check(
            tmp_path,
            "src/repro/pim/system.py",
            "from repro.pim.dpu import DPUExecutionReport\n\n\n"
            "def report(**kwargs):\n    return DPUExecutionReport(**kwargs)\n",
        )


class TestQueryBatchProducerLint:
    """The client and ``QueryBatch.stack`` are the only producers of query batches."""

    def _check(self, tmp_path, relative, source):
        lint = _load_tool("lint")
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return lint.check_file(path)

    @pytest.mark.parametrize(
        "relative,source",
        [
            (
                "src/repro/core/engine.py",
                "from repro.pir.messages import QueryBatch\n\n\ndef batch(ids, keys):\n"
                "    return QueryBatch(0, ids, 8, keys){}\n",
            ),
            (
                "src/repro/pir/frontend.py",
                "from repro.pir import messages\n\n\ndef batch(ids, keys):\n"
                "    return messages.QueryBatch(1, ids, 8, keys){}\n",
            ),
        ],
    )
    def test_query_batch_built_elsewhere_flagged(self, tmp_path, relative, source):
        flagged = self._check(tmp_path, relative, source.format(""))
        assert any("QueryBatch(...) built" in message for _, message in flagged)
        assert not self._check(tmp_path, relative, source.format("  # noqa"))

    def test_client_messages_stack_and_tests_are_legal(self, tmp_path):
        built = (
            "from repro.pir.messages import QueryBatch\n\n\ndef batch(ids, keys):\n"
            "    return QueryBatch(0, ids, 8, keys)\n"
        )
        for relative in ("src/repro/pir/client.py", "src/repro/pir/messages.py", "tests/test_x.py"):
            assert not self._check(tmp_path, relative, built)
        stacked = (
            "from repro.pir.messages import QueryBatch\n\n\ndef batch(rows):\n"
            "    return QueryBatch.stack(rows)\n"
        )
        assert not self._check(tmp_path, "src/repro/core/engine.py", stacked)

    def test_shipped_library_is_clean(self):
        lint = _load_tool("lint")
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            assert not [
                finding for finding in lint.check_file(path) if "QueryBatch(...)" in finding[1]
            ], path


class TestCorrectionTableLint:
    """A DPF walk tables its keys' correction words once, before its level loop."""

    def _check(self, tmp_path, relative, source):
        lint = _load_tool("lint")
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return lint.check_file(path)

    @pytest.mark.parametrize(
        "relative,source",
        [
            (
                "src/repro/dpf/dpf.py",
                "from repro.dpf.ggm import correction_tables\n\n\n"
                "def walk(keys, depth):\n"
                "    for level in range(depth):\n"
                "        tables = correction_tables(keys.cw_seeds[:, level:], cw_bits){}\n"
                "    return tables\n",
            ),
            (
                "src/repro/dpf/traversal.py",
                "from repro.dpf import ggm\n\n\n"
                "def walk(keys, depth):\n"
                "    level = 0\n"
                "    while level < depth:\n"
                "        tables = ggm.correction_tables(keys.cw_seeds, keys.cw_bits){}\n"
                "        level += 1\n"
                "    return tables\n",
            ),
            (
                "src/repro/dpf/dpf.py",
                "from repro.dpf.ggm import expand_level\n\n\n"
                "def walk(prg, keys, seeds, controls, depth):\n"
                "    for level in range(depth):\n"
                "        seeds, controls = expand_level(prg, seeds, controls, *keys[level]){}\n"
                "    return seeds, controls\n",
            ),
            (
                "src/repro/dpf/traversal.py",
                "def leaves(dpf, keys, num_chunks, depth):\n"
                "    for chunk in range(num_chunks):\n"
                "        root = dpf.descend(keys, [chunk], depth=depth){}\n"
                "        yield dpf.expand_front(keys, *root, first_level=depth)\n",
            ),
        ],
    )
    def test_tables_built_per_iteration_flagged(self, tmp_path, relative, source):
        flagged = self._check(tmp_path, relative, source.format(""))
        assert [message for _, message in flagged if "correction tables" in message]
        assert not self._check(tmp_path, relative, source.format("  # noqa"))

    def test_tables_built_once_per_walk_are_legal(self, tmp_path):
        # The loop's iterable is evaluated once; other packages and tests may
        # build tables wherever they like.
        once = (
            "from repro.dpf.ggm import correction_tables, corrected_children\n\n\n"
            "def walk(prg, keys, seeds, controls):\n"
            "    for seed_table, bit_table in zip(*correction_tables(keys.cw_seeds, keys.cw_bits)):\n"
            "        seeds, controls = corrected_children(prg, seeds, controls, seed_table, bit_table)\n"
            "    return seeds, controls\n"
        )
        looped = (
            "from repro.dpf.ggm import correction_tables\n\n\n"
            "def tables(batches):\n"
            "    for keys in batches:\n"
            "        yield correction_tables(keys.cw_seeds, keys.cw_bits)\n"
        )
        chunked = (
            "import numpy as np\n\n\n"
            "def leaves(dpf, keys, num_chunks, depth):\n"
            "    roots, controls = dpf.descend(keys, np.arange(num_chunks), depth=depth)\n"
            "    for chunk in range(num_chunks):\n"
            "        root = slice(chunk, chunk + 1)\n"
            "        yield dpf.expand_front(keys, roots[root], controls[root], first_level=depth)\n"
        )
        assert not self._check(tmp_path, "src/repro/dpf/dpf.py", once)
        assert not self._check(tmp_path, "src/repro/dpf/traversal.py", chunked)
        assert not self._check(tmp_path, "tests/test_walk.py", looped)
        assert not self._check(tmp_path, "src/repro/core/engine.py", looped)

    def test_shipped_dpf_package_is_clean(self, tmp_path):
        for shipped in sorted((REPO_ROOT / "src/repro/dpf").glob("*.py")):
            relative = f"src/repro/dpf/{shipped.name}"
            assert not self._check(tmp_path, relative, shipped.read_text()), relative


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
