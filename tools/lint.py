#!/usr/bin/env python3
"""Dependency-free lint for the repo: unused imports and duplicate imports.

The container ships no third-party linter, so ``make check`` runs this small
AST pass instead.  It flags:

* imported names never referenced in the module (including in annotations
  and in ``__all__`` export lists);
* the same name imported more than once in a module;
* wildcard imports from the library itself (``from repro... import *``),
  which defeat both checks above and hide a module's real dependencies;
* ``asyncio.get_event_loop()`` — deprecated outside a running loop; library
  code must use ``asyncio.get_running_loop()`` (or ``asyncio.run`` at the
  top level) so it never implicitly creates a loop;
* wall-clock reads under ``src/repro/control/``, ``src/repro/shard/`` and
  ``src/repro/obs/`` —
  ``time.time()``, ``time.monotonic()``, ``time.perf_counter()``,
  ``time.sleep()`` (through any ``import time as ...`` alias), ``from time
  import ...`` and the ``datetime`` module — the control plane, the
  shard layer it mutates (topology swaps, live migrations) and the
  observability layer judging them (SLO windows, burn-rate alerts, incident
  bundles) run on the simulated clock only (``now`` comes from the caller),
  which is what keeps rebalancing, reshape and alerting decisions
  deterministic and unit-testable;
* event-loop clock reads under the same packages —
  ``asyncio.get_running_loop().time()`` / ``get_event_loop().time()``,
  directly or through a name assigned from either getter — ``loop.time``
  is the asyncio spelling of ``time.monotonic()``, and the autoscaler's
  control driver must have its clock *injected* by the caller instead
  (production passes the loop's ``time`` from outside the package, tests
  pass a simulated clock);
* per-record Python loops (single-argument ``for ... in range(num_records)``)
  under ``src/repro/pir/`` and ``src/repro/core/`` — data-plane scans must go
  through the vectorised kernels; chunked ``range(start, stop, step)`` walks
  remain legal;
* per-query Python loops over the batch dimension (single-argument
  ``for ... in range(batch)`` / ``range(batch_size)``) under
  ``src/repro/shard/`` and ``src/repro/pim/`` and in the scan kernels
  themselves (``src/repro/pir/xor_ops.py``) — the batched scan and kernel
  paths exist precisely so nothing walks a batch query by query in Python;
  as with the per-record rule, chunked ranges (``dpxor_many``'s group walk
  ``range(0, batch, GROUP_ROWS)``) stay legal;
* per-key Python loops over a key batch (single-argument ``for ... in
  range(count)`` / ``range(num_keys)``) under ``src/repro/dpf/`` — keys are
  arrays (``DPFKeys``) and every walk is one call per level for the whole
  batch; a loop over the key count is the per-key cut-up into key objects
  coming back;
* a ``correction_tables(``, ``expand_level(`` or ``gated(`` call (bare or
  as an attribute) inside the body of a ``for`` / ``while`` loop under
  ``src/repro/dpf/`` — a walk tables its keys' correction words once, before
  its level loop (``repro/dpf/ggm.py``); ``expand_level`` and ``gated``
  build a table for one level or one correction.  A walk building a
  zero-padded table per level per array took 1.2x the time of the tabled
  walk at 2^16 points and B = 8 (2-vCPU VM);
* per-row Python loops over an array's elements (``for ... in
  <expr>.tolist()``) under ``src/repro/pim/`` — the same per-query loop in
  another spelling: simulated costs are priced for a whole ``(B, P)``
  popcount matrix at once (``timing.dpxor_launch_seconds``);
* an ``asyncio`` import (``import asyncio...`` or ``from asyncio... import``)
  in ``src/repro/pir/frontend.py`` — the flush pipeline both frontends share
  (``BatchingFrontend.begin_flush`` / ``finish_flush``) stays loop-free,
  which is what keeps the sync frontend deterministic; only
  ``async_frontend.py`` touches the event loop;
* ``asyncio.to_thread(<x>.answer_batch, ...)`` or
  ``<loop>.run_in_executor(<executor>, <x>.answer_batch, ...)`` anywhere
  under ``src/repro/`` — a replica's batch is answered on the calling thread
  (the async frontend's loop thread); in one CPython process, threads
  answering replicas measured 1.02–1.77× slower than calling them in
  sequence on 2 vCPUs (GIL contention, not parallelism);
* any ``<x>.query(...)`` call in the frontends (``src/repro/pir/frontend.py``,
  ``src/repro/pir/async_frontend.py``) — keys are generated once per flush
  through ``client.query_batch``; a ``query`` call there is per-request key
  generation creeping back;
* a ``DPFQuery(`` or ``PIRAnswer(`` call inside a ``for``
  loop or a comprehension in ``src/repro/pir/client.py``,
  ``src/repro/pir/frontend.py`` or ``src/repro/core/engine.py`` — queries
  and answers cross those layers as one array message per replica per flush
  (``QueryBatch`` out, ``IMPIRBatchResult`` back); a message built per row
  there is the per-query message layer coming back (the one-row forms are
  built by indexing a batch, in ``repro/pir/messages.py`` and
  ``repro/core/results.py``);
* a ``QueryBatch(`` construction anywhere under ``src/repro/`` except
  ``repro/pir/client.py`` (which builds a flush's batches from one key
  walk) and ``repro/pir/messages.py`` (where ``QueryBatch.stack`` turns
  one-row queries into a batch) — the DPF key is the one query kind, and a
  second producer of batches is a second query kind coming back;
* a method named ``execute`` defined in any class under ``src/repro/`` — the
  backend protocol has one scan hook, ``execute_many`` (a single query is a
  batch of one); an ``execute`` method is the per-query twin creeping back;
* a method named ``execute_many`` defined in any class under ``src/repro/``
  other than ``repro/core/engine.py``'s ``PIRBackend`` — backends implement
  ``charge_many`` (pricing only) and inherit the one scan; an override is a
  second scan site (a sharded fleet XORing once per shard again);
* a ``dpxor_many(`` call under ``src/repro/`` outside ``repro/pir/xor_ops.py``
  (its home), ``PIRBackend.execute_many`` (the one scan of a batch) and
  ``repro/pim/kernels.py`` (the executing DPU model the tests use as an
  oracle) — a server XORs its database exactly once per batch;
* a class whose name ends in ``Server`` under ``src/repro/`` other than
  ``repro/pir/server.py``'s ``PIRServer`` — every architecture runs the one
  server class over its own ``PIRBackend``; a second server class is a
  per-architecture facade (and a second result shape) creeping back;
* ``raise AssertionError`` anywhere under ``src/repro/`` — scenario checks
  belong in ``tests/`` and the self-verifying ``examples/``; library code
  raises the typed errors of :mod:`repro.common.errors`;
* ``unpackbits`` (``np.unpackbits`` or ``from numpy import unpackbits``)
  anywhere under ``src/repro/`` except ``repro/dpf/dpf.py`` — selectors are
  packed rows from ``selector_matrix`` to the scan (``repro/pir/xor_ops.py``
  reads them with a bit transpose and byte popcounts); only the DPF's
  ``eval_full_bits_many``, kept for the goldens, unpacks them;
* a ``cryptography`` import (``import cryptography...`` or ``from
  cryptography... import``) anywhere under ``src/repro/`` except
  ``repro/dpf/prf.py`` — the fixed-key AES PRG is the one home of the
  block cipher; anything else needing pseudorandom blocks goes through a
  :class:`~repro.dpf.prf.LengthDoublingPRG`;
* a ``DPU(...)`` construction anywhere under ``src/repro/`` except
  ``repro/pim/dpu.py`` — serving and writes charge a
  :class:`~repro.pim.system.DPULedger` of per-DPU arrays; only tests and
  benches build executing DPUs, so a population of DPU objects (and a
  Python loop over it) cannot creep back into the library;
* bare ``print(`` anywhere under ``src/repro/`` — library code reports
  through the structured event log (:mod:`repro.obs.events`) or returns
  strings for the CLI layer to print; only the CLI entry points
  (``cli.py``, ``__main__.py``) are user-facing by design and exempt.

Usage::

    python tools/lint.py src [more dirs...]

Exit status is non-zero when any finding is reported.  Append ``# noqa`` to
an import line to suppress it (e.g. intentional re-exports outside
``__init__.py``).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple


def iter_python_files(roots: List[str]) -> Iterator[Path]:
    for root in roots:
        path = Path(root)
        if path.is_file() and path.suffix == ".py":
            yield path
        else:
            yield from sorted(path.rglob("*.py"))


def _noqa_lines(source: str) -> set:
    return {
        lineno
        for lineno, line in enumerate(source.splitlines(), start=1)
        if "# noqa" in line
    }


class _UsageCollector(ast.NodeVisitor):
    """Collects every identifier a module references."""

    def __init__(self) -> None:
        self.used = set()

    def visit_Name(self, node: ast.Name) -> None:
        self.used.add(node.id)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # ``pkg.mod.attr`` marks ``pkg`` used; the Name child handles that.
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        # Strings inside __all__ / docstring cross-references count as usage;
        # harvesting every string constant keeps re-export modules clean
        # without special-casing __all__ assignment shapes.
        if isinstance(node.value, str) and node.value.isidentifier():
            self.used.add(node.value)
        self.generic_visit(node)


#: Wall-clock readers of the ``time`` module, banned under the simulated-
#: clock-only control plane (``time.time`` et al. read the host's clock).
WALL_CLOCK_ATTRS = {"time", "monotonic", "perf_counter", "sleep"}


#: Packages whose code must never read the host clock: the control plane
#: (rebalancing decisions), the shard layer it mutates (topology swaps,
#: live migrations) and the observability layer judging both (SLO windows,
#: burn-rate alerts, flight-recorder bundles) all run on the simulated
#: clock only.
SIMULATED_CLOCK_PACKAGES = ("control", "shard", "obs")


#: asyncio accessors returning an event loop whose ``.time()`` is the
#: wall clock in disguise (``loop.time()`` == ``time.monotonic()``).
LOOP_GETTERS = {"get_running_loop", "get_event_loop"}


def _is_loop_getter_call(node: ast.AST) -> bool:
    """True for ``asyncio.get_running_loop()`` / ``asyncio.get_event_loop()``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in LOOP_GETTERS
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "asyncio"
    )


def _under_packages(path: Path, packages: Tuple[str, ...]) -> bool:
    # The consecutive repro/<package> pair, not the two names anywhere in
    # the path: a checkout living under a directory called "control" or
    # "shard" must not sweep the whole library into a package's ban.
    parts = path.parts
    return any(
        parts[i] == "repro" and parts[i + 1] in packages for i in range(len(parts) - 1)
    )


#: Packages whose data-plane scans must stay vectorised: a per-record Python
#: loop over the whole database re-introduces the O(N) interpreter cost the
#: batched numpy kernels (``dpxor_many`` and friends) exist to remove.
VECTORIZED_SCAN_PACKAGES = ("pir", "core")


#: CLI entry-point modules: printing is their job, everywhere else in the
#: library it bypasses the structured event log and pollutes stdout.
PRINT_EXEMPT_BASENAMES = {"cli.py", "__main__.py"}


def _is_library_code(path: Path) -> bool:
    # The ``repro`` path part marks library code (src/repro/...); tools/ and
    # tests/ never contain it.
    return "repro" in path.parts


def _is_print_banned(path: Path) -> bool:
    return path.name not in PRINT_EXEMPT_BASENAMES and _is_library_code(path)


def _is_single_arg_range_over(node: ast.AST, bound_names: set) -> bool:
    """True for ``for ... in range(<name>)`` where ``<name>`` is in
    ``bound_names`` (as a bare name or an attribute), single-argument form
    only.  Chunk walks like ``range(0, bound, chunk)`` stay legal — they
    iterate once per block, not once per element.
    """
    if not isinstance(node, ast.For):
        return False
    call = node.iter
    if not (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "range"
        and len(call.args) == 1
        and not call.keywords
    ):
        return False
    bound = call.args[0]
    if isinstance(bound, ast.Name):
        return bound.id in bound_names
    return isinstance(bound, ast.Attribute) and bound.attr in bound_names


def _is_per_record_loop(node: ast.AST) -> bool:
    """True for ``for ... in range(num_records)`` (single-argument form only)."""
    return _is_single_arg_range_over(node, {"num_records"})


#: Packages whose batch handling must stay batched: a per-query Python loop
#: over the batch dimension re-introduces the per-dispatch overhead the
#: batched shard walk (one ``charge_many`` per child) and the batched DPU
#: charge (``run_dpu_pipeline_many``) exist to amortise.
BATCHED_SCAN_PACKAGES = ("shard", "pim")

#: The one module outside those packages held to the same rule: the scan
#: kernels, whose per-row half-pass (every record gathered once per query)
#: the pattern-bucketed ``dpxor_many`` replaced.
BATCHED_SCAN_MODULE = ("pir", "xor_ops.py")


def _is_batched_scan_only(path: Path) -> bool:
    parts = path.parts
    return any(
        parts[i] == "repro"
        and (parts[i + 1] in BATCHED_SCAN_PACKAGES or parts[i + 1 :] == BATCHED_SCAN_MODULE)
        for i in range(len(parts) - 1)
    )


def _is_per_query_batch_loop(node: ast.AST) -> bool:
    """True for ``for ... in range(batch)`` / ``range(batch_size)``."""
    return _is_single_arg_range_over(node, {"batch", "batch_size"})


#: Packages whose keys are batches of arrays: a loop over the key count is
#: the per-key cut-up (one key object per row) the array keys replaced.
KEY_BATCH_PACKAGES = ("dpf",)


def _is_per_key_loop(node: ast.AST) -> bool:
    """True for ``for ... in range(count)`` / ``range(num_keys)``."""
    return _is_single_arg_range_over(node, {"count", "num_keys"})


#: Calls that build correction tables (``repro/dpf/ggm.py``): a walk's, the
#: one-level case's and a one-off correction's, and ``DPF.descend``, whose
#: paths are independent, so a per-iteration ``descend`` is always one batched
#: call.  ``expand_front`` per chunk stays legal: that loop is the memory bound.
TABLE_BUILDERS = {"correction_tables", "expand_level", "gated", "descend"}


def _loop_repeated_parts(node: ast.AST) -> List[ast.AST]:
    """The parts of a loop that run once per iteration: a ``for`` body (not
    its iterable, evaluated once), a ``while`` test and body."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return node.body + node.orelse
    if isinstance(node, ast.While):
        return [node.test] + node.body + node.orelse
    return []


def _tables_built_in_loops(tree: ast.AST) -> List[int]:
    """Line numbers of table-building calls that run once per loop iteration."""
    return sorted(
        {
            inner.lineno
            for node in ast.walk(tree)
            for part in _loop_repeated_parts(node)
            for inner in ast.walk(part)
            if isinstance(inner, ast.Call)
            and (
                (isinstance(inner.func, ast.Name) and inner.func.id in TABLE_BUILDERS)
                or (isinstance(inner.func, ast.Attribute) and inner.func.attr in TABLE_BUILDERS)
            )
        }
    )


#: Packages whose per-row costs are priced as whole arrays: a loop over
#: ``<array>.tolist()`` is the per-query loop again (142 216 scalar kernel-cost
#: calls per 600 fleet rounds before the simulator priced popcounts).
ARRAY_PRICED_PACKAGES = ("pim",)


def _is_tolist_loop(node: ast.AST) -> bool:
    """True for ``for ... in <expr>.tolist()``."""
    return (
        isinstance(node, ast.For)
        and isinstance(node.iter, ast.Call)
        and isinstance(node.iter.func, ast.Attribute)
        and node.iter.func.attr == "tolist"
    )


#: The frontends generate keys once per flush (``client.query_batch`` in
#: ``BatchingFrontend.begin_flush``); ``client.query`` there is one GGM walk
#: per request.
PER_FLUSH_KEYGEN_MODULES = (("pir", "frontend.py"), ("pir", "async_frontend.py"))


def _is_per_flush_keygen_only(path: Path) -> bool:
    parts = path.parts
    return any(
        parts[i] == "repro" and parts[i + 1 :] in PER_FLUSH_KEYGEN_MODULES
        for i in range(len(parts) - 1)
    )


def _is_query_call(node: ast.AST) -> bool:
    """True for ``<x>.query(...)``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "query"
    )


#: The layers a flush crosses as arrays, and the one-row message classes
#: none of them may build per row.
PER_FLUSH_MESSAGE_MODULES = (("pir", "client.py"), ("pir", "frontend.py"), ("core", "engine.py"))
ROW_MESSAGES = {"DPFQuery", "PIRAnswer"}

#: Loop and comprehension nodes: their bodies run once per element.
_LOOP_NODES = (ast.For, ast.AsyncFor, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_per_flush_message_module(path: Path) -> bool:
    return any(path.parts[-3:] == ("repro",) + module for module in PER_FLUSH_MESSAGE_MODULES)


def _row_messages_in_loops(tree: ast.AST) -> List[int]:
    """Line numbers of one-row message constructions inside a loop or comprehension."""
    return sorted(
        {
            inner.lineno
            for node in ast.walk(tree)
            if isinstance(node, _LOOP_NODES)
            for inner in ast.walk(node)
            if isinstance(inner, ast.Call)
            and (
                (isinstance(inner.func, ast.Name) and inner.func.id in ROW_MESSAGES)
                or (isinstance(inner.func, ast.Attribute) and inner.func.attr in ROW_MESSAGES)
            )
        }
    )


#: Thread hand-off calls, by name, with the position of their callable.
THREAD_HANDOFFS = {"to_thread": 0, "run_in_executor": 1}


def _is_threaded_answer_batch(node: ast.AST) -> bool:
    """True when ``to_thread`` / ``run_in_executor`` is handed ``<x>.answer_batch``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    position = THREAD_HANDOFFS.get(name)
    if position is None or len(node.args) <= position:
        return False
    target = node.args[position]
    return isinstance(target, ast.Attribute) and target.attr == "answer_batch"


def _methods_named(node: ast.AST, name: str) -> List[ast.AST]:
    """The ``def <name>`` methods when ``node`` is a class."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [
        item
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == name
    ]


#: The one scan: ``(module path under repro/, class name)`` of the base whose
#: ``execute_many`` every backend inherits.
SCAN_CLASS = (("core", "engine.py"), "PIRBackend")

#: Library modules that may call ``dpxor_many`` anywhere: the scan kernels'
#: home and the executing DPU kernel model the tests use as an oracle.
SCAN_MODULES = (("repro", "pir", "xor_ops.py"), ("repro", "pim", "kernels.py"))


def _is_scan_class(node: ast.AST, path: Path) -> bool:
    (package, module), name = SCAN_CLASS
    return (
        isinstance(node, ast.ClassDef)
        and node.name == name
        and path.parts[-3:] == ("repro", package, module)
    )


def _stray_scan_calls(tree: ast.AST, path: Path) -> List[int]:
    """Line numbers of ``dpxor_many(...)`` calls outside the scan's homes."""
    if path.parts[-3:] in SCAN_MODULES:
        return []
    exempt = {
        id(inner)
        for node in ast.walk(tree)
        if _is_scan_class(node, path)
        for method in _methods_named(node, "execute_many")
        for inner in ast.walk(method)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and id(node) not in exempt
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "dpxor_many")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "dpxor_many")
        )
    ]


#: The one server class: ``(module path under repro/, class name)``.
SERVER_CLASS = (("pir", "server.py"), "PIRServer")


def _is_second_server_class(node: ast.AST, path: Path) -> bool:
    """True for a ``class ...Server`` other than :data:`SERVER_CLASS`."""
    if not (isinstance(node, ast.ClassDef) and node.name.endswith("Server")):
        return False
    (package, module), name = SERVER_CLASS
    return not (node.name == name and path.parts[-3:] == ("repro", package, module))


def _is_assertion_error_raise(node: ast.AST) -> bool:
    """True for ``raise AssertionError`` / ``raise AssertionError(...)``."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


#: The one library module allowed to unpack selector bits: the DPF's
#: ``eval_full_bits_many``, which the goldens and the tests read.
UNPACK_MODULE = ("repro", "dpf", "dpf.py")


def _is_unpack_banned(path: Path) -> bool:
    return _is_library_code(path) and path.parts[-3:] != UNPACK_MODULE


def _unpackbits_lines(node: ast.AST) -> List[int]:
    """Line numbers where ``node`` reaches ``unpackbits`` (attribute or import)."""
    if isinstance(node, ast.Attribute) and node.attr == "unpackbits":
        return [node.lineno]
    if isinstance(node, ast.ImportFrom):
        return [node.lineno for alias in node.names if alias.name == "unpackbits"]
    return []


#: The one library module allowed to import the AES primitive: the PRG.
CIPHER_MODULE = ("repro", "dpf", "prf.py")

#: The shared flush pipeline, which must never touch an event loop.
LOOP_FREE_MODULE = ("repro", "pir", "frontend.py")


def _imports_package(node: ast.AST, package: str) -> bool:
    """True for ``import <package>...`` / ``from <package>... import ...``."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        names = [node.module or ""]
    else:
        return False
    return any(name.split(".")[0] == package for name in names)


#: The one library module that builds executing DPUs: the class itself.
DPU_MODULE = ("repro", "pim", "dpu.py")

#: The library modules that build query batches: the client (a flush's keys)
#: and the messages module (``QueryBatch.stack``).
QUERY_BATCH_MODULES = (("repro", "pir", "client.py"), ("repro", "pir", "messages.py"))


def _is_construction(node: ast.AST, name: str) -> bool:
    """True for ``<name>(...)`` / ``<module>.<name>(...)``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == name) or (
        isinstance(func, ast.Attribute) and func.attr == name
    )


def check_file(path: Path) -> List[Tuple[int, str]]:
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return [(error.lineno or 0, f"syntax error: {error.msg}")]
    noqa = _noqa_lines(source)
    simulated_clock_only = _under_packages(path, SIMULATED_CLOCK_PACKAGES)
    vectorized_scan_only = _under_packages(path, VECTORIZED_SCAN_PACKAGES)
    batched_scan_only = _is_batched_scan_only(path)
    array_priced_only = _under_packages(path, ARRAY_PRICED_PACKAGES)
    key_batched_only = _under_packages(path, KEY_BATCH_PACKAGES)
    print_banned = _is_print_banned(path)
    library_code = _is_library_code(path)
    per_flush_keygen_only = _is_per_flush_keygen_only(path)
    unpack_banned = _is_unpack_banned(path)
    dpu_construction_banned = library_code and path.parts[-3:] != DPU_MODULE
    query_batch_banned = library_code and path.parts[-3:] not in QUERY_BATCH_MODULES
    cipher_banned = library_code and path.parts[-3:] != CIPHER_MODULE
    loop_free = path.parts[-3:] == LOOP_FREE_MODULE

    imports: List[Tuple[int, str, str]] = []  # (lineno, bound name, description)
    wildcards: List[Tuple[int, str]] = []
    deprecated: List[Tuple[int, str]] = []
    # Every name the ``time`` module is bound to (``import time``,
    # ``import time as t``) — an alias must not dodge the wall-clock check.
    time_aliases = {"time"}
    # Every name bound to an asyncio event loop (``loop = asyncio.get_
    # running_loop()``) — ``loop.time()`` is the wall clock in disguise,
    # and binding the loop first must not dodge the check below.
    loop_aliases = set()
    if simulated_clock_only:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_aliases.add(alias.asname or "time")
            elif isinstance(node, ast.Assign) and _is_loop_getter_call(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        loop_aliases.add(target.id)
            elif (
                isinstance(node, ast.AnnAssign)
                and node.value is not None
                and _is_loop_getter_call(node.value)
                and isinstance(node.target, ast.Name)
            ):
                loop_aliases.add(node.target.id)
    for node in ast.walk(tree):
        if (
            simulated_clock_only
            and isinstance(node, ast.Attribute)
            and node.attr in WALL_CLOCK_ATTRS
            and isinstance(node.value, ast.Name)
            and node.value.id in time_aliases
        ):
            deprecated.append(
                (
                    node.lineno,
                    f"wall-clock time.{node.attr}() under a simulated-clock "
                    "package (src/repro/{control,shard,obs}/) — take `now` "
                    "from the caller",
                )
            )
        if (
            simulated_clock_only
            and isinstance(node, ast.Attribute)
            and node.attr == "time"
            and (
                _is_loop_getter_call(node.value)
                or (
                    isinstance(node.value, ast.Name)
                    and node.value.id in loop_aliases
                )
            )
        ):
            deprecated.append(
                (
                    node.lineno,
                    "event-loop clock (asyncio loop .time()) under a "
                    "simulated-clock package (src/repro/{control,shard,obs}/) — "
                    "inject the clock from the caller",
                )
            )
        if simulated_clock_only and isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "datetime":
                    deprecated.append(
                        (
                            node.lineno,
                            "import datetime under a simulated-clock package "
                            "(src/repro/{control,shard,obs}/) — take `now` "
                            "from the caller",
                        )
                    )
        if (
            print_banned
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            deprecated.append(
                (
                    node.lineno,
                    "bare print() in library code (src/repro/) — emit through "
                    "repro.obs.events.EventLog or return strings for the CLI "
                    "layer to print",
                )
            )
        if vectorized_scan_only and _is_per_record_loop(node):
            deprecated.append(
                (
                    node.lineno,
                    "per-record Python loop (for ... in range(num_records)) "
                    "under a vectorised-scan package (src/repro/{pir,core}/) "
                    "— use the batched numpy kernels or a chunked range",
                )
            )
        if batched_scan_only and _is_per_query_batch_loop(node):
            deprecated.append(
                (
                    node.lineno,
                    "per-query Python loop over the batch dimension "
                    "(for ... in range(batch[_size])) under a batched-scan "
                    "package (src/repro/{shard,pim}/, src/repro/pir/xor_ops.py) "
                    "— use the batched worker/kernel paths or a chunked range",
                )
            )
        if key_batched_only and _is_per_key_loop(node):
            deprecated.append(
                (
                    node.lineno,
                    "per-key Python loop over a key batch (for ... in "
                    "range(count | num_keys)) under src/repro/dpf/ — walk the "
                    "DPFKeys arrays as a whole",
                )
            )
        if array_priced_only and _is_tolist_loop(node):
            deprecated.append(
                (
                    node.lineno,
                    "per-row Python loop (for ... in <expr>.tolist()) under "
                    "src/repro/pim/ — price the whole array at once (see "
                    "timing.dpxor_launch_seconds)",
                )
            )
        if per_flush_keygen_only and _is_query_call(node):
            deprecated.append(
                (
                    node.lineno,
                    "per-request key generation (<x>.query(...)) in a frontend "
                    "(src/repro/pir/{frontend,async_frontend}.py) — keys are "
                    "generated once per flush through client.query_batch",
                )
            )
        if library_code and _is_threaded_answer_batch(node):
            deprecated.append(
                (
                    node.lineno,
                    "answer_batch handed to a worker thread (to_thread / "
                    "run_in_executor) under src/repro/ — answer replicas in "
                    "sequence on the calling thread; threads only add GIL "
                    "contention",
                )
            )
        if library_code and _is_second_server_class(node, path):
            deprecated.append(
                (
                    node.lineno,
                    f"a second server class ({node.name}) under src/repro/ — "
                    "every kind is a repro/pir/server.py PIRServer over its "
                    "own PIRBackend",
                )
            )
        if library_code and _is_assertion_error_raise(node):
            deprecated.append(
                (
                    node.lineno,
                    "raise AssertionError in library code (src/repro/) — "
                    "scenario checks belong in tests/ and examples/",
                )
            )
        if unpack_banned:
            for lineno in _unpackbits_lines(node):
                deprecated.append(
                    (
                        lineno,
                        "unpackbits in library code outside repro/dpf/dpf.py — "
                        "selectors stay packed; read them with "
                        "repro.pir.xor_ops (selector_patterns / selector_range "
                        "/ selected_counts)",
                    )
                )
        if cipher_banned and _imports_package(node, "cryptography"):
            deprecated.append(
                (
                    node.lineno,
                    "cryptography imported in library code outside "
                    "repro/dpf/prf.py — the fixed-key AES PRG is the one home "
                    "of the block cipher; go through a LengthDoublingPRG",
                )
            )
        if loop_free and _imports_package(node, "asyncio"):
            deprecated.append(
                (
                    node.lineno,
                    "asyncio imported in repro/pir/frontend.py — the shared "
                    "flush pipeline stays loop-free; event-loop code belongs "
                    "in repro/pir/async_frontend.py",
                )
            )
        if dpu_construction_banned and _is_construction(node, "DPU"):
            deprecated.append(
                (
                    node.lineno,
                    "executing DPU(...) built in library code outside "
                    "repro/pim/dpu.py — charge a repro.pim.system.DPULedger; "
                    "only tests and benches run DPU objects",
                )
            )
        if query_batch_banned and _is_construction(node, "QueryBatch"):
            deprecated.append(
                (
                    node.lineno,
                    "QueryBatch(...) built in library code outside "
                    "repro/pir/client.py and repro/pir/messages.py — the "
                    "client's query_batch makes a flush's batches and "
                    "QueryBatch.stack turns one-row queries into one",
                )
            )
        if library_code:
            for method in _methods_named(node, "execute"):
                deprecated.append(
                    (
                        method.lineno,
                        "per-query scan hook creeping back (a method named "
                        "execute in a class under src/repro/); implement "
                        "charge_many",
                    )
                )
        if library_code and not _is_scan_class(node, path):
            for method in _methods_named(node, "execute_many"):
                deprecated.append(
                    (
                        method.lineno,
                        "execute_many overridden outside PIRBackend "
                        "(repro/core/engine.py) — a second scan site; price "
                        "the batch in charge_many and inherit the one scan",
                    )
                )
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "get_event_loop"
            and isinstance(node.value, ast.Name)
            and node.value.id == "asyncio"
        ):
            deprecated.append(
                (
                    node.lineno,
                    "asyncio.get_event_loop() is deprecated; use "
                    "asyncio.get_running_loop() (or asyncio.run at the top level)",
                )
            )
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imports.append((node.lineno, bound, f"import {alias.name}"))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            if simulated_clock_only and node.module in ("time", "datetime"):
                # ``from time import time`` would dodge the attribute check
                # above while binding the same wall-clock reader; datetime
                # constructors (``datetime.now()``) read the host clock too.
                deprecated.append(
                    (
                        node.lineno,
                        f"from {node.module} import ... under a simulated-clock "
                        "package (src/repro/{control,shard,obs}/) — take "
                        "`now` from the caller",
                    )
                )
            for alias in node.names:
                if alias.name == "*":
                    module = node.module or "."
                    if module == "repro" or module.startswith("repro."):
                        wildcards.append(
                            (
                                node.lineno,
                                f"wildcard import (from {module} import *) hides "
                                f"this module's real dependencies",
                            )
                        )
                    continue
                bound = alias.asname or alias.name
                imports.append(
                    (node.lineno, bound, f"from {node.module or '.'} import {alias.name}")
                )

    if _is_per_flush_message_module(path):
        for lineno in _row_messages_in_loops(tree):
            deprecated.append(
                (
                    lineno,
                    "one-row message (DPFQuery / PIRAnswer) built "
                    "in a loop in the client, frontend or engine — a flush "
                    "moves as one QueryBatch / IMPIRBatchResult per replica",
                )
            )
    if key_batched_only:
        for lineno in _tables_built_in_loops(tree):
            deprecated.append(
                (
                    lineno,
                    "correction tables built inside a loop under src/repro/dpf/ "
                    "— table a walk's correction words once "
                    "(ggm.correction_tables) before its level loop and expand "
                    "with ggm.corrected_children; descend to every node in one "
                    "DPF.descend call",
                )
            )
    if library_code:
        for lineno in _stray_scan_calls(tree, path):
            deprecated.append(
                (
                    lineno,
                    "dpxor_many called outside repro/pir/xor_ops.py, "
                    "PIRBackend.execute_many and repro/pim/kernels.py — a "
                    "server XORs its database once per batch, in the base "
                    "class's execute_many",
                )
            )

    collector = _UsageCollector()
    collector.visit(tree)

    findings: List[Tuple[int, str]] = [
        (lineno, message)
        for lineno, message in wildcards + deprecated
        if lineno not in noqa
    ]
    seen = {}
    for lineno, bound, description in imports:
        if lineno in noqa:
            continue
        if bound in seen and seen[bound] != lineno:
            findings.append((lineno, f"duplicate import of {bound!r} ({description})"))
        seen.setdefault(bound, lineno)
        if bound not in collector.used:
            findings.append((lineno, f"unused import {bound!r} ({description})"))
    return sorted(findings)


def main(argv: List[str]) -> int:
    roots = argv or ["src"]
    total = 0
    for path in iter_python_files(roots):
        for lineno, message in check_file(path):
            print(f"{path}:{lineno}: {message}")
            total += 1
    if total:
        print(f"\n{total} lint finding(s)")
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
