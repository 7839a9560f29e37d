PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test bench-asserts lint smoke figures

## The CI gate: tier-1 tests + the figure benches' assertions + lint + a
## functional cross-backend smoke run.  Wall-clock performance is measured by
## `python3 benchmarks/e2e/run.py` (BENCHMARK.json), not gated here.
check: test bench-asserts lint smoke

test:
	$(PYTHON) -m pytest -x -q

## The figure/ablation benches carry assertions (cost orderings, block
## accounting, the WRAM argument) but tier-1 does not collect bench_*.py;
## with timing disabled each body runs once (~1 s total).
bench-asserts:
	$(PYTHON) -m pytest benchmarks/bench_*.py --benchmark-disable -q

lint:
	$(PYTHON) tools/lint.py src tools

## Answers a seeded query set through every registered backend via the
## shared QueryEngine and a PIRFrontend batch, then re-drives it through the
## asyncio frontend (real timers, concurrent replica dispatch), then drives
## a drifting Zipf workload through the online control plane (asserts >= 1
## heat-driven shard migration, a nonzero hot-cache hit rate, and records
## bit-identical to a static fleet), then re-drives the drift with the
## plan-shape policy on (asserts >= 1 online split and merge, heat carried
## across every topology version, records identical to a static fleet),
## then re-drives it with the observability hub attached (asserts records
## bit-identical to the uninstrumented run, span totals float-equal to the
## engine's PhaseTimer totals, >= 1 rebalance event, nonzero cache hits),
## then drives a surging workload through the closed-loop autoscaler
## (asserts >= 1 scale-up, >= 1 scale-down, >= 1 damped reshape, records
## bit-identical to a static fleet), then drives calm -> injected latency
## fault -> recovery through the SLO engine (asserts the fast-burn alert
## fires and resolves, the alert-escalated scale-up lands on the pass
## report, incident bundles are schema-valid and deterministic across two
## runs, records bit-identical to a static fleet); exits non-zero on any
## drift.
smoke:
	$(PYTHON) -m repro.bench.cli smoke
	$(PYTHON) -m repro.bench.cli smoke --async
	$(PYTHON) -m repro.bench.cli smoke --rebalance
	$(PYTHON) -m repro.bench.cli smoke --resplit
	$(PYTHON) -m repro.bench.cli smoke --batched
	$(PYTHON) -m repro.bench.cli smoke --traced
	$(PYTHON) -m repro.bench.cli smoke --autoscale
	$(PYTHON) -m repro.bench.cli smoke --slo

figures:
	$(PYTHON) -m repro.bench.cli all
