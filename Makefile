PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test bench-asserts lint smoke figures

## The CI gate: tier-1 tests (which drive every smoke scenario once, see
## `smoke` below) + the figure benches' assertions + lint.  Wall-clock
## performance is measured by `python3 benchmarks/e2e/run.py`
## (BENCHMARK.json), not gated here.
check: test bench-asserts lint

test:
	$(PYTHON) -m pytest -x -q

## The figure/ablation benches carry assertions (cost orderings, block
## accounting, the WRAM argument) but tier-1 does not collect bench_*.py;
## with timing disabled each body runs once (~1 s total).
bench-asserts:
	$(PYTHON) -m pytest benchmarks/bench_*.py --benchmark-disable -q

lint:
	$(PYTHON) tools/lint.py src tools

## The eight functional smoke scenarios, for manual runs; each exits non-zero
## on any drift.  CI asserts them through tests/test_cli.py inside `make test`.
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
