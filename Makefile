PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test bench-asserts lint figures

## The CI gate: tier-1 tests (which run every self-verifying example in
## examples/ once, see tests/test_examples.py) + the figure benches'
## assertions + lint.  Wall-clock performance is measured by
## `python3 benchmarks/e2e/run.py` (BENCHMARK.json), not gated here.
check: test bench-asserts lint

test:
	$(PYTHON) -m pytest -x -q

## The figure/ablation benches carry assertions (cost orderings, block
## accounting, the WRAM argument) but tier-1 does not collect bench_*.py;
## with timing disabled each body runs once (~1 s total).
bench-asserts:
	$(PYTHON) -m pytest benchmarks/bench_*.py --benchmark-disable -q

lint:
	$(PYTHON) tools/lint.py src tools tests examples

figures:
	$(PYTHON) -m repro.bench.cli all
