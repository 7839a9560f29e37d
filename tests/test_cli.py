"""CLI for regenerating figures."""

import pytest

from repro.bench.cli import available_targets, main, run_target


class TestRunTarget:
    def test_all_targets_produce_text(self):
        for name in available_targets():
            text = run_target(name)
            assert isinstance(text, str) and len(text) > 50

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            run_target("fig99")

    def test_fig9_mentions_speedup(self):
        assert "speedup" in run_target("fig9")

    def test_table1_mentions_paper_row(self):
        assert "paper" in run_target("table1")


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "all" in out

    def test_single_target(self, capsys):
        assert main(["fig3"]) == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_unknown_target_exit_code(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown target" in capsys.readouterr().err

    def test_all(self, capsys):
        assert main(["all"]) == 0
        out = capsys.readouterr().out
        for marker in ("Figure 3", "Figure 9", "Table 1", "Figure 11", "Figure 12"):
            assert marker in out

    def test_all_prints_table1_once(self, capsys):
        # fig10 renders Table 1 with Figure 10; `all` must not repeat it
        # through the explicit table1 target, which stays available.
        header = run_target("table1").splitlines()[0]
        assert main(["all"]) == 0
        assert capsys.readouterr().out.count(header) == 1
        assert "table1" in available_targets()

    def test_async_smoke(self, capsys):
        assert main(["smoke", "--async"]) == 0
        out = capsys.readouterr().out
        assert "Async frontend smoke" in out
        assert "max-wait timer" in out
        assert "overlapped" in out

    def test_async_flag_rejected_for_other_targets(self, capsys):
        assert main(["fig9", "--async"]) == 2
        assert "smoke" in capsys.readouterr().err

    def test_rebalance_smoke(self, capsys):
        assert main(["smoke", "--rebalance"]) == 0
        out = capsys.readouterr().out
        assert "Rebalance smoke" in out
        assert "migration" in out
        assert "cache hit rate" in out
        assert "bit-identical" in out

    def test_rebalance_flag_rejected_for_other_targets(self, capsys):
        assert main(["fig9", "--rebalance"]) == 2
        assert "smoke" in capsys.readouterr().err

    def test_async_and_rebalance_are_exclusive(self, capsys):
        assert main(["smoke", "--async", "--rebalance"]) == 2
        assert "one of" in capsys.readouterr().err

    def test_resplit_smoke(self, capsys):
        assert main(["smoke", "--resplit"]) == 0
        out = capsys.readouterr().out
        assert "Resplit smoke" in out
        assert "split" in out
        assert "merge" in out
        assert "heat remapped" in out
        assert "bit-identical" in out

    def test_resplit_flag_rejected_for_other_targets(self, capsys):
        assert main(["fig9", "--resplit"]) == 2
        assert "smoke" in capsys.readouterr().err

    def test_resplit_and_rebalance_are_exclusive(self, capsys):
        assert main(["smoke", "--resplit", "--rebalance"]) == 2
        assert "one of" in capsys.readouterr().err

    def test_batched_smoke(self, capsys):
        assert main(["smoke", "--batched"]) == 0
        out = capsys.readouterr().out
        assert "Batched smoke" in out
        assert "bit-identically" in out
        assert "reference" in out and "sharded" in out

    def test_batched_flag_rejected_for_other_targets(self, capsys):
        assert main(["fig9", "--batched"]) == 2
        assert "smoke" in capsys.readouterr().err

    def test_batched_and_async_are_exclusive(self, capsys):
        assert main(["smoke", "--batched", "--async"]) == 2
        assert "one of" in capsys.readouterr().err

    def test_traced_smoke(self, capsys):
        assert main(["smoke", "--traced"]) == 0
        out = capsys.readouterr().out
        assert "Traced smoke" in out
        assert "bit-identical" in out
        assert "float-exact" in out
        assert "rebalance passes observed" in out

    def test_traced_flag_rejected_for_other_targets(self, capsys):
        assert main(["fig9", "--traced"]) == 2
        assert "smoke" in capsys.readouterr().err

    def test_traced_and_batched_are_exclusive(self, capsys):
        assert main(["smoke", "--traced", "--batched"]) == 2
        assert "one of" in capsys.readouterr().err

    def test_autoscale_smoke(self, capsys):
        assert main(["smoke", "--autoscale"]) == 0
        out = capsys.readouterr().out
        assert "Autoscale smoke" in out
        assert "bit-identical" in out
        assert "scale-up" in out and "scale-down" in out
        assert "damped reshape" in out

    def test_autoscale_flag_rejected_for_other_targets(self, capsys):
        assert main(["fig9", "--autoscale"]) == 2
        assert "smoke" in capsys.readouterr().err

    def test_autoscale_and_resplit_are_exclusive(self, capsys):
        assert main(["smoke", "--autoscale", "--resplit"]) == 2
        assert "one of" in capsys.readouterr().err

    def test_slo_smoke(self, capsys):
        assert main(["smoke", "--slo"]) == 0
        out = capsys.readouterr().out
        assert "SLO smoke" in out
        assert "bit-identical" in out
        assert "fast-burn alert fired" in out and "resolved" in out
        assert "escalated scale-up" in out
        assert "incident bundle" in out and "deterministic" in out

    def test_slo_flag_rejected_for_other_targets(self, capsys):
        assert main(["fig9", "--slo"]) == 2
        assert "smoke" in capsys.readouterr().err

    def test_slo_and_autoscale_are_exclusive(self, capsys):
        assert main(["smoke", "--slo", "--autoscale"]) == 2
        assert "one of" in capsys.readouterr().err

    def test_report_mentions_latency_quantiles(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "latency quantiles" in out
        assert "p50" in out and "p99" in out

    def test_report_target(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "Observability report" in out
        assert "== events ==" in out
        assert "== metrics ==" in out
        assert "repro_flushes_total" in out
        assert "slowest traces" in out

    def test_report_listed(self, capsys):
        assert main(["list"]) == 0
        assert "report" in capsys.readouterr().out

    def test_bench_target_is_gone(self, capsys):
        # The wall-clock benchmark is benchmarks/e2e/run.py; the CLI has none.
        assert main(["bench"]) == 2
        err = capsys.readouterr().err
        assert "unknown target 'bench'" in err
        assert all(target in err for target in available_targets())
