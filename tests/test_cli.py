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

    def test_scenario_targets_are_gone(self, capsys):
        # The functional scenarios live in examples/ and tests/; the CLI
        # only regenerates the paper.
        for target in ("smoke", "report"):
            assert main([target]) == 2
            assert "unknown target" in capsys.readouterr().err

    def test_bench_target_is_gone(self, capsys):
        # The wall-clock benchmark is benchmarks/e2e/run.py; the CLI has none.
        assert main(["bench"]) == 2
        err = capsys.readouterr().err
        assert "unknown target 'bench'" in err
        assert all(target in err for target in available_targets())
