"""Every shipped example runs end to end, once, and verifies itself.

The examples contain their own assertions (retrieved records are checked
against the database, audit digests against the log, and so on), so simply
executing ``main()`` is a meaningful integration test.  Each example is the
one home of a scenario.  Its stdout is captured once per module and shared:
``test_example_main_succeeds`` runs every example, and the marker tests below
pin what an example's printed report must show without running it again.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

EXAMPLES = [
    "quickstart",
    "unified_backends",
    "sharded_fleet",
    "async_frontend",
    "control_plane",
    "topology_reshape",
    "observability",
    "autoscaler",
    "slo_alerting",
    "certificate_transparency_audit",
    "credential_checking",
    "oversized_database_and_updates",
    "reproduce_paper_figures",
]


@pytest.fixture(scope="module")
def example_output(load_example):
    """Returns ``run(name) -> stdout``; each example's ``main()`` runs once.

    A run that raises is not cached, so every test that needs it fails.
    """
    outputs: dict[str, str] = {}

    def run(name: str) -> str:
        if name not in outputs:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                load_example(name).main()
            outputs[name] = buffer.getvalue()
        return outputs[name]

    return run


class TestExamplesRun:
    @pytest.mark.parametrize("name", EXAMPLES)
    def test_example_main_succeeds(self, name, example_output):
        assert len(example_output(name)) > 100

    def test_quickstart_reports_verification(self, example_output):
        out = example_output("quickstart")
        assert "verified" in out
        assert "phase breakdown" in out

    def test_ct_audit_verifies_every_lookup(self, example_output):
        out = example_output("certificate_transparency_audit")
        assert "12/12 audits verified" in out

    def test_credential_checking_all_verdicts_correct(self, example_output):
        out = example_output("credential_checking")
        assert "10/10 verdicts correct" in out

    def test_async_frontend_example_proves_timer_and_loop_thread(self, example_output):
        out = example_output("async_frontend")
        assert "max-wait timer" in out
        assert "answered on the loop thread" in out
        assert "bit-identical" in out

    def test_observability_example_prints_the_report(self, example_output):
        out = example_output("observability")
        assert "latency quantiles" in out
        assert "p50" in out and "p99" in out
        assert "== events ==" in out and "== metrics ==" in out
        assert "repro_flushes_total" in out
        assert "slowest traces" in out

    def test_observability_example_removes_its_export(self, load_example):
        """The JSONL export lives in a temporary directory that ``main``
        removes: a run leaves no ``repro-obs-*`` directory behind."""
        before = set(Path(tempfile.gettempdir()).glob("repro-obs-*"))
        with contextlib.redirect_stdout(io.StringIO()):
            load_example("observability").main()
        assert set(Path(tempfile.gettempdir()).glob("repro-obs-*")) == before

    def test_autoscaler_example_shows_the_closed_loop(self, example_output):
        out = example_output("autoscaler")
        assert "suppressed (cooldown)" in out
        assert "replica add" in out and "replica drain" in out
        assert "scale-up" in out and "scale-down" in out
        assert "bit-identical to the static fleet" in out

    def test_slo_example_shows_the_alert_lifecycle(self, example_output):
        out = example_output("slo_alerting")
        assert "[fast]" in out and "resolved@" in out
        assert "slo-escalated" in out
        assert "incident bundle" in out
        assert "bit-identical to an uninstrumented static fleet" in out

    def test_figures_example_prints_every_figure(self, example_output):
        out = example_output("reproduce_paper_figures")
        for marker in ("FIGURE 3", "FIGURE 9", "TABLE 1", "FIGURE 11", "FIGURE 12"):
            assert marker in out
