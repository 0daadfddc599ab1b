"""Start-up parsing and the in-process CLI instrumentation."""

import fogscope.cli as cli
import pytest

from measure import Tracer, self_times, totals_by_name
from replay import instrument, invoke, parse_importtime

SAMPLE = """\
import time: self [us] | cumulative | imported package
import time:       120 |        120 |   _io
import time:      3000 |     760000 |     scipy.stats
import time:       900 |     771000 |   fogscope.simulation
import time:       400 |     950000 | fogscope
import time:       250 |     950250 | fogscope.cli
"""


def test_parse_importtime_reads_cumulative_seconds_per_module():
    cumulative = parse_importtime(SAMPLE)
    assert cumulative["fogscope.simulation"] == 0.771
    assert cumulative["fogscope.cli"] == 0.95025
    assert "imported package" not in cumulative


def test_instrument_spans_the_layers_the_cli_calls_and_restores_them(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FOGSCOPE_OUT", str(tmp_path))
    originals = (cli.catalog_rows, cli.write_artifact, cli.reporting)
    tracer = Tracer()
    with instrument(tracer), tracer.span("cmd.presets", command=0):
        assert invoke(["presets"]) == 0
    assert (cli.catalog_rows, cli.write_artifact, cli.reporting) == originals
    names = [s.name for s in tracer.spans]
    assert names[0] == "cmd.presets" and "scenario.catalog" in names
    assert {"reporting.write_artifact", "reporting.render_artifact"} <= set(names)
    assert all(s.command == 0 for s in tracer.spans)
    assert (tmp_path / "presets.csv").read_text() == capsys.readouterr().out
    totals = totals_by_name(tracer.spans, self_times(tracer.spans))
    assert sum(totals.values()) == pytest.approx(tracer.spans[0].duration)


def test_invoke_returns_the_exit_code_of_a_failing_command():
    assert invoke(["evaluate", "--r", "2"]) == 2
    assert invoke(["evaluate", "--no-such-option"]) == 2
