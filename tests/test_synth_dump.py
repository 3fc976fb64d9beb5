"""Smoke tests for scripts/synth_dump.py on two small library specs."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import synth_dump  # noqa: E402


def test_dump_prints_every_flow_section():
    text = synth_dump.dump(["handshake", "celement"])
    headers = [line for line in text.splitlines() if line.startswith("== ")]
    assert headers == [
        f"== {name} {flow}"
        for name in ("handshake", "celement")
        for flow in ("si", "rt", "bm")
    ]
    assert "    c: -11 1-1 11-\n" in text
    assert "      g_ack: CG_ack(req) -> ack\n" in text
    assert "(none -- the circuit is untimed-correct)" in text
    assert text.count("  inserted signals: []\n") == 6


def test_dump_is_stable_and_skip_filters(capsys):
    assert synth_dump.main(["handshake", "celement", "--skip", "celement"]) == 0
    out = capsys.readouterr().out
    assert out == synth_dump.dump(["handshake"])
    assert "celement" not in out


def test_dump_reports_flow_errors():
    text = synth_dump.dump(["toggle"])
    assert (
        "== toggle si\n  error SynthesisError: could not resolve CSC for "
        "'toggle': 2 conflicts remain\n"
    ) in text
