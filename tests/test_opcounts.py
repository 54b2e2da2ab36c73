"""Deterministic operation counts of one default storage transaction.

Signs, verifies and wire records per run do not depend on the machine,
so they are gated exactly: a check added to or dropped from the protocol
shows here before it shows in any timing.
"""
from __future__ import annotations

import sys

import gset.crypto
from gset import ScenarioConfig, run_storage_scenario


def _count_calls(monkeypatch, name: str) -> list[int]:
    """Rebind ``gset.crypto.<name>`` in every gset module that binds it."""
    original = getattr(gset.crypto, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] == "gset" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_default_transaction_signs_verifies_and_records(monkeypatch):
    signs = _count_calls(monkeypatch, "sign")
    verifies = _count_calls(monkeypatch, "verify")
    report = run_storage_scenario(ScenarioConfig())
    assert report.complete_success()
    assert (signs[0], verifies[0], len(report.transcript.records)) == (17, 18, 21)
