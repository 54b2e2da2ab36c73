"""Deterministic operation counts of one default storage transaction.

Signs, verifies, wire records, wire bytes and ticks per run do not depend
on the machine, so they are gated exactly: a check added to or dropped from
the protocol, a wire field added back, or a server-to-server exchange moved
back onto the queue shows here before it shows in any timing.  Private-key
parses are gated the same way: each signing key is parsed once per run.
So are the bytes hashed, signed and verified: a second hash of an object, or
object bytes back under a signature, shows as a byte count.
"""
from __future__ import annotations

import sys

import gset.crypto
from gset import ScenarioConfig, run_storage_scenario
from gset.scenario import build_scenario


def _count_calls(monkeypatch, name: str, data_arg: int | None = None) -> list[int]:
    """Rebind ``gset.crypto.<name>`` in every gset module that binds it.

    Counts calls in ``[0]`` and, with ``data_arg``, the bytes passed as that
    positional argument in ``[1]``.
    """
    original = getattr(gset.crypto, name)
    calls = [0, 0]

    def counted(*args, **kwargs):
        calls[0] += 1
        if data_arg is not None:
            calls[1] += len(args[data_arg])
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] == "gset" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def _counts(monkeypatch, config: ScenarioConfig) -> tuple[int, int, int, int, int]:
    """Signs, verifies, wire records, wire payload bytes and ticks of one run."""
    signs = _count_calls(monkeypatch, "sign")
    verifies = _count_calls(monkeypatch, "verify")
    report = run_storage_scenario(config)
    assert report.complete_success()
    records = report.transcript.records
    payload_bytes = sum(len(r.payload) for r in records)
    return signs[0], verifies[0], len(records), payload_bytes, report.ticks_used


def test_default_transaction_signs_verifies_and_records(monkeypatch):
    assert _counts(monkeypatch, ScenarioConfig()) == (14, 15, 21, 3783, 13)


def test_bulk_transaction_signs_verifies_and_records(monkeypatch):
    config = ScenarioConfig(object_count=16, object_size=65536)
    assert _counts(monkeypatch, config) == (14, 15, 47, 2_102_566, 39)


def _bytes_through(monkeypatch, config: ScenarioConfig) -> tuple[int, int, int]:
    """Bytes hashed, signed and verified in one run."""
    hashed = _count_calls(monkeypatch, "hash_bytes", data_arg=0)
    signed = _count_calls(monkeypatch, "sign", data_arg=1)
    verified = _count_calls(monkeypatch, "verify", data_arg=1)
    assert run_storage_scenario(config).complete_success()
    return hashed[1], signed[1], verified[1]


# Each object is hashed three times: by the requester to sign its upload, by
# the provider on receipt (one digest for the signature check and the ticket)
# and by the requester at redemption.  No object byte goes through Ed25519.
def test_default_transaction_hashes_signs_and_verifies_bytes(monkeypatch):
    assert _bytes_through(monkeypatch, ScenarioConfig()) == (1338, 1575, 1607)


def test_bulk_transaction_hashes_signs_and_verifies_bytes(monkeypatch):
    config = ScenarioConfig(object_count=16, object_size=65536)
    assert _bytes_through(monkeypatch, config) == (3_146_490, 2771, 2803)


class _CountingKeyClass:
    """Stands in for a key class inside gset.crypto and counts its parses."""

    def __init__(self, cls: type, calls: list[int]) -> None:
        self._cls = cls
        self._calls = calls

    def from_private_bytes(self, data):
        self._calls[0] += 1
        return self._cls.from_private_bytes(data)

    def __getattr__(self, name):
        return getattr(self._cls, name)


def _key_parses(monkeypatch, config: ScenarioConfig) -> int:
    """Private-key parses of one run whose identities were derived beforehand."""
    build_scenario(config)  # derives and caches the run's key pairs
    gset.crypto._parsed_key.cache_clear()
    calls = [0]
    for name in ("Ed25519PrivateKey", "X25519PrivateKey"):
        monkeypatch.setattr(gset.crypto, name, _CountingKeyClass(getattr(gset.crypto, name), calls))
    assert run_storage_scenario(config).complete_success()
    return calls[0]


# four signing keys, the trust manager's seal key and one ephemeral seal key
def test_default_transaction_parses_each_key_once(monkeypatch):
    assert _key_parses(monkeypatch, ScenarioConfig()) == 6


def test_bulk_transaction_parses_each_key_once(monkeypatch):
    config = ScenarioConfig(object_count=16, object_size=65536)
    assert _key_parses(monkeypatch, config) == 6
