"""Deterministic operation counts of one default storage transaction.

Signs, verifies, wire records, wire bytes and ticks per run do not depend
on the machine, so they are gated exactly: a check added to or dropped from
the protocol, a wire field added back, or a delivery nested inside another
so that the two share a tick shows here before it shows in any timing.  MACs made
and checked, and the X25519 agreements behind them, are gated the same way:
a server-to-server leg back under a signature, or a pairwise key derived
more than once per peer and run, shows here.  Private-key parses are gated
too: each key pair parses each of its halves at most once.  So are the
bytes hashed, signed and verified: a second hash of an object, or object
bytes back under a signature, shows as a byte count.  So are the codec's
encodes: a message encoded twice by its sender, or encoded again by its
receiver to check its authenticator, shows as a call count.  So are the
messages' invariant checks: a message checked again on encode shows here.
"""
from __future__ import annotations

import sys

import gset.codec
import gset.crypto
from gset import ScenarioConfig, run_storage_scenario


def _count_calls(
    monkeypatch, name: str, data_arg: int | None = None, home=gset.crypto
) -> list[int]:
    """Rebind ``<home>.<name>`` in every gset module that binds it.

    Counts calls in ``[0]`` and, with ``data_arg``, the bytes passed as that
    positional argument in ``[1]``.
    """
    original = getattr(home, name)
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
    # one delivery per tick: as many ticks as records
    assert _counts(monkeypatch, ScenarioConfig()) == (7, 8, 21, 3383, 21)


def test_bulk_transaction_signs_verifies_and_records(monkeypatch):
    config = ScenarioConfig(object_count=16, object_size=65536)
    assert _counts(monkeypatch, config) == (7, 8, 47, 2_102_166, 47)


def _mac_counts(monkeypatch, config: ScenarioConfig) -> tuple[int, int, int, int, int]:
    """MACs made and checked, and the X25519 agreements of one run.

    Each ``mac_keys``, ``seal`` and ``open_envelope`` call makes exactly one
    agreement: the pairwise ones, the requester's ephemeral one and the
    trust manager's opening of it.
    """
    made = _count_calls(monkeypatch, "mac")
    checked = _count_calls(monkeypatch, "mac_ok")
    pairwise = _count_calls(monkeypatch, "mac_keys")
    seals = _count_calls(monkeypatch, "seal")
    opens = _count_calls(monkeypatch, "open_envelope")
    assert run_storage_scenario(config).complete_success()
    return made[0], checked[0], pairwise[0], seals[0], opens[0]


# Seven legs, one MAC made and one checked each; one agreement per pair of
# servers at each end: SP-TM and TM-AP.
def test_default_transaction_macs_and_agreements(monkeypatch):
    assert _mac_counts(monkeypatch, ScenarioConfig()) == (7, 7, 4, 1, 1)


def test_bulk_transaction_macs_and_agreements(monkeypatch):
    config = ScenarioConfig(object_count=16, object_size=65536)
    assert _mac_counts(monkeypatch, config) == (7, 7, 4, 1, 1)


def _bytes_through(monkeypatch, config: ScenarioConfig) -> tuple[int, int, int, int, int]:
    """Bytes hashed, signed, verified, MAC'd and MAC-checked in one run."""
    hashed = _count_calls(monkeypatch, "hash_bytes", data_arg=0)
    signed = _count_calls(monkeypatch, "sign", data_arg=1)
    verified = _count_calls(monkeypatch, "verify", data_arg=1)
    maced = _count_calls(monkeypatch, "mac", data_arg=1)
    checked = _count_calls(monkeypatch, "mac_ok", data_arg=1)
    assert run_storage_scenario(config).complete_success()
    return hashed[1], signed[1], verified[1], maced[1], checked[1]


# Each object is hashed three times: by the requester to sign its upload, by
# the provider on receipt (one digest for the signature check and the ticket)
# and by the requester at redemption.  No object byte goes through Ed25519
# or HMAC, and each MAC'd payload is checked once.
def test_default_transaction_hashes_signs_and_verifies_bytes(monkeypatch):
    assert _bytes_through(monkeypatch, ScenarioConfig()) == (1326, 698, 730, 741, 741)


def test_bulk_transaction_hashes_signs_and_verifies_bytes(monkeypatch):
    config = ScenarioConfig(object_count=16, object_size=65536)
    assert _bytes_through(monkeypatch, config) == (3_146_478, 1894, 1926, 741, 741)


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
    """Private-key parses of one run, its key derivation included."""
    calls = [0]
    for name in ("Ed25519PrivateKey", "X25519PrivateKey"):
        monkeypatch.setattr(gset.crypto, name, _CountingKeyClass(getattr(gset.crypto, name), calls))
    assert run_storage_scenario(config).complete_success()
    return calls[0]


# Deriving the four key pairs parses both halves of each, to compute the
# public halves; the run reuses those objects and adds one ephemeral seal
# key.  Two of the eight are parsed only to publish their public halves:
# the requester's seal key and the account provider's signing key.
def test_default_transaction_parses_each_key_once(monkeypatch):
    assert _key_parses(monkeypatch, ScenarioConfig()) == 9


def test_bulk_transaction_parses_each_key_once(monkeypatch):
    config = ScenarioConfig(object_count=16, object_size=65536)
    assert _key_parses(monkeypatch, config) == 9


def _codec_calls(monkeypatch, config: ScenarioConfig) -> tuple[int, int, int]:
    """Calls of ``codec.encode``, ``signing_payload`` and ``signing_payload_from``
    in one run, inner calls included."""
    calls = [
        _count_calls(monkeypatch, name, home=gset.codec)
        for name in ("encode", "signing_payload", "signing_payload_from")
    ]
    assert run_storage_scenario(config).complete_success()
    return tuple(count[0] for count in calls)


# A sender encodes an authenticated message once: its signing payload, then
# the authenticator appended (12 of them: 7 MAC'd legs and the price quote,
# decision, grant, completion and capture token).  ``encode`` serves the
# unauthenticated messages, the upload (its signature covers the object
# digests), and the order and payment halves the dual signature hashes.  A
# receiver checks the bytes it received; the one payload still encoded on
# receipt is that of the capture token nested in the trust manager's
# outcome, which travels without its type tag.
def test_default_transaction_encodes_each_message_once(monkeypatch):
    assert _codec_calls(monkeypatch, ScenarioConfig()) == (13, 1, 13)


def test_bulk_transaction_encodes_each_message_once(monkeypatch):
    config = ScenarioConfig(object_count=16, object_size=65536)
    assert _codec_calls(monkeypatch, config) == (39, 1, 13)


def _validations(monkeypatch, config: ScenarioConfig) -> int:
    """``validate`` calls of one run, over every registered message type."""
    calls = [0]
    for cls in gset.codec.registered_types().values():
        original = cls.__dict__.get("validate")
        if original is None:
            continue

        def counted(self, _original=original):
            calls[0] += 1
            _original(self)

        monkeypatch.setattr(cls, "validate", counted)
    assert run_storage_scenario(config).complete_success()
    return calls[0]


# Each message is checked once where it is built and once where it is
# decoded, nested messages included, and never again on encode.
def test_default_transaction_validates_each_message_once_per_end(monkeypatch):
    assert _validations(monkeypatch, ScenarioConfig()) == 79


def test_bulk_transaction_validates_each_message_once_per_end(monkeypatch):
    config = ScenarioConfig(object_count=16, object_size=65536)
    assert _validations(monkeypatch, config) == 183
