"""Deterministic operation counts of one default storage transaction.

Signs, verifies, wire records, wire bytes and ticks per run do not depend
on the machine, so they are gated exactly: a check added to or dropped from
the protocol, a wire field added back, or a delivery nested inside another
so that the two share a tick shows here before it shows in any timing.  MACs made
and checked, and the X25519 agreements behind them, are gated the same way:
a server-to-server leg back under a signature, or a pairwise key derived
more than once per peer and run, shows here.  So are the AES-GCM keys: a
content key wrapped under the envelope's agreed key shows here.
Private-key parses are gated too: each key pair parses its X25519 half
once, when it is derived, and no Ed25519 key object is made, neither to
derive a public key nor to make or check a signature.  So are the bytes hashed, signed and verified: a
second hash of an object, or object bytes back under a signature, shows as
a byte count.  So are the codec's
encodes: a message encoded twice by its sender, or encoded again by its
receiver to check its authenticator, shows as a call count.  So are the
messages' invariant checks: a message checked again on encode shows here.
"""
from __future__ import annotations

import sys

import gset.codec
import gset.crypto
from gset import EventKind, ScenarioConfig, run_storage_scenario


def _count_calls(
    monkeypatch, name: str, data_arg: int | None = None, home=gset.crypto, size=len
) -> list[int]:
    """Rebind ``<home>.<name>`` in every gset module that binds it.

    Counts calls in ``[0]`` and, with ``data_arg``, the ``size`` of that
    positional argument in ``[1]``: its bytes by default.
    """
    original = getattr(home, name)
    calls = [0, 0]

    def counted(*args, **kwargs):
        calls[0] += 1
        if data_arg is not None:
            calls[1] += size(args[data_arg])
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


# Wire bytes were re-taken when the order digest became each order's one
# name (+109 per run: six 16-byte names became 32-byte digests, the token
# lost its 20-byte id, the quote gained its 20-byte request nonce, and the
# order travels as its tagged encoding, 13 bytes more).  Re-taken at -156
# when the sealed envelope lost its content key, key wrap and recipient id:
# 78 bytes fewer in each of the two records that carry it, the
# AuthorizationRequest and the AuthorizeAndHold.  Re-taken at -44 when each
# half of the dual signature came to travel with the other half's digest
# only (-40 in each of those two records: a digest and its 4-byte length)
# and the sealed payment's plaintext came to be padded to 128 bytes (+18 in
# each: the default payment encodes in 110).
def test_default_transaction_signs_verifies_and_records(monkeypatch):
    # one delivery per tick: as many ticks as records
    assert _counts(monkeypatch, ScenarioConfig()) == (7, 8, 21, 3292, 21)


def test_bulk_transaction_signs_verifies_and_records(monkeypatch):
    config = ScenarioConfig(object_count=16, object_size=65536)
    assert _counts(monkeypatch, config) == (7, 8, 47, 2_102_075, 47)


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


def _aead_keys(monkeypatch, config: ScenarioConfig) -> int:
    """AES-GCM keys used in one run: each call of gset.crypto's AES-256-GCM
    entry points, which take one key each."""
    calls = [
        _count_calls(monkeypatch, name)
        for name in ("_aes256gcm_encrypt", "_aes256gcm_decrypt")
    ]
    assert run_storage_scenario(config).complete_success()
    return sum(count[0] for count in calls)


# One key per envelope, used once to seal and once to open: the key of the
# one agreement encrypts the payment half itself, with no content key
# wrapped under it (4 keys when a content key was wrapped).
def test_default_transaction_uses_one_aead_key_per_end(monkeypatch):
    assert _aead_keys(monkeypatch, ScenarioConfig()) == 2


def test_bulk_transaction_uses_one_aead_key_per_end(monkeypatch):
    config = ScenarioConfig(object_count=16, object_size=65536)
    assert _aead_keys(monkeypatch, config) == 2


# A relay repeated while its order's hold is pending is ignored before the
# trust manager opens its envelope: the one open is the first relay's.
def test_a_repeated_relay_on_hold_is_ignored_unopened(monkeypatch):
    opens = _count_calls(monkeypatch, "open_envelope")
    report = run_storage_scenario(ScenarioConfig(adversary_spec="replay:AuthorizeAndHold:1"))
    assert report.complete_success()
    assert [(e.actor, e.kind) for e in report.transcript.events] == [("TM", EventKind.DUPLICATE)]
    assert opens[0] == 1


def _bytes_through(monkeypatch, config: ScenarioConfig) -> tuple[int, int, int, int, int]:
    """Bytes hashed, signed, verified, MAC'd and MAC-checked in one run.
    Hashed bytes are those of ``hash_bytes`` and of each item of
    ``hash_each``'s batches."""
    hashed = _count_calls(monkeypatch, "hash_bytes", data_arg=0)
    batched = _count_calls(
        monkeypatch, "hash_each", data_arg=0, size=lambda items: sum(map(len, items))
    )
    signed = _count_calls(monkeypatch, "sign", data_arg=1)
    verified = _count_calls(monkeypatch, "verify", data_arg=1)
    maced = _count_calls(monkeypatch, "mac", data_arg=1)
    checked = _count_calls(monkeypatch, "mac_ok", data_arg=1)
    assert run_storage_scenario(config).complete_success()
    return hashed[1] + batched[1], signed[1], verified[1], maced[1], checked[1]


# Each object is hashed three times: by the requester to sign its upload, by
# the provider on receipt (one digest for the signature check and the ticket)
# and by the requester at redemption.  No object byte goes through Ed25519
# or HMAC, and each MAC'd payload is checked once.  Signed and verified
# bytes were re-taken at +64 when the order digest became each order's one
# name (the decision, upload, grant and completion name a 32-byte digest
# for a 16-byte nonce, the quote names its request, the token lost its id),
# and MAC'd bytes at +32 (the capture request and response name the digest).
# MAC'd bytes were re-taken at -78 when the sealed envelope inside the MAC'd
# AuthorizeAndHold lost its content key, key wrap and recipient id.  Signed
# and verified bytes were re-taken at +10 (+62 for 16 objects) when the
# upload's signature came to cover the codec encoding of its UploadManifest:
# the codec frames the digest sequence and each digest in it with a 4-byte
# length (+4, and +4 per object), and the tag "UploadManifest" is 6 bytes
# shorter than "ObjectUpload/digests".  MAC'd bytes were re-taken at -22
# when the AuthorizeAndHold lost the payment's digest (-40) and its sealed
# payment came to be padded (+18); the padding is sealed, never hashed, so
# the hashed bytes are as before.
def test_default_transaction_hashes_signs_and_verifies_bytes(monkeypatch):
    assert _bytes_through(monkeypatch, ScenarioConfig()) == (1326, 772, 804, 673, 673)


def test_bulk_transaction_hashes_signs_and_verifies_bytes(monkeypatch):
    config = ScenarioConfig(object_count=16, object_size=65536)
    assert _bytes_through(monkeypatch, config) == (3_146_478, 2020, 2052, 673, 673)


def _hash_batches(monkeypatch, config: ScenarioConfig) -> tuple[int, int]:
    """``hash_each`` calls of one run, and the items of all its batches."""
    batches = _count_calls(monkeypatch, "hash_each", data_arg=0)
    assert run_storage_scenario(config).complete_success()
    return batches[0], batches[1]


# The object digests come in two batches of every object: the requester's
# before it signs the upload and the provider's on receipt.  The third hash
# of each object, at redemption, is one ``hash_bytes`` per ticket.
def test_default_transaction_hashes_its_objects_in_two_batches(monkeypatch):
    assert _hash_batches(monkeypatch, ScenarioConfig()) == (2, 2 * 3)


def test_bulk_transaction_hashes_its_objects_in_two_batches(monkeypatch):
    config = ScenarioConfig(object_count=16, object_size=65536)
    assert _hash_batches(monkeypatch, config) == (2, 2 * 16)


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


# Deriving the four key pairs parses the X25519 half of each, to compute its
# public half; libsodium derives each Ed25519 public half from the raw seed,
# so no Ed25519 half is parsed.  The run reuses the four seal keys and adds
# one ephemeral seal key: 4 + 1.  The requester's seal key is parsed only to
# publish its public half.
def test_default_transaction_parses_each_key_once(monkeypatch):
    assert _key_parses(monkeypatch, ScenarioConfig()) == 5


def test_bulk_transaction_parses_each_key_once(monkeypatch):
    config = ScenarioConfig(object_count=16, object_size=65536)
    assert _key_parses(monkeypatch, config) == 5


# Keys are derived and signatures made and checked by libsodium on the raw
# key bytes: each of the 7 signs and 8 verifies gated above is one call of
# libsodium's detached sign or verify, so none goes through any other
# Ed25519 (``Ed25519PrivateKey`` is bound only for perfbench's parse counter).
def test_no_signature_goes_through_cryptographys_ed25519(monkeypatch):
    signs = _count_calls(monkeypatch, "_crypto_sign_detached")
    verifies = _count_calls(monkeypatch, "_crypto_sign_verify_detached")
    assert run_storage_scenario(ScenarioConfig()).complete_success()
    assert (signs[0], verifies[0]) == (7, 8)


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
# digests), the upload's ``UploadManifest`` at each end (+2 since the codec
# encodes the manifest the signature covers, which was framed by hand), and
# the order and payment halves the dual signature hashes.  A
# receiver checks the bytes it received, the order's among them, since the
# order travels as the encoding its digest hashes; the one payload still
# encoded on receipt is that of the capture token nested in the trust
# manager's outcome, which travels without its type tag.  The privacy
# audit encodes the provider's and the trust manager's recorded state, one
# ``encode`` each (+2 since that state became a codec message).
def test_default_transaction_encodes_each_message_once(monkeypatch):
    assert _codec_calls(monkeypatch, ScenarioConfig()) == (16, 1, 13)


def test_bulk_transaction_encodes_each_message_once(monkeypatch):
    config = ScenarioConfig(object_count=16, object_size=65536)
    assert _codec_calls(monkeypatch, config) == (42, 1, 13)


def _validations(monkeypatch, config: ScenarioConfig) -> int:
    """Construction checks of one run: calls of the hook ``canonical_message``
    installs, and of the ledger's own, over every registered message type.
    The crypto value types check themselves and are not counted."""
    calls = [0]
    for cls in gset.codec.registered_types().values():
        original = cls.__dict__.get("__post_init__")
        if original is None or cls.__module__ == "gset.crypto":
            continue

        def counted(self, _original=original):
            calls[0] += 1
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    assert run_storage_scenario(config).complete_success()
    return calls[0]


# Each message is checked once where it is built and once where it is
# decoded, nested messages included, and never again on encode.  Re-taken
# at 4 fewer when the decision and the completion came to name their order
# by a digest, whose size the codec checks: neither type has a rule left.
# Re-taken at 1 more when the ledger came to check itself when built: the
# account provider's one ledger per run.
# A type whose fields carry no kind and which has no ``validate`` gets no
# hook, so it is not counted.
def test_default_transaction_validates_each_message_once_per_end(monkeypatch):
    assert _validations(monkeypatch, ScenarioConfig()) == 76


def test_bulk_transaction_validates_each_message_once_per_end(monkeypatch):
    config = ScenarioConfig(object_count=16, object_size=65536)
    assert _validations(monkeypatch, config) == 180
