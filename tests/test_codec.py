"""Canonical wire encoding: determinism, round trips, rejection of bad bytes."""
from __future__ import annotations

import dataclasses
import hashlib
import struct
import subprocess
import sys
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gset import (
    AuthDecision,
    AuthOutcome,
    AuthorizeAndHold,
    CaptureRequest,
    CaptureToken,
    DenialReason,
    HoldRequest,
    PriceQuote,
    PriceRequest,
    SettleResponse,
    Signature,
    UsageDescriptor,
    hash_bytes,
)
from gset.codec import (
    CodecError,
    DecodeError,
    EncodeError,
    MessageTypeError,
    ValidationError,
    authenticator_field_name,
    decode,
    decode_authenticated,
    decode_stream,
    encode,
    encode_authenticated,
    peek_type,
    registered_types,
    signing_payload,
)

import genmsg

# Expected canonical bytes for UsageDescriptor("store", "put", 1, "megabyte"),
# assembled by hand from the framing rules: a leading type-name field, then
# each field in declared order as a 4-byte big-endian length plus content,
# with u64 values as 8 big-endian bytes.
GOLDEN_USAGE_FIELDS = [
    b"UsageDescriptor",
    b"store",
    b"put",
    struct.pack(">Q", 1),
    b"megabyte",
]
GOLDEN_USAGE_BYTES = b"".join(struct.pack(">I", len(f)) + f for f in GOLDEN_USAGE_FIELDS)


def test_golden_usage_descriptor_bytes():
    msg = UsageDescriptor("store", "put", 1, "megabyte")
    assert encode(msg) == GOLDEN_USAGE_BYTES


def _framed(fields: list[bytes]) -> bytes:
    return b"".join(struct.pack(">I", len(f)) + f for f in fields)


def test_golden_price_request_bytes_tag_only_the_top_level():
    # the nested UsageDescriptor is its fields alone: the schema fixes its type
    nonce = bytes(range(16))
    msg = PriceRequest(UsageDescriptor("store", "put", 1, "megabyte"), nonce)
    raw = encode(msg)
    assert raw == _framed([b"PriceRequest", _framed(GOLDEN_USAGE_FIELDS[1:]), nonce])
    assert decode(raw) == msg
    # the earlier layout, with a tag on the nested value too, no longer decodes
    with pytest.raises(DecodeError):
        decode(_framed([b"PriceRequest", GOLDEN_USAGE_BYTES, nonce]))


def test_encoding_identical_across_processes():
    script = (
        "from gset import UsageDescriptor, codec;"
        "import sys;"
        "sys.stdout.write(codec.encode(UsageDescriptor('store','put',1,'megabyte')).hex())"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert bytes.fromhex(out.stdout) == GOLDEN_USAGE_BYTES


def test_quantity_changes_the_encoding():
    a = UsageDescriptor("store", "put", 1, "megabyte")
    b = UsageDescriptor("store", "put", 2, "megabyte")
    assert encode(a) != encode(b)


# --- round trips ------------------------------------------------------------


@pytest.mark.parametrize("cls", sorted(registered_types().values(), key=lambda c: c.__name__))
def test_round_trip_every_registered_type(cls):
    rng = Random(f"roundtrip/{cls.__name__}")
    for _ in range(25):
        msg = genmsg.random_message(cls, rng)
        raw = encode(msg)
        again = decode(raw)
        assert again == msg
        assert encode(again) == raw
        assert peek_type(raw) == cls.__name__


def test_decode_accepts_matching_expected_type():
    msg = UsageDescriptor("store", "put", 1, "megabyte")
    assert decode(encode(msg), UsageDescriptor) == msg


def test_decode_rejects_mismatched_expected_type():
    msg = UsageDescriptor("store", "put", 1, "megabyte")
    with pytest.raises(MessageTypeError):
        decode(encode(msg), PriceQuote)


def test_decode_rejects_unknown_type_tag():
    raw = struct.pack(">I", 7) + b"NoSuchT" + GOLDEN_USAGE_BYTES[19:]
    with pytest.raises(MessageTypeError):
        decode(raw)


# --- malformed input --------------------------------------------------------


def test_truncation_at_every_length_rejected():
    rng = Random("truncate")
    msg = genmsg.random_message(AuthorizeAndHold, rng)
    raw = encode(msg)
    for cut in range(len(raw)):
        with pytest.raises(DecodeError):
            decode(raw[:cut])


def test_trailing_bytes_rejected():
    raw = encode(UsageDescriptor("store", "put", 1, "megabyte"))
    with pytest.raises(DecodeError):
        decode(raw + b"\x00")


def test_decode_error_carries_an_offset():
    raw = encode(UsageDescriptor("store", "put", 1, "megabyte"))
    with pytest.raises(DecodeError) as info:
        decode(raw[:-3])
    assert isinstance(info.value.offset, int)
    assert 0 <= info.value.offset <= len(raw)


def test_empty_input_rejected():
    with pytest.raises(DecodeError):
        decode(b"")


def test_oversized_length_prefix_rejected():
    raw = struct.pack(">I", 0xFFFFFFF0) + b"x"
    with pytest.raises(DecodeError):
        decode(raw)


def test_u64_field_with_wrong_width_rejected():
    # quantity framed as 4 bytes instead of 8
    fields = [b"UsageDescriptor", b"store", b"put", struct.pack(">I", 1), b"megabyte"]
    raw = b"".join(struct.pack(">I", len(f)) + f for f in fields)
    with pytest.raises(DecodeError):
        decode(raw)


def test_validation_failure_on_decode():
    # quantity 0 violates the type's own invariant
    fields = [b"UsageDescriptor", b"store", b"put", struct.pack(">Q", 0), b"megabyte"]
    raw = b"".join(struct.pack(">I", len(f)) + f for f in fields)
    with pytest.raises(CodecError):
        decode(raw)


def test_invalid_utf8_rejected():
    fields = [b"UsageDescriptor", b"\xff\xfe", b"put", struct.pack(">Q", 1), b"megabyte"]
    raw = b"".join(struct.pack(">I", len(f)) + f for f in fields)
    with pytest.raises(DecodeError):
        decode(raw)


def test_bool_field_must_be_zero_or_one():
    msg = AuthDecision(bytes(16), False, Signature(b"s" * 64, "SP"))
    raw = bytearray(encode(msg))
    # the bool follows the tag and the 16-byte order nonce; its 8-byte value
    # starts after three 4-byte length prefixes plus the tag and nonce
    offset = 4 + len("AuthDecision") + 4 + 16 + 4
    assert raw[offset + 7] == 0
    raw[offset + 7] = 2
    with pytest.raises(DecodeError):
        decode(bytes(raw))


def test_enum_field_must_hold_a_known_value():
    msg = AuthOutcome(hash_bytes(b"order"), None, DenialReason.OVER_LIMIT)
    raw = bytearray(encode(msg))
    assert raw.count(struct.pack(">Q", int(DenialReason.OVER_LIMIT))) == 1
    i = raw.find(struct.pack(">Q", int(DenialReason.OVER_LIMIT)))
    raw[i:i + 8] = struct.pack(">Q", 99)
    with pytest.raises(DecodeError):
        decode(bytes(raw))


def test_encode_rejects_invariant_violations():
    with pytest.raises((EncodeError, ValidationError)):
        encode(UsageDescriptor("", "put", 1, "megabyte"))
    with pytest.raises((EncodeError, ValidationError)):
        encode(UsageDescriptor("store", "put", 0, "megabyte"))
    with pytest.raises((EncodeError, ValidationError)):
        encode(UsageDescriptor("store", "put", -1, "megabyte"))
    with pytest.raises((EncodeError, ValidationError)):
        encode(UsageDescriptor("store", "put", 2**64, "megabyte"))


def test_unregistered_object_rejected():
    with pytest.raises(EncodeError):
        encode(object())


# --- signing payloads -------------------------------------------------------


def test_signing_payload_excludes_trailing_signature():
    rng = Random("signing")
    quote = genmsg.random_message(PriceQuote, rng)
    payload = signing_payload(quote)
    assert payload not in encode(quote) or quote.provider_signature.bytes not in payload
    other = PriceQuote(
        quote.quote_id, quote.usage, quote.price, quote.expiry,
        Signature(b"\x01" * 64, "someone-else"),
    )
    assert signing_payload(other) == payload


@pytest.mark.parametrize("cls", [HoldRequest, SettleResponse, CaptureRequest],
                         ids=lambda cls: cls.__name__)
def test_signing_payload_excludes_a_trailing_mac(cls):
    # a MAC covers what a signature would: the encoding up to its own field
    msg = genmsg.random_message(cls, Random(f"mac/{cls.__name__}"))
    assert authenticator_field_name(cls).endswith("_mac")
    tag = getattr(msg, authenticator_field_name(cls))
    assert encode(msg) == signing_payload(msg) + struct.pack(">I", len(tag)) + tag


def test_signing_payload_depends_on_every_other_field():
    rng = Random("signing2")
    quote = genmsg.random_message(PriceQuote, rng)
    bumped = PriceQuote(
        quote.quote_id, quote.usage, quote.price + 1, quote.expiry,
        quote.provider_signature,
    )
    assert signing_payload(bumped) != signing_payload(quote)


# --- authenticating the bytes on the wire -------------------------------------


def _authenticated_types() -> list[type]:
    types = []
    for cls in registered_types().values():
        try:
            authenticator_field_name(cls)
        except EncodeError:
            continue
        types.append(cls)
    return types


AUTHENTICATED_TYPES = _authenticated_types()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(AUTHENTICATED_TYPES), st.integers(min_value=0, max_value=2**32))
def test_received_and_sent_payloads_are_the_signing_payload_property(cls, seed):
    # the receiver's part of the bytes and the sender's single encode both
    # agree with re-encoding the instance, for every authenticated type
    msg = genmsg.random_message(cls, Random(seed))
    raw = encode(msg)
    received, covered = decode_authenticated(raw)
    assert received == msg
    assert covered == signing_payload(msg)
    name = authenticator_field_name(cls)
    values = {f.name: getattr(msg, f.name) for f in dataclasses.fields(msg) if f.name != name}
    built, sent = encode_authenticated(cls, values, lambda payload: getattr(msg, name))
    assert built == msg and sent == raw


@pytest.mark.parametrize("object_count,object_size", [(3, 64), (16, 65536)],
                         ids=["default", "bulk"])
def test_every_authenticated_record_carries_its_signing_payload(object_count, object_size):
    from gset import ScenarioConfig, run_storage_scenario

    config = ScenarioConfig(object_count=object_count, object_size=object_size)
    checked = 0
    for record in run_storage_scenario(config).transcript.records:
        msg, covered = decode_authenticated(record.payload)
        if covered is None:
            assert type(msg) not in AUTHENTICATED_TYPES
            continue
        assert covered == signing_payload(decode(record.payload))
        checked += 1
    assert checked == 12  # 7 MAC'd legs and 5 signed ones


# --- privacy by construction ------------------------------------------------


def test_authorize_and_hold_encoding_carries_no_usage_text():
    rng = Random("privacy")
    usage_markers = (b"mobile-storage", b"store-objects", b"megabyte")
    for _ in range(20):
        msg = genmsg.random_message(AuthorizeAndHold, rng)
        raw = encode(msg)
        for marker in usage_markers:
            assert marker not in raw


# --- injectivity ------------------------------------------------------------


def test_distinct_messages_have_distinct_encodings():
    rng = Random("inject")
    seen: dict[bytes, object] = {}
    for cls in registered_types().values():
        for _ in range(50):
            msg = genmsg.random_message(cls, rng)
            raw = encode(msg)
            if raw in seen:
                assert seen[raw] == msg
            seen[raw] = msg
    assert len(seen) > 1200


@settings(max_examples=100, deadline=None)
@given(
    st.text(min_size=1, max_size=30),
    st.text(min_size=1, max_size=30),
    st.integers(min_value=1, max_value=2**64 - 1),
    st.text(min_size=1, max_size=10),
)
def test_usage_descriptor_round_trip_property(service, operation, quantity, unit):
    msg = UsageDescriptor(service, operation, quantity, unit)
    assert decode(encode(msg)) == msg


def test_token_round_trip_preserves_signature_bytes():
    rng = Random("token")
    token = genmsg.random_message(CaptureToken, rng)
    assert decode(encode(token), CaptureToken).tm_signature == token.tm_signature


# --- bulk bytes read in place ----------------------------------------------
#
# Uploaded objects and redeemed payloads decode as read-only views of the
# received frame, not as copies; the frame is an immutable bytes object.

# The provider's state_bytes() once it has stored the default upload, taken
# when it stored bytes copies: a view encodes as the same bytes.
UPLOADED_PROVIDER_STATE_SHA256 = "bb0eca50c3e1d0e30292e96f2d8b690bb59049a98aa29118cf99676dc7a56e48"


def _bulk_frames() -> tuple[bytes, bytes]:
    """An ``ObjectUpload`` frame and a ``TicketRedeemResponse`` frame of one run."""
    from gset import ScenarioConfig, run_storage_scenario
    from harness import recorded

    config = ScenarioConfig(object_count=3, object_size=4096)
    records = run_storage_scenario(config).transcript.records
    return recorded(records, "ObjectUpload")[0], recorded(records, "TicketRedeemResponse")[0]


def _bulk_values(msg) -> list:
    from gset import ObjectUpload

    return list(msg.objects) if isinstance(msg, ObjectUpload) else [msg.payload]


@pytest.mark.parametrize("index", [0, 1], ids=["ObjectUpload", "TicketRedeemResponse"])
def test_bulk_fields_decode_as_read_only_views_of_the_frame(index):
    frame = _bulk_frames()[index]
    msg = decode(frame)
    views = _bulk_values(msg)
    assert views and all(isinstance(v, memoryview) and v.readonly for v in views)
    assert all(v.obj is frame for v in views)
    assert encode(msg) == frame


@pytest.mark.parametrize("index", [0, 1], ids=["ObjectUpload", "TicketRedeemResponse"])
def test_bulk_fields_decoded_from_a_bytearray_do_not_alias_it(index):
    frame = _bulk_frames()[index]
    buffer = bytearray(frame)
    msg = decode(buffer)
    before = [bytes(v) for v in _bulk_values(msg)]
    buffer[:] = bytes(len(buffer))
    assert [bytes(v) for v in _bulk_values(msg)] == before
    assert encode(msg) == frame


def test_bulk_fields_repr_as_their_bytes():
    upload, response = (decode(frame) for frame in _bulk_frames())
    copied = dataclasses.replace(response, payload=bytes(response.payload))
    assert repr(response) == repr(copied)
    assert "memory at" not in repr(upload)


def test_a_refused_redeem_decodes_as_not_ok():
    from gset import TicketRedeemResponse

    refused = decode(encode(TicketRedeemResponse(ticket_id=bytes(16), payload=b"")))
    assert isinstance(refused.payload, memoryview)
    assert refused.ok is False


def test_provider_state_holding_views_is_the_state_of_the_same_bytes():
    from test_actors import decide_then_upload
    from harness import build_actors

    actors = build_actors()
    decision, _ = decide_then_upload(actors)
    assert decision.approved
    stored = actors.sp.stored_objects
    assert stored and all(isinstance(v, memoryview) for v in stored.values())
    blob = actors.sp.state_bytes()
    assert hashlib.sha256(blob).hexdigest() == UPLOADED_PROVIDER_STATE_SHA256
    actors.sp.stored_objects = {k: bytes(v) for k, v in stored.items()}
    assert actors.sp.state_bytes() == blob


# --- wire-format pin --------------------------------------------------------
#
# Both digests were taken from the reference implementation of the codec.  A
# rewrite of the encoder or decoder must reproduce every transcript byte and
# every decode outcome, rejections included: exception type, text and offset.
# They were re-taken when the upload signature moved to the object digests
# and the objects to an AES-CTR keystream; only the ObjectUpload,
# ServiceGrant (object digests) and TicketRedeemResponse (object bytes)
# records changed.  They were re-taken again when the seven server-to-server
# legs moved from a signature to a 32-byte MAC; only those seven types'
# records and decode outcomes changed.  They were re-taken again when the
# grant and the completion came to name their order, the order stopped
# naming its requester and a capture came to send only its token id; only
# the AuthorizationRequest, AuthorizeAndHold (the order digest under the
# dual signature), ServiceGrant, ServiceComplete and CaptureRequest records
# changed, with the same routes, ticks and types.  They were re-taken again
# when every hold came to be named by the trust manager's hold nonce alone:
# the HoldResponse lost the account provider's hold_ref, the SettleRequest
# its settle_nonce and hold_ref for the hold nonce, the SettleResponse
# echoes the hold nonce, and the CaptureToken inside the AuthOutcome lost
# its account_provider_id and hold_ref; only those four types' records
# changed, with the same routes, ticks and types.  They were re-taken again
# when every server-to-server leg became a queued message: each record now
# has a tick of its own (record i at tick i + 1), the AuthOutcome names its
# order by digest and its token carries that digest too (+72 bytes), and the
# CaptureResponse names its token (+20 bytes); over seeds 0-39 of the
# default and the 16 x 64 KiB runs, routes, types, record order and every
# other payload were as before.

DEFAULT_TRANSCRIPT_SHA256 = "5a9568aa69e75a65303a85c4ff1a6a39a37c3defc2c52646843e6d8760b0b7ae"
DECODE_OUTCOMES_SHA256 = "9e45e2f24d3d202b27c4fc99695a4bd668721dba4efd5617bc3febf6ba8149bc"


def _outcome(fn, raw: bytes) -> tuple:
    try:
        return ("ok", repr(fn(raw)))
    except CodecError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "offset", None))


def _mutations(raw: bytes):
    """Every truncation, every single-bit flip and one trailing byte."""
    for cut in range(len(raw)):
        yield raw[:cut]
    for bit in range(len(raw) * 8):
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 0x80 >> (bit % 8)
        yield bytes(flipped)
    yield raw + b"\x00"


def test_default_transcript_bytes_are_pinned():
    from gset import ScenarioConfig, run_storage_scenario

    raw = run_storage_scenario(ScenarioConfig()).transcript.to_bytes()
    assert hashlib.sha256(raw).hexdigest() == DEFAULT_TRANSCRIPT_SHA256


def _decode_outcomes_digest() -> str:
    from gset import ScenarioConfig, run_storage_scenario

    transcript = run_storage_scenario(ScenarioConfig()).transcript
    samples: dict[str, bytes] = {}
    for record in transcript.records:
        samples.setdefault(peek_type(record.payload), record.payload)
    samples["TranscriptMeta"] = encode(transcript.meta)
    samples["TranscriptRecord"] = encode(transcript.records[0])
    stream = encode(transcript.meta) + encode(transcript.records[0])
    digest = hashlib.sha256()
    for tag in sorted(samples):
        for raw in _mutations(samples[tag]):
            digest.update(repr(_outcome(decode, raw)).encode())
        for cut in range(64):
            digest.update(repr(_outcome(peek_type, samples[tag][:cut])).encode())
    for raw in _mutations(stream):
        digest.update(repr(_outcome(decode_stream, raw)).encode())
    return digest.hexdigest()


def test_decode_outcomes_under_mutation_are_pinned():
    assert _decode_outcomes_digest() == DECODE_OUTCOMES_SHA256
