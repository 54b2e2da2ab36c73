"""Canonical wire encoding: determinism, round trips, rejection of bad bytes."""
from __future__ import annotations

import ast
import dataclasses
import hashlib
import pathlib
import struct
import subprocess
import sys
import typing
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gset import (
    Action,
    AuthDecision,
    AuthOutcome,
    AuthorizeAndHold,
    CaptureRequest,
    CaptureToken,
    DenialReason,
    HoldRequest,
    ObjectUpload,
    PriceQuote,
    PriceRequest,
    ServiceGrant,
    SettleResponse,
    Signature,
    TranscriptRecord,
    UsageDescriptor,
    WireMessage,
    hash_bytes,
)
from gset import codec
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


# --- the derived generator ---------------------------------------------------


def _named_in_genmsg() -> set[type]:
    """The registered types that ``genmsg``'s code names, by a name or an attribute."""
    tree = ast.parse(pathlib.Path(genmsg.__file__).read_text(encoding="utf-8"))
    registered = set(registered_types().values())
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            try:
                value = eval(compile(ast.Expression(node), "genmsg", "eval"), vars(genmsg))
            except (NameError, AttributeError):
                continue  # a local, or an attribute of one
            if isinstance(value, type) and value in registered:
                named.add(value)
    return named


def test_the_generator_builds_every_registered_type_from_its_hints():
    for cls in registered_types().values():
        assert type(genmsg.random_message(cls, Random(cls.__name__))) is cls
    # a type genmsg names is one with code of its own there, which only what
    # no hint can state, a ``validate`` relating fields, may need
    for cls in _named_in_genmsg():
        assert "validate" in cls.__dict__, cls.__name__


# Each leaf's edge value; a collection's is empty.
EDGE_VALUES = {int: 0, codec.U64: 0, str: "", bytes: b"", codec.Bulk: b""}


def test_the_generator_draws_every_edge_value_a_type_accepts():
    for cls in registered_types().values():
        rng = Random(f"edges/{cls.__name__}")
        samples = [genmsg.random_message(cls, rng) for _ in range(200)]
        for name, tp in typing.get_type_hints(cls).items():
            origin = typing.get_origin(tp)
            if tp in EDGE_VALUES:
                edge = EDGE_VALUES[tp]
            elif origin in (tuple, dict, set):
                edge = origin()
            else:
                continue
            if not any(getattr(msg, name) == edge for msg in samples):
                # an edge value the generator never drew is one the type refuses
                with pytest.raises((ValidationError, ValueError)):
                    dataclasses.replace(samples[0], **{name: edge})


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
    msg = AuthDecision(hash_bytes(b"order"), False, Signature(b"s" * 64, "SP"))
    raw = bytearray(encode(msg))
    # the bool follows the tag and the 32-byte order digest; its 8-byte value
    # starts after three 4-byte length prefixes plus the tag and digest
    offset = 4 + len("AuthDecision") + 4 + 32 + 4
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


# --- field kinds ------------------------------------------------------------
#
# Driven by the schema: every field of every registered type annotated with
# a kind keeps that kind's rule, nested messages included.

# Each kind's wrong values and the text its rule refuses them with.
KIND_REFUSALS = {
    codec.Nonce: ((bytes(15), bytes(17), b"", "x" * 16), "must be 16 bytes"),
    codec.Mac: ((bytes(31), bytes(33), b""), "must be 32 bytes"),
    codec.Label: (("", b"label"), "must be non-empty"),
    codec.U64: ((-1, 2**64, True), "must be an unsigned 64-bit integer >= 0"),
    codec.Positive: ((0, -1, 2**64, True), "must be an unsigned 64-bit integer >= 1"),
}
# A wrong value of each kind that its base type encodes; every 64-bit value
# is a ``U64``, so it has none.
ENCODABLE_WRONG = {codec.Nonce: bytes(15), codec.Mac: bytes(31), codec.Label: "", codec.Positive: 0}


KINDED = [
    (cls, name, kind)
    for cls in registered_types().values()
    for name, kind in typing.get_type_hints(cls).items()
    if kind in KIND_REFUSALS
]


def test_the_messages_declare_every_kind():
    assert {kind for _, _, kind in KINDED} == set(KIND_REFUSALS)
    assert {cls.__name__ for cls, _, _ in KINDED} >= {"Ticket", "UsageDescriptor"}


@pytest.mark.parametrize(
    "cls, name, kind", KINDED, ids=[f"{cls.__name__}.{name}" for cls, name, _ in KINDED]
)
def test_a_kinded_field_refuses_a_wrong_value_at_construction(cls, name, kind):
    sample = genmsg.random_message(cls, Random(cls.__name__))
    wrong, text = KIND_REFUSALS[kind]
    for value in wrong:
        with pytest.raises(ValidationError) as exc:
            dataclasses.replace(sample, **{name: value})
        assert str(exc.value) == f"{name} {text}"


def _unchecked(msg, **changes):
    """A copy of ``msg`` with ``changes``, built without its construction checks."""
    copy = object.__new__(type(msg))
    for f in dataclasses.fields(msg):
        object.__setattr__(copy, f.name, changes.get(f.name, getattr(msg, f.name)))
    return copy


def _wrong_leaves(msg):
    """Yield ``(bad copy of msg, type holding the field, field, kind)`` for
    each kinded field of ``msg`` and of the messages nested in it, the bad
    copy carrying that kind's encodable wrong value in that one field."""
    hints = typing.get_type_hints(type(msg))
    for f in dataclasses.fields(msg):
        value = getattr(msg, f.name)
        if hints[f.name] in ENCODABLE_WRONG:
            wrong = ENCODABLE_WRONG[hints[f.name]]
            yield _unchecked(msg, **{f.name: wrong}), type(msg), f.name, hints[f.name]
        elif type(value) in registered_types().values():
            for bad, owner, name, kind in _wrong_leaves(value):
                yield _unchecked(msg, **{f.name: bad}), owner, name, kind
        elif isinstance(value, tuple) and value and type(value[0]) in registered_types().values():
            for bad, owner, name, kind in _wrong_leaves(value[0]):
                yield _unchecked(msg, **{f.name: (bad, *value[1:])}), owner, name, kind


def _frames_with_a_wrong_field():
    cases = []
    for cls in registered_types().values():
        # the sample with the most nested fields: an approved outcome's token
        samples = [genmsg.random_message(cls, Random(seed)) for seed in range(8)]
        sample = max(samples, key=lambda msg: len(list(_wrong_leaves(msg))))
        for bad, owner, name, kind in _wrong_leaves(sample):
            where = name if owner is cls else f"{owner.__name__}.{name}"
            cases.append(pytest.param(encode(bad), owner, name, kind, id=f"{cls.__name__}:{where}"))
    return cases


@pytest.mark.parametrize("raw, owner, name, kind", _frames_with_a_wrong_field())
def test_a_frame_with_a_wrong_kinded_field_is_refused_on_decode(raw, owner, name, kind):
    with pytest.raises(DecodeError) as exc:
        decode(raw)
    text = KIND_REFUSALS[kind][1]
    assert f"{owner.__name__} invariant violated: {name} {text}" in str(exc.value)


def _sample(cls, where=lambda msg: True):
    """The first of ``cls``'s generated samples that ``where`` accepts."""
    return next(
        msg for msg in (genmsg.random_message(cls, Random(seed)) for seed in range(32))
        if where(msg)
    )


def _frames_breaking_a_validate_rule():
    """A frame breaking each ``validate`` rule left, with the text it must raise."""
    approved = _sample(AuthOutcome, lambda msg: msg.token is not None)
    denied = _sample(AuthOutcome, lambda msg: msg.token is None)
    upload = _sample(ObjectUpload, lambda msg: len(msg.objects) > 1)
    settled = _sample(SettleResponse, lambda msg: msg.ok)
    refused = _sample(SettleResponse, lambda msg: not msg.ok)
    wire = _sample(WireMessage)
    record = _sample(TranscriptRecord)
    one_of = "outcome must carry exactly one of token and reason"
    cases = [
        (_unchecked(approved, reason=denied.reason), one_of),
        (_unchecked(denied, reason=None), one_of),
        (_unchecked(upload, objects=()), "upload must contain at least one object"),
        (_unchecked(upload, objects=(upload.objects[0], b"")), "objects[1] must be non-empty"),
        (_unchecked(_sample(ServiceGrant), tickets=()), "grant must contain at least one ticket"),
        (_unchecked(settled, amount=0), "amount must be an unsigned 64-bit integer >= 1"),
        (_unchecked(refused, amount=5), "refused settlement must carry amount 0"),
        (_unchecked(wire, payload=b""), "wire message payload must not be empty"),
        (_unchecked(record, payload=b""), "record payload must not be empty"),
    ]
    return [
        pytest.param(encode(bad), f"{type(bad).__name__} invariant violated: {text}", id=text)
        for bad, text in cases
    ]


@pytest.mark.parametrize("raw, text", _frames_breaking_a_validate_rule())
def test_a_frame_breaking_a_validate_rule_is_refused_on_decode(raw, text):
    with pytest.raises(DecodeError) as exc:
        decode(raw)
    assert text in str(exc.value)


def test_a_record_frame_with_an_unknown_action_is_refused_on_decode():
    # the record's action is an enum, which states the five actions itself
    fields = [b"TranscriptRecord", struct.pack(">Q", 1), b"SR", b"SP", b"x",
              struct.pack(">Q", 4), b""]
    assert decode(_framed(fields)).action is Action.DROPPED
    fields[5] = struct.pack(">Q", 5)
    with pytest.raises(DecodeError) as exc:
        decode(_framed(fields))
    assert "TranscriptRecord.action: 5 is not a valid Action" in str(exc.value)


def test_a_mac_authenticator_is_known_by_its_kind():
    maced = {
        cls.__name__ for cls, name, kind in KINDED
        if kind is codec.Mac and authenticator_field_name(cls) == name
    }
    assert maced == {
        "AuthorizeAndHold", "HoldRequest", "HoldResponse", "CaptureRequest",
        "SettleRequest", "SettleResponse", "CaptureResponse",
    }


# --- signing payloads -------------------------------------------------------


def test_signing_payload_excludes_trailing_signature():
    rng = Random("signing")
    quote = genmsg.random_message(PriceQuote, rng)
    payload = signing_payload(quote)
    assert payload not in encode(quote) or quote.provider_signature.bytes not in payload
    other = PriceQuote(
        quote.request_nonce, quote.quote_id, quote.usage, quote.price, quote.expiry,
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
        quote.request_nonce, quote.quote_id, quote.usage, quote.price + 1, quote.expiry,
        quote.provider_signature,
    )
    assert signing_payload(bumped) != signing_payload(quote)


# --- authenticating the bytes on the wire -------------------------------------


# Every type whose trailing field is a signature or a MAC, as the codec
# recorded it.
AUTHENTICATED_TYPES = [
    cls for cls in registered_types().values() if codec.authenticator(cls) is not None
]


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
# when it stored bytes copies: a view encodes as the same bytes.  Re-taken
# when the provider came to key its orders by the order digest, and its
# record of an order lost the digest and the token id; the stored objects
# and the issued quote are as before.  Re-taken when handlers came to return
# events in place of keeping notes and denials: the new state is the old
# one's encoding with those two (empty) attributes left out.  Re-taken when
# the recorded state became one codec message (``ServiceProviderState``) in
# place of the actors' own encoding: decoded field by field, it holds the
# same quotes, orders and objects the provider's attributes held before.
UPLOADED_PROVIDER_STATE_SHA256 = "ba20749c2e8b6124498363a80e35a4155a06060f22ca6f3814d175eb1fd9b5e6"


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
# other payload were as before.  They were re-taken again when the order
# digest became each order's one name: the AuthDecision, ObjectUpload,
# ServiceGrant, ServiceComplete, CaptureRequest and CaptureResponse name the
# 32-byte digest for a 16-byte nonce or token id (+16 bytes each), the
# CaptureToken inside the AuthOutcome lost its token id (-20), the
# PriceQuote names its request's nonce (+20) and the AuthorizationRequest
# carries the order as its tagged encoding (+13); over seeds 0-39 of the
# default and the 16 x 64 KiB runs, routes, ticks, types, record order and
# the payloads of the other eight types were as before, and so were the
# decode outcomes of those eight types, TranscriptMeta, TranscriptRecord
# and the decode_stream sweep.  They were re-taken again when the sealed
# envelope became its ephemeral key and its ciphertext under the agreed key,
# without a content key, key wrap or recipient id (78 bytes fewer): only the
# AuthorizationRequest and AuthorizeAndHold records changed, and only in
# their payment envelope and the provider's MAC over it, with the same
# routes, ticks and types, and the same payment plaintext inside; the decode
# outcomes of every other type, TranscriptMeta, TranscriptRecord and the
# decode_stream sweep were as before.  They were re-taken again when the
# upload's signature came to cover the codec encoding of an UploadManifest
# (the order digest and the object digests) in place of a hand-framed
# payload of the same digests: only the ObjectUpload record changed, and
# only in its 64 signature bytes, in the default and the 16 x 64 KiB runs,
# with the same sizes, routes, types and events; only the ObjectUpload
# decode outcomes moved.  They were re-taken again when each half of the
# dual signature came to travel with the other half's digest only, and the
# sealed payment's plaintext came to be padded to 128 bytes: the
# AuthorizationRequest lost the order's digest and the AuthorizeAndHold the
# payment's (-40 bytes each), and each envelope's ciphertext grew by 18
# bytes; in the default and the 16 x 64 KiB runs the order bytes, the
# ephemeral key, the signature, the remaining digest, the charge and the
# opened payment were as before, and so were the routes, ticks, types,
# events and every other record.  Per tag, only the AuthorizationRequest and
# AuthorizeAndHold decode outcomes moved; the DualSignature type is gone.
# They were re-taken again when a record's adversary action became an
# ``Action`` enum in place of a string: only ``TranscriptRecord.action``'s
# encoding moved, to 8 bytes where the empty string had none (4645 -> 4813
# bytes over 21 records).  Decoded record by record, the parent's and the new
# default transcript have the same ticks, routes, payloads, errors, events and
# action names; per tag, only the TranscriptRecord decode outcomes moved, and
# with them the decode_stream sweep, whose stream holds a record.

DEFAULT_TRANSCRIPT_SHA256 = "7cd665311e940c0dab3f9a3da10f2571596a5908642080f946a11c4cb26cdb29"
DECODE_OUTCOMES_SHA256 = "a922027a8eec5496eada9013f26d517d1c9add5bf0ef1ffe5f9436c8d20014c4"


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


def test_no_wire_tag_cut_short_by_a_flipped_length_bit_is_registered():
    # a flipped bit in the length of a record's type tag can cut the tag
    # short; were the shorter tag registered (``Hold``, within
    # ``HoldResponse``), the mutated record would decode further and the
    # pinned decode outcomes would change
    from gset import ScenarioConfig, run_storage_scenario

    records = run_storage_scenario(ScenarioConfig()).transcript.records
    wire = {peek_type(record.payload) for record in records}
    cut = {tag[:len(tag) ^ (1 << bit)] for tag in wire for bit in range(8)
           if len(tag) ^ (1 << bit) < len(tag)}
    assert "Hold" in cut
    assert cut.isdisjoint(registered_types())
