"""Construction-time validation rules for every protocol message type."""
from __future__ import annotations

import dataclasses
import re
from random import Random

import pytest

from gset import (
    AuthOutcome,
    AuthorizeAndHold,
    CaptureResponse,
    CaptureToken,
    DenialReason,
    HoldResponse,
    ObjectUpload,
    OrderInfo,
    PaymentInfo,
    PriceQuote,
    QuoteDenial,
    ServiceGrant,
    SettleRequest,
    SettleResponse,
    Signature,
    Ticket,
    TicketRedeemResponse,
    UsageDescriptor,
    ValidationError,
    codec,
    generate_keypair,
    hash_bytes,
)
from gset import messages
from gset.codec import DecodeError
from gset.messages import (
    PAYMENT_SIZE,
    build_maced,
    build_signed,
    pad_payment,
    unpad_payment,
    verify_maced,
    verify_signed,
)

import genmsg

SIG = Signature(bytes=b"s" * 64, signer_id="X")
MAC = b"m" * 32
NONCE = bytes(range(16))
ORDER = hash_bytes(b"order")  # an order digest


def _authenticated_by(kind) -> set[str]:
    """The registered types whose trailing authenticator is of ``kind``, as
    the codec recorded it, the one fact the actors read too."""
    types = codec.registered_types()
    return {tag for tag, cls in types.items() if codec.authenticator(cls) is kind}


# The registered types whose trailing authenticator is a MAC.
MACED_TYPES = tuple(
    codec.registered_types()[tag] for tag in sorted(_authenticated_by(codec.Mac))
)


def test_seven_types_carry_a_mac():
    # the seven server-to-server legs, and nothing else
    assert sorted(cls.__name__ for cls in MACED_TYPES) == sorted([
        "AuthorizeAndHold", "HoldRequest", "HoldResponse", "CaptureRequest",
        "SettleRequest", "SettleResponse", "CaptureResponse",
    ])


def test_denial_reason_codes_are_stable():
    assert [r.value for r in DenialReason] == [1, 2, 3, 4, 5, 6]
    assert DenialReason.OVER_LIMIT == 1
    assert DenialReason.INSUFFICIENT_CREDIT == 2
    assert DenialReason.BAD_SIGNATURE == 3
    assert DenialReason.REPLAY == 4
    assert DenialReason.EXPIRED_QUOTE == 5
    assert DenialReason.UNKNOWN_ACCOUNT == 6


def test_messages_are_immutable():
    usage = UsageDescriptor("svc", "op", 1, "megabyte")
    with pytest.raises(dataclasses.FrozenInstanceError):
        usage.quantity = 2  # type: ignore[misc]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(service_id=""),
        dict(operation=""),
        dict(unit=""),
        dict(quantity=0),
        dict(quantity=-1),
        dict(quantity=2**64),
        dict(quantity=True),
    ],
)
def test_usage_descriptor_rejects(kwargs):
    base = dict(service_id="svc", operation="op", quantity=3, unit="megabyte")
    with pytest.raises(ValidationError):
        UsageDescriptor(**{**base, **kwargs})


def test_usage_descriptor_accepts_u64_max():
    assert UsageDescriptor("svc", "op", 2**64 - 1, "megabyte").quantity == 2**64 - 1


def test_order_info_nonce_sizes():
    usage = UsageDescriptor("svc", "op", 1, "megabyte")
    OrderInfo(NONCE, usage, NONCE)
    with pytest.raises(ValidationError):
        OrderInfo(NONCE[:-1], usage, NONCE)
    with pytest.raises(ValidationError):
        OrderInfo(NONCE, usage, NONCE + b"\x00")


def test_payment_info_rules():
    PaymentInfo("AP", "ACCT-1", 60, NONCE)
    with pytest.raises(ValidationError):
        PaymentInfo("AP", "", 60, NONCE)
    with pytest.raises(ValidationError):
        PaymentInfo("AP", "ACCT-1", 0, NONCE)
    with pytest.raises(ValidationError):
        PaymentInfo("", "ACCT-1", 60, NONCE)
    with pytest.raises(ValidationError):
        PaymentInfo("AP", "ACCT-1", 60, b"short")


def test_ticket_and_capture_token_rules():
    digest = hash_bytes(b"object")
    Ticket(NONCE, digest)
    with pytest.raises(ValidationError):
        Ticket(b"", digest)

    token = CaptureToken("SP", 50, ORDER, SIG)
    assert token.charge_amount == 50
    with pytest.raises(ValidationError):
        CaptureToken("SP", 0, ORDER, SIG)
    with pytest.raises(ValidationError):
        CaptureToken("", 50, ORDER, SIG)


def test_price_quote_allows_zero_price_and_expiry():
    usage = UsageDescriptor("svc", "op", 1, "megabyte")
    quote = PriceQuote(NONCE, NONCE, usage, 0, 0, SIG)
    assert quote.price == 0
    with pytest.raises(ValidationError):
        PriceQuote(NONCE, b"x", usage, 10, 5, SIG)
    with pytest.raises(ValidationError):
        PriceQuote(b"x", NONCE, usage, 10, 5, SIG)


def test_quote_denial_needs_a_reason_string():
    QuoteDenial(NONCE, "unknown service")
    with pytest.raises(ValidationError):
        QuoteDenial(NONCE, "")


def test_authorize_and_hold_requires_positive_charge():
    sample = genmsg.random_message(AuthorizeAndHold, Random("aah"))
    with pytest.raises(ValidationError):
        dataclasses.replace(sample, charge_amount=0)


def test_auth_outcome_approval_token_coupling():
    token = CaptureToken("SP", 50, ORDER, SIG)
    assert AuthOutcome(ORDER, token, None).approved
    assert not AuthOutcome(ORDER, None, DenialReason.OVER_LIMIT).approved
    with pytest.raises(ValidationError):
        AuthOutcome(ORDER, None, None)
    with pytest.raises(ValidationError):
        AuthOutcome(ORDER, token, DenialReason.OVER_LIMIT)


def test_object_upload_rules():
    ObjectUpload(ORDER, (b"a", b"bb"), SIG)
    with pytest.raises(ValidationError):
        ObjectUpload(ORDER, (), SIG)
    with pytest.raises(ValidationError):
        ObjectUpload(ORDER, (b"a", b""), SIG)


def test_service_grant_needs_tickets():
    ticket = Ticket(NONCE, hash_bytes(b"obj"))
    ServiceGrant(ORDER, (ticket,), SIG)
    with pytest.raises(ValidationError):
        ServiceGrant(ORDER, (), SIG)


def test_redeem_response_payload_coupling():
    assert TicketRedeemResponse(NONCE, b"payload").ok
    assert not TicketRedeemResponse(NONCE, b"").ok


def test_capture_response_reason_coupling():
    # the response names its order by digest, whose size the codec enforces
    assert CaptureResponse(ORDER, None, MAC).settled
    assert not CaptureResponse(ORDER, DenialReason.REPLAY, MAC).settled


def test_hold_response_branches():
    # placed or refused, the response names its hold by the request's nonce
    assert HoldResponse(NONCE, None, MAC).ok
    assert not HoldResponse(NONCE, DenialReason.INSUFFICIENT_CREDIT, MAC).ok
    with pytest.raises(ValidationError):
        HoldResponse(b"", None, MAC)


def test_settle_response_branches():
    assert SettleResponse(NONCE, 50, None, MAC).ok
    assert not SettleResponse(NONCE, 0, DenialReason.REPLAY, MAC).ok
    with pytest.raises(ValidationError):
        SettleResponse(NONCE, 0, None, MAC)
    with pytest.raises(ValidationError):
        SettleResponse(NONCE, 50, DenialReason.REPLAY, MAC)


@pytest.mark.parametrize("cls", MACED_TYPES, ids=lambda cls: cls.__name__)
def test_a_mac_must_be_32_bytes(cls):
    sample = genmsg.random_message(cls, Random(cls.__name__))
    field = codec.authenticator_field_name(cls)
    assert field.endswith("_mac")
    for size in (0, 31, 33, 64):
        with pytest.raises(ValidationError):
            dataclasses.replace(sample, **{field: bytes(size)})


def _docstring_table(header: str) -> set[str]:
    """Type names in the ``gset.messages`` docstring table under ``header``."""
    lines = messages.__doc__.splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip().startswith(header))
    names = set()
    for line in lines[start + 1:]:
        if not line.strip():
            return names
        if match := re.match(r" {4}([A-Z]\w+) ", line):
            names.add(match[1])
    raise AssertionError(f"table {header!r} runs to the end of the docstring")


def test_the_evidence_tables_name_exactly_the_authenticated_types():
    # AuthorizationRequest's dual signature is a field of its own, not a trailer
    signed = _authenticated_by(Signature) | {"AuthorizationRequest"}
    assert _docstring_table("signed type") == signed
    assert _docstring_table("MAC'd type") == _authenticated_by(codec.Mac)
    assert {cls.__name__ for cls in MACED_TYPES} == _docstring_table("MAC'd type")


# --- the sealed payment's padding ----------------------------------------------


def test_a_padded_payment_has_one_size_and_opens_to_itself():
    for payment in (b"", b"\x80", b"pay\x00", b"x" * (PAYMENT_SIZE - 1)):
        padded = pad_payment(payment)
        assert len(padded) == PAYMENT_SIZE
        assert unpad_payment(padded) == payment
    for size in (PAYMENT_SIZE, PAYMENT_SIZE + 1):
        with pytest.raises(ValueError, match="no room for its padding"):
            pad_payment(b"x" * size)


def test_only_the_padding_pad_payment_writes_opens():
    padded = pad_payment(b"pay")
    for bad in (
        padded[:-1],  # short
        padded + b"\x00",  # long
        padded[:-1] + b"\x01",  # a non-zero byte after the marker
        b"pay" + bytes(PAYMENT_SIZE - 3),  # no marker
        b"pay\x81" + bytes(PAYMENT_SIZE - 4),  # another marker
    ):
        with pytest.raises(DecodeError):
            unpad_payment(bad)


# --- detached signature and MAC helpers ----------------------------------------


def _token_fields() -> dict:
    return dict(provider_id="SP", charge_amount=50, oi_digest=ORDER)


def test_build_signed_round_trips_with_verify_signed():
    tm = generate_keypair("TM", seed=7)
    msg, raw = build_signed(CaptureToken, tm, **_token_fields())
    assert msg.tm_signature.signer_id == "TM"
    assert verify_signed(msg, tm.public_key)
    assert raw == codec.encode(msg)


def test_verify_signed_fails_for_wrong_key_or_altered_field():
    tm = generate_keypair("TM", seed=7)
    other = generate_keypair("TM2", seed=7)
    msg, _ = build_signed(CaptureToken, tm, **_token_fields())
    assert not verify_signed(msg, other.public_key)
    altered = dataclasses.replace(msg, oi_digest=hash_bytes(b"another order"))
    assert not verify_signed(altered, tm.public_key)


def test_build_maced_round_trips_with_verify_maced():
    key = bytes(range(32))
    msg, raw = build_maced(SettleRequest, key, hold_nonce=NONCE)
    assert len(msg.tm_mac) == 32
    assert verify_maced(msg, key, codec.decode_authenticated(raw)[1])
    assert raw == codec.encode(msg)
    assert codec.decode(raw, SettleRequest) == msg


def test_verify_maced_fails_for_wrong_key_or_altered_field():
    key = bytes(range(32))
    msg, raw = build_maced(SettleRequest, key, hold_nonce=NONCE)
    assert not verify_maced(msg, bytes(32), codec.decode_authenticated(raw)[1])
    altered = dataclasses.replace(msg, hold_nonce=bytes(16))
    assert not verify_maced(altered, key, codec.decode_authenticated(codec.encode(altered))[1])
