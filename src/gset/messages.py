"""Protocol messages for the gSET flows.

Three flows are covered: pricing (PriceRequest/PriceQuote), authorization
and payment (AuthorizationRequest through AuthOutcome, with the trust
manager's hold/settle exchange against the account provider), and service
delivery plus credit collection (ObjectUpload, ServiceGrant, ticket
redemption, CaptureRequest/CaptureResponse).

The separation that gives the protocol its privacy property is structural:
payment details exist only inside a sealed envelope addressed to the trust
manager, order details never leave the requester/provider side, and the
dual signature ties the two halves together through digests alone.

Messages are frozen dataclasses registered with the canonical codec; each
validates its own invariants on construction (at the sender) and on decode
(at the receiver).  A trailing ``*_signature`` field is a detached Ed25519
signature, and a trailing ``*_mac`` field a 32-byte HMAC-SHA256 tag, over
the leading part of the message's encoding: the type tag and every field
before the authenticator.  The sender authenticates that part of the bytes
it sends (``build_signed``, ``build_maced``), and the receiver checks the
same part of the bytes it received (``codec.decode_authenticated``,
``verify_signed``, ``verify_maced``); neither end encodes the message a
second time.

One proof per fact.  Each signature below is checked by the party named as
its verifier, and the signed message is what that party could later show to
a third party (an arbiter, or the next party in the flow) as evidence of
what the signer said:

    signed type            signer  verifier  evidence it gives, and to whom
    PriceQuote             SP      SR        the offered price, to the TM or an arbiter
    AuthorizationRequest   SR      SP, TM    the order (SP) and the payment cap (TM),
      .dual                                  bound together, to an arbiter
    CaptureToken           TM      SP        the approved charge, to an arbiter
    AuthDecision           SP      SR        the approval or refusal, to an arbiter
    ObjectUpload           SR      SP        the digests of the objects the requester
                                             shipped, to an arbiter
    ServiceGrant           SP      SR        receipt of those objects (one digest per
                                             ticket) for the order it names, to an arbiter
    ServiceComplete        SR      SP        the requester's acceptance of the order it
                                             names, to the TM or an arbiter

The seven server-to-server legs are never handed to a third party: each is
checked by its one receiver and goes no further.  They carry a MAC under a
key only the two ends hold, one key per direction (``crypto.mac_keys``):

    MAC'd type             sender  receiver  evidence it gives
    AuthorizeAndHold       SP      TM        MAC, pairwise; no third-party evidence
    HoldRequest            TM      AP        MAC, pairwise; no third-party evidence
    HoldResponse           AP      TM        MAC, pairwise; no third-party evidence
    CaptureRequest         SP      TM        MAC, pairwise; no third-party evidence
    SettleRequest          TM      AP        MAC, pairwise; no third-party evidence
    SettleResponse         AP      TM        MAC, pairwise; no third-party evidence
    CaptureResponse        TM      SP        MAC, pairwise; no third-party evidence

Non-repudiation given up on those legs: the receiver can compute the tag
itself, so none of these messages shows an arbiter who said it.  No
arbiter can be shown the charge the provider asked the TM for, the TM's
hold and settle instructions, the AP's hold placed or refused and amount
settled, the provider's claim on a token id, or the TM's settled capture.
What an arbiter can still be shown is signed: the requester's order and
payment cap (the dual signature) and the TM's approved charge (the
``CaptureToken``).

A hold has one name from request to settlement: the ``hold_nonce`` the
trust manager draws for its ``HoldRequest``.  The ``HoldResponse`` and the
``SettleResponse`` echo it, and the ``SettleRequest`` names the hold to
settle by it.  The ``CaptureToken`` carries only what its reader, the
provider, reads: the token id it claims, its own id, the charge and the
order digest ``dual.oi_digest`` that binds the charge to its order.  The
payer's account provider and the hold stay in the trust manager's record of
the hold, so the provider never sees either.

Every leg is a queued message, so each answer names what it answers: the
``AuthOutcome`` its order by the order digest, the ``HoldResponse`` and
``SettleResponse`` their hold by its nonce, and the ``CaptureResponse`` its
token by id.

An ``ObjectUpload`` signature covers the order nonce and the SHA-256 digest
of each object, not the object bytes (``upload_signing_payload``), so a
forged upload needs a SHA-256 collision or second preimage on an object: the
assumption the tickets and the dual signature already rest on.

Unsigned: ``PriceRequest`` and ``QuoteDenial`` (an enquiry and its refusal
commit nobody), ``AuthOutcome`` (an approval's authority is its token's
signature), ``TicketRedeemRequest`` (a bearer claim) and
``TicketRedeemResponse``: the signed ``ServiceGrant`` ticket already
commits to the object's digest, which the requester checks the payload
against, so a provider signature would prove the same fact twice.
"""

from __future__ import annotations

import enum
import struct
from functools import partial
from typing import TypeVar

from . import codec
from .codec import Bulk, ValidationError, canonical_message
from .crypto import (
    MAC_SIZE,
    Digest,
    DualSignature,
    KeyPair,
    SealedEnvelope,
    Signature,
    hash_bytes,
    mac,
    mac_ok,
    sign,
    verify,
)

NONCE_SIZE = 16
M = TypeVar("M")
_U64_MAX = 2**64 - 1


class DenialReason(enum.IntEnum):
    """Why an authorization, hold, or capture was refused."""

    OVER_LIMIT = 1
    INSUFFICIENT_CREDIT = 2
    BAD_SIGNATURE = 3
    REPLAY = 4
    EXPIRED_QUOTE = 5
    UNKNOWN_ACCOUNT = 6


def _need(condition: bool, what: str) -> None:
    if not condition:
        raise ValidationError(what)


# The checks below run on every message built or decoded, so each tests
# first and formats its text only on failure.
def _need_nonce(value: bytes, what: str) -> None:
    if not (isinstance(value, bytes) and len(value) == NONCE_SIZE):
        raise ValidationError(f"{what} must be {NONCE_SIZE} bytes")


def _need_label(value: str, what: str) -> None:
    if not (isinstance(value, str) and value):
        raise ValidationError(f"{what} must be non-empty")


def _need_mac(value: bytes, what: str) -> None:
    if not (isinstance(value, bytes) and len(value) == MAC_SIZE):
        raise ValidationError(f"{what} must be {MAC_SIZE} bytes")


def _need_u64(value: int, what: str, minimum: int = 0) -> None:
    if not (
        isinstance(value, int) and not isinstance(value, bool)
        and minimum <= value <= _U64_MAX
    ):
        raise ValidationError(f"{what} must be an unsigned 64-bit integer >= {minimum}")


# --- shared components -------------------------------------------------------


@canonical_message
class UsageDescriptor:
    """What the requester wants to do: a service, an operation, an amount."""

    service_id: str
    operation: str
    quantity: int
    unit: str

    def validate(self) -> None:
        _need_label(self.service_id, "service_id")
        _need_label(self.operation, "operation")
        _need_u64(self.quantity, "quantity", minimum=1)
        _need_label(self.unit, "unit")


@canonical_message
class OrderInfo:
    """The order half of an authorization: quote reference plus usage.  Its
    requester is the dual signature's signer."""

    quote_id: bytes
    usage: UsageDescriptor
    order_nonce: bytes

    def validate(self) -> None:
        _need_nonce(self.quote_id, "quote_id")
        _need_nonce(self.order_nonce, "order_nonce")


@canonical_message
class PaymentInfo:
    """The payment half: account coordinates and the requester's spend cap.

    Travels only inside a sealed envelope addressed to the trust manager;
    the service provider never sees these fields in the clear.
    """

    account_provider_id: str
    account_ref: str
    authorized_limit: int
    payment_nonce: bytes

    def validate(self) -> None:
        _need_label(self.account_provider_id, "account_provider_id")
        _need_label(self.account_ref, "account_ref")
        _need_u64(self.authorized_limit, "authorized_limit", minimum=1)
        _need_nonce(self.payment_nonce, "payment_nonce")


@canonical_message
class Ticket:
    """Single-use claim on one stored object."""

    ticket_id: bytes
    object_digest: Digest

    def matches(self, obj: bytes) -> bool:
        """Is ``obj`` the object this ticket commits to?"""
        return hash_bytes(obj) == self.object_digest

    def validate(self) -> None:
        _need_nonce(self.ticket_id, "ticket_id")


@canonical_message
class CaptureToken:
    """Trust-manager-signed voucher the provider redeems to collect credit,
    for the charge it approved on the order ``oi_digest``."""

    token_id: bytes
    provider_id: str
    charge_amount: int
    oi_digest: Digest
    tm_signature: Signature

    def validate(self) -> None:
        _need_nonce(self.token_id, "token_id")
        _need_label(self.provider_id, "provider_id")
        _need_u64(self.charge_amount, "charge_amount", minimum=1)


# --- pricing flow ------------------------------------------------------------


@canonical_message
class PriceRequest:
    """Unauthenticated enquiry; the provider answers whoever sent it."""

    usage: UsageDescriptor
    nonce: bytes

    def validate(self) -> None:
        _need_nonce(self.nonce, "nonce")


@canonical_message
class PriceQuote:
    """Provider's signed offer: this usage, this price, until this tick."""

    quote_id: bytes
    usage: UsageDescriptor
    price: int
    expiry: int
    provider_signature: Signature

    def validate(self) -> None:
        _need_nonce(self.quote_id, "quote_id")
        _need_u64(self.price, "price")
        _need_u64(self.expiry, "expiry")


@canonical_message
class QuoteDenial:
    """Provider cannot price the requested usage."""

    request_nonce: bytes
    reason: str

    def validate(self) -> None:
        _need_nonce(self.request_nonce, "request_nonce")
        _need_label(self.reason, "reason")


# --- authorization flow ------------------------------------------------------


@canonical_message
class AuthorizationRequest:
    """Requester to provider: order in the clear, payment sealed away.

    ``dual.pi_digest`` is the hash of the sealed plaintext, letting the
    provider run the order-side dual-signature check without opening the
    envelope.
    """

    order_info: OrderInfo
    payment_envelope: SealedEnvelope
    dual: DualSignature


@canonical_message
class AuthorizeAndHold:
    """Provider to trust manager: relay the sealed payment, name a charge.

    Deliberately contains no OrderInfo plaintext; the trust manager learns
    the charge and the order digest (``dual.oi_digest``), never what was
    ordered.  ``provider_mac`` is under the provider-to-trust-manager key.
    """

    payment_envelope: SealedEnvelope
    dual: DualSignature
    charge_amount: int
    provider_mac: bytes

    def validate(self) -> None:
        _need_u64(self.charge_amount, "charge_amount", minimum=1)
        _need_mac(self.provider_mac, "provider_mac")


@canonical_message
class AuthOutcome:
    """Trust manager's verdict on the order ``oi_digest``: a capture token, or
    a precise refusal."""

    oi_digest: Digest
    token: CaptureToken | None
    reason: DenialReason | None

    @property
    def approved(self) -> bool:
        return self.token is not None

    def validate(self) -> None:
        _need((self.token is None) != (self.reason is None),
              "outcome must carry exactly one of token and reason")


@canonical_message
class AuthDecision:
    """Provider to requester: approved or not, and nothing more.

    Credit-related refusal reasons stay between provider, trust manager,
    and account provider.
    """

    order_nonce: bytes
    approved: bool
    provider_signature: Signature

    def validate(self) -> None:
        _need_nonce(self.order_nonce, "order_nonce")


# --- service delivery and collection -----------------------------------------


@canonical_message
class ObjectUpload:
    """Requester ships the payload objects for an approved order.  Decoded,
    each object is a read-only view of the received frame (``Bulk``)."""

    order_nonce: bytes
    objects: tuple[Bulk, ...]
    requester_signature: Signature

    def validate(self) -> None:
        _need_nonce(self.order_nonce, "order_nonce")
        _need(len(self.objects) > 0, "upload must contain at least one object")
        for i, obj in enumerate(self.objects):
            if not (isinstance(obj, (bytes, memoryview)) and obj):
                raise ValidationError(f"objects[{i}] must be non-empty")


@canonical_message
class ServiceGrant:
    """Provider's receipt for the objects stored for the order ``order_nonce``:
    one single-use ticket each."""

    order_nonce: bytes
    tickets: tuple[Ticket, ...]
    provider_signature: Signature

    def validate(self) -> None:
        _need_nonce(self.order_nonce, "order_nonce")
        _need(len(self.tickets) > 0, "grant must contain at least one ticket")


@canonical_message
class TicketRedeemRequest:
    """Bearer redemption: whoever holds the ticket id may claim the object."""

    ticket_id: bytes

    def validate(self) -> None:
        _need_nonce(self.ticket_id, "ticket_id")


@canonical_message
class TicketRedeemResponse:
    """The stored object, or no bytes at all when the ticket is refused.

    Stored objects are never empty (see ``ObjectUpload``), so an empty
    payload is unambiguous.  Unsigned: the requester checks the payload
    against the digest its signed ``ServiceGrant`` ticket commits to.  Decoded,
    the payload is a read-only view of the received frame (``Bulk``).
    """

    ticket_id: bytes
    payload: Bulk

    @property
    def ok(self) -> bool:
        return bool(self.payload)

    def validate(self) -> None:
        _need_nonce(self.ticket_id, "ticket_id")


@canonical_message
class ServiceComplete:
    """Requester confirms delivery of the order ``order_nonce``; the provider
    may now collect credit."""

    order_nonce: bytes
    requester_signature: Signature

    def validate(self) -> None:
        _need_nonce(self.order_nonce, "order_nonce")


@canonical_message
class CaptureRequest:
    """Provider claims the token it names; the trust manager holds the token."""

    token_id: bytes
    provider_mac: bytes

    def validate(self) -> None:
        _need_nonce(self.token_id, "token_id")
        _need_mac(self.provider_mac, "provider_mac")


@canonical_message
class CaptureResponse:
    """The token ``token_id`` is settled, or its capture refused for ``reason``."""

    token_id: bytes
    reason: DenialReason | None
    tm_mac: bytes

    @property
    def settled(self) -> bool:
        return self.reason is None

    def validate(self) -> None:
        _need_nonce(self.token_id, "token_id")
        _need_mac(self.tm_mac, "tm_mac")


# --- trust manager / account provider exchange -------------------------------


@canonical_message
class HoldRequest:
    """Trust manager asks the account provider to reserve credit."""

    hold_nonce: bytes
    account_ref_digest: Digest
    amount: int
    tm_mac: bytes

    def validate(self) -> None:
        _need_nonce(self.hold_nonce, "hold_nonce")
        _need_u64(self.amount, "amount", minimum=1)
        _need_mac(self.tm_mac, "tm_mac")


@canonical_message
class HoldResponse:
    """The hold named ``hold_nonce`` is placed, or refused for ``reason``."""

    hold_nonce: bytes
    reason: DenialReason | None
    ap_mac: bytes

    @property
    def ok(self) -> bool:
        return self.reason is None

    def validate(self) -> None:
        _need_nonce(self.hold_nonce, "hold_nonce")
        _need_mac(self.ap_mac, "ap_mac")


@canonical_message
class SettleRequest:
    """Trust manager asks the account provider to settle the hold it named."""

    hold_nonce: bytes
    tm_mac: bytes

    def validate(self) -> None:
        _need_nonce(self.hold_nonce, "hold_nonce")
        _need_mac(self.tm_mac, "tm_mac")


@canonical_message
class SettleResponse:
    hold_nonce: bytes
    amount: int
    reason: DenialReason | None
    ap_mac: bytes

    @property
    def ok(self) -> bool:
        return self.reason is None

    def validate(self) -> None:
        _need_nonce(self.hold_nonce, "hold_nonce")
        if self.ok:
            _need_u64(self.amount, "amount", minimum=1)
        else:
            _need(self.amount == 0, "refused settlement must carry amount 0")
        _need_mac(self.ap_mac, "ap_mac")


# --- signing helpers ----------------------------------------------------------

_UPLOAD_DIGESTS_TAG = b"ObjectUpload/digests"
_FRAMED_UPLOAD_DIGESTS_TAG = struct.pack(">I", len(_UPLOAD_DIGESTS_TAG)) + _UPLOAD_DIGESTS_TAG


def object_digests(objects: tuple[bytes, ...]) -> tuple[Digest, ...]:
    """The SHA-256 digest of each object, in order."""
    return tuple(hash_bytes(obj) for obj in objects)


def upload_signing_payload(order_nonce: bytes, digests: tuple[Digest, ...]) -> bytes:
    """What an ``ObjectUpload`` signature covers: the order nonce and the
    digest of each object, in upload order.

    Hash-then-sign, as in Ed25519ph: no object byte goes through Ed25519,
    and the digests are the ones the ``ServiceGrant`` tickets commit to.
    The payload is a length-prefixed tag, the length-prefixed nonce, the
    digest count and the 32-byte digests.  The tag is the distinct
    ``ObjectUpload/digests``: no registered type has that name, so the
    payload can be read neither as a wire ``ObjectUpload`` whose objects
    are 32-byte strings nor as the signing payload of any other type.
    """
    _need_nonce(order_nonce, "order_nonce")
    _need(len(digests) > 0, "upload must commit to at least one object")
    out = [_FRAMED_UPLOAD_DIGESTS_TAG, struct.pack(">I", NONCE_SIZE), order_nonce,
           struct.pack(">I", len(digests))]
    for digest in digests:
        _need(isinstance(digest, Digest), "upload digests must be Digests")
        out.append(digest.bytes)
    return b"".join(out)


def build_signed(
    cls: type[M], key: KeyPair, *, digests: tuple[Digest, ...] | None = None, **fields
) -> tuple[M, bytes]:
    """Construct ``cls`` with its detached signature filled in, and encode it.

    Returns the message and the bytes to send.  The signature covers the
    leading part of those bytes, the type tag and every field before the
    signature, so any bit of the message body is tamper-evident and the
    fields are encoded once.  An ``ObjectUpload`` is the one exception: its
    signature covers ``upload_signing_payload``, over the ``digests`` the
    caller passes, ``object_digests(objects)``.
    """
    if cls is ObjectUpload:
        payload = upload_signing_payload(fields["order_nonce"], digests)
        upload = cls(**fields, requester_signature=sign(key, payload))
        return upload, codec.encode(upload)
    return codec.encode_authenticated(cls, fields, partial(sign, key))


def verify_signed(
    msg,
    public_key: bytes,
    digests: tuple[Digest, ...] | None = None,
    covered: bytes | memoryview | None = None,
) -> bool:
    """Check a message's detached signature against ``public_key``.

    ``covered`` is the part of the received bytes the signature covers
    (``codec.decode_authenticated``); the receiver checks those bytes as
    they arrived.  Without it, as for a message nested in another, the part
    is encoded again from ``msg``.  An ``ObjectUpload``'s signature covers
    its order nonce and object digests instead: the caller passes
    ``object_digests(msg.objects)`` as ``digests``.
    """
    if type(msg) is ObjectUpload:
        payload = upload_signing_payload(msg.order_nonce, digests)
    else:
        payload = codec.signing_payload(msg) if covered is None else covered
    sig: Signature = getattr(msg, codec.authenticator_field_name(type(msg)))
    return verify(public_key, payload, sig)


def build_maced(cls: type[M], key: bytes, **fields) -> tuple[M, bytes]:
    """Construct ``cls`` with its trailing ``*_mac`` filled in under ``key``,
    the sender-to-receiver key from ``crypto.mac_keys``, and encode it.

    Returns the message and the bytes to send.  The tag covers the same
    part of those bytes a signature would: the type tag and every field
    before the MAC.
    """
    return codec.encode_authenticated(cls, fields, partial(mac, key))


def verify_maced(msg, key: bytes, covered: bytes | memoryview) -> bool:
    """Check a message's trailing MAC under the sender-to-receiver ``key``.

    ``covered`` is the part of the received bytes the tag covers
    (``codec.decode_authenticated``).  No MAC'd type travels nested, so
    there are always received bytes to check.
    """
    tag = getattr(msg, codec.authenticator_field_name(type(msg)))
    return mac_ok(key, covered, tag)
