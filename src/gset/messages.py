"""Protocol messages for the gSET flows.

Three flows are covered: pricing (PriceRequest/PriceQuote), authorization
and payment (AuthorizationRequest through AuthOutcome, with the trust
manager's hold/settle exchange against the account provider), and service
delivery plus credit collection (ObjectUpload, ServiceGrant, ticket
redemption, CaptureRequest/CaptureResponse).

The separation that gives the protocol its privacy property is structural:
payment details exist only inside a sealed envelope addressed to the trust
manager, order details never leave the requester/provider side, and the
dual signature ties the two halves together through digests alone, each
half travelling with the other's digest only, as in SET.  The sealed payment
is padded to ``PAYMENT_SIZE``, so its length says nothing of its labels.

Messages are frozen dataclasses registered with the canonical codec.  A
field's rule is its kind (``codec.Nonce``, ``Mac``, ``Label``, ``U64``,
``Positive``), which the codec checks on construction (at the sender) and on
decode (at the receiver); the four ``validate`` methods below state only
what relates one field to another.  A trailing ``*_signature`` field is a
detached Ed25519 signature, and a trailing ``Mac`` field a 32-byte
HMAC-SHA256 tag, over the leading part of the message's encoding: the type
tag and every field before the authenticator.  The sender authenticates
that part of the bytes it sends (``build_signed``, ``build_maced``), and the
receiver checks the same part of the bytes it received
(``codec.decode_authenticated``, ``verify_signed``, ``verify_maced``);
neither end encodes the message a second time.  The trailing field is the
one statement of how a type is authenticated (``codec.authenticator``):
the actors' one send path and their one check both read it.

One proof per fact.  Each signature below is checked by the party named as
its verifier, and the signed message is what that party could later show to
a third party (an arbiter, or the next party in the flow) as evidence of
what the signer said:

    signed type            signer  verifier  evidence it gives, and to whom
    PriceQuote             SP      SR        the offered price, to the TM or an arbiter
    AuthorizationRequest   SR      SP, TM    the order (SP, beside the payment's digest)
      .dual                                  and the payment cap (TM, beside the order's
                                             digest), bound together, to an arbiter
    CaptureToken           TM      SP        the approved charge, to an arbiter
    AuthDecision           SP      SR        the approval or refusal, to an arbiter
    ObjectUpload           SR      SP        the digests of the objects the requester
                                             shipped, to an arbiter
    ServiceGrant           SP      SR        receipt of those objects (one digest per
                                             ticket) for the order whose digest the dual
                                             signature signs, to an arbiter
    ServiceComplete        SR      SP        the requester's acceptance of that order,
                                             named by the same digest, to the TM or an
                                             arbiter

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
settled, the provider's claim on an order's token, or the TM's settled
capture.
What an arbiter can still be shown is signed: the requester's order and
payment cap (the dual signature) and the TM's approved charge (the
``CaptureToken``).

An order has one name from authorization to capture: the order digest
``oi_digest``, the hash of the encoded ``OrderInfo``, which the dual
signature signs, and every message about an order names it so; the order
nonce stays inside ``OrderInfo``, where it makes the digest unique.  The
trust manager mints at most one token per order, so the digest names the
``CaptureToken`` too, which carries only what the provider reads: the
provider's id, the charge and the digest.  A hold has one name from request
to settlement, the ``hold_nonce`` of the trust manager's ``HoldRequest``,
which the other three hold and settle legs echo; the account provider never
learns the order digest, and the provider never sees the payer's account
provider or the hold.  So each answer names what it answers: a price
request by its nonce, an order by its digest, a hold by its nonce.

An ``ObjectUpload`` signature covers the encoding of an ``UploadManifest``,
the order digest and the SHA-256 digest of each object, not the object
bytes, so a forged upload needs a SHA-256 collision or second preimage on
an object: the assumption the tickets and the dual signature already rest
on.  The manifest is a registered type that is never sent, so its encoding
leads with its own type tag: it is no wire message and the signing payload
of no other type.

Unsigned: ``PriceRequest`` and ``QuoteDenial`` (an enquiry and its refusal
commit nobody), ``AuthOutcome`` (an approval's authority is its token's
signature), ``TicketRedeemRequest`` (a bearer claim) and
``TicketRedeemResponse``: the signed ``ServiceGrant`` ticket already
commits to the object's digest, which the requester checks the payload
against, so a provider signature would prove the same fact twice.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import TypeVar

from . import codec
from .codec import (
    U64,
    Bulk,
    DecodeError,
    Label,
    Mac,
    Nonce,
    Positive,
    ValidationError,
    canonical_message,
)
from .crypto import (
    Digest,
    KeyPair,
    SealedEnvelope,
    Signature,
    hash_bytes,
    mac,
    mac_ok,
    sign,
    verify,
)

M = TypeVar("M")


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


# --- shared components -------------------------------------------------------


@canonical_message
class UsageDescriptor:
    """What the requester wants to do: a service, an operation, an amount."""

    service_id: Label
    operation: Label
    quantity: Positive
    unit: Label


@canonical_message
class OrderInfo:
    """The order half of an authorization: quote reference plus usage.  Its
    requester is the dual signature's signer."""

    quote_id: Nonce
    usage: UsageDescriptor
    order_nonce: Nonce


@canonical_message
class PaymentInfo:
    """The payment half: account coordinates and the requester's spend cap.

    Travels only inside a sealed envelope addressed to the trust manager;
    the service provider never sees these fields in the clear.
    """

    account_provider_id: Label
    account_ref: Label
    authorized_limit: Positive
    payment_nonce: Nonce


# A sealed payment: the encoded ``PaymentInfo``, 0x80 and zeros up to this size
# (ISO/IEC 7816-4); 110 bytes for AP id "AP", 120 for "AP-long-name"; 128 is the next 2**n.
PAYMENT_SIZE = 128


def pad_payment(payment: bytes) -> bytes:
    if len(payment) >= PAYMENT_SIZE:
        raise ValueError(f"a {len(payment)}-byte payment leaves no room for its padding")
    return payment + b"\x80" + bytes(PAYMENT_SIZE - 1 - len(payment))


def unpad_payment(plaintext: bytes) -> bytes:
    """The payment ``pad_payment`` padded; any other plaintext is refused."""
    body = plaintext.rstrip(b"\0")
    if len(plaintext) != PAYMENT_SIZE or body[-1:] != b"\x80":
        raise DecodeError("payment plaintext is not padded to its size")
    return body[:-1]


@canonical_message
class Ticket:
    """Single-use claim on one stored object."""

    ticket_id: Nonce
    object_digest: Digest

    def matches(self, obj: bytes) -> bool:
        """Is ``obj`` the object this ticket commits to?"""
        return hash_bytes(obj) == self.object_digest


@canonical_message
class CaptureToken:
    """Trust-manager-signed voucher the provider redeems to collect credit,
    for the charge it approved on the order ``oi_digest``, which names it."""

    provider_id: Label
    charge_amount: Positive
    oi_digest: Digest
    tm_signature: Signature


# --- pricing flow ------------------------------------------------------------


@canonical_message
class PriceRequest:
    """Unauthenticated enquiry; the provider answers whoever sent it."""

    usage: UsageDescriptor
    nonce: Nonce


@canonical_message
class PriceQuote:
    """Provider's signed offer, for the price request ``request_nonce``: this
    usage, this price, until this tick."""

    request_nonce: Nonce
    quote_id: Nonce
    usage: UsageDescriptor
    price: U64
    expiry: U64
    provider_signature: Signature


@canonical_message
class QuoteDenial:
    """Provider cannot price the requested usage."""

    request_nonce: Nonce
    reason: Label


# --- authorization flow ------------------------------------------------------


@canonical_message
class AuthorizationRequest:
    """Requester to provider: order in the clear, payment sealed away.

    ``order_info`` is the encoded ``OrderInfo``, whose hash names the order,
    so the provider hashes the bytes it received, as the trust manager
    hashes the payment it opens.  With ``pi_digest``, the hash of the
    unpadded payment, the provider checks the dual signature ``dual``
    without opening the envelope; ``dual`` is no ``*_signature`` field, as
    it signs the two digests, not this message.
    """

    order_info: bytes
    payment_envelope: SealedEnvelope
    pi_digest: Digest
    dual: Signature


@canonical_message
class AuthorizeAndHold:
    """Provider to trust manager: relay the sealed payment, name a charge.

    Deliberately contains no OrderInfo plaintext; the trust manager learns
    the charge and the order digest ``oi_digest``, which with the payment it
    opens checks ``dual``, never what was ordered.  ``provider_mac`` is
    under the provider-to-trust-manager key.
    """

    payment_envelope: SealedEnvelope
    oi_digest: Digest
    dual: Signature
    charge_amount: Positive
    provider_mac: Mac


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

    oi_digest: Digest
    approved: bool
    provider_signature: Signature


# --- service delivery and collection -----------------------------------------


@canonical_message
class ObjectUpload:
    """Requester ships the payload objects for an approved order.  Decoded,
    each object is a read-only view of the received frame (``Bulk``)."""

    oi_digest: Digest
    objects: tuple[Bulk, ...]
    requester_signature: Signature

    def validate(self) -> None:
        _need(len(self.objects) > 0, "upload must contain at least one object")
        for i, obj in enumerate(self.objects):
            if not (isinstance(obj, (bytes, memoryview)) and obj):
                raise ValidationError(f"objects[{i}] must be non-empty")


@canonical_message
class ServiceGrant:
    """Provider's receipt for the objects stored for the order ``oi_digest``:
    one single-use ticket each."""

    oi_digest: Digest
    tickets: tuple[Ticket, ...]
    provider_signature: Signature

    def validate(self) -> None:
        _need(len(self.tickets) > 0, "grant must contain at least one ticket")


@canonical_message
class TicketRedeemRequest:
    """Bearer redemption: whoever holds the ticket id may claim the object."""

    ticket_id: Nonce


@canonical_message
class TicketRedeemResponse:
    """The stored object, or no bytes at all when the ticket is refused.

    Stored objects are never empty (see ``ObjectUpload``), so an empty
    payload is unambiguous.  Unsigned: the requester checks the payload
    against the digest its signed ``ServiceGrant`` ticket commits to.  Decoded,
    the payload is a read-only view of the received frame (``Bulk``).
    """

    ticket_id: Nonce
    payload: Bulk

    @property
    def ok(self) -> bool:
        return bool(self.payload)


@canonical_message
class ServiceComplete:
    """Requester confirms delivery of the order ``oi_digest``; the provider
    may now collect credit."""

    oi_digest: Digest
    requester_signature: Signature


@canonical_message
class CaptureRequest:
    """Provider claims the token of the order it names; the trust manager
    holds the token."""

    oi_digest: Digest
    provider_mac: Mac


@canonical_message
class CaptureResponse:
    """The token of the order ``oi_digest`` is settled, or its capture refused
    for ``reason``."""

    oi_digest: Digest
    reason: DenialReason | None
    tm_mac: Mac

    @property
    def settled(self) -> bool:
        return self.reason is None


# --- trust manager / account provider exchange -------------------------------


@canonical_message
class HoldRequest:
    """Trust manager asks the account provider to reserve credit."""

    hold_nonce: Nonce
    account_ref_digest: Digest
    amount: Positive
    tm_mac: Mac


@canonical_message
class HoldResponse:
    """The hold named ``hold_nonce`` is placed, or refused for ``reason``."""

    hold_nonce: Nonce
    reason: DenialReason | None
    ap_mac: Mac

    @property
    def ok(self) -> bool:
        return self.reason is None


@canonical_message
class SettleRequest:
    """Trust manager asks the account provider to settle the hold it named."""

    hold_nonce: Nonce
    tm_mac: Mac


@canonical_message
class SettleResponse:
    hold_nonce: Nonce
    amount: U64
    reason: DenialReason | None
    ap_mac: Mac

    @property
    def ok(self) -> bool:
        return self.reason is None

    def validate(self) -> None:
        if self.ok:
            codec.check(Positive, self.amount, "amount")
        else:
            _need(self.amount == 0, "refused settlement must carry amount 0")


# --- signing helpers ----------------------------------------------------------


@canonical_message
class UploadManifest:
    """What an ``ObjectUpload`` signature covers, as its encoding: the order
    digest and the SHA-256 digest of each object, in upload order, as the
    ``ServiceGrant`` tickets commit to them.  Hash-then-sign, as in Ed25519ph:
    no object byte goes through Ed25519.  Never sent; no actor handles it."""

    oi_digest: Digest
    digests: tuple[Digest, ...]


def object_digests(objects: tuple[bytes, ...]) -> tuple[Digest, ...]:
    """The SHA-256 digest of each object, in order."""
    return tuple(hash_bytes(obj) for obj in objects)


def build_signed(
    cls: type[M], key: KeyPair, covered: bytes | None = None, **fields
) -> tuple[M, bytes]:
    """Construct ``cls`` with its detached signature filled in, and encode it.

    Returns the message and the bytes to send.  The signature covers
    ``covered`` when it is given, as an ``ObjectUpload``'s covers its
    ``UploadManifest``; otherwise the leading part of those bytes, the type
    tag and every field before the signature, so any bit of the message
    body is tamper-evident and the fields are encoded once.
    """
    if covered is None:
        return codec.encode_authenticated(cls, fields, partial(sign, key))
    msg = cls(**fields, **{codec.authenticator_field_name(cls): sign(key, covered)})
    return msg, codec.encode(msg)


def verify_signed(msg, public_key: bytes, covered: bytes | memoryview | None = None) -> bool:
    """Check a message's detached signature against ``public_key``.

    ``covered`` is what the signature covers: for a received message the
    part of its bytes ``codec.decode_authenticated`` returns, so the
    receiver checks those bytes as they arrived, and for an ``ObjectUpload``
    its ``UploadManifest``.  Without it, as for a message nested in another,
    that part is encoded again from ``msg``.
    """
    payload = codec.signing_payload(msg) if covered is None else covered
    sig: Signature = getattr(msg, codec.authenticator_field_name(type(msg)))
    return verify(public_key, payload, sig)


def build_maced(cls: type[M], key: bytes, **fields) -> tuple[M, bytes]:
    """Construct ``cls`` with its trailing ``Mac`` filled in under ``key``,
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
