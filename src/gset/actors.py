"""The four protocol actors: requester, provider, trust manager, account provider.

Each actor is a single-threaded state machine with one external surface:

    deliver(sender_id, raw_bytes, now) -> [Send(to, raw) | Event, ...]

A handler performs no I/O and never waits for an answer: it returns its
effects.  A ``Send`` is a message the simulated network queues; an
``Event`` is what the actor refused or ignored, by kind, order and denial
code, never free text, which the network keeps with the record whose
delivery drew it.  The happy path draws no event.  A server that asks another keeps
the request pending in its record of the order or hold, under the name the
request carries, and the answer's own handler finds that record by one
lookup and resumes from it.  Every message goes out through one builder,
``_send``, which signs, MACs or sends bare as the type's trailing field
declares (``codec.authenticator``), and comes in through one check,
``_authentic``, which reads the same fact: the seven server-to-server legs
carry a pairwise MAC, and the signed messages of the requester's legs and
the trust manager's capture token keep their signatures.

The privacy split is enforced here by what each actor stores, one
record per order or hold:

* the provider keeps orders, quoted prices, and objects, and never sees
  payment plaintext (it only relays the sealed envelope);
* the trust manager keeps payment nonces and, per hold, what the hold
  and a capture of its token read (not the signed token), and never sees
  order plaintext (it only handles digests and amounts);
* the account provider keeps a ledger keyed by account digests.

Each actor class declares what it stores once, as class annotations of
codec-encodable types.  From them the class gets its ``<Actor>State``
message, each instance its empty containers, and ``state_bytes`` its one
encoding, which ``codec.decode`` reads back field by field.

An order has one name: the order digest ``oi_digest``, the hash of its
encoded ``OrderInfo``, by which the requester and the provider key their
orders and the trust manager finds an order's hold.  A hold has one name:
the trust manager's ``hold_nonce``, by which it keys its record of the
hold and the account provider places and settles the hold, never learning
the order digest.  So the token
carries neither the hold nor the payer's account provider.

``deliver`` is the only way into an actor (the requester's ``begin``
only makes the first message); tests drive the actors through it too.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, make_dataclass
from enum import IntEnum
from random import Random
from typing import Callable, Mapping, NamedTuple

from . import codec
from .codec import Bulk, CodecError, Label, Mac, canonical_message, register_message
from .crypto import (
    Digest,
    EnvelopeError,
    KeyPair,
    Signature,
    hash_bytes,
    mac_keys,
    make_dual_signature,
    open_envelope,
    seal,
    sign,
    verify_dual,
)
from .ledger import Ledger
from .messages import (
    AuthDecision,
    AuthOutcome,
    AuthorizationRequest,
    AuthorizeAndHold,
    CaptureRequest,
    CaptureResponse,
    CaptureToken,
    DenialReason,
    HoldRequest,
    HoldResponse,
    ObjectUpload,
    OrderInfo,
    PaymentInfo,
    PriceQuote,
    PriceRequest,
    QuoteDenial,
    ServiceComplete,
    ServiceGrant,
    SettleRequest,
    SettleResponse,
    Ticket,
    TicketRedeemRequest,
    TicketRedeemResponse,
    UploadManifest,
    UsageDescriptor,
    build_maced,
    build_signed,
    object_digests,
    pad_payment,
    unpad_payment,
    verify_maced,
    verify_signed,
)


class Send(NamedTuple):
    """An effect: the bytes ``raw``, for the network to queue to ``to``."""

    to: str
    raw: bytes


class EventKind(IntEnum):
    """What an actor refused or ignored: a ``*_REFUSED`` kind is its own refusal,
    with a denial code, a ``*_DENIED`` kind a refusal it was told of."""

    UNDECODABLE = 1  # the bytes decode to no message
    UNEXPECTED_TYPE = 2  # no handler here for the message's type
    UNEXPECTED_SENDER = 3  # a quote from a party other than the provider
    BAD_AUTHENTICATOR = 4  # its signature or MAC does not verify
    NOT_PENDING = 5  # it answers no pending request, or its order is not at its step
    DUPLICATE = 6  # a repeat of a step taken or under way
    NO_MAC_KEY = 7  # no MAC key for the peer, so nothing is sent to it
    NO_PUBLIC_KEY = 8  # no public key for the trust manager, so no order
    QUOTE_EXPIRED = 9
    QUOTE_DENIED = 10
    AUTHORIZATION_DENIED = 11
    AUTHORIZATION_REFUSED = 12  # a run's outcome reads the first
    GRANT_MISMATCH = 13  # the grant's tickets do not match the uploaded objects
    OBJECT_MISMATCH = 14  # a redeemed object does not match its ticket
    REDEMPTION_DENIED = 15
    REDEMPTION_REFUSED = 16  # an unknown or spent ticket
    BAD_TOKEN = 17  # an approval whose token does not verify or fit the order
    CAPTURE_DENIED = 18
    CAPTURE_REFUSED = 19
    HOLD_REFUSED = 20
    SETTLE_REFUSED = 21
    QUOTE_REFUSED = 22  # no price for the request: no pricing, or over 2**64 - 1


@canonical_message
class Event:
    """An effect: what ``actor`` refused or ignored, the order it concerns if
    the actor knows it, and the denial code if any.  Its tick and place are
    those of the record whose delivery drew it."""

    actor: Label
    kind: EventKind
    order: Digest | None
    reason: DenialReason | None

    def __str__(self) -> str:
        reason = "" if self.reason is None else f" {self.reason.name}"
        order = "" if self.order is None else f" order {self.order.hex()[:12]}"
        return f"{self.actor} {self.kind.name}{reason}{order}"


Effects = list[Send | Event]


class _ActorBase:
    # Construction-time wiring, not state: the private key and its subject
    # id, the public-key directory, the randomness source, the fixed config,
    # and the MAC keys derived from the first two.
    _WIRING = frozenset({"identity", "subject_id", "directory", "rng", "config", "pair_keys"})
    # Message type -> handler(self, sender, msg, covered, now), where
    # ``covered`` is what ``codec.decode_authenticated`` returned.  A class-level
    # table of plain functions: bound methods stored on the instance would
    # point back at it, so each run's actors could only be freed by the
    # cyclic garbage collector.
    _HANDLERS: Mapping[type, Callable] = {}

    def __init_subclass__(cls) -> None:
        # The class's own annotations are its recorded state, declared once:
        # they make its state message, and each is created empty per actor.
        hints = typing.get_type_hints(cls)
        declared = [(name, hints[name]) for name in cls.__dict__.get("__annotations__", {})]
        state = make_dataclass(f"{cls.__name__}State", declared, frozen=True)
        state.__module__ = cls.__module__
        cls._State = register_message(state)
        cls._RECORDED = tuple((name, typing.get_origin(tp) or tp) for name, tp in declared)

    def __init__(
        self, identity: KeyPair, directory: Mapping[str, bytes], config, rng: Random | None = None
    ) -> None:
        self.identity = identity
        self.subject_id = identity.subject_id
        self.directory = directory
        self.config = config
        self.rng = rng
        # peer id -> (key to the peer, key from the peer), derived on first use
        self.pair_keys: dict[str, tuple[bytes, bytes]] = {}
        for name, make in self._RECORDED:
            setattr(self, name, make())

    def _event(self, kind: EventKind, order=None, reason=None) -> Event:
        return Event(self.subject_id, kind, order, reason)

    def _nonce(self) -> bytes:
        return self.rng.randbytes(codec.NONCE_SIZE)

    def _key_of(self, subject_id: str) -> bytes | None:
        return self.directory.get(subject_id)

    def _unanswered(self, msg, awaited: bool, sender: str, covered) -> list[Event]:
        """Nothing if ``msg`` answers a request still pending (``awaited`` from
        ``sender``, who authenticated it); else the event, and nothing changes."""
        order = getattr(msg, "oi_digest", None)
        if not awaited:
            return [self._event(EventKind.NOT_PENDING, order)]
        # AuthOutcome is unsigned: an approval's authority is its token's signature
        if codec.authenticator(type(msg)) is not None and not self._authentic(msg, sender, covered):
            return [self._event(EventKind.BAD_AUTHENTICATOR, order)]
        return []

    def _keys_with(self, peer_id: str) -> tuple[bytes, bytes] | None:
        """The MAC keys shared with ``peer_id``: one X25519 agreement per peer and run."""
        keys = self.pair_keys.get(peer_id)
        if keys is None:
            keys = mac_keys(self.identity, peer_id, self._key_of(peer_id))
            if keys is not None:
                self.pair_keys[peer_id] = keys
        return keys

    def _send(self, to: str, cls: type, covered: bytes | None = None, **fields) -> Send | Event:
        """``cls`` built from ``fields``, to send to ``to``: signed (over
        ``covered`` when given), MAC'd or bare, as its trailing field declares.
        Without a MAC key for ``to``, the event saying so."""
        kind = codec.authenticator(cls)
        if kind is None:
            return Send(to, codec.encode(cls(**fields)))
        if kind is Signature:
            return Send(to, build_signed(cls, self.identity, covered, **fields)[1])
        keys = self._keys_with(to)
        if keys is None:
            return self._event(EventKind.NO_MAC_KEY)
        return Send(to, build_maced(cls, keys[0], **fields)[1])

    def _reply(self, peer_id: str, cls: type, kind, reason, **fields) -> Effects:
        """``cls`` sent to ``peer_id`` with ``reason``, after the event ``kind`` if refused."""
        answer = self._send(peer_id, cls, reason=reason, **fields)
        if reason is None:
            return [answer]
        return [self._event(kind, fields.get("oi_digest"), reason), answer]

    def _authentic(self, msg, peer_id: str, covered: bytes | memoryview | None = None) -> bool:
        """Did ``peer_id`` send ``msg``, by its trailing signature or MAC?

        A ``Mac`` is checked under the key from ``peer_id`` to this actor; a
        ``Signature`` must name ``peer_id`` and verify under its public key.
        ``covered`` is what the authenticator covers: the part of the
        received bytes ``codec.decode_authenticated`` returns, or an
        ``ObjectUpload``'s manifest.  It is encoded again from ``msg`` only
        when absent, as for a token nested in another message.
        """
        if codec.authenticator(type(msg)) is Mac:
            keys = self._keys_with(peer_id)
            return keys is not None and verify_maced(msg, keys[1], covered)
        public = self._key_of(peer_id)
        sig = getattr(msg, codec.authenticator_field_name(type(msg)))
        return public is not None and sig.signer_id == peer_id \
            and verify_signed(msg, public, covered)

    def deliver(self, sender: str, raw: bytes, now: int) -> Effects:
        """Process one incoming message; returns its effects, the messages to
        send and an event for each refusal.

        Malformed or unexpected input draws an event and is dropped, never
        raised: a hostile network must not be able to crash an actor.
        """
        try:
            msg, covered = codec.decode_authenticated(raw)
        except CodecError:
            return [self._event(EventKind.UNDECODABLE)]
        handler = self._HANDLERS.get(type(msg))
        if handler is None:
            return [self._event(EventKind.UNEXPECTED_TYPE)]
        return handler(self, sender, msg, covered, now)

    def state_bytes(self) -> bytes:
        """Everything this actor has recorded, as one codec message.

        The message is the class's ``<Actor>State``, one field per declared
        attribute, so ``codec.decode`` reads it back field by field.  Every
        instance attribute but the wiring goes into it, so an attribute the
        class does not declare raises here rather than escape the privacy
        scanner.  Mappings and sets encode in the order of their entries'
        bytes, so hash order never reaches the bytes.
        """
        recorded = {k: v for k, v in vars(self).items() if k not in self._WIRING}
        return codec.encode(self._State(**recorded))


# --- service requester --------------------------------------------------------


@dataclass(frozen=True)
class RequesterConfig:
    provider_id: str
    trust_manager_id: str
    account_provider_id: str
    account_ref: str
    authorized_limit: int
    objects: tuple[bytes, ...]


class RequesterPhase(IntEnum):
    """An order's steps at the requester in protocol order; a denial ends it at FAILED."""

    AUTHORIZING = 0  # dual-signed authorization sent, no decision yet
    FAILED = 1  # authorization denied
    UPLOADING = 2  # approved, objects uploaded, no grant yet
    REDEEMING = 3  # grant accepted, tickets outstanding
    COMPLETED = 4  # every object retrieved, completion sent


@register_message
@dataclass
class RequesterOrder:
    phase: RequesterPhase = RequesterPhase.AUTHORIZING
    digests: tuple[Digest, ...] = ()  # what the upload signature committed to
    # ticket_id -> ticket: one per uploaded object, as granted
    tickets: dict[bytes, Ticket] = field(default_factory=dict)
    retrieved: dict[bytes, Bulk] = field(default_factory=dict)
    refusals: set[bytes] = field(default_factory=set)  # tickets the provider refused

    def awaits(self, ticket_id: bytes) -> bool:
        """Is ``ticket_id`` this order's, neither redeemed nor refused?"""
        done = ticket_id in self.retrieved or ticket_id in self.refusals
        return ticket_id in self.tickets and not done


class ServiceRequester(_ActorBase):
    """Asks for a price, authorizes payment, uploads, redeems, confirms."""

    # request nonce -> the usage asked for, until quoted or denied
    pending_requests: dict[bytes, UsageDescriptor]
    # oi_digest -> the order, from its authorization on
    orders: dict[Digest, RequesterOrder]
    # ticket_id -> the oi_digest of the order it was granted for
    ticket_orders: dict[bytes, Digest]

    def begin(self, usage: UsageDescriptor) -> Send:
        """Kick-off message for a simulation run: a price request for
        ``usage`` under a fresh nonce."""
        nonce = self._nonce()
        self.pending_requests[nonce] = usage
        return self._send(self.config.provider_id, PriceRequest, usage=usage, nonce=nonce)

    # -- message handlers --

    def _on_price_quote(self, sender: str, quote: PriceQuote, covered, now: int) -> Effects:
        """Turn an acceptable quote into a dual-signed authorization."""
        if sender != self.config.provider_id:
            return [self._event(EventKind.UNEXPECTED_SENDER)]
        if self.pending_requests.get(quote.request_nonce) != quote.usage:
            return [self._event(EventKind.NOT_PENDING)]
        if not self._authentic(quote, self.config.provider_id, covered):
            return [self._event(EventKind.BAD_AUTHENTICATOR)]
        if now >= quote.expiry:
            return [self._event(EventKind.QUOTE_EXPIRED)]
        tm_key = self._key_of(self.config.trust_manager_id)
        if tm_key is None:
            return [self._event(EventKind.NO_PUBLIC_KEY)]
        order = OrderInfo(quote_id=quote.quote_id, usage=quote.usage, order_nonce=self._nonce())
        payment = PaymentInfo(
            account_provider_id=self.config.account_provider_id,
            account_ref=self.config.account_ref,
            authorized_limit=self.config.authorized_limit,
            payment_nonce=self._nonce(),
        )
        order_bytes = codec.encode(order)
        payment_bytes = codec.encode(payment)
        envelope = seal(tm_key, self.config.trust_manager_id, pad_payment(payment_bytes), self.rng)
        oi_digest, pi_digest = hash_bytes(order_bytes), hash_bytes(payment_bytes)
        self.orders[oi_digest] = RequesterOrder()
        del self.pending_requests[quote.request_nonce]
        return [self._send(self.config.provider_id, AuthorizationRequest,
                           order_info=order_bytes, payment_envelope=envelope, pi_digest=pi_digest,
                           dual=make_dual_signature(self.identity, oi_digest, pi_digest))]

    def _on_quote_denial(self, sender: str, denial: QuoteDenial, covered, now: int) -> Effects:
        self.pending_requests.pop(denial.request_nonce, None)
        return [self._event(EventKind.QUOTE_DENIED)]

    def _on_auth_decision(self, sender: str, decision: AuthDecision, covered, now: int) -> Effects:
        oi_digest = decision.oi_digest
        if not self._authentic(decision, self.config.provider_id, covered):
            return [self._event(EventKind.BAD_AUTHENTICATOR, oi_digest)]
        record = self.orders.get(oi_digest)
        if record is None or record.phase != RequesterPhase.AUTHORIZING:
            return [self._event(EventKind.NOT_PENDING, oi_digest)]
        if not decision.approved:
            record.phase = RequesterPhase.FAILED
            return [self._event(EventKind.AUTHORIZATION_DENIED, oi_digest)]
        record.phase = RequesterPhase.UPLOADING
        record.digests = object_digests(self.config.objects)
        manifest = codec.encode(UploadManifest(oi_digest, record.digests))
        return [self._send(self.config.provider_id, ObjectUpload, manifest,
                           oi_digest=oi_digest, objects=self.config.objects)]

    def _on_service_grant(self, sender: str, grant: ServiceGrant, covered, now: int) -> Effects:
        oi_digest = grant.oi_digest
        if not self._authentic(grant, self.config.provider_id, covered):
            return [self._event(EventKind.BAD_AUTHENTICATOR, oi_digest)]
        record = self.orders.get(oi_digest)
        if record is not None and record.phase > RequesterPhase.UPLOADING:
            return [self._event(EventKind.DUPLICATE, oi_digest)]
        if record is None or record.phase != RequesterPhase.UPLOADING:
            return [self._event(EventKind.NOT_PENDING, oi_digest)]
        if len(grant.tickets) != len(record.digests) or any(
            ticket.object_digest != digest for ticket, digest in zip(grant.tickets, record.digests)
        ):
            return [self._event(EventKind.GRANT_MISMATCH, oi_digest)]
        record.phase = RequesterPhase.REDEEMING
        for ticket in grant.tickets:
            record.tickets[ticket.ticket_id] = ticket
            self.ticket_orders[ticket.ticket_id] = oi_digest
        to = self.config.provider_id
        return [self._send(to, TicketRedeemRequest, ticket_id=t) for t in record.tickets]

    def _on_redeem_response(
        self, sender: str, resp: TicketRedeemResponse, covered, now: int
    ) -> Effects:
        # The response is unsigned: the signed grant's ticket already commits
        # to the object's digest, so the digest is the integrity check.
        oi_digest = self.ticket_orders.get(resp.ticket_id)
        record = self.orders.get(oi_digest)
        if record is None or not record.awaits(resp.ticket_id):
            return [self._event(EventKind.NOT_PENDING, oi_digest)]
        if resp.ok and not record.tickets[resp.ticket_id].matches(resp.payload):
            return [self._event(EventKind.OBJECT_MISMATCH, oi_digest)]
        if not resp.ok:
            record.refusals.add(resp.ticket_id)
            return [self._event(EventKind.REDEMPTION_DENIED, oi_digest)]
        record.retrieved[resp.ticket_id] = resp.payload
        # a refused ticket is never retrieved, so that order never completes
        if len(record.retrieved) < len(record.tickets):
            return []
        record.phase = RequesterPhase.COMPLETED
        return [self._send(self.config.provider_id, ServiceComplete, oi_digest=oi_digest)]

    _HANDLERS = {
        PriceQuote: _on_price_quote,
        QuoteDenial: _on_quote_denial,
        AuthDecision: _on_auth_decision,
        ServiceGrant: _on_service_grant,
        TicketRedeemResponse: _on_redeem_response,
    }


# --- service provider ---------------------------------------------------------


@dataclass(frozen=True)
class ProviderConfig:
    trust_manager_id: str
    # service_id -> price per unit of usage
    pricing: Mapping[str, int]
    quote_ttl: int


class ProviderPhase(IntEnum):
    """An order's steps at the provider in protocol order; a denial ends it at DENIED."""

    RELAYED = 0  # payment half relayed to the trust manager, no outcome yet
    DENIED = 1  # refused by the trust manager, or its token did not verify
    APPROVED = 2  # a verified token is held, no upload yet
    GRANTED = 3  # objects stored, tickets issued
    CAPTURING = 4  # the token named to the trust manager, no answer yet
    CAPTURED = 5  # the token settled, its charge booked


@register_message
@dataclass
class ProviderOrder:
    requester: str
    charge: int  # the quoted price
    phase: ProviderPhase = ProviderPhase.RELAYED


@canonical_message
class IssuedQuote:
    """What the provider quoted: the usage, its price and the quote's expiry."""

    usage: UsageDescriptor
    price: int
    expiry: int


class ServiceProvider(_ActorBase):
    """Prices usage, relays authorizations, stores objects, collects credit."""

    # quote_id -> each quote issued
    issued_quotes: dict[bytes, IssuedQuote]
    # oi_digest -> the order; only orders matched to an issued quote
    orders: dict[Digest, ProviderOrder]
    # ticket_id -> object, until the ticket is redeemed
    stored_objects: dict[bytes, Bulk]

    # -- message handlers --

    def _on_price_request(self, sender: str, request: PriceRequest, covered, now: int) -> Effects:
        """Price a usage request: rate * quantity, valid for quote_ttl ticks."""

        def deny(reason: str) -> Effects:
            denial = self._send(sender, QuoteDenial, request_nonce=request.nonce, reason=reason)
            return [self._event(EventKind.QUOTE_REFUSED), denial]

        rate = self.config.pricing.get(request.usage.service_id)
        if rate is None:
            return deny(f"no pricing for service {request.usage.service_id!r}")
        price = rate * request.usage.quantity
        if price.bit_length() > 64:
            return deny(f"price for quantity {request.usage.quantity} exceeds 2**64 - 1")
        quote_id, expiry = self._nonce(), now + self.config.quote_ttl
        quote = self._send(sender, PriceQuote, request_nonce=request.nonce, quote_id=quote_id,
                           usage=request.usage, price=price, expiry=expiry)
        self.issued_quotes[quote_id] = IssuedQuote(request.usage, price, expiry)
        return [quote]

    def _on_authorization(
        self, sender: str, auth: AuthorizationRequest, covered, now: int
    ) -> Effects:
        """Validate the order half and relay the payment half, or refuse.

        The dual signature is checked on the digest of the order bytes as
        received, which names the order, before they are decoded.  The order
        stays here.  The trust manager gets an AuthorizeAndHold, MAC'd to it,
        carrying the untouched sealed envelope and that digest; the order
        plaintext goes no further, and the requester is answered once the
        trust manager's outcome arrives.  A duplicate of an order
        already accepted is ignored outright: that order has its one relay,
        and a second could only draw the trust manager's REPLAY refusal.
        Without a key for the trust manager there is no relay and no answer,
        and the order is not kept.
        """
        oi_digest = hash_bytes(auth.order_info)

        def deny(reason: DenialReason) -> Effects:
            event = self._event(EventKind.AUTHORIZATION_REFUSED, oi_digest, reason)
            return [event, self._send(sender, AuthDecision, oi_digest=oi_digest, approved=False)]

        # authenticity first: any tampering surfaces as BAD_SIGNATURE before
        # policy questions like quote expiry get a say
        key = self._key_of(sender)  # the requester's
        if auth.dual.signer_id != sender or key is None \
                or not verify_dual(key, oi_digest, auth.pi_digest, auth.dual):
            return deny(DenialReason.BAD_SIGNATURE)
        try:
            order = codec.decode(auth.order_info, OrderInfo)
        except CodecError:
            return deny(DenialReason.BAD_SIGNATURE)
        quote = self.issued_quotes.get(order.quote_id)
        # a quote never issued reads as one that expired
        if quote is None or now >= quote.expiry or order.usage != quote.usage:
            return deny(DenialReason.EXPIRED_QUOTE)
        if oi_digest in self.orders:
            return [self._event(EventKind.DUPLICATE, oi_digest)]

        relay = self._send(self.config.trust_manager_id, AuthorizeAndHold,
                           payment_envelope=auth.payment_envelope, oi_digest=oi_digest,
                           dual=auth.dual, charge_amount=quote.price)
        if type(relay) is Send:
            self.orders[oi_digest] = ProviderOrder(sender, quote.price)
        return [relay]

    def _on_auth_outcome(self, sender: str, outcome: AuthOutcome, covered, now: int) -> Effects:
        """Answer the requester of the relayed order the outcome names.

        An approval stands only on a token the trust manager signed for this
        provider, for the quoted price and for this order's digest.
        """
        oi_digest = outcome.oi_digest
        record = self.orders.get(oi_digest)
        tm = self.config.trust_manager_id
        awaited = record is not None and record.phase == ProviderPhase.RELAYED and sender == tm
        if ignored := self._unanswered(outcome, awaited, sender, covered):
            return ignored
        token = outcome.token
        approved = (
            outcome.approved
            and self._authentic(token, tm)
            and token.provider_id == self.subject_id
            and token.charge_amount == record.charge
            and token.oi_digest == oi_digest
        )
        record.phase = ProviderPhase.APPROVED if approved else ProviderPhase.DENIED
        decision = self._send(record.requester, AuthDecision, oi_digest=oi_digest,
                              approved=approved)
        if approved:
            return [decision]
        if outcome.approved:  # on a token that does not verify or fit the order
            event = self._event(EventKind.BAD_TOKEN, oi_digest)
        else:
            event = self._event(EventKind.AUTHORIZATION_DENIED, oi_digest, outcome.reason)
        return [event, decision]

    def _on_object_upload(self, sender: str, upload: ObjectUpload, covered, now: int) -> Effects:
        oi_digest = upload.oi_digest
        record = self.orders.get(oi_digest)
        if record is None or record.requester != sender:
            return [self._event(EventKind.NOT_PENDING, oi_digest)]
        digests = object_digests(upload.objects)
        if not self._authentic(upload, sender, codec.encode(UploadManifest(oi_digest, digests))):
            return [self._event(EventKind.BAD_AUTHENTICATOR, oi_digest)]
        if record.phase >= ProviderPhase.GRANTED:
            return [self._event(EventKind.DUPLICATE, oi_digest)]
        if record.phase != ProviderPhase.APPROVED:
            return [self._event(EventKind.NOT_PENDING, oi_digest)]
        # store the objects and issue one single-use ticket per object
        record.phase = ProviderPhase.GRANTED
        tickets = tuple(Ticket(ticket_id=self._nonce(), object_digest=d) for d in digests)
        for ticket, obj in zip(tickets, upload.objects):
            self.stored_objects[ticket.ticket_id] = obj
        return [self._send(sender, ServiceGrant, oi_digest=oi_digest, tickets=tickets)]

    def _on_redeem_request(
        self, sender: str, request: TicketRedeemRequest, covered, now: int
    ) -> Effects:
        # stored objects are never empty, so no bytes means a refusal
        payload = self.stored_objects.pop(request.ticket_id, b"")
        answer = self._send(sender, TicketRedeemResponse, ticket_id=request.ticket_id,
                            payload=payload)
        return [answer] if payload else [self._event(EventKind.REDEMPTION_REFUSED), answer]

    def _on_service_complete(
        self, sender: str, done: ServiceComplete, covered, now: int
    ) -> Effects:
        oi_digest = done.oi_digest
        record = self.orders.get(oi_digest)
        if record is None or record.phase < ProviderPhase.GRANTED:
            return [self._event(EventKind.NOT_PENDING, oi_digest)]
        if record.requester != sender or not self._authentic(done, sender, covered):
            return [self._event(EventKind.BAD_AUTHENTICATOR, oi_digest)]
        if record.phase >= ProviderPhase.CAPTURING:
            return [self._event(EventKind.DUPLICATE, oi_digest)]
        # name the order's token to the trust manager; a settled capture books the charge
        tm = self.config.trust_manager_id
        request = self._send(tm, CaptureRequest, oi_digest=oi_digest)
        if type(request) is Send:
            record.phase = ProviderPhase.CAPTURING
        return [request]

    def _on_capture_response(
        self, sender: str, response: CaptureResponse, covered, now: int
    ) -> Effects:
        """Book a settled capture, or take a refused one back to GRANTED."""
        record = self.orders.get(response.oi_digest)
        tm = self.config.trust_manager_id
        awaited = record is not None and record.phase == ProviderPhase.CAPTURING and sender == tm
        if ignored := self._unanswered(response, awaited, sender, covered):
            return ignored
        if response.settled:
            record.phase = ProviderPhase.CAPTURED
            return []
        record.phase = ProviderPhase.GRANTED
        return [self._event(EventKind.CAPTURE_DENIED, response.oi_digest, response.reason)]

    _HANDLERS = {
        PriceRequest: _on_price_request,
        AuthorizationRequest: _on_authorization,
        AuthOutcome: _on_auth_outcome,
        ObjectUpload: _on_object_upload,
        TicketRedeemRequest: _on_redeem_request,
        ServiceComplete: _on_service_complete,
        CaptureResponse: _on_capture_response,
    }


# --- trust manager --------------------------------------------------------------


@dataclass(frozen=True)
class TrustManagerConfig:
    account_providers: frozenset[str]


class HoldPhase(IntEnum):
    """A hold's steps at the trust manager, in protocol order."""

    HOLDING = 0  # hold asked of the account provider, no answer yet
    MINTED = 1  # hold placed, token issued to the provider
    SETTLING = 2  # the token captured, settlement asked for, no answer yet
    SPENT = 3  # settled


@register_message
@dataclass
class HoldRecord:
    provider: str
    account_provider: str
    charge: int
    oi_digest: Digest  # the order the hold is for, as its outcome and token name it
    phase: HoldPhase = HoldPhase.HOLDING


class TrustManager(_ActorBase):
    """Opens payment envelopes, enforces limits, places holds, mints tokens."""

    seen_payment_nonces: set[bytes]
    # hold_nonce, the hold's one name from request to settlement -> what
    # the hold and its token's capture read; not the signed token
    holds: dict[bytes, HoldRecord]
    # oi_digest -> the hold_nonce of the order's one hold
    order_holds: dict[Digest, bytes]

    def _on_authorize_and_hold(
        self, sender: str, msg: AuthorizeAndHold, covered, now: int
    ) -> Effects:
        """Decide an authorization up to its hold: open, verify, check limit, ask.

        Denials carry a precise reason; the only state a failed attempt
        leaves behind is the payment nonce, which stays burned.  An order
        gets at most one hold: a relay for an order whose hold is still
        being asked for is neither opened nor answered, and one for an order
        already held is refused as a replay, whatever its payment half.
        """
        oi_digest = msg.oi_digest

        def deny(reason: DenialReason) -> Effects:
            return self._reply(sender, AuthOutcome, EventKind.AUTHORIZATION_REFUSED, reason,
                               oi_digest=oi_digest, token=None)

        if not self._authentic(msg, sender, covered):
            return deny(DenialReason.BAD_SIGNATURE)
        held = self.holds.get(self.order_holds.get(oi_digest))
        if held is not None and held.phase == HoldPhase.HOLDING:
            return [self._event(EventKind.DUPLICATE, oi_digest)]
        try:
            payment_bytes = unpad_payment(open_envelope(self.identity, msg.payment_envelope))
            payment = codec.decode(payment_bytes, PaymentInfo)
        except (EnvelopeError, CodecError):
            return deny(DenialReason.BAD_SIGNATURE)
        if payment.payment_nonce in self.seen_payment_nonces:
            return deny(DenialReason.REPLAY)
        self.seen_payment_nonces.add(payment.payment_nonce)
        if held is not None:  # the order is already held
            return deny(DenialReason.REPLAY)
        payer_key = self._key_of(msg.dual.signer_id)
        if payer_key is None \
                or not verify_dual(payer_key, oi_digest, hash_bytes(payment_bytes), msg.dual):
            return deny(DenialReason.BAD_SIGNATURE)
        if msg.charge_amount > payment.authorized_limit:
            return deny(DenialReason.OVER_LIMIT)
        if payment.account_provider_id not in self.config.account_providers:
            return deny(DenialReason.UNKNOWN_ACCOUNT)

        account_digest = hash_bytes(payment.account_ref.encode("utf-8"))
        hold_nonce = self._nonce()
        request = self._send(payment.account_provider_id, HoldRequest,
                             hold_nonce=hold_nonce, account_ref_digest=account_digest,
                             amount=msg.charge_amount)
        if type(request) is not Send:  # the account provider is unreachable
            return [request, *deny(DenialReason.UNKNOWN_ACCOUNT)]
        self.holds[hold_nonce] = HoldRecord(sender, payment.account_provider_id,
                                            msg.charge_amount, oi_digest)
        self.order_holds[oi_digest] = hold_nonce
        return [request]

    def _on_hold_response(self, sender: str, response: HoldResponse, covered, now: int) -> Effects:
        """Mint the token of a placed hold, or pass the hold's refusal on."""
        hold = self.holds.get(response.hold_nonce)
        awaited = hold is not None and hold.account_provider == sender \
            and hold.phase == HoldPhase.HOLDING
        if ignored := self._unanswered(response, awaited, sender, covered):
            return ignored
        token = None
        if response.ok:  # the token travels nested in the outcome, under its own signature
            token, _ = build_signed(CaptureToken, self.identity, provider_id=hold.provider,
                                    charge_amount=hold.charge, oi_digest=hold.oi_digest)
            hold.phase = HoldPhase.MINTED
        else:
            del self.holds[response.hold_nonce], self.order_holds[hold.oi_digest]
        return self._reply(hold.provider, AuthOutcome, EventKind.AUTHORIZATION_REFUSED,
                           response.reason, oi_digest=hold.oi_digest, token=token)

    def _on_capture_request(
        self, sender: str, request: CaptureRequest, covered, now: int
    ) -> Effects:
        """Ask for the settlement of the token minted for the order the request
        names, exactly once; a repeat while it is asked for is not answered."""

        def refuse(reason: DenialReason) -> Effects:
            return self._reply(sender, CaptureResponse, EventKind.CAPTURE_REFUSED, reason,
                               oi_digest=request.oi_digest)

        if not self._authentic(request, sender, covered):
            return refuse(DenialReason.BAD_SIGNATURE)
        hold_nonce = self.order_holds.get(request.oi_digest)
        hold = self.holds.get(hold_nonce)
        # no token minted here for this provider
        if hold is None or hold.provider != sender or hold.phase == HoldPhase.HOLDING:
            return refuse(DenialReason.BAD_SIGNATURE)
        if hold.phase == HoldPhase.SETTLING:
            return [self._event(EventKind.DUPLICATE, request.oi_digest)]
        if hold.phase == HoldPhase.SPENT:
            return refuse(DenialReason.REPLAY)
        settle = self._send(hold.account_provider, SettleRequest, hold_nonce=hold_nonce)
        if type(settle) is not Send:  # the account provider is unreachable
            return [settle, *refuse(DenialReason.UNKNOWN_ACCOUNT)]
        hold.phase = HoldPhase.SETTLING
        return [settle]

    def _on_settle_response(
        self, sender: str, response: SettleResponse, covered, now: int
    ) -> Effects:
        """Answer the capture of a settled hold's token, or refuse it."""
        hold = self.holds.get(response.hold_nonce)
        awaited = hold is not None and hold.account_provider == sender \
            and hold.phase == HoldPhase.SETTLING
        if ignored := self._unanswered(response, awaited, sender, covered):
            return ignored
        reason = response.reason
        if response.ok and response.amount != hold.charge:  # settled another amount
            reason = DenialReason.BAD_SIGNATURE
        hold.phase = HoldPhase.SPENT if reason is None else HoldPhase.MINTED
        return self._reply(hold.provider, CaptureResponse, EventKind.CAPTURE_REFUSED, reason,
                           oi_digest=hold.oi_digest)

    _HANDLERS = {
        AuthorizeAndHold: _on_authorize_and_hold,
        HoldResponse: _on_hold_response,
        CaptureRequest: _on_capture_request,
        SettleResponse: _on_settle_response,
    }


# --- account provider -----------------------------------------------------------


@dataclass(frozen=True)
class AccountProviderConfig:
    trust_managers: frozenset[str]


class AccountProvider(_ActorBase):
    """Holds the credit ledger and answers MAC'd hold/settle instructions.
    It draws nothing, so it takes no randomness source."""

    ledger: Ledger

    def _on_hold_request(self, sender: str, msg: HoldRequest, covered, now: int) -> Effects:
        """Place the hold under the trust manager's name for it, ``hold_nonce``.
        The ledger uses a name up once asked, so a repeat is a REPLAY."""
        if sender not in self.config.trust_managers \
                or not self._authentic(msg, sender, covered):
            reason = DenialReason.BAD_SIGNATURE
        else:
            reason = self.ledger.place_hold(msg.account_ref_digest, msg.amount, msg.hold_nonce)
        return self._reply(sender, HoldResponse, EventKind.HOLD_REFUSED, reason,
                           hold_nonce=msg.hold_nonce)

    def _on_settle_request(self, sender: str, msg: SettleRequest, covered, now: int) -> Effects:
        if sender not in self.config.trust_managers \
                or not self._authentic(msg, sender, covered):
            amount, reason = 0, DenialReason.BAD_SIGNATURE
        else:
            amount, reason = self.ledger.settle_hold(msg.hold_nonce)
        return self._reply(sender, SettleResponse, EventKind.SETTLE_REFUSED, reason,
                           hold_nonce=msg.hold_nonce, amount=amount)

    _HANDLERS = {
        HoldRequest: _on_hold_request,
        SettleRequest: _on_settle_request,
    }
