"""The four protocol actors: requester, provider, trust manager, account provider.

Each actor is a single-threaded state machine with one external surface:

    deliver(sender_id, raw_bytes, now) -> [(dest_id, raw_bytes), ...]

The simulated network calls ``deliver`` for every incoming message and
queues whatever comes back; a handler only returns outbound messages and
never waits for an answer.  A server that asks another keeps the request
pending in its record of the order or hold, under a name the request
carries (the order digest ``dual.oi_digest``, the ``hold_nonce``, the token
id), and the answer's own handler resumes from that record.  The seven
server-to-server legs carry a pairwise MAC; the signed messages of the
requester's legs and the trust manager's capture token keep their
signatures (see ``_authentic``).

The privacy split is enforced here by what each actor stores, one
record per order or hold:

* the provider keeps orders, quoted prices, and objects, and never sees
  payment plaintext (it only relays the sealed envelope);
* the trust manager keeps payment nonces and, per hold, what the hold
  and a capture of its token read (not the signed token), and never sees
  order plaintext (it only handles digests and amounts);
* the account provider keeps a ledger keyed by account digests.

A hold has one name from request to settlement: the trust manager's
``hold_nonce``.  The account provider places and settles the hold under
it, and the trust manager keys its record of the hold by it, so the
token carries neither the hold nor the payer's account provider.

``deliver`` is the only way into an actor (the requester's ``begin``
only makes the first message); tests drive the actors through it too.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields, is_dataclass
from enum import IntEnum
from functools import cache
from random import Random
from typing import Callable, Mapping

from . import codec
from .codec import Bulk, CodecError
from .crypto import (
    Digest,
    EnvelopeError,
    KeyPair,
    hash_bytes,
    mac_keys,
    make_dual_signature,
    open_envelope,
    seal,
    sign,
    verify_with_oi,
    verify_with_pi,
)
from .ledger import (
    HoldClosedError,
    InsufficientCreditError,
    Ledger,
    LedgerError,
    UnknownAccountError,
)
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
    UsageDescriptor,
    build_maced,
    build_signed,
    object_digests,
    verify_maced,
    verify_signed,
)


Outbound = list[tuple[str, bytes]]


def _leaf(tag: bytes, data: bytes) -> bytes:
    # The non-zero tag keeps the framing of adjacent leaves from forming a
    # run of zero bytes that could read as a big-endian privacy marker.
    return tag + struct.pack(">I", len(data)) + data


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _state_encode(value) -> bytes:
    """Canonical bytes of one piece of actor state (see ``state_bytes``)."""
    if isinstance(value, Ledger):
        value = value.snapshot()
    if isinstance(value, int):  # bools and IntEnums too
        width = max(8, (value.bit_length() + 8) // 8)
        return _leaf(b"I", value.to_bytes(width, "big", signed=True))
    if isinstance(value, str):
        return _leaf(b"S", value.encode("utf-8"))
    if isinstance(value, (bytes, memoryview)):  # a view as the same bytes
        return _leaf(b"B", value)
    if is_dataclass(value):
        parts = [_state_encode(getattr(value, name)) for name in _field_names(type(value))]
    elif isinstance(value, dict):
        parts = sorted(_state_encode(k) + _state_encode(v) for k, v in value.items())
    elif isinstance(value, (set, frozenset)):
        parts = sorted(_state_encode(item) for item in value)
    elif isinstance(value, (list, tuple)):
        parts = [_state_encode(item) for item in value]
    else:
        raise TypeError(f"no state encoding for {type(value).__name__}")
    return b"L" + struct.pack(">I", len(parts)) + b"".join(parts)


class _ActorBase:
    # Construction-time wiring, not state: the private key, the public-key
    # directory, the randomness source, the fixed config, and the MAC keys
    # derived from the first two.
    _WIRING = frozenset({"identity", "directory", "rng", "config", "pair_keys"})
    # Message type -> handler(self, sender, msg, covered, now), where
    # ``covered`` is what ``codec.decode_authenticated`` returned.  A class-level
    # table of plain functions: bound methods stored on the instance would
    # point back at it, so each run's actors could only be freed by the
    # cyclic garbage collector.
    _HANDLERS: Mapping[type, Callable] = {}

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
        self.notes: list[str] = []

    def _note(self, text: str) -> None:
        self.notes.append(text)

    def _nonce(self) -> bytes:
        return self.rng.randbytes(16)

    def _key_of(self, subject_id: str) -> bytes | None:
        return self.directory.get(subject_id)

    def _answers(self, msg, awaited: bool, sender: str, covered) -> bool:
        """Is ``msg`` the answer to a request still pending?  ``awaited``: its
        record awaits it from ``sender``, who must then have authenticated it.
        One note if not, and the caller changes nothing."""
        if not awaited:
            self._note(f"{type(msg).__name__} answers no pending request")
            return False
        # AuthOutcome is unsigned: an approval's authority is its token's signature
        if type(msg) is not AuthOutcome and not self._authentic(msg, sender, covered):
            self._note(f"{type(msg).__name__} authenticator does not verify")
            return False
        return True

    def _keys_with(self, peer_id: str) -> tuple[bytes, bytes] | None:
        """The MAC keys shared with ``peer_id``: one X25519 agreement per peer and run."""
        keys = self.pair_keys.get(peer_id)
        if keys is None:
            keys = mac_keys(self.identity, peer_id, self._key_of(peer_id))
            if keys is not None:
                self.pair_keys[peer_id] = keys
        return keys

    def _maced_to(self, peer_id: str, cls: type, **fields) -> Outbound:
        """``cls`` MAC'd to ``peer_id``, to send; nothing, with a note, without a key."""
        keys = self._keys_with(peer_id)
        if keys is None:
            self._note(f"no MAC key for {peer_id}; {cls.__name__} not sent")
            return []
        return [(peer_id, build_maced(cls, keys[0], **fields)[1])]

    def _authentic(
        self,
        msg,
        peer_id: str,
        covered: bytes | memoryview | None = None,
        digests: tuple[Digest, ...] | None = None,
    ) -> bool:
        """Did ``peer_id`` send ``msg``, by its trailing signature or MAC?

        A ``*_mac`` is checked under the key from ``peer_id`` to this actor; a
        ``*_signature`` must name ``peer_id`` and verify under its public key.
        ``covered`` is the part of the received bytes the authenticator
        covers (``codec.decode_authenticated``); it is encoded again from
        ``msg`` only when absent, as for a token nested in another message.
        ``digests`` are an ``ObjectUpload``'s object digests, which its
        signature covers in place of the objects.
        """
        name = codec.authenticator_field_name(type(msg))
        if name.endswith("_mac"):
            keys = self._keys_with(peer_id)
            return keys is not None and verify_maced(msg, keys[1], covered)
        public = self._key_of(peer_id)
        if public is None:
            return False
        sig = getattr(msg, name)
        if sig.signer_id != peer_id:
            return False
        return verify_signed(msg, public, digests, covered)

    def deliver(self, sender: str, raw: bytes, now: int) -> Outbound:
        """Process one incoming message; returns outbound (dest, bytes) pairs.

        Malformed or unexpected input is logged and dropped, never raised:
        a hostile network must not be able to crash an actor.
        """
        try:
            msg, covered = codec.decode_authenticated(raw)
        except CodecError as exc:
            self._note(f"rejected undecodable message from {sender}: {exc}")
            return []
        handler = self._HANDLERS.get(type(msg))
        if handler is None:
            self._note(f"ignored unexpected {type(msg).__name__} from {sender}")
            return []
        return handler(self, sender, msg, covered, now)

    def state_bytes(self) -> bytes:
        """Deterministic bytes of everything this actor has recorded.

        Every instance attribute except the wiring is encoded, so state an
        actor starts keeping is inside the privacy scanner's reach without
        further bookkeeping.  Sets and mappings are sorted by encoding, so
        hash order never reaches the bytes.
        """
        state = {k: v for k, v in vars(self).items() if k not in self._WIRING}
        return _state_encode([type(self).__name__, state])


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


@dataclass
class RequesterOrder:
    phase: RequesterPhase = RequesterPhase.AUTHORIZING
    digests: tuple[Digest, ...] = ()  # what the upload signature committed to
    # ticket_id -> ticket, in grant order: one per uploaded object
    tickets: dict[bytes, Ticket] = field(default_factory=dict)
    retrieved: dict[bytes, Bulk] = field(default_factory=dict)
    refusals: set[bytes] = field(default_factory=set)  # tickets the provider refused

    def awaits(self, ticket_id: bytes) -> bool:
        """Is ``ticket_id`` this order's, neither redeemed nor refused?"""
        done = ticket_id in self.retrieved or ticket_id in self.refusals
        return ticket_id in self.tickets and not done


class ServiceRequester(_ActorBase):
    """Asks for a price, authorizes payment, uploads, redeems, confirms."""

    def __init__(
        self,
        identity: KeyPair,
        directory: Mapping[str, bytes],
        config: RequesterConfig,
        rng: Random,
    ) -> None:
        super().__init__(identity, directory, config, rng)
        self.pending_usage: list[tuple[bytes, UsageDescriptor]] = []
        # order_nonce -> the order, from its authorization on
        self.orders: dict[bytes, RequesterOrder] = {}

    def begin(self, usage: UsageDescriptor) -> tuple[str, bytes]:
        """Kick-off message for a simulation run: a price request for
        ``usage`` under a fresh nonce."""
        request = PriceRequest(usage=usage, nonce=self._nonce())
        self.pending_usage.append((request.nonce, usage))
        return (self.config.provider_id, codec.encode(request))

    # -- message handlers --

    def _on_price_quote(self, sender: str, quote: PriceQuote, covered, now: int) -> Outbound:
        """Turn an acceptable quote into a dual-signed authorization."""
        if sender != self.config.provider_id:
            self._note(f"quote from unexpected sender {sender}")
            return []
        matched = next(
            (i for i, (_n, usage) in enumerate(self.pending_usage) if usage == quote.usage),
            None,
        )
        if matched is None:
            self._note("quote does not match any pending request")
            return []

        def refuse(detail: str) -> Outbound:
            self._note(f"quote not usable: {detail}")
            return []

        if not self._authentic(quote, self.config.provider_id, covered):
            return refuse("quote signature does not verify")
        if now >= quote.expiry:
            return refuse(f"quote expired at tick {quote.expiry}, now {now}")
        order = OrderInfo(
            quote_id=quote.quote_id,
            usage=quote.usage,
            order_nonce=self._nonce(),
        )
        payment = PaymentInfo(
            account_provider_id=self.config.account_provider_id,
            account_ref=self.config.account_ref,
            authorized_limit=self.config.authorized_limit,
            payment_nonce=self._nonce(),
        )
        order_bytes = codec.encode(order)
        payment_bytes = codec.encode(payment)
        tm_key = self._key_of(self.config.trust_manager_id)
        if tm_key is None:
            return refuse(f"no public key for {self.config.trust_manager_id!r}")
        envelope = seal(tm_key, self.config.trust_manager_id, payment_bytes, self.rng)
        dual = make_dual_signature(self.identity, order_bytes, payment_bytes)
        self.orders[order.order_nonce] = RequesterOrder()
        self.pending_usage.pop(matched)
        auth = AuthorizationRequest(order_info=order, payment_envelope=envelope, dual=dual)
        return [(self.config.provider_id, codec.encode(auth))]

    def _on_quote_denial(self, sender: str, denial: QuoteDenial, covered, now: int) -> Outbound:
        self._note(f"price request denied: {denial.reason}")
        self.pending_usage = [
            (nonce, usage) for nonce, usage in self.pending_usage
            if nonce != denial.request_nonce
        ]
        return []

    def _on_auth_decision(self, sender: str, decision: AuthDecision, covered, now: int) -> Outbound:
        if not self._authentic(decision, self.config.provider_id, covered):
            self._note("auth decision signature does not verify")
            return []
        record = self.orders.get(decision.order_nonce)
        if record is None or record.phase != RequesterPhase.AUTHORIZING:
            self._note("auth decision for no pending order")
            return []
        if not decision.approved:
            record.phase = RequesterPhase.FAILED
            self._note("authorization denied")
            return []
        record.phase = RequesterPhase.UPLOADING
        record.digests = object_digests(self.config.objects)
        _, raw = build_signed(
            ObjectUpload,
            self.identity,
            digests=record.digests,
            order_nonce=decision.order_nonce,
            objects=self.config.objects,
        )
        return [(self.config.provider_id, raw)]

    def _on_service_grant(self, sender: str, grant: ServiceGrant, covered, now: int) -> Outbound:
        if not self._authentic(grant, self.config.provider_id, covered):
            self._note("service grant signature does not verify")
            return []
        record = self.orders.get(grant.order_nonce)
        if record is not None and record.phase > RequesterPhase.UPLOADING:
            self._note("duplicate service grant ignored")
            return []
        if record is None or record.phase != RequesterPhase.UPLOADING:
            self._note("service grant for no uploaded order")
            return []
        if len(grant.tickets) != len(record.digests):
            self._note("grant ticket count does not match uploaded objects")
            return []
        for ticket, digest in zip(grant.tickets, record.digests):
            if ticket.object_digest != digest:
                self._note("grant ticket digest does not match uploaded object")
                return []
        record.phase = RequesterPhase.REDEEMING
        out: Outbound = []
        for ticket in grant.tickets:
            record.tickets[ticket.ticket_id] = ticket
            request = TicketRedeemRequest(ticket_id=ticket.ticket_id)
            out.append((self.config.provider_id, codec.encode(request)))
        return out

    def _on_redeem_response(
        self, sender: str, resp: TicketRedeemResponse, covered, now: int
    ) -> Outbound:
        # The response is unsigned: the signed grant's ticket already commits
        # to the object's digest, so the digest is the integrity check.
        found = next(((n, r) for n, r in self.orders.items() if r.awaits(resp.ticket_id)), None)
        if found is None:
            self._note("redeem response for no outstanding ticket")
            return []
        order_nonce, record = found
        if resp.ok and not record.tickets[resp.ticket_id].matches(resp.payload):
            self._note("redeemed object does not match ticket digest")
            return []
        if not resp.ok:
            record.refusals.add(resp.ticket_id)
            self._note("ticket redemption refused")
            return []
        record.retrieved[resp.ticket_id] = resp.payload
        # a refused ticket is never retrieved, so that order never completes
        if len(record.retrieved) < len(record.tickets):
            return []
        record.phase = RequesterPhase.COMPLETED
        _, raw = build_signed(ServiceComplete, self.identity, order_nonce=order_nonce)
        return [(self.config.provider_id, raw)]

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


@dataclass
class ProviderOrder:
    requester: str
    oi_digest: Digest  # the order's name to the trust manager and in its outcome
    charge: int  # the quoted price
    phase: ProviderPhase = ProviderPhase.RELAYED
    token_id: bytes = b""  # the approving token's id, from APPROVED on


class ServiceProvider(_ActorBase):
    """Prices usage, relays authorizations, stores objects, collects credit."""

    def __init__(
        self,
        identity: KeyPair,
        directory: Mapping[str, bytes],
        config: ProviderConfig,
        rng: Random,
    ) -> None:
        super().__init__(identity, directory, config, rng)
        # quote_id -> (usage, price, expiry) of each quote issued
        self.issued_quotes: dict[bytes, tuple[UsageDescriptor, int, int]] = {}
        self.denials: list[DenialReason] = []
        # order_nonce -> the order; only orders matched to an issued quote
        self.orders: dict[bytes, ProviderOrder] = {}
        # ticket_id -> object, until the ticket is redeemed
        self.stored_objects: dict[bytes, Bulk] = {}

    def _decide(self, requester: str, order_nonce: bytes, approved: bool) -> Outbound:
        _, raw = build_signed(
            AuthDecision, self.identity, order_nonce=order_nonce, approved=approved
        )
        return [(requester, raw)]

    # -- message handlers --

    def _on_price_request(self, sender: str, request: PriceRequest, covered, now: int) -> Outbound:
        """Price a usage request: rate * quantity, valid for quote_ttl ticks."""

        def deny(reason: str) -> Outbound:
            denial = QuoteDenial(request_nonce=request.nonce, reason=reason)
            return [(sender, codec.encode(denial))]

        rate = self.config.pricing.get(request.usage.service_id)
        if rate is None:
            return deny(f"no pricing for service {request.usage.service_id!r}")
        price = rate * request.usage.quantity
        if price.bit_length() > 64:
            return deny(f"price for quantity {request.usage.quantity} exceeds 2**64 - 1")
        quote, raw = build_signed(
            PriceQuote,
            self.identity,
            quote_id=self._nonce(),
            usage=request.usage,
            price=price,
            expiry=now + self.config.quote_ttl,
        )
        self.issued_quotes[quote.quote_id] = (quote.usage, price, quote.expiry)
        return [(sender, raw)]

    def _on_authorization(
        self, sender: str, auth: AuthorizationRequest, covered, now: int
    ) -> Outbound:
        """Validate the order half and relay the payment half, or refuse.

        The order stays here.  The trust manager gets an AuthorizeAndHold,
        MAC'd to it, carrying the untouched sealed envelope; the order
        plaintext goes no further, and the requester is answered once the
        trust manager's outcome arrives.  A duplicate of an order already
        accepted is ignored outright: that order has its one relay, and a
        second could only draw the trust manager's REPLAY refusal.  Without
        a key for the trust manager there is no relay and no answer, and the
        order is not kept.
        """
        order = auth.order_info

        def deny(reason: DenialReason, detail: str) -> Outbound:
            self._note(f"authorization refused ({reason.name}): {detail}")
            self.denials.append(reason)
            return self._decide(sender, order.order_nonce, False)

        # authenticity first: any tampering surfaces as BAD_SIGNATURE before
        # policy questions like quote expiry get a say
        if auth.dual.signature.signer_id != sender:
            return deny(DenialReason.BAD_SIGNATURE, "dual signature names a different requester")
        requester_key = self._key_of(sender)
        if requester_key is None:
            return deny(DenialReason.BAD_SIGNATURE, "unknown requester")
        if not verify_with_oi(requester_key, codec.encode(order), auth.dual):
            return deny(DenialReason.BAD_SIGNATURE, "dual signature fails on order side")
        quote = self.issued_quotes.get(order.quote_id)
        if quote is None:
            return deny(DenialReason.EXPIRED_QUOTE, "unknown quote reference")
        usage, price, expiry = quote
        if now >= expiry:
            return deny(DenialReason.EXPIRED_QUOTE, "quote expired")
        if order.usage != usage:
            return deny(DenialReason.EXPIRED_QUOTE, "order does not match quoted usage")
        if order.order_nonce in self.orders:
            self._note("duplicate authorization for an accepted order ignored")
            return []

        relay = self._maced_to(
            self.config.trust_manager_id,
            AuthorizeAndHold,
            payment_envelope=auth.payment_envelope,
            dual=auth.dual,
            charge_amount=price,
        )
        if relay:
            self.orders[order.order_nonce] = ProviderOrder(sender, auth.dual.oi_digest, price)
        return relay

    def _on_auth_outcome(self, sender: str, outcome: AuthOutcome, covered, now: int) -> Outbound:
        """Answer the requester of the relayed order the outcome names.

        An approval stands only on a token the trust manager signed for this
        provider, for the quoted price and for this order's digest.
        """
        found = next(
            ((n, r) for n, r in self.orders.items() if r.oi_digest == outcome.oi_digest), None
        )
        tm = self.config.trust_manager_id
        awaited = found is not None and found[1].phase == ProviderPhase.RELAYED and sender == tm
        if not self._answers(outcome, awaited, sender, covered):
            return []
        order_nonce, record = found
        if not outcome.approved:
            record.phase = ProviderPhase.DENIED
            self._note(f"authorization denied by trust manager: {outcome.reason.name}")
            return self._decide(record.requester, order_nonce, False)
        token = outcome.token
        if (
            self._authentic(token, self.config.trust_manager_id)
            and token.provider_id == self.subject_id
            and token.charge_amount == record.charge
            and token.oi_digest == record.oi_digest
        ):
            record.phase, record.token_id = ProviderPhase.APPROVED, token.token_id
            return self._decide(record.requester, order_nonce, True)
        record.phase = ProviderPhase.DENIED
        self._note("approved outcome carried an unverifiable token")
        return self._decide(record.requester, order_nonce, False)

    def _on_object_upload(self, sender: str, upload: ObjectUpload, covered, now: int) -> Outbound:
        record = self.orders.get(upload.order_nonce)
        if record is None or record.requester != sender:
            self._note("upload for unknown order")
            return []
        digests = object_digests(upload.objects)
        if not self._authentic(upload, sender, digests=digests):
            self._note("upload signature does not verify")
            return []
        if record.phase >= ProviderPhase.GRANTED:
            self._note("upload for already granted order")
            return []
        if record.phase != ProviderPhase.APPROVED:
            self._note("upload for unapproved order")
            return []
        # store the objects and issue one single-use ticket per object
        record.phase = ProviderPhase.GRANTED
        tickets = tuple(Ticket(ticket_id=self._nonce(), object_digest=d) for d in digests)
        for ticket, obj in zip(tickets, upload.objects):
            self.stored_objects[ticket.ticket_id] = obj
        _, raw = build_signed(
            ServiceGrant, self.identity, order_nonce=upload.order_nonce, tickets=tickets
        )
        return [(sender, raw)]

    def _on_redeem_request(
        self, sender: str, request: TicketRedeemRequest, covered, now: int
    ) -> Outbound:
        # stored objects are never empty, so no bytes means a refusal
        payload = self.stored_objects.pop(request.ticket_id, b"")
        if not payload:
            self._note("redemption refused: unknown or spent ticket")
        response = TicketRedeemResponse(ticket_id=request.ticket_id, payload=payload)
        return [(sender, codec.encode(response))]

    def _on_service_complete(
        self, sender: str, done: ServiceComplete, covered, now: int
    ) -> Outbound:
        record = self.orders.get(done.order_nonce)
        if record is None or record.phase < ProviderPhase.GRANTED:
            self._note("completion for unknown grant")
            return []
        if record.requester != sender or not self._authentic(done, sender, covered):
            self._note("completion signature does not verify")
            return []
        if record.phase >= ProviderPhase.CAPTURING:
            captured = record.phase == ProviderPhase.CAPTURED
            self._note("grant already captured" if captured else "capture already pending")
            return []
        # name the token to the trust manager; a settled capture books the charge
        request = self._maced_to(
            self.config.trust_manager_id, CaptureRequest, token_id=record.token_id
        )
        if request:
            record.phase = ProviderPhase.CAPTURING
        return request

    def _on_capture_response(
        self, sender: str, response: CaptureResponse, covered, now: int
    ) -> Outbound:
        """Book a settled capture, or take a refused one back to GRANTED."""
        record = next((r for r in self.orders.values() if r.token_id == response.token_id), None)
        tm = self.config.trust_manager_id
        awaited = record is not None and record.phase == ProviderPhase.CAPTURING and sender == tm
        if not self._answers(response, awaited, sender, covered):
            return []
        if response.settled:
            record.phase = ProviderPhase.CAPTURED
        else:
            record.phase = ProviderPhase.GRANTED
            self._note(f"capture refused: {response.reason.name}")
        return []

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


@dataclass
class Hold:
    provider: str
    account_provider: str
    charge: int
    oi_digest: Digest  # the order the hold is for, as its outcome and token name it
    phase: HoldPhase = HoldPhase.HOLDING
    token_id: bytes = b""  # from MINTED on


class TrustManager(_ActorBase):
    """Opens payment envelopes, enforces limits, places holds, mints tokens."""

    def __init__(
        self,
        identity: KeyPair,
        directory: Mapping[str, bytes],
        config: TrustManagerConfig,
        rng: Random,
    ) -> None:
        super().__init__(identity, directory, config, rng)
        self.seen_payment_nonces: set[bytes] = set()
        self.denials: list[DenialReason] = []
        # hold_nonce, the hold's one name from request to settlement -> what
        # the hold and its token's capture read; not the signed token
        self.holds: dict[bytes, Hold] = {}

    def _deny(self, provider: str, oi_digest: Digest, reason, detail: str) -> Outbound:
        self._note(f"authorization denied ({reason.name}): {detail}")
        self.denials.append(reason)
        outcome = AuthOutcome(oi_digest=oi_digest, token=None, reason=reason)
        return [(provider, codec.encode(outcome))]

    def _capture_answer(self, provider: str, token_id: bytes, reason, detail: str = "") -> Outbound:
        """The capture of ``token_id`` settled (``reason`` None) or refused."""
        if reason is not None:
            self._note(f"capture refused ({reason.name}): {detail}")
        return self._maced_to(provider, CaptureResponse, token_id=token_id, reason=reason)

    def _on_authorize_and_hold(
        self, sender: str, msg: AuthorizeAndHold, covered, now: int
    ) -> Outbound:
        """Decide an authorization up to its hold: open, verify, check limit, ask.

        Denials carry a precise reason; the only state a failed attempt
        leaves behind is the payment nonce, which stays burned.  A repeat of
        an authorization whose hold is still being asked for is not answered.
        """

        def deny(reason: DenialReason, detail: str) -> Outbound:
            return self._deny(sender, msg.dual.oi_digest, reason, detail)

        if not self._authentic(msg, sender, covered):
            return deny(DenialReason.BAD_SIGNATURE, "provider MAC fails")
        try:
            payment_bytes = open_envelope(self.identity, msg.payment_envelope)
        except EnvelopeError as exc:
            return deny(DenialReason.BAD_SIGNATURE, f"envelope failed to open: {exc}")
        try:
            payment = codec.decode(payment_bytes, PaymentInfo)
        except CodecError as exc:
            return deny(DenialReason.BAD_SIGNATURE, f"payment plaintext malformed: {exc}")
        if payment.payment_nonce in self.seen_payment_nonces:
            if any(h.phase == HoldPhase.HOLDING and h.oi_digest == msg.dual.oi_digest
                   for h in self.holds.values()):
                self._note("repeat of an authorization on hold ignored")
                return []
            return deny(DenialReason.REPLAY, "payment nonce already used")
        self.seen_payment_nonces.add(payment.payment_nonce)
        payer_key = self._key_of(msg.dual.signature.signer_id)
        if payer_key is None:
            return deny(DenialReason.BAD_SIGNATURE, "unknown payer identity")
        if not verify_with_pi(payer_key, payment_bytes, msg.dual):
            return deny(DenialReason.BAD_SIGNATURE, "dual signature fails on payment side")
        if msg.charge_amount > payment.authorized_limit:
            return deny(
                DenialReason.OVER_LIMIT,
                f"charge {msg.charge_amount} exceeds limit {payment.authorized_limit}",
            )
        if payment.account_provider_id not in self.config.account_providers:
            return deny(DenialReason.UNKNOWN_ACCOUNT, "account provider not recognised")

        account_digest = hash_bytes(payment.account_ref.encode("utf-8"))
        hold_nonce = self._nonce()
        request = self._maced_to(
            payment.account_provider_id,
            HoldRequest,
            hold_nonce=hold_nonce,
            account_ref_digest=account_digest,
            amount=msg.charge_amount,
        )
        if not request:
            return deny(DenialReason.UNKNOWN_ACCOUNT, "account provider unreachable")
        self.holds[hold_nonce] = Hold(
            sender, payment.account_provider_id, msg.charge_amount, msg.dual.oi_digest
        )
        return request

    def _on_hold_response(self, sender: str, response: HoldResponse, covered, now: int) -> Outbound:
        """Mint the token of a placed hold, or pass the hold's refusal on."""
        hold = self.holds.get(response.hold_nonce)
        asked = hold is not None and hold.account_provider == sender
        if not self._answers(response, asked and hold.phase == HoldPhase.HOLDING, sender, covered):
            return []
        if not response.ok:
            del self.holds[response.hold_nonce]
            detail = "account provider refused the hold"
            return self._deny(hold.provider, hold.oi_digest, response.reason, detail)
        token, _ = build_signed(
            CaptureToken,
            self.identity,
            token_id=self._nonce(),
            provider_id=hold.provider,
            charge_amount=hold.charge,
            oi_digest=hold.oi_digest,
        )
        hold.phase, hold.token_id = HoldPhase.MINTED, token.token_id
        outcome = AuthOutcome(oi_digest=hold.oi_digest, token=token, reason=None)
        return [(hold.provider, codec.encode(outcome))]

    def _on_capture_request(
        self, sender: str, request: CaptureRequest, covered, now: int
    ) -> Outbound:
        """Ask for the settlement of the minted token the request names by id,
        exactly once; a repeat while it is asked for is not answered."""

        def refuse(reason: DenialReason, detail: str) -> Outbound:
            return self._capture_answer(sender, request.token_id, reason, detail)

        if not self._authentic(request, sender, covered):
            return refuse(DenialReason.BAD_SIGNATURE, "provider MAC fails")
        found = next(
            ((n, h) for n, h in self.holds.items() if h.token_id == request.token_id), None
        )
        if found is None or found[1].provider != sender:
            return refuse(DenialReason.BAD_SIGNATURE, "no token minted here for this provider")
        hold_nonce, hold = found
        if hold.phase == HoldPhase.SETTLING:
            self._note("repeat of a capture being settled ignored")
            return []
        if hold.phase == HoldPhase.SPENT:
            return refuse(DenialReason.REPLAY, "token already spent")
        settle = self._maced_to(hold.account_provider, SettleRequest, hold_nonce=hold_nonce)
        if not settle:
            return refuse(DenialReason.UNKNOWN_ACCOUNT, "account provider unreachable")
        hold.phase = HoldPhase.SETTLING
        return settle

    def _on_settle_response(
        self, sender: str, response: SettleResponse, covered, now: int
    ) -> Outbound:
        """Answer the capture of a settled hold's token, or refuse it."""
        hold = self.holds.get(response.hold_nonce)
        asked = hold is not None and hold.account_provider == sender
        if not self._answers(response, asked and hold.phase == HoldPhase.SETTLING, sender, covered):
            return []
        reason, detail = response.reason, "account provider refused settlement"
        if response.ok and response.amount != hold.charge:
            reason, detail = DenialReason.BAD_SIGNATURE, "settled amount mismatch"
        hold.phase = HoldPhase.SPENT if reason is None else HoldPhase.MINTED
        return self._capture_answer(hold.provider, hold.token_id, reason, detail)

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
    """Holds the credit ledger and answers MAC'd hold/settle instructions."""

    def __init__(
        self,
        identity: KeyPair,
        directory: Mapping[str, bytes],
        config: AccountProviderConfig,
    ) -> None:
        # draws nothing, so it takes no randomness source
        super().__init__(identity, directory, config)
        self.ledger = Ledger()
        self.seen_hold_nonces: set[bytes] = set()

    def _on_hold_request(self, sender: str, msg: HoldRequest, covered, now: int) -> Outbound:
        """Place the hold under the trust manager's name for it, ``hold_nonce``."""

        def respond(reason: DenialReason | None) -> Outbound:
            return self._maced_to(sender, HoldResponse, hold_nonce=msg.hold_nonce, reason=reason)

        if sender not in self.config.trust_managers \
                or not self._authentic(msg, sender, covered):
            self._note("hold request MAC does not verify")
            return respond(DenialReason.BAD_SIGNATURE)
        if msg.hold_nonce in self.seen_hold_nonces:
            self._note("hold request nonce already used")
            return respond(DenialReason.REPLAY)
        self.seen_hold_nonces.add(msg.hold_nonce)
        try:
            self.ledger.place_hold(msg.account_ref_digest, msg.amount, msg.hold_nonce)
        except InsufficientCreditError as exc:
            self._note(f"hold refused: {exc}")
            return respond(DenialReason.INSUFFICIENT_CREDIT)
        except (UnknownAccountError, LedgerError) as exc:
            self._note(f"hold refused: {exc}")
            return respond(DenialReason.UNKNOWN_ACCOUNT)
        return respond(None)

    def _on_settle_request(self, sender: str, msg: SettleRequest, covered, now: int) -> Outbound:
        def respond(amount: int, reason: DenialReason | None) -> Outbound:
            return self._maced_to(
                sender, SettleResponse, hold_nonce=msg.hold_nonce, amount=amount, reason=reason
            )

        if sender not in self.config.trust_managers \
                or not self._authentic(msg, sender, covered):
            self._note("settle request MAC does not verify")
            return respond(0, DenialReason.BAD_SIGNATURE)
        try:
            amount = self.ledger.settle_hold(msg.hold_nonce)
        except HoldClosedError:
            self._note("settle refused: hold already closed")
            return respond(0, DenialReason.REPLAY)
        except LedgerError as exc:
            self._note(f"settle refused: {exc}")
            return respond(0, DenialReason.UNKNOWN_ACCOUNT)
        return respond(amount, None)

    _HANDLERS = {
        HoldRequest: _on_hold_request,
        SettleRequest: _on_settle_request,
    }
