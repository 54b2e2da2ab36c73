"""The four protocol actors: requester, provider, trust manager, account provider.

Each actor is a single-threaded state machine with one external surface:

    deliver(sender_id, raw_bytes, now, net) -> [(dest_id, raw_bytes), ...]

The simulated network calls ``deliver`` for every incoming message and
queues whatever comes back; only the requester's legs travel that way.
Every exchange between two servers is a ``net.call``, which the network
also mediates and records, and its answer is the call's return value.
Those seven server-to-server legs carry a pairwise MAC; the signed
messages of the requester's legs and the trust manager's capture token
keep their signatures (see ``_authentic``).

The privacy split is enforced here by what each actor stores:

* the provider keeps order state, tokens, and objects, and never sees
  payment plaintext (it only relays the sealed envelope);
* the trust manager keeps payment nonces and the tokens it minted and
  spent, and never sees order plaintext (it only handles digests and
  amounts);
* the account provider keeps a ledger keyed by account digests.

Protocol-level operations (quote_price, build_authorization,
handle_authorize, collect_credits, handle_capture, ...)
are public methods so they can be exercised directly; the message
handlers are thin wrappers around them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields, is_dataclass
from random import Random
from typing import Callable, Mapping, Protocol

from . import codec
from .codec import CodecError
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


class ActorError(Exception):
    """Base class for actor-level failures."""


class PolicyError(ActorError):
    """A local policy check failed before any message was sent."""


class TrustError(ActorError):
    """A counterparty presented something that does not verify."""


class Network(Protocol):
    """Synchronous exchange surface the simulated network provides."""

    def call(self, dest_id: str, raw: bytes) -> bytes | None: ...


Outbound = list[tuple[str, bytes]]


def _leaf(tag: bytes, data: bytes) -> bytes:
    # The non-zero tag keeps the framing of adjacent leaves from forming a
    # run of zero bytes that could read as a big-endian privacy marker.
    return tag + struct.pack(">I", len(data)) + data


def _state_encode(value) -> bytes:
    """Canonical bytes of one piece of actor state (see ``state_bytes``)."""
    if isinstance(value, Ledger):
        value = value.snapshot()
    if value is None:
        return b"N"
    if isinstance(value, int):  # bools and IntEnums too
        width = max(8, (value.bit_length() + 8) // 8)
        return _leaf(b"I", value.to_bytes(width, "big", signed=True))
    if isinstance(value, str):
        return _leaf(b"S", value.encode("utf-8"))
    if isinstance(value, bytes):
        return _leaf(b"B", value)
    if is_dataclass(value):
        parts = [_state_encode(getattr(value, f.name)) for f in fields(value)]
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
    # Message type -> handler(self, sender, msg, now, net).  A class-level
    # table of plain functions: bound methods stored on the instance would
    # point back at it, so each run's actors could only be freed by the
    # cyclic garbage collector.
    _HANDLERS: Mapping[type, Callable] = {}

    def __init__(self, identity: KeyPair, directory: Mapping[str, bytes], rng: Random) -> None:
        self.identity = identity
        self.subject_id = identity.subject_id
        self.directory = directory
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

    def _exchange(self, net: Network | None, dest: str, msg, expect: type):
        """One authenticated round trip to ``dest``; None on any failure, with a note."""
        if msg is None:
            return None
        if net is None:
            self._note(f"no network channel for {type(msg).__name__}")
            return None
        raw = net.call(dest, codec.encode(msg))
        if raw is None:
            self._note(f"{type(msg).__name__} got no response")
            return None
        try:
            response = codec.decode(raw, expect)
        except CodecError as exc:
            self._note(f"{expect.__name__} undecodable: {exc}")
            return None
        # AuthOutcome is unsigned: an approval's authority is its token's signature
        if expect is not AuthOutcome and not self._authentic(response, dest):
            self._note(f"{expect.__name__} authenticator does not verify")
            return None
        return response

    def _keys_with(self, peer_id: str) -> tuple[bytes, bytes] | None:
        """The MAC keys shared with ``peer_id``: one X25519 agreement per peer and run."""
        keys = self.pair_keys.get(peer_id)
        if keys is None:
            keys = mac_keys(self.identity, peer_id, self._key_of(peer_id))
            if keys is not None:
                self.pair_keys[peer_id] = keys
        return keys

    def _maced_for(self, peer_id: str, cls: type, **fields):
        """``cls`` with its MAC to ``peer_id``; None, with a note, without a key."""
        keys = self._keys_with(peer_id)
        if keys is None:
            self._note(f"no MAC key for {peer_id}; {cls.__name__} not sent")
            return None
        return build_maced(cls, keys[0], **fields)

    def _authentic(self, msg, peer_id: str, digests: tuple[Digest, ...] | None = None) -> bool:
        """Did ``peer_id`` send ``msg``, by its trailing signature or MAC?

        A ``*_mac`` is checked under the key from ``peer_id`` to this actor; a
        ``*_signature`` must name ``peer_id`` and verify under its public key.
        ``digests`` are an ``ObjectUpload``'s object digests, when the caller
        holds them.
        """
        field = codec.authenticator_field_name(type(msg))
        if field.endswith("_mac"):
            keys = self._keys_with(peer_id)
            return keys is not None and verify_maced(msg, keys[1])
        public = self._key_of(peer_id)
        if public is None:
            return False
        sig = getattr(msg, field)
        if sig.signer_id != peer_id:
            return False
        return verify_signed(msg, public, digests)

    def deliver(self, sender: str, raw: bytes, now: int, net: Network | None = None) -> Outbound:
        """Process one incoming message; returns outbound (dest, bytes) pairs.

        Malformed or unexpected input is logged and dropped, never raised:
        a hostile network must not be able to crash an actor.
        """
        try:
            msg = codec.decode(raw)
        except CodecError as exc:
            self._note(f"rejected undecodable message from {sender}: {exc}")
            return []
        handler = self._HANDLERS.get(type(msg))
        if handler is None:
            self._note(f"ignored unexpected {type(msg).__name__} from {sender}")
            return []
        return handler(self, sender, msg, now, net)

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
    # On, the requester refuses to authorize a limit below the quoted price
    # before anything is sent; off, the trust manager's check is the one hit.
    enforce_limit_sanity: bool


class ServiceRequester(_ActorBase):
    """Asks for a price, authorizes payment, uploads, redeems, confirms."""

    def __init__(
        self,
        identity: KeyPair,
        directory: Mapping[str, bytes],
        config: RequesterConfig,
        rng: Random,
    ) -> None:
        super().__init__(identity, directory, rng)
        self.config = config
        self.pending_usage: list[tuple[bytes, UsageDescriptor]] = []
        self.pending_auths: set[bytes] = set()
        # what the upload signature committed to, one digest per object
        self.uploaded_digests: tuple[Digest, ...] = ()
        self.grant: ServiceGrant | None = None
        self.tickets: dict[bytes, Ticket] = {}
        self.unredeemed: set[bytes] = set()
        self.retrieved: dict[bytes, bytes] = {}
        self.redeem_failures = 0
        self.completed = False

    # -- protocol operations --

    def request_price(self, usage: UsageDescriptor) -> PriceRequest:
        """Start the pricing flow; each call uses a fresh nonce."""
        request = PriceRequest(usage=usage, nonce=self._nonce())
        self.pending_usage.append((request.nonce, usage))
        return request

    def begin(self, usage: UsageDescriptor) -> tuple[str, bytes]:
        """Kick-off message for a simulation run."""
        return (self.config.provider_id, codec.encode(self.request_price(usage)))

    def build_authorization(self, quote: PriceQuote, now: int) -> AuthorizationRequest:
        """Turn an acceptable quote into a dual-signed authorization.

        Raises:
            TrustError: the quote's signature does not verify.
            PolicyError: the quote is expired, or (with the sanity check on)
                the configured limit would not cover the quoted price.
        """
        if not self._authentic(quote, self.config.provider_id):
            raise TrustError("quote signature does not verify")
        if now >= quote.expiry:
            raise PolicyError(f"quote expired at tick {quote.expiry}, now {now}")
        if self.config.enforce_limit_sanity and self.config.authorized_limit < quote.price:
            raise PolicyError(
                f"authorized limit {self.config.authorized_limit} below price {quote.price}"
            )
        order = OrderInfo(
            quote_id=quote.quote_id,
            usage=quote.usage,
            requester_id=self.subject_id,
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
            raise TrustError(f"no public key for {self.config.trust_manager_id!r}")
        envelope = seal(tm_key, self.config.trust_manager_id, payment_bytes, self.rng)
        dual = make_dual_signature(self.identity, order_bytes, payment_bytes)
        self.pending_auths.add(order.order_nonce)
        return AuthorizationRequest(
            order_info=order,
            payment_envelope=envelope,
            dual=dual,
        )

    def redeem_request(self, ticket: Ticket) -> TicketRedeemRequest:
        return TicketRedeemRequest(ticket_id=ticket.ticket_id)

    # -- message handlers --

    def _on_price_quote(self, sender: str, quote: PriceQuote, now: int, net) -> Outbound:
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
        try:
            auth = self.build_authorization(quote, now)
        except (TrustError, PolicyError) as exc:
            self._note(f"quote not usable: {exc}")
            return []
        self.pending_usage.pop(matched)
        return [(self.config.provider_id, codec.encode(auth))]

    def _on_quote_denial(self, sender: str, denial: QuoteDenial, now: int, net) -> Outbound:
        self._note(f"price request denied: {denial.reason}")
        self.pending_usage = [
            (nonce, usage) for nonce, usage in self.pending_usage
            if nonce != denial.request_nonce
        ]
        return []

    def _on_auth_decision(self, sender: str, decision: AuthDecision, now: int, net) -> Outbound:
        if not self._authentic(decision, self.config.provider_id):
            self._note("auth decision signature does not verify")
            return []
        if decision.order_nonce not in self.pending_auths:
            self._note("auth decision for no pending order")
            return []
        self.pending_auths.remove(decision.order_nonce)
        if not decision.approved:
            self._note("authorization denied")
            return []
        self.uploaded_digests = object_digests(self.config.objects)
        upload = build_signed(
            ObjectUpload,
            self.identity,
            digests=self.uploaded_digests,
            order_nonce=decision.order_nonce,
            objects=self.config.objects,
        )
        return [(self.config.provider_id, codec.encode(upload))]

    def _on_service_grant(self, sender: str, grant: ServiceGrant, now: int, net) -> Outbound:
        if not self._authentic(grant, self.config.provider_id):
            self._note("service grant signature does not verify")
            return []
        if self.grant is not None:
            self._note("duplicate service grant ignored")
            return []
        if len(grant.tickets) != len(self.uploaded_digests):
            self._note("grant ticket count does not match uploaded objects")
            return []
        for ticket, digest in zip(grant.tickets, self.uploaded_digests):
            if ticket.object_digest != digest:
                self._note("grant ticket digest does not match uploaded object")
                return []
        self.grant = grant
        out: Outbound = []
        for ticket in grant.tickets:
            self.tickets[ticket.ticket_id] = ticket
            self.unredeemed.add(ticket.ticket_id)
            out.append((self.config.provider_id, codec.encode(self.redeem_request(ticket))))
        return out

    def _on_redeem_response(
        self, sender: str, resp: TicketRedeemResponse, now: int, net
    ) -> Outbound:
        # The response is unsigned: the signed grant's ticket already commits
        # to the object's digest, so the digest is the integrity check.
        if resp.ticket_id not in self.unredeemed:
            self._note("redeem response for no outstanding ticket")
            return []
        if resp.ok and not self.tickets[resp.ticket_id].matches(resp.payload):
            self._note("redeemed object does not match ticket digest")
            return []
        self.unredeemed.discard(resp.ticket_id)
        if not resp.ok:
            self.redeem_failures += 1
            self._note("ticket redemption refused")
            return []
        self.retrieved[resp.ticket_id] = resp.payload
        if self.unredeemed or self.redeem_failures or self.completed:
            return []
        self.completed = True
        done = build_signed(
            ServiceComplete, self.identity, grant_id=self.grant.grant_id
        )
        return [(self.config.provider_id, codec.encode(done))]

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
    quote_ttl: int = 100


class ServiceProvider(_ActorBase):
    """Prices usage, relays authorizations, stores objects, collects credit."""

    def __init__(
        self,
        identity: KeyPair,
        directory: Mapping[str, bytes],
        config: ProviderConfig,
        rng: Random,
    ) -> None:
        super().__init__(identity, directory, rng)
        self.config = config
        self.issued_quotes: dict[bytes, PriceQuote] = {}
        self.denials: list[DenialReason] = []
        # order_nonce -> order; only orders matched to an issued quote
        self.orders: dict[bytes, OrderInfo] = {}
        # order_nonce -> verified token, until its capture settles
        self.approved_tokens: dict[bytes, CaptureToken] = {}
        # grant_id -> order_nonce
        self.granted: dict[bytes, bytes] = {}
        # ticket_id -> object, until the ticket is redeemed
        self.stored_objects: dict[bytes, bytes] = {}
        self.receivable_total = 0

    # -- protocol operations --

    def quote_price(self, request: PriceRequest, now: int) -> PriceQuote | QuoteDenial:
        """Price a usage request: rate * quantity, valid for quote_ttl ticks."""
        rate = self.config.pricing.get(request.usage.service_id)
        if rate is None:
            return QuoteDenial(
                request_nonce=request.nonce,
                reason=f"no pricing for service {request.usage.service_id!r}",
            )
        price = rate * request.usage.quantity
        if price.bit_length() > 64:
            return QuoteDenial(
                request_nonce=request.nonce,
                reason=f"price for quantity {request.usage.quantity} exceeds 2**64 - 1",
            )
        quote = build_signed(
            PriceQuote,
            self.identity,
            quote_id=self._nonce(),
            usage=request.usage,
            price=price,
            expiry=now + self.config.quote_ttl,
        )
        self.issued_quotes[quote.quote_id] = quote
        return quote

    def handle_authorization(
        self, auth: AuthorizationRequest, sender: str, now: int
    ) -> AuthorizeAndHold | AuthDecision | None:
        """Validate the order half and relay the payment half.

        On success the provider retains the order locally and returns an
        AuthorizeAndHold, MAC'd to the trust manager, carrying the untouched
        sealed envelope; the order plaintext goes no further.  On failure
        the requester gets a bare denied decision.  A duplicate of an order
        already accepted is ignored outright (None): that order's one relay
        has been answered, and a second could only draw the trust manager's
        REPLAY refusal.  Without a key for the trust manager there is no
        relay either (None), and the order is not kept.
        """
        order = auth.order_info

        def deny(reason: DenialReason, detail: str) -> AuthDecision:
            self._note(f"authorization refused ({reason.name}): {detail}")
            self.denials.append(reason)
            return build_signed(
                AuthDecision, self.identity, order_nonce=order.order_nonce, approved=False
            )

        # authenticity first: any tampering surfaces as BAD_SIGNATURE before
        # policy questions like quote expiry get a say
        if order.requester_id != sender:
            return deny(DenialReason.BAD_SIGNATURE, "order names a different requester")
        requester_key = self._key_of(order.requester_id)
        if requester_key is None:
            return deny(DenialReason.BAD_SIGNATURE, "unknown requester")
        if auth.dual.signature.signer_id != order.requester_id or not verify_with_oi(
            requester_key, codec.encode(order), auth.dual
        ):
            return deny(DenialReason.BAD_SIGNATURE, "dual signature fails on order side")
        quote = self.issued_quotes.get(order.quote_id)
        if quote is None:
            return deny(DenialReason.EXPIRED_QUOTE, "unknown quote reference")
        if now >= quote.expiry:
            return deny(DenialReason.EXPIRED_QUOTE, "quote expired")
        if order.usage != quote.usage:
            return deny(DenialReason.EXPIRED_QUOTE, "order does not match quoted usage")
        if order.order_nonce in self.orders:
            self._note("duplicate authorization for an accepted order ignored")
            return None

        relay = self._maced_for(
            self.config.trust_manager_id,
            AuthorizeAndHold,
            payment_envelope=auth.payment_envelope,
            dual=auth.dual,
            charge_amount=quote.price,
        )
        if relay is not None:
            self.orders[order.order_nonce] = order
        return relay

    def _store_and_grant(
        self, order_nonce: bytes, objects: tuple[bytes, ...], digests: tuple[Digest, ...]
    ) -> ServiceGrant:
        """Store the payload and issue one single-use ticket per object.

        ``digests`` are ``object_digests(objects)``, already computed to check
        the upload signature.
        """
        tickets = []
        for obj, digest in zip(objects, digests):
            ticket = Ticket(ticket_id=self._nonce(), object_digest=digest)
            self.stored_objects[ticket.ticket_id] = obj
            tickets.append(ticket)
        grant = build_signed(
            ServiceGrant,
            self.identity,
            grant_id=self._nonce(),
            tickets=tuple(tickets),
        )
        self.granted[grant.grant_id] = order_nonce
        return grant

    def collect_credits(self, token: CaptureToken, net: Network | None) -> CaptureResponse | None:
        """Present a capture token to the trust manager and book the credit."""
        request = self._maced_for(self.config.trust_manager_id, CaptureRequest, token=token)
        response = self._exchange(net, self.config.trust_manager_id, request, CaptureResponse)
        if response is None:
            return None
        if response.settled:
            self.receivable_total += token.charge_amount
        else:
            self._note(f"capture refused: {response.reason.name}")
        return response

    # -- message handlers --

    def _on_price_request(self, sender: str, request: PriceRequest, now: int, net) -> Outbound:
        return [(sender, codec.encode(self.quote_price(request, now)))]

    def _on_authorization(
        self, sender: str, auth: AuthorizationRequest, now: int, net
    ) -> Outbound:
        result = self.handle_authorization(auth, sender, now)
        if result is None:
            return []
        if isinstance(result, AuthDecision):
            return [(sender, codec.encode(result))]
        outcome = self._exchange(net, self.config.trust_manager_id, result, AuthOutcome)
        if outcome is None:
            return []
        order_nonce = auth.order_info.order_nonce
        approved = False
        if outcome.approved:
            token = outcome.token
            if (
                self._authentic(token, self.config.trust_manager_id)
                and token.provider_id == self.subject_id
                and token.charge_amount == result.charge_amount
            ):
                self.approved_tokens[order_nonce] = token
                approved = True
            else:
                self._note("approved outcome carried an unverifiable token")
        else:
            self._note(f"authorization denied by trust manager: {outcome.reason.name}")
        decision = build_signed(
            AuthDecision, self.identity, order_nonce=order_nonce, approved=approved
        )
        return [(sender, codec.encode(decision))]

    def _on_object_upload(self, sender: str, upload: ObjectUpload, now: int, net) -> Outbound:
        order = self.orders.get(upload.order_nonce)
        if order is None or order.requester_id != sender:
            self._note("upload for unknown order")
            return []
        digests = object_digests(upload.objects)
        if not self._authentic(upload, sender, digests):
            self._note("upload signature does not verify")
            return []
        if upload.order_nonce in self.granted.values():
            self._note("upload for already granted order")
            return []
        if upload.order_nonce not in self.approved_tokens:
            self._note("upload for unapproved order")
            return []
        grant = self._store_and_grant(upload.order_nonce, upload.objects, digests)
        return [(sender, codec.encode(grant))]

    def _on_redeem_request(
        self, sender: str, request: TicketRedeemRequest, now: int, net
    ) -> Outbound:
        # stored objects are never empty, so no bytes means a refusal
        payload = self.stored_objects.pop(request.ticket_id, b"")
        if not payload:
            self._note("redemption refused: unknown or spent ticket")
        response = TicketRedeemResponse(ticket_id=request.ticket_id, payload=payload)
        return [(sender, codec.encode(response))]

    def _on_service_complete(
        self, sender: str, done: ServiceComplete, now: int, net
    ) -> Outbound:
        order_nonce = self.granted.get(done.grant_id)
        if order_nonce is None:
            self._note("completion for unknown grant")
            return []
        if self.orders[order_nonce].requester_id != sender \
                or not self._authentic(done, sender):
            self._note("completion signature does not verify")
            return []
        token = self.approved_tokens.get(order_nonce)
        if token is None:
            self._note("grant already captured")
            return []
        response = self.collect_credits(token, net)
        if response is not None and response.settled:
            del self.approved_tokens[order_nonce]
        return []

    _HANDLERS = {
        PriceRequest: _on_price_request,
        AuthorizationRequest: _on_authorization,
        ObjectUpload: _on_object_upload,
        TicketRedeemRequest: _on_redeem_request,
        ServiceComplete: _on_service_complete,
    }


# --- trust manager --------------------------------------------------------------


@dataclass(frozen=True)
class TrustManagerConfig:
    account_providers: frozenset[str]


class TrustManager(_ActorBase):
    """Opens payment envelopes, enforces limits, places holds, mints tokens."""

    def __init__(
        self,
        identity: KeyPair,
        directory: Mapping[str, bytes],
        config: TrustManagerConfig,
        rng: Random,
    ) -> None:
        super().__init__(identity, directory, rng)
        self.config = config
        self.seen_payment_nonces: set[bytes] = set()
        self.denials: list[DenialReason] = []
        self.spent_tokens: set[bytes] = set()
        self.minted_tokens: dict[bytes, CaptureToken] = {}

    # -- protocol operations --

    def handle_authorize(
        self, msg: AuthorizeAndHold, sender: str, net: Network | None
    ) -> AuthOutcome:
        """Decide an authorization: open, verify, check limit, hold, mint.

        Denials carry a precise reason; the only state a failed attempt
        leaves behind is the payment nonce, which stays burned.
        """

        def deny(reason: DenialReason, detail: str) -> AuthOutcome:
            self._note(f"authorization denied ({reason.name}): {detail}")
            self.denials.append(reason)
            return AuthOutcome(token=None, reason=reason)

        if not self._authentic(msg, sender):
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
        hold = self._maced_for(
            payment.account_provider_id,
            HoldRequest,
            hold_nonce=self._nonce(),
            account_ref_digest=account_digest,
            amount=msg.charge_amount,
        )
        response = self._exchange(net, payment.account_provider_id, hold, HoldResponse)
        if response is None:
            return deny(DenialReason.UNKNOWN_ACCOUNT, "account provider unreachable")
        if response.hold_nonce != hold.hold_nonce:
            return deny(DenialReason.BAD_SIGNATURE, "hold response nonce mismatch")
        if not response.ok:
            return deny(response.reason, "account provider refused the hold")

        token = build_signed(
            CaptureToken,
            self.identity,
            token_id=self._nonce(),
            provider_id=sender,
            charge_amount=msg.charge_amount,
            account_provider_id=payment.account_provider_id,
            hold_ref=response.hold_ref,
        )
        self.minted_tokens[token.token_id] = token
        return AuthOutcome(token=token, reason=None)

    def handle_capture(
        self, request: CaptureRequest, sender: str, net: Network | None
    ) -> CaptureResponse | None:
        """Settle a capture token exactly once.

        The answer is MAC'd to ``sender``; None when no key for it is known.
        """

        def refuse(reason: DenialReason, detail: str) -> CaptureResponse | None:
            self._note(f"capture refused ({reason.name}): {detail}")
            return self._maced_for(sender, CaptureResponse, reason=reason)

        token = request.token
        if token.provider_id != sender or not self._authentic(request, sender):
            return refuse(DenialReason.BAD_SIGNATURE, "provider MAC fails")
        # the stored token is the one this trust manager signed, so equality
        # (signature included) proves authorship, provider and amount at once
        if self.minted_tokens.get(token.token_id) != token:
            return refuse(DenialReason.BAD_SIGNATURE, "token was not minted here")
        if token.token_id in self.spent_tokens:
            return refuse(DenialReason.REPLAY, "token already spent")

        settle = self._maced_for(
            token.account_provider_id,
            SettleRequest,
            settle_nonce=self._nonce(),
            hold_ref=token.hold_ref,
        )
        response = self._exchange(net, token.account_provider_id, settle, SettleResponse)
        if response is None:
            return refuse(DenialReason.UNKNOWN_ACCOUNT, "account provider unreachable")
        if response.settle_nonce != settle.settle_nonce:
            return refuse(DenialReason.BAD_SIGNATURE, "settle response nonce mismatch")
        if not response.ok:
            return refuse(response.reason, "account provider refused settlement")
        if response.amount != token.charge_amount:
            return refuse(DenialReason.BAD_SIGNATURE, "settled amount mismatch")

        self.spent_tokens.add(token.token_id)
        return self._maced_for(sender, CaptureResponse, reason=None)

    # -- message handlers --

    def _on_authorize_and_hold(
        self, sender: str, msg: AuthorizeAndHold, now: int, net
    ) -> Outbound:
        outcome = self.handle_authorize(msg, sender, net)
        return [(sender, codec.encode(outcome))]

    def _on_capture_request(self, sender: str, msg: CaptureRequest, now: int, net) -> Outbound:
        response = self.handle_capture(msg, sender, net)
        return [] if response is None else [(sender, codec.encode(response))]

    _HANDLERS = {
        AuthorizeAndHold: _on_authorize_and_hold,
        CaptureRequest: _on_capture_request,
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
        rng: Random,
    ) -> None:
        super().__init__(identity, directory, rng)
        self.config = config
        self.ledger = Ledger(rng=rng)
        self.seen_hold_nonces: set[bytes] = set()

    def open_account(self, account_ref: str, credit_limit: int) -> Digest:
        return self.ledger.open_account(account_ref, credit_limit)

    def _on_hold_request(self, sender: str, msg: HoldRequest, now: int, net) -> Outbound:
        def respond(hold_ref: bytes, reason: DenialReason | None) -> Outbound:
            response = self._maced_for(
                sender, HoldResponse, hold_nonce=msg.hold_nonce, hold_ref=hold_ref, reason=reason
            )
            return [] if response is None else [(sender, codec.encode(response))]

        if sender not in self.config.trust_managers or not self._authentic(msg, sender):
            self._note("hold request MAC does not verify")
            return respond(b"", DenialReason.BAD_SIGNATURE)
        if msg.hold_nonce in self.seen_hold_nonces:
            self._note("hold request nonce already used")
            return respond(b"", DenialReason.REPLAY)
        self.seen_hold_nonces.add(msg.hold_nonce)
        try:
            receipt = self.ledger.place_hold(msg.account_ref_digest, msg.amount)
        except InsufficientCreditError as exc:
            self._note(f"hold refused: {exc}")
            return respond(b"", DenialReason.INSUFFICIENT_CREDIT)
        except (UnknownAccountError, LedgerError) as exc:
            self._note(f"hold refused: {exc}")
            return respond(b"", DenialReason.UNKNOWN_ACCOUNT)
        return respond(receipt.hold_ref, None)

    def _on_settle_request(self, sender: str, msg: SettleRequest, now: int, net) -> Outbound:
        def respond(amount: int, reason: DenialReason | None) -> Outbound:
            response = self._maced_for(
                sender, SettleResponse, settle_nonce=msg.settle_nonce, amount=amount, reason=reason
            )
            return [] if response is None else [(sender, codec.encode(response))]

        if sender not in self.config.trust_managers or not self._authentic(msg, sender):
            self._note("settle request MAC does not verify")
            return respond(0, DenialReason.BAD_SIGNATURE)
        try:
            amount = self.ledger.settle_hold(msg.hold_ref)
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
