"""Behavior of the four principals, driven through ``deliver`` and the simnet's queue."""
from __future__ import annotations

import ast
import dataclasses
import inspect
from random import Random
from types import SimpleNamespace

import pytest

from gset import (
    AccountProvider,
    Action,
    AuthDecision,
    AuthOutcome,
    AuthorizationRequest,
    AuthorizeAndHold,
    CaptureRequest,
    CaptureResponse,
    DenialReason,
    Digest,
    Event,
    EventKind,
    HoldRequest,
    HoldResponse,
    ObjectUpload,
    OrderInfo,
    PaymentInfo,
    PriceQuote,
    PriceRequest,
    QuoteDenial,
    ScenarioConfig,
    ServiceComplete,
    ServiceGrant,
    ServiceProvider,
    ServiceRequester,
    SettleRequest,
    SettleResponse,
    Signature,
    TicketRedeemRequest,
    Ticket,
    TicketRedeemResponse,
    TrustManager,
    UploadManifest,
    UsageDescriptor,
    ValidationError,
    WireMessage,
    build_maced,
    build_signed,
    codec,
    generate_keypair,
    hash_bytes,
    mac_keys,
    make_dual_signature,
    open_envelope,
    peek_type,
    run_scenario,
    run_storage_scenario,
    seal,
    sign,
    verify,
    verify_dual,
    verify_signed,
)
import gset.actors
from gset.actors import HoldPhase, ProviderPhase, RequesterPhase
from gset.ledger import HoldFate, HoldName
from gset.messages import PAYMENT_SIZE, object_digests, pad_payment, unpad_payment

from genmsg import flip_bit, random_message
from harness import build_actors, recorded
from test_messages import MACED_TYPES, _authenticated_by


def usage_mb(actors, quantity: int) -> UsageDescriptor:
    return dataclasses.replace(actors.scenario.usage, quantity=quantity)


def price_request(actors, usage: UsageDescriptor) -> bytes:
    """The requester's price request for ``usage``, addressed to the provider."""
    dest, raw = actors.sr.begin(usage)
    assert dest == "SP"
    return raw


def quote_for(actors, quantity: int, now: int = 0) -> bytes:
    """The provider's answer, at tick ``now``, to a price request for ``quantity``."""
    [(dest, raw)] = actors.sp.deliver("SR", price_request(actors, usage_mb(actors, quantity)), now)
    assert dest == "SR"
    return raw


def authorization(actors, quantity: int = 5, now: int = 0) -> bytes:
    """The requester's answer, at tick ``now``, to a tick-0 quote for ``quantity``."""
    [(dest, raw)] = actors.sr.deliver("SP", quote_for(actors, quantity), now)
    assert dest == "SP"
    return raw


def decide(actors, auth: bytes) -> AuthDecision:
    """The provider's decision on ``auth``, its relay to the trust manager and
    the hold run on the simnet's queue."""
    [raw] = recorded(actors.run("SR", "SP", auth), "AuthDecision")
    return codec.decode(raw, AuthDecision)


def relay_of(actors, quantity: int = 5, now: int = 0) -> bytes:
    """The provider's AuthorizeAndHold for a fresh authorization, taken off
    the queue before it reaches the trust manager."""
    records = actors.run("SR", "SP", authorization(actors, quantity, now), drop="AuthorizeAndHold")
    [relay] = recorded(records, "AuthorizeAndHold")
    return relay


def outcome_of(actors, relay: bytes, sender: str = "SP") -> AuthOutcome:
    """The outcome the actor registered as the trust manager sends for
    ``relay`` presented by ``sender``, its hold run on the simnet's queue."""
    [record] = [r for r in actors.run(sender, "TM", relay) if peek_type(r.payload) == "AuthOutcome"]
    assert record.to_id == sender
    return codec.decode(record.payload, AuthOutcome)


def approved_outcome(actors, quantity: int = 5, now: int = 0):
    """A relay of a fresh authorization and the trust manager's outcome for it."""
    relay = relay_of(actors, quantity, now)
    return relay, outcome_of(actors, relay)


def manifest_of(oi_digest: Digest, objects) -> bytes:
    """What an upload's signature covers: its ``UploadManifest``, encoded."""
    return codec.encode(UploadManifest(oi_digest, object_digests(objects)))


def upload_for(actors, oi_digest: Digest) -> ObjectUpload:
    objects = actors.scenario.objects
    upload, _ = build_signed(
        ObjectUpload, actors.sr.identity, manifest_of(oi_digest, objects),
        oi_digest=oi_digest, objects=objects,
    )
    return upload


def order_digest(auth: bytes) -> Digest:
    """The digest that names the order of the encoded authorization ``auth``:
    the hash of its order bytes, as the provider computes it."""
    return hash_bytes(codec.decode(auth, AuthorizationRequest).order_info)


def decide_then_upload(actors, quantity: int = 5, now: int = 0):
    """The SP relays a fresh authorization to the TM and answers the
    requester on its outcome, then receives the requester's signed upload.

    Returns the SP's decision and its answer to the upload.
    """
    auth = authorization(actors, quantity, now)
    decision = decide(actors, auth)
    upload = upload_for(actors, order_digest(auth))
    return decision, actors.sp.deliver("SR", codec.encode(upload), now + 1)


def granted(actors, quantity: int = 5) -> ServiceGrant:
    decision, [(dest, raw)] = decide_then_upload(actors, quantity)
    assert decision.approved and dest == "SR"
    return codec.decode(raw, ServiceGrant)


def capture_run(actors, grant: ServiceGrant, drop: str | None = None):
    """Deliver the requester's completion of ``grant`` to the provider and run
    the capture that follows on the simnet's queue; returns its records."""
    _, raw = build_signed(ServiceComplete, actors.sr.identity, oi_digest=grant.oi_digest)
    return actors.run("SR", "SP", raw, drop=drop)


def complete(actors, grant: ServiceGrant):
    """The capture of ``grant``: the provider's request, as bytes, and the
    trust manager's response."""
    records = capture_run(actors, grant)
    [request] = recorded(records, "CaptureRequest")
    [response] = recorded(records, "CaptureResponse")
    return request, codec.decode(response, CaptureResponse)


def receivable(actors) -> int:
    """The charges of the provider's captured orders."""
    return sum(o.charge for o in actors.sp.orders.values() if o.phase == ProviderPhase.CAPTURED)


def drawn(effects) -> list[tuple]:
    """(actor, kind, reason) of each event among ``effects``."""
    return [(e.actor, e.kind, e.reason) for e in effects if isinstance(e, Event)]


def events_of(actors, actor_id: str) -> list[Event]:
    """The events ``actor_id`` drew in the runs so far."""
    return [e for e in actors.events if e.actor == actor_id]


def refused_by(actors, actor_id: str) -> list[DenialReason]:
    """The reasons of the authorizations ``actor_id`` refused in the runs so far."""
    return [
        e.reason for e in actors.events
        if e.actor == actor_id and e.kind == EventKind.AUTHORIZATION_REFUSED
    ]


# --- one way in ---------------------------------------------------------------


@pytest.mark.parametrize(
    "cls, extra",
    [(ServiceRequester, {"begin"}), (ServiceProvider, set()), (TrustManager, set()),
     (AccountProvider, set())],
    ids=["SR", "SP", "TM", "AP"],
)
def test_deliver_is_the_only_way_into_an_actor(cls, extra):
    # every protocol step is a handler behind deliver; the requester's begin
    # only makes the first message of a run
    [actor] = [a for a in build_actors().registry.values() if type(a) is cls]
    public = {
        name for name in dir(actor)
        if not name.startswith("_") and callable(getattr(actor, name))
    }
    assert public == {"deliver", "state_bytes"} | extra


# --- one way out --------------------------------------------------------------


def _calls_in_actors() -> list[tuple[str | None, str | None, ast.Call]]:
    """(the function or method it is in, the name called, the call) for every
    call in ``gset.actors``; a closure's calls count as its method's."""
    calls = []

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                calls.append((owner, getattr(func, "id", getattr(func, "attr", None)), child))
            is_def = isinstance(child, ast.FunctionDef) and owner is None
            visit(child, child.name if is_def else owner)

    visit(ast.parse(inspect.getsource(gset.actors)), None)
    return calls


def test_every_message_leaves_an_actor_through_send():
    # _send alone builds a Send, and picks its signature, MAC or none from
    # the type; the one other signature minted is the capture token's,
    # which travels nested in the trust manager's outcome
    calls = _calls_in_actors()
    callers = {name: {owner for owner, called, _ in calls if called == name}
               for name in ("Send", "build_maced", "build_signed")}
    assert callers == {
        "Send": {"_send"}, "build_maced": {"_send"}, "build_signed": {"_send", "_on_hold_response"},
    }
    [mint] = [call for owner, called, call in calls
              if (owner, called) == ("_on_hold_response", "build_signed")]
    assert ast.unparse(mint.args[0]) == "CaptureToken"
    # the one Send of a codec.encode is _send's own, of the message it built
    encoded = [ast.unparse(arg) for _, called, call in calls if called == "Send"
               for arg in call.args if ast.unparse(arg).startswith("codec.encode(")]
    assert encoded == ["codec.encode(cls(**fields))"]


# --- one record per order -----------------------------------------------------

# What each actor records: per-order state lives in one record per order,
# so a new parallel container shows up here.  The
# requester's ticket_orders and the trust manager's order_holds are
# indexes: they map one name of an order to the key of its record.
RECORDED = {
    "SR": {"pending_requests", "orders", "ticket_orders"},
    "SP": {"issued_quotes", "orders", "stored_objects"},
    "TM": {"seen_payment_nonces", "holds", "order_holds"},
    "AP": {"ledger"},
}


@pytest.mark.parametrize("actor_id", sorted(RECORDED))
def test_each_actor_records_its_state_in_these_attributes(actor_id):
    actor = run_storage_scenario(ScenarioConfig()).scenario.endpoints[actor_id]
    assert set(vars(actor)) - actor._WIRING == RECORDED[actor_id]
    # declared once: the attributes are the fields of the state message
    assert {f.name for f in dataclasses.fields(actor._State)} == RECORDED[actor_id]


def test_an_attribute_the_class_does_not_declare_is_refused():
    actors = build_actors()
    actors.sp.quotes_seen = {}
    with pytest.raises(TypeError):
        actors.sp.state_bytes()


def _denied(actors) -> None:
    # a charge of 70 is over the default limit of 60
    decide(actors, authorization(actors, 7))


# Each provider phase, reached through the protocol from fresh actors.
TO_PROVIDER_PHASE = {
    ProviderPhase.RELAYED: relay_of,
    ProviderPhase.DENIED: _denied,
    ProviderPhase.APPROVED: lambda actors: approved_orders(actors, 1),
    ProviderPhase.GRANTED: granted,
    ProviderPhase.CAPTURING: lambda actors: capture_run(actors, granted(actors), "CaptureResponse"),
    ProviderPhase.CAPTURED: lambda actors: complete(actors, granted(actors)),
}

# Each trust manager hold phase, reached likewise; returns the records of
# the run that reached it.
TO_HOLD_PHASE = {
    HoldPhase.HOLDING: lambda actors: actors.run("SP", "TM", relay_of(actors), drop="HoldRequest"),
    HoldPhase.MINTED: lambda actors: actors.run("SP", "TM", relay_of(actors)),
    HoldPhase.SETTLING: lambda actors: capture_run(actors, granted(actors), "SettleRequest"),
    HoldPhase.SPENT: lambda actors: capture_run(actors, granted(actors)),
}

# (sender, bytes) of each message to the provider about its order
# ``oi_digest``.  The two from the trust manager are the refusals a replayed
# relay or capture draws, arriving after the approval or the settlement.
TO_PROVIDER = {
    "ObjectUpload": lambda actors, oi_digest: ("SR", codec.encode(upload_for(actors, oi_digest))),
    "ServiceComplete": lambda actors, oi_digest: (
        "SR", build_signed(ServiceComplete, actors.sr.identity, oi_digest=oi_digest)[1]
    ),
    "AuthOutcome": lambda actors, oi_digest: (
        "TM", codec.encode(AuthOutcome(oi_digest, None, DenialReason.REPLAY))
    ),
    "CaptureResponse": lambda actors, oi_digest: ("TM", actors.tm._send(
        "SP", CaptureResponse, oi_digest=oi_digest, reason=DenialReason.REPLAY
    ).raw),
}

# (sender, bytes) of each message to the trust manager about the hold
# ``nonce``: the request that reached the phase again, or what the account
# provider answers a replayed hold or settle request.
TO_TRUST_MANAGER = {
    "AuthorizeAndHold": lambda actors, nonce, records: (
        "SP", recorded(records, "AuthorizeAndHold")[0]
    ),
    "CaptureRequest": lambda actors, nonce, records: ("SP", recorded(records, "CaptureRequest")[0]),
    "HoldResponse": lambda actors, nonce, records: ("AP", actors.ap._send(
        "TM", HoldResponse, hold_nonce=nonce, reason=DenialReason.REPLAY
    ).raw),
    "SettleResponse": lambda actors, nonce, records: ("AP", actors.ap._send(
        "TM", SettleResponse, hold_nonce=nonce, amount=0, reason=DenialReason.REPLAY
    ).raw),
}

_NOT_PENDING = (EventKind.NOT_PENDING, None)
_DUPLICATE = (EventKind.DUPLICATE, None)

# (type, phase, (kind, reason) of the one event its delivery draws)
REFUSED_IN_PHASE = [
    ("ObjectUpload", ProviderPhase.RELAYED, _NOT_PENDING),
    ("ObjectUpload", ProviderPhase.DENIED, _NOT_PENDING),
    ("ObjectUpload", ProviderPhase.GRANTED, _DUPLICATE),
    ("ObjectUpload", ProviderPhase.CAPTURED, _DUPLICATE),
    ("ServiceComplete", ProviderPhase.RELAYED, _NOT_PENDING),
    ("ServiceComplete", ProviderPhase.DENIED, _NOT_PENDING),
    ("ServiceComplete", ProviderPhase.APPROVED, _NOT_PENDING),
    ("ServiceComplete", ProviderPhase.CAPTURING, _DUPLICATE),
    ("ServiceComplete", ProviderPhase.CAPTURED, _DUPLICATE),
    ("AuthOutcome", ProviderPhase.APPROVED, _NOT_PENDING),
    ("CaptureResponse", ProviderPhase.CAPTURED, _NOT_PENDING),
    # at the trust manager (hold phases, lower case in the ids): a repeat
    # while its first copy is pending draws no answer and no second request
    ("AuthorizeAndHold", HoldPhase.HOLDING, _DUPLICATE),
    ("CaptureRequest", HoldPhase.SETTLING, _DUPLICATE),
    ("CaptureRequest", HoldPhase.SPENT, (EventKind.CAPTURE_REFUSED, DenialReason.REPLAY)),
    ("HoldResponse", HoldPhase.MINTED, _NOT_PENDING),
    ("SettleResponse", HoldPhase.SPENT, _NOT_PENDING),
]


def _phase_id(phase) -> str:
    return phase.name if isinstance(phase, ProviderPhase) else phase.name.lower()


@pytest.mark.parametrize(
    "tag, phase, refusal", REFUSED_IN_PHASE,
    ids=[f"{tag}-{_phase_id(phase)}" for tag, phase, _ in REFUSED_IN_PHASE],
)
def test_a_message_its_order_phase_refuses_changes_nothing(tag, phase, refusal):
    actors = build_actors()
    if isinstance(phase, HoldPhase):
        records = TO_HOLD_PHASE[phase](actors)
        receiver, [(key, record)] = actors.tm, actors.tm.holds.items()
        sender, raw = TO_TRUST_MANAGER[tag](actors, key, records)
    else:
        TO_PROVIDER_PHASE[phase](actors)
        receiver, [(key, record)] = actors.sp, actors.sp.orders.items()
        sender, raw = TO_PROVIDER[tag](actors, key)
    assert record.phase == phase
    books, before = actors.ap.state_bytes(), len(actors.events)
    state = receiver.state_bytes()
    records = actors.run(sender, receiver.subject_id, raw)
    mine = [e for e in actors.events[before:] if e.actor == receiver.subject_id]
    assert drawn(mine) == [(receiver.subject_id, *refusal)]
    assert record.phase == phase
    assert receiver.state_bytes() == state
    assert actors.ap.state_bytes() == books
    answers = [(r.to_id, r.payload) for r in records[1:]]
    if (tag, phase) == ("CaptureRequest", HoldPhase.SPENT):
        # the one refusal that is an answer: a spent token's capture
        assert answers == [actors.tm._send(
            "SP", CaptureResponse, oi_digest=record.oi_digest, reason=DenialReason.REPLAY
        )]
    else:
        assert answers == []


# --- price discovery --------------------------------------------------------


def test_price_request_for_five_megabytes():
    actors = build_actors()
    request = codec.decode(price_request(actors, usage_mb(actors, 5)), PriceRequest)
    assert request.usage.quantity == 5
    assert request.usage.unit == "megabyte"


def test_price_requests_use_fresh_nonces():
    actors = build_actors()
    a = codec.decode(price_request(actors, actors.scenario.usage), PriceRequest)
    b = codec.decode(price_request(actors, actors.scenario.usage), PriceRequest)
    assert a.nonce != b.nonce


def test_zero_quantity_usage_is_unconstructible():
    with pytest.raises(ValidationError):
        usage_mb(build_actors(), 0)


def test_quote_is_rate_times_quantity():
    actors = build_actors(rate=10)
    quote = codec.decode(quote_for(actors, 5), PriceQuote)
    assert quote.price == 50
    assert quote.expiry == actors.sp.config.quote_ttl


def test_two_quotes_for_same_request_have_distinct_ids():
    actors = build_actors()
    request = price_request(actors, usage_mb(actors, 5))
    [(_, a)] = actors.sp.deliver("SR", request, 0)
    [(_, b)] = actors.sp.deliver("SR", request, 0)
    assert codec.decode(a, PriceQuote).quote_id != codec.decode(b, PriceQuote).quote_id


def test_a_quote_answers_its_request_by_nonce():
    # two requests for one usage; the requester pairs each quote with the
    # request it names, not with the first request for that usage
    actors = build_actors()
    usage = usage_mb(actors, 5)
    first, second = price_request(actors, usage), price_request(actors, usage)
    [(_, quote)] = actors.sp.deliver("SR", second, 0)
    assert codec.decode(quote, PriceQuote).request_nonce == codec.decode(second, PriceRequest).nonce
    [(dest, _)] = actors.sr.deliver("SP", quote, 1)
    assert dest == "SP"
    assert codec.decode(second, PriceRequest).nonce not in actors.sr.pending_requests
    assert codec.decode(first, PriceRequest).nonce in actors.sr.pending_requests
    # the same quote again names no pending request
    assert actors.sr.deliver("SP", quote, 2) == [Event("SR", EventKind.NOT_PENDING, None, None)]


def test_a_quote_denial_ends_its_request():
    actors = build_actors()
    request = price_request(actors, UsageDescriptor("unpriced-service", "noop", 1, "each"))
    [_refused, (_, denial)] = actors.sp.deliver("SR", request, 0)
    assert codec.decode(request, PriceRequest).nonce in actors.sr.pending_requests
    assert drawn(actors.sr.deliver("SP", denial, 1)) == [("SR", EventKind.QUOTE_DENIED, None)]
    assert codec.decode(request, PriceRequest).nonce not in actors.sr.pending_requests


def test_a_quote_from_another_party_than_the_provider_is_ignored():
    actors = build_actors()
    quote = quote_for(actors, 5)
    pending = dict(actors.sr.pending_requests)
    assert actors.sr.deliver("TM", quote, 1) == [
        Event("SR", EventKind.UNEXPECTED_SENDER, None, None)
    ]
    assert actors.sr.pending_requests == pending
    assert actors.sr.orders == {}


def _quote_refused(event) -> None:
    # the provider records its own refusal of a quote: no order, no reason code
    assert (event.actor, event.kind, event.order, event.reason) == (
        "SP", EventKind.QUOTE_REFUSED, None, None
    )


def test_unknown_service_id_gets_a_denial():
    actors = build_actors()
    request = price_request(actors, UsageDescriptor("unpriced-service", "noop", 1, "each"))
    [event, (dest, raw)] = actors.sp.deliver("SR", request, 0)
    _quote_refused(event)
    reply = codec.decode(raw, QuoteDenial)
    assert dest == "SR"
    assert reply.request_nonce == codec.decode(request, PriceRequest).nonce


def test_price_beyond_u64_gets_a_denial_not_an_encode_error():
    actors = build_actors(rate=10)
    request = price_request(actors, usage_mb(actors, 2**64 - 1))
    [event, (dest, raw)] = actors.sp.deliver("SR", request, 0)
    _quote_refused(event)
    reply = codec.decode(raw, QuoteDenial)
    assert dest == "SR"
    assert reply.request_nonce == codec.decode(request, PriceRequest).nonce
    assert actors.sp.issued_quotes == {}


def test_quote_signature_verifies_and_covers_price():
    actors = build_actors()
    quote = codec.decode(quote_for(actors, 5), PriceQuote)
    sp_pub = actors.sp.identity.public_key
    assert verify(sp_pub, codec.signing_payload(quote), quote.provider_signature)


# --- authorization request construction ---------------------------------------


def test_authorization_envelope_opens_at_tm_to_the_limit():
    actors = build_actors(limit=60)
    auth = codec.decode(authorization(actors, 5, now=1), AuthorizationRequest)
    plaintext = open_envelope(actors.tm.identity, auth.payment_envelope)
    assert len(plaintext) == PAYMENT_SIZE
    payment = codec.decode(unpad_payment(plaintext), PaymentInfo)
    assert payment.authorized_limit == 60
    assert payment.account_provider_id == "AP"
    assert payment.account_ref == actors.scenario.account_ref


def test_envelope_bytes_hide_the_account_ref():
    actors = build_actors()
    raw = authorization(actors, 5, now=1)
    auth = codec.decode(raw, AuthorizationRequest)
    marker = actors.scenario.account_ref.encode()
    assert marker not in auth.payment_envelope.ciphertext
    assert marker not in auth.payment_envelope.ephemeral_key
    assert marker not in raw


def _refused_quote(actors, quote: bytes, now: int, kind: EventKind) -> None:
    # the requester sends nothing and keeps no order for a quote it refuses
    assert actors.sr.deliver("SP", quote, now) == [Event("SR", kind, None, None)]
    assert actors.sr.orders == {}


def test_expired_quote_rejected_by_requester():
    actors = build_actors(quote_ttl=10)
    quote = quote_for(actors, 5, now=0)
    _refused_quote(actors, quote, 10, EventKind.QUOTE_EXPIRED)


def test_forged_quote_signature_rejected():
    actors = build_actors()
    quote = codec.decode(quote_for(actors, 5), PriceQuote)
    doctored = codec.encode(dataclasses.replace(quote, price=1))
    _refused_quote(actors, doctored, 1, EventKind.BAD_AUTHENTICATOR)


def test_a_requester_without_the_trust_managers_key_draws_no_nonce():
    # no order can be sealed, so none is started: no nonce drawn, the
    # request still pending
    actors = build_actors()
    quote = quote_for(actors, 5)
    actors.sr.directory = {k: v for k, v in actors.sr.directory.items() if k != "TM"}
    pending = dict(actors.sr.pending_requests)
    drawn_so_far = actors.sr.rng.getstate()
    _refused_quote(actors, quote, 1, EventKind.NO_PUBLIC_KEY)
    assert actors.sr.pending_requests == pending
    assert actors.sr.rng.getstate() == drawn_so_far


def test_dual_signature_binds_order_and_payment():
    actors = build_actors()
    auth = codec.decode(authorization(actors, 5, now=1), AuthorizationRequest)
    # the payment half as the trust manager will see it, unpadded
    payment = unpad_payment(open_envelope(actors.tm.identity, auth.payment_envelope))
    # the order travels as the bytes its digest hashes, beside the payment's digest
    assert codec.decode(auth.order_info, OrderInfo).usage == usage_mb(actors, 5)
    assert auth.pi_digest == hash_bytes(payment)
    key = actors.sr.identity.public_key
    assert verify_dual(key, hash_bytes(auth.order_info), hash_bytes(payment), auth.dual)


# --- provider-side authorization handling -------------------------------------


def test_valid_authorization_becomes_hold_instruction_at_quoted_price():
    actors = build_actors()
    auth = authorization(actors, 5, now=1)
    records = actors.run("SR", "SP", auth)
    [decision] = recorded(records, "AuthDecision")
    assert codec.decode(decision, AuthDecision).approved
    [raw] = recorded(records, "AuthorizeAndHold")
    relay, covered = codec.decode_authenticated(raw)
    assert isinstance(relay, AuthorizeAndHold)
    assert relay.charge_amount == 50
    # MAC'd under the provider-to-trust-manager key, which no one else's is
    assert actors.tm._authentic(relay, "SP", covered)
    assert not actors.tm._authentic(relay, "SR", covered)
    assert relay.payment_envelope == codec.decode(auth, AuthorizationRequest).payment_envelope


def test_relay_encoding_carries_no_usage_strings():
    actors = build_actors()
    relay = relay_of(actors, 5, now=1)
    for marker in (b"mobile-storage", b"store-objects", b"megabyte"):
        assert marker not in relay


def _refused_authorization(actors, auth: AuthorizationRequest, now: int, reason) -> None:
    # the provider answers with a refusal at tick ``now`` and relays nothing
    [event, (dest, raw)] = actors.sp.deliver("SR", codec.encode(auth), now)
    decision = codec.decode(raw, AuthDecision)
    assert dest == "SR"
    # named by the digest of the order bytes the provider received
    assert decision.oi_digest == hash_bytes(auth.order_info)
    assert not decision.approved
    assert event == Event("SP", EventKind.AUTHORIZATION_REFUSED, decision.oi_digest, reason)


def test_tampered_order_info_denied_as_bad_signature():
    actors = build_actors()
    auth = codec.decode(authorization(actors, 5, now=1), AuthorizationRequest)
    order = codec.decode(auth.order_info, OrderInfo)
    doctored_order = dataclasses.replace(order, usage=dataclasses.replace(order.usage, quantity=4))
    doctored = dataclasses.replace(auth, order_info=codec.encode(doctored_order))
    _refused_authorization(actors, doctored, 1, DenialReason.BAD_SIGNATURE)


def test_dual_signature_mutation_denied_as_bad_signature():
    actors = build_actors()
    auth = codec.decode(authorization(actors, 5, now=1), AuthorizationRequest)
    wrong_pi = hash_bytes(b"some other payment half")
    doctored = dataclasses.replace(auth, pi_digest=wrong_pi)
    _refused_authorization(actors, doctored, 1, DenialReason.BAD_SIGNATURE)


def test_a_flip_inside_the_order_is_refused_under_the_digest_of_the_bytes_received():
    # The provider names the order by the hash of the bytes it received, not
    # by a digest the wire carries: the refusal names an order the requester
    # never placed, so its own order is left authorizing, with no hold.
    spec = "tamper:AuthorizationRequest:bit=abs/304:1"
    report = run_storage_scenario(ScenarioConfig(adversary_spec=spec))
    [record] = [r for r in report.transcript.records if r.action is Action.TAMPERED]
    received = hash_bytes(codec.decode(record.payload, AuthorizationRequest).order_info)
    [(placed, order)] = report.scenario.requester.orders.items()
    assert received != placed and order.phase == RequesterPhase.AUTHORIZING
    assert report.transcript.events == (
        Event("SP", EventKind.AUTHORIZATION_REFUSED, received, DenialReason.BAD_SIGNATURE),
        Event("SR", EventKind.NOT_PENDING, received, None),
    )
    assert report.business_outcome == "DENIED:BAD_SIGNATURE"
    assert report.holds_created == 0 and report.scenario.provider.orders == {}


def test_unknown_quote_denied_as_expired():
    actors = build_actors()
    auth = codec.decode(authorization(actors, 5, now=1), AuthorizationRequest)
    # provider has dropped the quote by the time the order arrives
    del actors.sp.issued_quotes[codec.decode(auth.order_info, OrderInfo).quote_id]
    _refused_authorization(actors, auth, 1, DenialReason.EXPIRED_QUOTE)


def test_expired_quote_denied_at_provider():
    actors = build_actors(quote_ttl=10)
    auth = codec.decode(authorization(actors, 5, now=5), AuthorizationRequest)
    _refused_authorization(actors, auth, 11, DenialReason.EXPIRED_QUOTE)


def test_duplicate_authorization_is_ignored_not_answered():
    actors = build_actors()
    auth = authorization(actors, 5, now=1)
    assert decide(actors, auth).approved
    # nothing relayed, nothing answered
    assert actors.run("SR", "SP", auth)[1:] == ()
    assert drawn(actors.events[-1:]) == [("SP", EventKind.DUPLICATE, None)]


# --- trust manager authorization ----------------------------------------------


def test_limit_60_charge_50_credit_100_approves_and_holds_50():
    actors = build_actors(limit=60, credit=100)
    _, outcome = approved_outcome(actors, quantity=5)
    assert outcome.approved
    assert outcome.token is not None
    assert outcome.token.charge_amount == 50
    digest = hash_bytes(actors.scenario.account_ref.encode())
    assert sum(actors.ap.ledger.active_holds(digest).values()) == 50
    assert actors.ap.ledger.available(digest) == 50


def test_limit_60_charge_70_denied_over_limit_with_no_hold():
    actors = build_actors(limit=60, credit=500)
    _, outcome = approved_outcome(actors, quantity=7)
    assert not outcome.approved
    assert outcome.reason == DenialReason.OVER_LIMIT
    assert refused_by(actors, "TM") == [DenialReason.OVER_LIMIT]
    assert actors.ap.ledger.holds_created() == 0


def test_limit_200_charge_150_credit_100_denied_insufficient():
    actors = build_actors(limit=200, credit=100)
    _, outcome = approved_outcome(actors, quantity=15)
    assert not outcome.approved
    assert outcome.reason == DenialReason.INSUFFICIENT_CREDIT
    assert actors.ap.ledger.holds_created() == 0


def test_same_hold_instruction_twice_is_replay():
    actors = build_actors()
    relay, first = approved_outcome(actors, quantity=5)
    assert first.approved
    second = outcome_of(actors, relay)
    assert not second.approved
    assert second.reason == DenialReason.REPLAY
    digest = hash_bytes(actors.scenario.account_ref.encode())
    assert actors.ap.ledger.holds_created() == 1
    assert sum(actors.ap.ledger.active_holds(digest).values()) == 50


def second_payment_relay(
    actors, auth: bytes, charge: int, recipient: str = "TM", pad=pad_payment
) -> bytes:
    """The provider's relay of a second payment half that the requester
    dual-signs over the order of ``auth``: a fresh payment nonce, the same
    order digest, sealed with the trust manager's key to ``recipient``, its
    plaintext padded by ``pad``."""
    oi_digest = order_digest(auth)
    config = actors.sr.config
    payment = codec.encode(PaymentInfo(
        config.account_provider_id, config.account_ref, config.authorized_limit, b"\x02" * 16
    ))
    tm_key = actors.tm.identity.public_key
    envelope = seal(tm_key, recipient, pad(payment), Random("second payment"))
    dual = make_dual_signature(actors.sr.identity, oi_digest, hash_bytes(payment))
    to_tm = actors.sp._keys_with("TM")[0]
    return build_maced(AuthorizeAndHold, to_tm, payment_envelope=envelope, oi_digest=oi_digest,
                       dual=dual, charge_amount=charge)[1]


def test_a_second_payment_half_for_a_held_order_is_refused():
    # the requester signs two payment halves over one order; the trust
    # manager places one hold for the order, not one per payment half
    actors = build_actors()
    auth = authorization(actors, 5)
    assert decide(actors, auth).approved
    outcome = outcome_of(actors, second_payment_relay(actors, auth, 50))
    assert outcome.reason == DenialReason.REPLAY
    assert drawn(events_of(actors, "TM")[-1:]) == [
        ("TM", EventKind.AUTHORIZATION_REFUSED, DenialReason.REPLAY)
    ]
    assert actors.ap.ledger.holds_created() == 1
    assert len(actors.tm.holds) == 1


def test_a_refused_hold_frees_its_order_for_another_payment_half():
    # the account provider refuses the hold; the order keeps no hold, so a
    # second payment half for it is asked of the account provider in turn
    actors = build_actors(limit=200, credit=100)
    auth = authorization(actors, 15)
    assert not decide(actors, auth).approved
    assert actors.tm.holds == {} and actors.tm.order_holds == {}
    outcome = outcome_of(actors, second_payment_relay(actors, auth, 150))
    assert outcome.reason == DenialReason.INSUFFICIENT_CREDIT
    assert actors.tm.holds == {} and actors.tm.order_holds == {}
    assert [name.fate for name in actors.ap.ledger.names.values()] == [HoldFate.REFUSED] * 2


def test_a_relay_sealed_to_another_trust_manager_id_is_refused():
    # the envelope opens only under the id it was sealed to, even with the
    # trust manager's own key: no hold is placed and no payment nonce burnt
    actors = build_actors()
    relay = second_payment_relay(actors, authorization(actors, 5), 50, recipient="TM9")
    outcome = outcome_of(actors, relay)
    assert outcome.reason == DenialReason.BAD_SIGNATURE
    assert drawn(events_of(actors, "TM")) == [
        ("TM", EventKind.AUTHORIZATION_REFUSED, DenialReason.BAD_SIGNATURE)
    ]
    assert actors.ap.ledger.holds_created() == 0
    assert actors.tm.holds == {} and actors.tm.order_holds == {}
    assert actors.tm.seen_payment_nonces == set()


def test_a_payment_sealed_without_its_padding_is_refused():
    # the trust manager opens only the padding the requester writes: no hold
    # is placed and no payment nonce burnt
    actors = build_actors()
    relay = second_payment_relay(actors, authorization(actors, 5), 50, pad=lambda p: p)
    assert outcome_of(actors, relay).reason == DenialReason.BAD_SIGNATURE
    assert actors.ap.ledger.holds_created() == 0
    assert actors.tm.seen_payment_nonces == set()


def test_relay_presented_by_anyone_but_its_signer_is_refused():
    # the provider's identity on a relay is its signature's signer, nothing else
    actors = build_actors()
    outcome = outcome_of(actors, relay_of(actors, 5), sender="SR")
    assert outcome.reason == DenialReason.BAD_SIGNATURE
    assert actors.ap.ledger.holds_created() == 0
    assert actors.tm.holds == {}


def test_denied_attempt_still_burns_the_payment_nonce():
    actors = build_actors(limit=200, credit=100)
    relay, outcome = approved_outcome(actors, quantity=15)
    assert outcome.reason == DenialReason.INSUFFICIENT_CREDIT
    again = outcome_of(actors, relay)
    assert again.reason == DenialReason.REPLAY


def test_unknown_account_provider_is_denied():
    actors = build_actors()
    actors.sr.config = dataclasses.replace(actors.sr.config, account_provider_id="BANK9")
    _, outcome = approved_outcome(actors, quantity=5, now=1)
    assert not outcome.approved
    assert outcome.reason == DenialReason.UNKNOWN_ACCOUNT


def test_unreachable_account_provider_is_denied():
    # without a key for the account provider, the trust manager cannot ask it
    actors = build_actors()
    relay = relay_of(actors, 5, now=1)
    del actors.tm.directory["AP"]
    outcome = outcome_of(actors, relay)
    assert not outcome.approved
    assert outcome.reason == DenialReason.UNKNOWN_ACCOUNT
    assert drawn(events_of(actors, "TM")[-2:]) == [
        ("TM", EventKind.NO_MAC_KEY, None),
        ("TM", EventKind.AUTHORIZATION_REFUSED, DenialReason.UNKNOWN_ACCOUNT),
    ]
    assert actors.tm.holds == {}


def test_minted_token_verifies_and_names_the_provider():
    actors = build_actors()
    relay, outcome = approved_outcome(actors, quantity=5)
    token = outcome.token
    tm_pub = actors.tm.identity.public_key
    assert token.provider_id == "SP"
    assert verify(tm_pub, codec.signing_payload(token), token.tm_signature)
    # the signed token and the outcome name the order the relay was for
    order = codec.decode(relay, AuthorizeAndHold).oi_digest
    assert token.oi_digest == outcome.oi_digest == order
    # the payer's side stays with the trust manager: its record names the
    # account provider, and the hold is kept under its one name
    [(hold_nonce, record)] = actors.tm.holds.items()
    assert actors.tm.order_holds == {token.oi_digest: hold_nonce}
    assert record.oi_digest == token.oi_digest
    assert record.account_provider == "AP"
    digest = hash_bytes(actors.scenario.account_ref.encode())
    assert actors.ap.ledger.active_holds(digest) == {hold_nonce: 50}


def test_tm_state_is_clean_after_denial():
    actors = build_actors(limit=60)
    _, outcome = approved_outcome(actors, quantity=7)
    assert not outcome.approved
    assert actors.tm.holds == {}


# --- account provider ------------------------------------------------------------


def _to_account_provider(actors, cls: type, **fields) -> tuple[list[tuple], object]:
    """The events of the account provider's delivery of ``cls``, MAC'd to it
    by the trust manager, and its decoded answer."""
    raw = build_maced(cls, actors.tm._keys_with("AP")[0], **fields)[1]
    *events, answer = actors.ap.deliver("TM", raw, 1)
    return drawn(events), codec.decode(answer.raw)


def _hold_request(actors, nonce: bytes, amount: int = 30, account: Digest | None = None):
    account = account or hash_bytes(actors.scenario.account_ref.encode())
    return _to_account_provider(
        actors, HoldRequest, hold_nonce=nonce, account_ref_digest=account, amount=amount
    )


def test_a_hold_name_its_ledger_has_used_is_refused_as_a_replay():
    # the ledger is the one record of the names used, whoever used them
    actors = build_actors()
    digest = hash_bytes(actors.scenario.account_ref.encode())
    actors.ap.ledger.place_hold(digest, 10, b"\x07" * 16)
    events, answer = _hold_request(actors, b"\x07" * 16)
    assert answer.reason == DenialReason.REPLAY
    assert events == [("AP", EventKind.HOLD_REFUSED, DenialReason.REPLAY)]
    assert actors.ap.ledger.active_holds(digest) == {b"\x07" * 16: 10}


def test_a_hold_refused_for_credit_stays_refused_once_credit_is_freed():
    actors = build_actors(credit=100)
    digest = hash_bytes(actors.scenario.account_ref.encode())
    actors.ap.ledger.place_hold(digest, 80, b"\x01" * 16)
    events, answer = _hold_request(actors, b"\x02" * 16)
    assert answer.reason == DenialReason.INSUFFICIENT_CREDIT
    assert events == [("AP", EventKind.HOLD_REFUSED, DenialReason.INSUFFICIENT_CREDIT)]
    actors.ap.ledger.release_hold(b"\x01" * 16)
    # the same request again, now that 100 is free: a replay, and no hold
    events, answer = _hold_request(actors, b"\x02" * 16)
    assert answer.reason == DenialReason.REPLAY
    assert events == [("AP", EventKind.HOLD_REFUSED, DenialReason.REPLAY)]
    assert actors.ap.ledger.active_holds(digest) == {}
    assert actors.ap.ledger.available(digest) == 100


def test_a_hold_on_an_account_the_ledger_does_not_keep_is_refused():
    actors = build_actors()
    elsewhere = hash_bytes(b"ACCT-kept-elsewhere")
    events, answer = _hold_request(actors, b"\x03" * 16, account=elsewhere)
    assert answer.reason == DenialReason.UNKNOWN_ACCOUNT
    assert events == [("AP", EventKind.HOLD_REFUSED, DenialReason.UNKNOWN_ACCOUNT)]
    assert actors.ap.ledger.holds_created() == 0


@pytest.mark.parametrize("hold, reason", [
    ("never asked for", DenialReason.UNKNOWN_ACCOUNT),
    ("refused", DenialReason.UNKNOWN_ACCOUNT),
    ("released", DenialReason.REPLAY),
])
def test_a_settlement_of_a_hold_never_placed_is_refused(hold, reason):
    actors = build_actors(credit=100)
    digest = hash_bytes(actors.scenario.account_ref.encode())
    name = b"\x04" * 16
    if hold == "refused":
        assert actors.ap.ledger.place_hold(digest, 101, name) == DenialReason.INSUFFICIENT_CREDIT
    elif hold == "released":
        actors.ap.ledger.place_hold(digest, 30, name)
        assert actors.ap.ledger.release_hold(name) == (30, None)
    before = actors.ap.state_bytes()
    events, answer = _to_account_provider(actors, SettleRequest, hold_nonce=name)
    assert (answer.amount, answer.reason) == (0, reason)
    assert events == [("AP", EventKind.SETTLE_REFUSED, reason)]
    assert actors.ap.state_bytes() == before
    assert actors.ap.ledger.settle_count == 0 and actors.ap.ledger.available(digest) == 100


# --- service grant and tickets -------------------------------------------------


def test_three_objects_make_three_digest_matched_tickets():
    actors = build_actors()
    grant = granted(actors)
    assert len(grant.tickets) == 3
    for ticket, obj in zip(grant.tickets, actors.scenario.objects):
        assert ticket.object_digest == hash_bytes(obj)
        assert actors.sp.stored_objects[ticket.ticket_id] == obj


def approved_orders(actors, count: int) -> list[Digest]:
    """Order digests of ``count`` orders the provider has approved."""
    digests = []
    for _ in range(count):
        auth = authorization(actors)
        assert decide(actors, auth).approved
        digests.append(order_digest(auth))
    return digests


def _flip_first_bit(objects: tuple[bytes, ...], index: int) -> tuple[bytes, ...]:
    flipped = bytes([objects[index][0] ^ 0x80]) + objects[index][1:]
    return objects[:index] + (flipped,) + objects[index + 1:]


def _signed_over_raw_bytes(actors, upload: ObjectUpload, _other: bytes) -> ObjectUpload:
    # the signature an upload carried when it covered the object bytes
    raw_payload = codec.signing_payload_from(
        ObjectUpload, {"oi_digest": upload.oi_digest, "objects": upload.objects}
    )
    return dataclasses.replace(
        upload, requester_signature=sign(actors.sr.identity, raw_payload)
    )


UPLOAD_FORGERIES = {
    **{
        f"bit flipped in objects[{i}]": (
            lambda actors, up, other, i=i: dataclasses.replace(
                up, objects=_flip_first_bit(up.objects, i)
            )
        )
        for i in range(ScenarioConfig().object_count)
    },
    "two objects swapped": lambda actors, up, other: dataclasses.replace(
        up, objects=(up.objects[1], up.objects[0], *up.objects[2:])
    ),
    "one object dropped": lambda actors, up, other: dataclasses.replace(
        up, objects=up.objects[:-1]
    ),
    "one object appended": lambda actors, up, other: dataclasses.replace(
        up, objects=up.objects + (b"delta" * 13,)
    ),
    "another order's digest": lambda actors, up, other: dataclasses.replace(
        up, oi_digest=other
    ),
    "signed over the raw object bytes": _signed_over_raw_bytes,
}


def test_honest_upload_signature_covers_the_object_digests():
    actors = build_actors()
    [oi_digest] = approved_orders(actors, 1)
    upload = upload_for(actors, oi_digest)
    public = actors.sr.identity.public_key
    manifest = manifest_of(oi_digest, actors.scenario.objects)
    assert verify_signed(upload, public, manifest)
    assert verify(public, manifest, upload.requester_signature)
    # not the leading part of the upload's own encoding, which holds the objects
    assert not verify_signed(upload, public)
    [(dest, raw)] = actors.sp.deliver("SR", codec.encode(upload), 1)
    assert dest == "SR"
    assert len(actors.sp.stored_objects) == len(actors.scenario.objects)


@pytest.mark.parametrize("forgery", sorted(UPLOAD_FORGERIES))
def test_provider_refuses_an_upload_its_signature_does_not_bind(forgery):
    actors = build_actors()
    oi_digest, other = approved_orders(actors, 2)
    forged = UPLOAD_FORGERIES[forgery](actors, upload_for(actors, oi_digest), other)
    public = actors.sr.identity.public_key
    assert not verify_signed(forged, public, manifest_of(forged.oi_digest, forged.objects))
    assert actors.sp.deliver("SR", codec.encode(forged), 1) == [
        Event("SP", EventKind.BAD_AUTHENTICATOR, forged.oi_digest, None)
    ]
    assert actors.sp.stored_objects == {}
    # the refusal was the signature's: the honest upload is then granted
    assert actors.sp.deliver("SR", codec.encode(upload_for(actors, oi_digest)), 2)
    assert len(actors.sp.stored_objects) == len(actors.scenario.objects)


def _honest_manifest(actors) -> bytes:
    [oi_digest] = approved_orders(actors, 1)
    return manifest_of(oi_digest, actors.scenario.objects)


def test_an_upload_manifest_is_no_wire_upload():
    # not of the objects, nor of objects that happen to be the 32-byte digests
    actors = build_actors()
    manifest = _honest_manifest(actors)
    with pytest.raises(codec.MessageTypeError):
        codec.decode(manifest, ObjectUpload)
    shown = codec.decode(manifest, UploadManifest)
    objects = tuple(digest.bytes for digest in shown.digests)
    as_wire = codec.signing_payload_from(
        ObjectUpload, {"oi_digest": shown.oi_digest, "objects": objects}
    )
    assert manifest != as_wire


def test_an_upload_manifest_is_the_signing_payload_of_no_signed_type():
    # every signing payload leads with its own type's tag field, and the
    # manifest with the tag of a type that carries no authenticator
    manifest = _honest_manifest(build_actors())
    assert codec.peek_type(manifest) == "UploadManifest"
    assert codec.authenticator(UploadManifest) is None
    for tag in sorted(_authenticated_by(Signature) | _authenticated_by(codec.Mac)):
        cls = codec.registered_types()[tag]
        payload = codec.signing_payload(random_message(cls, Random(tag)))
        assert codec.peek_type(payload) == tag
        assert payload != manifest


@pytest.mark.parametrize(
    "actor_id, sender", [("sr", "SP"), ("sp", "SR"), ("tm", "SP"), ("ap", "TM")]
)
def test_an_upload_manifest_delivered_to_an_actor_is_an_unexpected_type(actor_id, sender):
    actors = build_actors()
    granted(actors)  # every actor has recorded an order or a hold
    [oi_digest] = actors.sr.orders
    manifest = manifest_of(oi_digest, actors.scenario.objects)
    actor = getattr(actors, actor_id)
    state = actor.state_bytes()
    assert actor.deliver(sender, manifest, 2) == [
        Event(actor.subject_id, EventKind.UNEXPECTED_TYPE, None, None)
    ]
    assert actor.state_bytes() == state


def test_denied_outcome_stores_nothing():
    actors = build_actors(limit=60)
    decision, upload_reply = decide_then_upload(actors, quantity=7)
    assert refused_by(actors, "TM") == [DenialReason.OVER_LIMIT]
    assert not decision.approved
    assert drawn(upload_reply) == [("SP", EventKind.NOT_PENDING, None)]
    assert actors.sp.stored_objects == {}


def test_forged_token_rejected_with_no_storage():
    actors = build_actors()
    impostor = generate_keypair("TM", 999)
    real_tm = actors.tm

    def forging_tm(sender, raw, now):
        # the real trust manager, its verdict's token re-signed by a key that
        # is not the TM's
        [(dest, out)] = real_tm.deliver(sender, raw, now)
        if peek_type(out) != "AuthOutcome":
            return [(dest, out)]
        outcome = codec.decode(out, AuthOutcome)
        forged = dataclasses.replace(
            outcome.token, tm_signature=sign(impostor, codec.signing_payload(outcome.token))
        )
        return [(dest, codec.encode(dataclasses.replace(outcome, token=forged)))]

    actors.registry["TM"] = SimpleNamespace(subject_id="TM", deliver=forging_tm)
    decision, upload_reply = decide_then_upload(actors)
    assert not decision.approved
    assert ("SP", EventKind.BAD_TOKEN, None) in drawn(actors.events)
    assert drawn(upload_reply) == [("SP", EventKind.NOT_PENDING, None)]
    assert actors.sp.stored_objects == {}


def test_lost_outcome_cannot_approve_another_order_in_its_place():
    # two orders in flight; the trust manager's answer to the first is lost
    actors = build_actors()
    auths = [authorization(actors) for _ in range(2)]
    run_scenario(actors.registry, dataclasses.replace(
        actors.scenario.meta,
        adversary_spec="drop:AuthOutcome:1",
        initial=tuple(WireMessage("SR", "SP", auth) for auth in auths),
    ))
    granted = {d for d, o in actors.sp.orders.items() if o.phase >= ProviderPhase.GRANTED}
    assert granted == {order_digest(auths[1])}
    assert actors.ap.ledger.settle_count == 1


def test_ticket_redeems_to_matching_object_once():
    actors = build_actors()
    grant = granted(actors)
    ticket = grant.tickets[0]
    request = codec.encode(TicketRedeemRequest(ticket.ticket_id))
    out = actors.sp.deliver("SR", request, 2)
    response = codec.decode(out[0][1], TicketRedeemResponse)
    assert response.ok
    assert hash_bytes(response.payload) == ticket.object_digest
    # the same ticket a second time is refused
    again = actors.sp.deliver("SR", request, 3)
    assert drawn(again) == [("SP", EventKind.REDEMPTION_REFUSED, None)]
    response2 = codec.decode(again[-1].raw, TicketRedeemResponse)
    assert not response2.ok


def test_fabricated_ticket_is_refused():
    actors = build_actors()
    granted(actors)
    out = actors.sp.deliver("SR", codec.encode(TicketRedeemRequest(b"\x42" * 16)), 2)
    response = codec.decode(out[-1].raw, TicketRedeemResponse)
    assert not response.ok


def test_redeemed_object_failing_its_ticket_digest_is_ignored():
    actors = build_actors()
    decision, [(_, grant_raw)] = decide_then_upload(actors)
    # the requester checks the grant against the digests it signed its upload over
    [(_, upload_raw)] = actors.sr.deliver("SP", codec.encode(decision), 1)
    assert codec.decode(upload_raw, ObjectUpload).objects == actors.scenario.objects
    requests = actors.sr.deliver("SP", grant_raw, 2)
    assert [codec.decode(raw, TicketRedeemRequest).ticket_id for _, raw in requests] == [
        ticket.ticket_id for ticket in codec.decode(grant_raw, ServiceGrant).tickets
    ]
    responses = [actors.sp.deliver("SR", raw, 3)[0][1] for _, raw in requests]
    genuine = codec.decode(responses[0], TicketRedeemResponse)
    payload = bytes(genuine.payload)  # decoded, the payload is a view
    flipped = payload[:-1] + bytes([payload[-1] ^ 1])
    wrong = dataclasses.replace(genuine, payload=flipped)
    ignored = actors.sr.deliver("SP", codec.encode(wrong), 4)
    # ignored, not counted: the ticket is still outstanding
    [(oi_digest, order)] = actors.sr.orders.items()
    assert ignored == [Event("SR", EventKind.OBJECT_MISMATCH, oi_digest, None)]
    assert order.awaits(genuine.ticket_id)
    assert order.retrieved == {}
    assert order.refusals == set()
    # the genuine responses, delivered afterwards, complete the order
    outs = [actors.sr.deliver("SP", raw, 5) for raw in responses]
    assert outs[:-1] == [[]] * (len(responses) - 1)
    [(dest, raw)] = outs[-1]
    assert dest == "SP"
    assert codec.decode(raw, ServiceComplete).oi_digest == oi_digest
    assert order.phase == RequesterPhase.COMPLETED
    assert order.retrieved[genuine.ticket_id] == genuine.payload


def _uploading(actors):
    """The requester's order, uploaded and awaiting its grant, and the genuine
    grant the provider signed for it."""
    decision, [(_, grant_raw)] = decide_then_upload(actors)
    actors.sr.deliver("SP", codec.encode(decision), 1)
    [(oi_digest, order)] = actors.sr.orders.items()
    assert order.phase == RequesterPhase.UPLOADING
    return order, codec.decode(grant_raw, ServiceGrant)


def _refused_grant(actors, order, grant: ServiceGrant, kind: EventKind) -> None:
    """The requester refuses ``grant`` with the event ``kind``, redeems
    nothing, and still takes the genuine grant for ``order`` afterwards."""
    phase = order.phase
    assert drawn(actors.sr.deliver("SP", codec.encode(grant), 2)) == [("SR", kind, None)]
    assert order.phase == phase
    assert order.tickets == {}
    assert actors.sr.ticket_orders == {}


def test_a_grant_for_an_order_not_uploading_is_refused():
    actors = build_actors()
    decision, [(_, grant_raw)] = decide_then_upload(actors)
    # the grant arrives before the decision: the order is still authorizing
    [order] = actors.sr.orders.values()
    assert order.phase == RequesterPhase.AUTHORIZING
    _refused_grant(
        actors, order, codec.decode(grant_raw, ServiceGrant), EventKind.NOT_PENDING
    )


def test_a_grant_one_ticket_short_is_refused():
    actors = build_actors()
    order, grant = _uploading(actors)
    short, _ = build_signed(
        ServiceGrant, actors.sp.identity, oi_digest=grant.oi_digest, tickets=grant.tickets[:-1]
    )
    _refused_grant(actors, order, short, EventKind.GRANT_MISMATCH)
    assert len(actors.sr.deliver("SP", codec.encode(grant), 3)) == len(grant.tickets)
    assert order.phase == RequesterPhase.REDEEMING


def test_a_grant_with_a_wrong_ticket_digest_is_refused():
    actors = build_actors()
    order, grant = _uploading(actors)
    last = grant.tickets[-1]
    wrong = Ticket(ticket_id=last.ticket_id, object_digest=hash_bytes(b"another object"))
    forged, _ = build_signed(
        ServiceGrant, actors.sp.identity,
        oi_digest=grant.oi_digest, tickets=(*grant.tickets[:-1], wrong),
    )
    _refused_grant(actors, order, forged, EventKind.GRANT_MISMATCH)
    assert len(actors.sr.deliver("SP", codec.encode(grant), 3)) == len(grant.tickets)
    assert order.phase == RequesterPhase.REDEEMING


def test_a_refused_redemption_leaves_the_order_incomplete():
    actors = build_actors()
    order, grant = _uploading(actors)
    requests = [raw for _, raw in actors.sr.deliver("SP", codec.encode(grant), 2)]
    # someone else holding the first ticket id redeems it first
    [(_, stolen)] = actors.sp.deliver("XX", requests[0], 3)
    assert codec.decode(stolen, TicketRedeemResponse).ok
    responses = [actors.sp.deliver("SR", raw, 4)[-1].raw for raw in requests]
    refused = codec.decode(responses[0], TicketRedeemResponse)
    assert not refused.ok
    assert drawn(actors.sr.deliver("SP", responses[0], 5)) == [
        ("SR", EventKind.REDEMPTION_DENIED, None)
    ]
    assert order.refusals == {refused.ticket_id}
    # every other object arrives, and still no completion is sent
    for raw in responses[1:]:
        assert actors.sr.deliver("SP", raw, 6) == []
    assert len(order.retrieved) == len(grant.tickets) - 1
    assert order.phase == RequesterPhase.REDEEMING
    assert not order.awaits(refused.ticket_id)


# --- capture ---------------------------------------------------------------------


def test_capture_settles_the_held_amount():
    actors = build_actors()
    _, response = complete(actors, granted(actors))
    assert response.settled
    digest = hash_bytes(actors.scenario.account_ref.encode())
    assert actors.ap.ledger.settled_total(digest) == 50
    assert actors.ap.ledger.active_holds(digest) == {}
    assert receivable(actors) == 50
    [order] = actors.sp.orders.values()
    assert order.phase == ProviderPhase.CAPTURED


def test_capturing_the_same_token_twice_fails_with_replay():
    actors = build_actors()
    grant = granted(actors)
    request, first = complete(actors, grant)
    assert first.settled
    # the provider does not claim a captured order's token again
    assert capture_run(actors, grant)[1:] == ()
    assert drawn(actors.events[-1:]) == [("SP", EventKind.DUPLICATE, None)]
    # and the trust manager refuses the same request a second time
    [again] = actors.run("SP", "TM", request)[1:]
    second = codec.decode(again.payload, CaptureResponse)
    assert again.to_id == "SP"
    assert second.oi_digest == first.oi_digest
    assert not second.settled
    assert second.reason == DenialReason.REPLAY
    digest = hash_bytes(actors.scenario.account_ref.encode())
    assert actors.ap.ledger.settled_total(digest) == 50
    assert actors.ap.ledger.settle_count == 1
    assert receivable(actors) == 50


def _refused_capture(actors, grant: ServiceGrant) -> None:
    _, response = complete(actors, grant)
    assert not response.settled
    assert response.reason == DenialReason.BAD_SIGNATURE
    assert drawn(actors.events[-1:]) == [
        ("SP", EventKind.CAPTURE_DENIED, DenialReason.BAD_SIGNATURE)
    ]
    assert receivable(actors) == 0
    assert actors.ap.ledger.settle_count == 0


def test_token_signed_with_the_tm_key_but_minted_elsewhere_is_refused():
    actors = build_actors()
    granted(actors)
    # a second trust manager with the same keys approves an order this one never held
    twin = TrustManager(actors.tm.identity, actors.tm.directory, actors.tm.config, Random("twin/TM"))
    actors.registry["TM"] = twin
    outcome = outcome_of(actors, relay_of(actors))
    actors.registry["TM"] = actors.tm
    assert outcome.approved
    [(_, raw)] = actors.sp.deliver("SR", codec.encode(upload_for(actors, outcome.oi_digest)), 1)
    _refused_capture(actors, codec.decode(raw, ServiceGrant))


def _account_provider_naming(actors, other: bytes) -> None:
    """Put an account provider in the registry that answers every hold and
    settle request with a success, MAC'd under the genuine key, that names
    the hold ``other`` in place of the one asked about; its ledger is left
    alone."""

    def deliver(sender, raw, now):
        if isinstance(codec.decode(raw), HoldRequest):
            return [actors.ap._send(sender, HoldResponse, hold_nonce=other, reason=None)]
        return [actors.ap._send(
            sender, SettleResponse, hold_nonce=other, amount=50, reason=None
        )]

    actors.registry["AP"] = SimpleNamespace(subject_id="AP", deliver=deliver)


def test_a_hold_response_naming_another_hold_mints_no_token():
    actors = build_actors()
    relay = relay_of(actors)
    _account_provider_naming(actors, bytes(16))
    records = actors.run("SP", "TM", relay)
    # the response answers nothing pending: the hold stays asked for
    assert recorded(records, "AuthOutcome") == []
    assert drawn(actors.events[-1:]) == [("TM", EventKind.NOT_PENDING, None)]
    [hold] = actors.tm.holds.values()
    assert hold.phase == HoldPhase.HOLDING


def test_a_settle_response_naming_another_hold_leaves_the_token_unspent():
    actors = build_actors()
    grant = granted(actors)
    [(hold_nonce, hold)] = actors.tm.holds.items()
    _account_provider_naming(actors, bytes(16))
    assert hold_nonce != bytes(16)
    records = capture_run(actors, grant)
    # the response answers nothing pending: the settlement stays asked for
    assert recorded(records, "CaptureResponse") == []
    assert drawn(actors.events[-1:]) == [("TM", EventKind.NOT_PENDING, None)]
    assert hold.phase == HoldPhase.SETTLING
    assert receivable(actors) == 0
    digest = hash_bytes(actors.scenario.account_ref.encode())
    assert actors.ap.ledger.active_holds(digest) == {hold_nonce: 50}


def test_capture_request_must_come_from_the_named_provider():
    actors = build_actors()
    _, outcome = approved_outcome(actors, quantity=5)

    def capture(sender: str, raw: bytes) -> CaptureResponse:
        [answer] = actors.run(sender, "TM", raw)[1:]
        assert answer.to_id == sender
        return codec.decode(answer.payload, CaptureResponse)

    oi_digest = outcome.oi_digest
    request = CaptureRequest(oi_digest=oi_digest, provider_mac=b"\x01" * 32)
    response = capture("SP", codec.encode(request))
    assert not response.settled
    assert response.reason == DenialReason.BAD_SIGNATURE
    # the requester's own MAC is genuine, but the token names the provider
    to_tm = mac_keys(actors.sr.identity, "TM", actors.tm.identity.public_key)[0]
    _, presented = build_maced(CaptureRequest, to_tm, oi_digest=oi_digest)
    response = capture("SR", presented)
    assert response.reason == DenialReason.BAD_SIGNATURE
    assert actors.ap.ledger.settle_count == 0


def test_a_capture_for_an_order_never_held_is_refused():
    actors = build_actors()
    _, outcome = approved_outcome(actors, quantity=5)
    unheld = hash_bytes(b"an order the trust manager never held")
    _, raw = actors.sp._send("TM", CaptureRequest, oi_digest=unheld)
    [answer] = actors.run("SP", "TM", raw)[1:]
    response = codec.decode(answer.payload, CaptureResponse)
    assert answer.to_id == "SP"
    assert response.reason == DenialReason.BAD_SIGNATURE
    assert events_of(actors, "TM")[-1] == Event(
        "TM", EventKind.CAPTURE_REFUSED, unheld, DenialReason.BAD_SIGNATURE
    )
    assert [hold.phase for hold in actors.tm.holds.values()] == [HoldPhase.MINTED]
    assert actors.ap.ledger.settle_count == 0


def test_a_capture_before_the_token_is_minted_is_refused():
    # the hold is still being asked for: no token exists to capture
    actors = build_actors()
    TO_HOLD_PHASE[HoldPhase.HOLDING](actors)
    [hold] = actors.tm.holds.values()
    _, raw = actors.sp._send("TM", CaptureRequest, oi_digest=hold.oi_digest)
    [answer] = actors.run("SP", "TM", raw)[1:]
    assert codec.decode(answer.payload, CaptureResponse).reason == DenialReason.BAD_SIGNATURE
    assert drawn(events_of(actors, "TM")[-1:]) == [
        ("TM", EventKind.CAPTURE_REFUSED, DenialReason.BAD_SIGNATURE)
    ]
    assert hold.phase == HoldPhase.HOLDING


def _first(payloads: list[bytes], cls: type):
    return next(codec.decode(raw) for raw in payloads if peek_type(raw) == cls.__name__)


def test_the_grant_and_the_completion_name_the_approved_order():
    payloads = run_storage_scenario(ScenarioConfig()).transcript.payloads()
    decision = _first(payloads, AuthDecision)
    assert decision.approved
    # by the digest of the order's bytes, which the dual signature signs and
    # the token names too
    assert decision.oi_digest == hash_bytes(_first(payloads, AuthorizationRequest).order_info)
    assert _first(payloads, AuthOutcome).token.oi_digest == decision.oi_digest
    assert _first(payloads, ServiceGrant).oi_digest == decision.oi_digest
    assert _first(payloads, ServiceComplete).oi_digest == decision.oi_digest


def test_the_account_provider_never_learns_the_order():
    # holds reach the account provider under the trust manager's hold nonce
    report = run_storage_scenario(ScenarioConfig())
    payloads = report.transcript.payloads()
    auth = _first(payloads, AuthorizationRequest)
    order = auth.order_info
    names = (hash_bytes(order).bytes, codec.decode(order, OrderInfo).order_nonce)
    to_ap = [r.payload for r in report.transcript.records if r.to_id == "AP"]
    assert [peek_type(raw) for raw in to_ap] == ["HoldRequest", "SettleRequest"]
    state = report.scenario.account_provider.state_bytes()
    for name in names:
        assert all(name not in raw for raw in to_ap)
        assert name not in state


def test_the_account_provider_records_each_hold_name_it_used():
    # its recorded state is the whole ledger, the names it used up included
    def names(ap: AccountProvider):
        return codec.decode(ap.state_bytes(), AccountProvider._State).ledger.names

    actors = build_actors(credit=20)  # a charge of 50 is over the credit
    records = actors.run("SP", "TM", relay_of(actors))
    refused = codec.decode(recorded(records, "HoldRequest")[0], HoldRequest).hold_nonce
    assert events_of(actors, "AP")[-1].reason == DenialReason.INSUFFICIENT_CREDIT
    account = hash_bytes(actors.scenario.account_ref.encode()).bytes
    assert names(actors.ap) == {refused: HoldName(account, HoldFate.REFUSED)}

    report = run_storage_scenario(ScenarioConfig())
    assert report.complete_success()
    payloads = report.transcript.payloads()
    settled = _first(payloads, HoldRequest).hold_nonce
    account = hash_bytes(report.scenario.account_ref.encode()).bytes
    assert names(report.scenario.account_provider) == {settled: HoldName(account, HoldFate.SETTLED)}


def test_a_capture_names_the_token_of_the_outcome():
    payloads = run_storage_scenario(ScenarioConfig()).transcript.payloads()
    token = _first(payloads, AuthOutcome).token
    assert _first(payloads, CaptureRequest).oi_digest == token.oi_digest
    assert _first(payloads, CaptureResponse).oi_digest == token.oi_digest


# --- defensive delivery ------------------------------------------------------------


def test_garbage_bytes_are_dropped_with_an_event():
    actors = build_actors()
    assert actors.sp.deliver("SR", b"\x00\x01\x02", 0) == [
        Event("SP", EventKind.UNDECODABLE, None, None)
    ]


def _stray_capture_response(actors):
    return actors.tm._send(
        "SP", CaptureResponse, oi_digest=Digest(bytes(32)), reason=None
    ).raw


def _stray_hold_response(actors):
    return actors.ap._send(
        "TM", HoldResponse, hold_nonce=bytes(16), reason=None
    ).raw


def _stray_settle_response(actors):
    return actors.ap._send(
        "TM", SettleResponse, hold_nonce=bytes(16), amount=50, reason=None
    ).raw


@pytest.mark.parametrize(
    "receiver, sender, make, kind",
    [
        # a quote delivered to the account provider means nothing to it
        ("ap", "SP", lambda actors: quote_for(actors, 5), EventKind.UNEXPECTED_TYPE),
        # an answer naming no request its receiver made
        ("sp", "TM", _stray_capture_response, EventKind.NOT_PENDING),
        ("tm", "AP", _stray_hold_response, EventKind.NOT_PENDING),
        ("tm", "AP", _stray_settle_response, EventKind.NOT_PENDING),
        # a genuine outcome whose order has had its answer
        ("sp", "TM", lambda actors: codec.encode(approved_outcome(actors)[1]),
         EventKind.NOT_PENDING),
    ],
    ids=["PriceQuote-to-AP", "CaptureResponse-to-SP", "HoldResponse-to-TM",
         "SettleResponse-to-TM", "AuthOutcome-to-SP"],
)
def test_unexpected_message_type_is_ignored(receiver, sender, make, kind):
    actors = build_actors()
    actor = getattr(actors, receiver)
    raw = make(actors)
    assert actors.run(sender, actor.subject_id, raw)[1:] == ()
    assert drawn(actors.events[-1:]) == [(actor.subject_id, kind, None)]


def test_state_bytes_are_deterministic():
    a = build_actors()
    b = build_actors()
    approved_outcome(a, quantity=5)
    approved_outcome(b, quantity=5)
    assert a.tm.state_bytes() == b.tm.state_bytes()
    assert a.sp.state_bytes() == b.sp.state_bytes()
    assert a.ap.state_bytes() == b.ap.state_bytes()
    assert a.sr.state_bytes() == b.sr.state_bytes()


def test_provider_state_never_contains_payment_markers():
    actors = build_actors()
    _, response = complete(actors, granted(actors))
    assert response.settled
    blob = actors.sp.state_bytes()
    assert actors.scenario.account_ref.encode() not in blob


def test_trust_manager_state_never_contains_usage_markers():
    actors = build_actors()
    approved_outcome(actors, quantity=5)
    blob = actors.tm.state_bytes()
    for marker in (b"mobile-storage", b"store-objects", b"megabyte"):
        assert marker not in blob


# --- every bit the receiver authenticates ------------------------------------------

# Derived from the codec in test_messages, which pins it to the seven legs.
MACED_TAGS = tuple(cls.__name__ for cls in MACED_TYPES)


def _signed_tags() -> tuple[str, ...]:
    """The wire types of the default run whose trailing authenticator is a
    signature, in the order they first travel.  (The capture token's
    signature travels nested.)"""
    signed = _authenticated_by(Signature)
    payloads = run_storage_scenario(ScenarioConfig()).transcript.payloads()
    return tuple(dict.fromkeys(tag for tag in map(peek_type, payloads) if tag in signed))


SIGNED_TAGS = _signed_tags()


def test_a_run_carries_five_signed_wire_types():
    # three the requester checks, two the provider checks
    assert sorted(SIGNED_TAGS) == sorted(
        ["PriceQuote", "AuthDecision", "ServiceGrant", "ObjectUpload", "ServiceComplete"]
    )
    # and the capture token, whose signature travels nested in the outcome
    assert _authenticated_by(Signature) == {*SIGNED_TAGS, "CaptureToken"}


def _authentic(receiver, msg, sender: str, covered) -> bool:
    # the provider checks an upload's signature over the manifest of the
    # objects it received
    if type(msg) is ObjectUpload:
        covered = manifest_of(msg.oi_digest, msg.objects)
    return receiver._authentic(msg, sender, covered)


def _flip_every_bit(tag: str) -> None:
    """Flip each bit of one honest ``tag`` record in turn: its receiver either
    cannot decode the result or refuses it by its check on the received
    bytes, never accepts it, and both outcomes occur."""
    report = run_storage_scenario(ScenarioConfig())
    record = next(r for r in report.transcript.records if peek_type(r.payload) == tag)
    receiver = report.scenario.endpoints[record.to_id]
    honest, covered = codec.decode_authenticated(record.payload)
    assert _authentic(receiver, honest, record.from_id, covered)
    if tag != "ObjectUpload":  # the upload's signature covers its object digests
        # the check reads the bytes it is handed, not a re-encoding of the message
        altered = flip_bit(bytes(covered), len(covered) * 8 - 1)
        assert not _authentic(receiver, honest, record.from_id, altered)
    undecodable = refused = 0
    for bit in range(len(record.payload) * 8):
        try:
            msg, covered = codec.decode_authenticated(flip_bit(record.payload, bit))
        except codec.CodecError:
            undecodable += 1
            continue
        assert type(msg) is type(honest), bit
        assert not _authentic(receiver, msg, record.from_id, covered), bit
        refused += 1
    assert undecodable and refused
    assert undecodable + refused == len(record.payload) * 8


@pytest.mark.parametrize("tag", MACED_TAGS)
def test_no_single_bit_flip_of_a_maced_leg_is_accepted(tag):
    _flip_every_bit(tag)


@pytest.mark.parametrize("tag", SIGNED_TAGS)
def test_no_single_bit_flip_of_a_signed_leg_is_accepted(tag):
    _flip_every_bit(tag)


def test_a_malformed_peer_key_is_a_refusal_not_an_exception():
    actors = build_actors()
    relay = relay_of(actors, 5)
    for bad in (b"", b"\x00" * 63, b"\x00" * 64):  # short, and a low-order X25519 point
        directory = {**actors.tm.directory, "SP": bad}
        tm = actors.registry["TM"] = TrustManager(
            actors.tm.identity, directory, actors.tm.config, Random(0)
        )
        outcome = outcome_of(actors, relay)
        assert outcome.reason == DenialReason.BAD_SIGNATURE
        assert tm.pair_keys == {}


def test_an_actor_without_a_peer_key_sends_that_peer_nothing():
    actors = build_actors()
    _, outcome = approved_outcome(actors, quantity=5)
    del actors.tm.directory["SP"]
    actors.tm.pair_keys.clear()
    _, raw = actors.sp._send("TM", CaptureRequest, oi_digest=outcome.oi_digest)
    assert actors.run("SP", "TM", raw)[1:] == ()
    # the request's MAC cannot be checked either, and the refusal goes unsent
    assert drawn(actors.events[-2:]) == [
        ("TM", EventKind.CAPTURE_REFUSED, DenialReason.BAD_SIGNATURE),
        ("TM", EventKind.NO_MAC_KEY, None),
    ]
    assert actors.ap.ledger.settle_count == 0


def test_pairwise_keys_are_derived_once_per_peer_and_stay_out_of_state():
    report = run_storage_scenario(ScenarioConfig())
    actors = report.scenario.endpoints
    assert sorted(actors["TM"].pair_keys) == ["AP", "SP"]
    assert sorted(actors["SP"].pair_keys) == ["TM"]
    assert sorted(actors["AP"].pair_keys) == ["TM"]
    assert actors["SR"].pair_keys == {}
    for actor in actors.values():
        state = actor.state_bytes()
        for pair in actor.pair_keys.values():
            assert pair[0] not in state and pair[1] not in state
