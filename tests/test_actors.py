"""Behavior of the four principals, driven through ``deliver`` and the simnet's queue."""
from __future__ import annotations

import dataclasses
from random import Random
from types import SimpleNamespace

import pytest

from gset import (
    AccountProvider,
    Adversary,
    AdversaryMode,
    AuthDecision,
    AuthOutcome,
    AuthorizationRequest,
    AuthorizeAndHold,
    CaptureRequest,
    CaptureResponse,
    DenialReason,
    HoldRequest,
    HoldResponse,
    ObjectUpload,
    PaymentInfo,
    PriceQuote,
    PriceRequest,
    QuoteDenial,
    ScenarioConfig,
    ServiceComplete,
    ServiceGrant,
    ServiceProvider,
    ServiceRequester,
    SettleResponse,
    TicketRedeemRequest,
    TicketRedeemResponse,
    TrustManager,
    UsageDescriptor,
    ValidationError,
    WireMessage,
    build_maced,
    build_signed,
    codec,
    generate_keypair,
    hash_bytes,
    mac_keys,
    open_envelope,
    peek_type,
    run_scenario,
    run_storage_scenario,
    sign,
    verify,
    verify_signed,
)
from gset.actors import HoldPhase, ProviderPhase, RequesterPhase
from gset.messages import object_digests, upload_signing_payload

from genmsg import flip_bit
from harness import build_actors, recorded
from test_messages import MACED_TYPES, _trailing_authenticator


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


def upload_for(actors, order_nonce: bytes) -> ObjectUpload:
    objects = actors.scenario.objects
    upload, _ = build_signed(
        ObjectUpload, actors.sr.identity, digests=object_digests(objects),
        order_nonce=order_nonce, objects=objects,
    )
    return upload


def decide_then_upload(actors, quantity: int = 5, now: int = 0):
    """The SP relays a fresh authorization to the TM and answers the
    requester on its outcome, then receives the requester's signed upload.

    Returns the SP's decision and its answer to the upload.
    """
    auth = authorization(actors, quantity, now)
    decision = decide(actors, auth)
    upload = upload_for(actors, codec.decode(auth, AuthorizationRequest).order_info.order_nonce)
    return decision, actors.sp.deliver("SR", codec.encode(upload), now + 1)


def granted(actors, quantity: int = 5) -> ServiceGrant:
    decision, [(dest, raw)] = decide_then_upload(actors, quantity)
    assert decision.approved and dest == "SR"
    return codec.decode(raw, ServiceGrant)


def capture_run(actors, grant: ServiceGrant, drop: str | None = None):
    """Deliver the requester's completion of ``grant`` to the provider and run
    the capture that follows on the simnet's queue; returns its records."""
    _, raw = build_signed(ServiceComplete, actors.sr.identity, order_nonce=grant.order_nonce)
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


# --- one record per order -----------------------------------------------------

# What each actor records beyond its notes: per-order state lives in one
# record per order, so a new parallel container shows up here.
RECORDED = {
    "SR": {"pending_usage", "orders"},
    "SP": {"issued_quotes", "denials", "orders", "stored_objects"},
    "TM": {"seen_payment_nonces", "denials", "holds"},
    "AP": {"ledger", "seen_hold_nonces"},
}


@pytest.mark.parametrize("actor_id", sorted(RECORDED))
def test_each_actor_records_its_state_in_these_attributes(actor_id):
    actor = run_storage_scenario(ScenarioConfig()).scenario.endpoints[actor_id]
    assert set(vars(actor)) - actor._WIRING == {"subject_id", "notes"} | RECORDED[actor_id]


def _denied(actors) -> None:
    # a charge of 70 is over the default limit of 60
    decide(actors, authorization(actors, 7))


# Each provider phase, reached through the protocol from fresh actors.
TO_PROVIDER_PHASE = {
    ProviderPhase.RELAYED: relay_of,
    ProviderPhase.DENIED: _denied,
    ProviderPhase.APPROVED: lambda actors: approved_order_nonces(actors, 1),
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

# (sender, bytes) of each message to the provider about its order ``nonce``.
# The two from the trust manager are the refusals a replayed relay or
# capture draws, arriving after the approval or the settlement.
TO_PROVIDER = {
    "ObjectUpload": lambda actors, nonce, order: ("SR", codec.encode(upload_for(actors, nonce))),
    "ServiceComplete": lambda actors, nonce, order: (
        "SR", build_signed(ServiceComplete, actors.sr.identity, order_nonce=nonce)[1]
    ),
    "AuthOutcome": lambda actors, nonce, order: (
        "TM", codec.encode(AuthOutcome(order.oi_digest, None, DenialReason.REPLAY))
    ),
    "CaptureResponse": lambda actors, nonce, order: ("TM", actors.tm._maced_to(
        "SP", CaptureResponse, token_id=order.token_id, reason=DenialReason.REPLAY
    )[0][1]),
}

# (sender, bytes) of each message to the trust manager about the hold
# ``nonce``: the request that reached the phase again, or what the account
# provider answers a replayed hold or settle request.
TO_TRUST_MANAGER = {
    "AuthorizeAndHold": lambda actors, nonce, records: (
        "SP", recorded(records, "AuthorizeAndHold")[0]
    ),
    "CaptureRequest": lambda actors, nonce, records: ("SP", recorded(records, "CaptureRequest")[0]),
    "HoldResponse": lambda actors, nonce, records: ("AP", actors.ap._maced_to(
        "TM", HoldResponse, hold_nonce=nonce, reason=DenialReason.REPLAY
    )[0][1]),
    "SettleResponse": lambda actors, nonce, records: ("AP", actors.ap._maced_to(
        "TM", SettleResponse, hold_nonce=nonce, amount=0, reason=DenialReason.REPLAY
    )[0][1]),
}

REFUSED_IN_PHASE = [
    ("ObjectUpload", ProviderPhase.RELAYED, "upload for unapproved order"),
    ("ObjectUpload", ProviderPhase.DENIED, "upload for unapproved order"),
    ("ObjectUpload", ProviderPhase.GRANTED, "upload for already granted order"),
    ("ObjectUpload", ProviderPhase.CAPTURED, "upload for already granted order"),
    ("ServiceComplete", ProviderPhase.RELAYED, "completion for unknown grant"),
    ("ServiceComplete", ProviderPhase.DENIED, "completion for unknown grant"),
    ("ServiceComplete", ProviderPhase.APPROVED, "completion for unknown grant"),
    ("ServiceComplete", ProviderPhase.CAPTURING, "capture already pending"),
    ("ServiceComplete", ProviderPhase.CAPTURED, "grant already captured"),
    ("AuthOutcome", ProviderPhase.APPROVED, "AuthOutcome answers no pending request"),
    ("CaptureResponse", ProviderPhase.CAPTURED, "CaptureResponse answers no pending request"),
    # at the trust manager (hold phases, lower case in the ids): a repeat
    # while its first copy is pending draws no answer and no second request
    ("AuthorizeAndHold", HoldPhase.HOLDING, "repeat of an authorization on hold ignored"),
    ("CaptureRequest", HoldPhase.SETTLING, "repeat of a capture being settled ignored"),
    ("CaptureRequest", HoldPhase.SPENT, "capture refused (REPLAY): token already spent"),
    ("HoldResponse", HoldPhase.MINTED, "HoldResponse answers no pending request"),
    ("SettleResponse", HoldPhase.SPENT, "SettleResponse answers no pending request"),
]


def _phase_id(phase) -> str:
    return phase.name if isinstance(phase, ProviderPhase) else phase.name.lower()


@pytest.mark.parametrize(
    "tag, phase, note", REFUSED_IN_PHASE,
    ids=[f"{tag}-{_phase_id(phase)}" for tag, phase, _ in REFUSED_IN_PHASE],
)
def test_a_message_its_order_phase_refuses_changes_nothing(tag, phase, note):
    actors = build_actors()
    if isinstance(phase, HoldPhase):
        records = TO_HOLD_PHASE[phase](actors)
        receiver, [(key, record)] = actors.tm, actors.tm.holds.items()
        sender, raw = TO_TRUST_MANAGER[tag](actors, key, records)
    else:
        TO_PROVIDER_PHASE[phase](actors)
        receiver, [(key, record)] = actors.sp, actors.sp.orders.items()
        sender, raw = TO_PROVIDER[tag](actors, key, record)
    assert record.phase == phase
    books, noted = actors.ap.state_bytes(), len(receiver.notes)
    records = actors.run(sender, receiver.subject_id, raw)
    assert receiver.notes[noted:] == [note]
    assert record.phase == phase
    assert actors.ap.state_bytes() == books
    answers = [(r.to_id, r.payload) for r in records[1:]]
    if (tag, phase) == ("CaptureRequest", HoldPhase.SPENT):
        # the one refusal that is an answer: a spent token's capture
        assert answers == actors.tm._maced_to(
            "SP", CaptureResponse, token_id=record.token_id, reason=DenialReason.REPLAY
        )
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


def test_unknown_service_id_gets_a_denial():
    actors = build_actors()
    request = price_request(actors, UsageDescriptor("unpriced-service", "noop", 1, "each"))
    [(dest, raw)] = actors.sp.deliver("SR", request, 0)
    reply = codec.decode(raw, QuoteDenial)
    assert dest == "SR"
    assert reply.request_nonce == codec.decode(request, PriceRequest).nonce


def test_price_beyond_u64_gets_a_denial_not_an_encode_error():
    actors = build_actors(rate=10)
    request = price_request(actors, usage_mb(actors, 2**64 - 1))
    [(dest, raw)] = actors.sp.deliver("SR", request, 0)
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
    payment = codec.decode(open_envelope(actors.tm.identity, auth.payment_envelope), PaymentInfo)
    assert payment.authorized_limit == 60
    assert payment.account_provider_id == "AP"
    assert payment.account_ref == actors.scenario.account_ref


def test_envelope_bytes_hide_the_account_ref():
    actors = build_actors()
    raw = authorization(actors, 5, now=1)
    auth = codec.decode(raw, AuthorizationRequest)
    marker = actors.scenario.account_ref.encode()
    assert marker not in auth.payment_envelope.ciphertext
    assert marker not in auth.payment_envelope.wrapped_key
    assert marker not in raw


def _refused_quote(actors, quote: bytes, now: int, note: str) -> None:
    # the requester sends nothing and keeps no order for a quote it refuses
    assert actors.sr.deliver("SP", quote, now) == []
    assert actors.sr.notes[-1] == f"quote not usable: {note}"
    assert actors.sr.orders == {}


def test_expired_quote_rejected_by_requester():
    actors = build_actors(quote_ttl=10)
    quote = quote_for(actors, 5, now=0)
    _refused_quote(actors, quote, 10, "quote expired at tick 10, now 10")


def test_forged_quote_signature_rejected():
    actors = build_actors()
    quote = codec.decode(quote_for(actors, 5), PriceQuote)
    doctored = codec.encode(dataclasses.replace(quote, price=1))
    _refused_quote(actors, doctored, 1, "quote signature does not verify")


def test_dual_signature_binds_order_and_payment():
    actors = build_actors()
    auth = codec.decode(authorization(actors, 5, now=1), AuthorizationRequest)
    # the payment half as the trust manager will see it
    payment = open_envelope(actors.tm.identity, auth.payment_envelope)
    assert auth.dual.oi_digest == hash_bytes(codec.encode(auth.order_info))
    assert auth.dual.pi_digest == hash_bytes(payment)


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
    [(dest, raw)] = actors.sp.deliver("SR", codec.encode(auth), now)
    decision = codec.decode(raw, AuthDecision)
    assert dest == "SR"
    assert decision.order_nonce == auth.order_info.order_nonce
    assert not decision.approved
    assert actors.sp.denials[-1] == reason


def test_tampered_order_info_denied_as_bad_signature():
    actors = build_actors()
    auth = codec.decode(authorization(actors, 5, now=1), AuthorizationRequest)
    doctored_order = dataclasses.replace(
        auth.order_info, usage=dataclasses.replace(auth.order_info.usage, quantity=4)
    )
    doctored = dataclasses.replace(auth, order_info=doctored_order)
    _refused_authorization(actors, doctored, 1, DenialReason.BAD_SIGNATURE)


def test_dual_signature_mutation_denied_as_bad_signature():
    actors = build_actors()
    auth = codec.decode(authorization(actors, 5, now=1), AuthorizationRequest)
    wrong_pi = hash_bytes(b"some other payment half")
    doctored = dataclasses.replace(auth, dual=dataclasses.replace(auth.dual, pi_digest=wrong_pi))
    _refused_authorization(actors, doctored, 1, DenialReason.BAD_SIGNATURE)


def test_unknown_quote_denied_as_expired():
    actors = build_actors()
    auth = codec.decode(authorization(actors, 5, now=1), AuthorizationRequest)
    # provider has dropped the quote by the time the order arrives
    del actors.sp.issued_quotes[auth.order_info.quote_id]
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
    assert actors.sp.notes[-1] == "duplicate authorization for an accepted order ignored"


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
    assert actors.tm.denials == [DenialReason.OVER_LIMIT]
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
    assert actors.tm.notes[-1] == (
        "authorization denied (UNKNOWN_ACCOUNT): account provider unreachable"
    )
    assert actors.tm.holds == {}


def test_minted_token_verifies_and_names_the_provider():
    actors = build_actors()
    relay, outcome = approved_outcome(actors, quantity=5)
    token = outcome.token
    tm_pub = actors.tm.identity.public_key
    assert token.provider_id == "SP"
    assert verify(tm_pub, codec.signing_payload(token), token.tm_signature)
    # the signed token and the outcome name the order the relay was for
    order = codec.decode(relay, AuthorizeAndHold).dual.oi_digest
    assert token.oi_digest == outcome.oi_digest == order
    # the payer's side stays with the trust manager: its record names the
    # account provider, and the hold is kept under its one name
    [(hold_nonce, record)] = actors.tm.holds.items()
    assert record.token_id == token.token_id
    assert record.account_provider == "AP"
    digest = hash_bytes(actors.scenario.account_ref.encode())
    assert actors.ap.ledger.active_holds(digest) == {hold_nonce: 50}


def test_tm_state_is_clean_after_denial():
    actors = build_actors(limit=60)
    _, outcome = approved_outcome(actors, quantity=7)
    assert not outcome.approved
    assert actors.tm.holds == {}


# --- service grant and tickets -------------------------------------------------


def test_three_objects_make_three_digest_matched_tickets():
    actors = build_actors()
    grant = granted(actors)
    assert len(grant.tickets) == 3
    for ticket, obj in zip(grant.tickets, actors.scenario.objects):
        assert ticket.object_digest == hash_bytes(obj)
        assert actors.sp.stored_objects[ticket.ticket_id] == obj


def approved_order_nonces(actors, count: int) -> list[bytes]:
    """Order nonces of ``count`` orders the provider has approved."""
    nonces = []
    for _ in range(count):
        auth = authorization(actors)
        assert decide(actors, auth).approved
        nonces.append(codec.decode(auth, AuthorizationRequest).order_info.order_nonce)
    return nonces


def _flip_first_bit(objects: tuple[bytes, ...], index: int) -> tuple[bytes, ...]:
    flipped = bytes([objects[index][0] ^ 0x80]) + objects[index][1:]
    return objects[:index] + (flipped,) + objects[index + 1:]


def _signed_over_raw_bytes(actors, upload: ObjectUpload, _other: bytes) -> ObjectUpload:
    # the signature an upload carried when it covered the object bytes
    raw_payload = codec.signing_payload_from(
        ObjectUpload, {"order_nonce": upload.order_nonce, "objects": upload.objects}
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
    "another order's nonce": lambda actors, up, other: dataclasses.replace(
        up, order_nonce=other
    ),
    "signed over the raw object bytes": _signed_over_raw_bytes,
}


def test_honest_upload_signature_covers_the_object_digests():
    actors = build_actors()
    [nonce] = approved_order_nonces(actors, 1)
    upload = upload_for(actors, nonce)
    public = actors.sr.identity.public_key
    digests = object_digests(actors.scenario.objects)
    assert verify_signed(upload, public, digests)
    assert verify(public, upload_signing_payload(nonce, digests), upload.requester_signature)
    [(dest, raw)] = actors.sp.deliver("SR", codec.encode(upload), 1)
    assert dest == "SR"
    assert len(actors.sp.stored_objects) == len(actors.scenario.objects)


@pytest.mark.parametrize("forgery", sorted(UPLOAD_FORGERIES))
def test_provider_refuses_an_upload_its_signature_does_not_bind(forgery):
    actors = build_actors()
    nonce, other = approved_order_nonces(actors, 2)
    forged = UPLOAD_FORGERIES[forgery](actors, upload_for(actors, nonce), other)
    public = actors.sr.identity.public_key
    assert not verify_signed(forged, public, object_digests(forged.objects))
    assert actors.sp.deliver("SR", codec.encode(forged), 1) == []
    assert actors.sp.notes[-1] == "upload signature does not verify"
    assert actors.sp.stored_objects == {}
    # the refusal was the signature's: the honest upload is then granted
    assert actors.sp.deliver("SR", codec.encode(upload_for(actors, nonce)), 2)
    assert len(actors.sp.stored_objects) == len(actors.scenario.objects)


def test_an_upload_payload_is_no_wire_upload_of_digests():
    # signing payloads lead with their type tag; the upload's tag is its own
    digests = object_digests(build_actors().scenario.objects)
    payload = upload_signing_payload(b"\x01" * 16, digests)
    as_wire = codec.signing_payload_from(
        ObjectUpload, {"order_nonce": b"\x01" * 16, "objects": tuple(d.bytes for d in digests)}
    )
    assert payload != as_wire
    with pytest.raises(codec.CodecError):
        codec.decode(payload)


def test_denied_outcome_stores_nothing():
    actors = build_actors(limit=60)
    decision, upload_reply = decide_then_upload(actors, quantity=7)
    assert actors.tm.denials == [DenialReason.OVER_LIMIT]
    assert not decision.approved
    assert upload_reply == []
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
    assert "approved outcome carried an unverifiable token" in actors.sp.notes
    assert upload_reply == []
    assert actors.sp.stored_objects == {}


def test_lost_outcome_cannot_approve_another_order_in_its_place():
    # two orders in flight; the trust manager's answer to the first is lost
    actors = build_actors()
    auths = [authorization(actors) for _ in range(2)]
    run_scenario(
        actors.registry,
        [WireMessage("SR", "SP", auth) for auth in auths],
        adversary=Adversary(mode=AdversaryMode.DROP, target="AuthOutcome", max_hits=1),
    )
    second = codec.decode(auths[1], AuthorizationRequest)
    granted = {n for n, o in actors.sp.orders.items() if o.phase >= ProviderPhase.GRANTED}
    assert granted == {second.order_info.order_nonce}
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
    response2 = codec.decode(again[0][1], TicketRedeemResponse)
    assert not response2.ok


def test_fabricated_ticket_is_refused():
    actors = build_actors()
    granted(actors)
    out = actors.sp.deliver("SR", codec.encode(TicketRedeemRequest(b"\x42" * 16)), 2)
    response = codec.decode(out[0][1], TicketRedeemResponse)
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
    assert actors.sr.deliver("SP", codec.encode(wrong), 4) == []
    # ignored, not counted: the ticket is still outstanding
    [(order_nonce, order)] = actors.sr.orders.items()
    assert order.awaits(genuine.ticket_id)
    assert order.retrieved == {}
    assert order.refusals == set()
    # the genuine responses, delivered afterwards, complete the order
    outs = [actors.sr.deliver("SP", raw, 5) for raw in responses]
    assert outs[:-1] == [[]] * (len(responses) - 1)
    [(dest, raw)] = outs[-1]
    assert dest == "SP"
    assert codec.decode(raw, ServiceComplete).order_nonce == order_nonce
    assert order.phase == RequesterPhase.COMPLETED
    assert order.retrieved[genuine.ticket_id] == genuine.payload


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
    assert actors.sp.notes[-1] == "grant already captured"
    # and the trust manager refuses the same request a second time
    [again] = actors.run("SP", "TM", request)[1:]
    second = codec.decode(again.payload, CaptureResponse)
    assert again.to_id == "SP"
    assert second.token_id == first.token_id
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
    assert actors.sp.notes[-1] == "capture refused: BAD_SIGNATURE"
    assert receivable(actors) == 0
    assert actors.ap.ledger.settle_count == 0


def test_token_signed_with_the_tm_key_but_minted_elsewhere_is_refused():
    actors = build_actors()
    grant = granted(actors)
    # a second trust manager with the same keys mints a token this one never did
    twin = TrustManager(actors.tm.identity, actors.tm.directory, actors.tm.config, Random("twin/TM"))
    actors.registry["TM"] = twin
    outcome = outcome_of(actors, relay_of(actors))
    actors.registry["TM"] = actors.tm
    assert outcome.approved
    # the granted order now names the twin's token
    actors.sp.orders[grant.order_nonce].token_id = outcome.token.token_id
    _refused_capture(actors, grant)


def _account_provider_naming(actors, other: bytes) -> None:
    """Put an account provider in the registry that answers every hold and
    settle request with a success, MAC'd under the genuine key, that names
    the hold ``other`` in place of the one asked about; its ledger is left
    alone."""

    def deliver(sender, raw, now):
        if isinstance(codec.decode(raw), HoldRequest):
            return actors.ap._maced_to(sender, HoldResponse, hold_nonce=other, reason=None)
        return actors.ap._maced_to(
            sender, SettleResponse, hold_nonce=other, amount=50, reason=None
        )

    actors.registry["AP"] = SimpleNamespace(subject_id="AP", deliver=deliver)


def test_a_hold_response_naming_another_hold_mints_no_token():
    actors = build_actors()
    relay = relay_of(actors)
    _account_provider_naming(actors, bytes(16))
    records = actors.run("SP", "TM", relay)
    # the response answers nothing pending: the hold stays asked for
    assert recorded(records, "AuthOutcome") == []
    assert actors.tm.notes[-1] == "HoldResponse answers no pending request"
    [hold] = actors.tm.holds.values()
    assert hold.phase == HoldPhase.HOLDING
    assert hold.token_id == b""


def test_a_settle_response_naming_another_hold_leaves_the_token_unspent():
    actors = build_actors()
    grant = granted(actors)
    [(hold_nonce, hold)] = actors.tm.holds.items()
    _account_provider_naming(actors, bytes(16))
    assert hold_nonce != bytes(16)
    records = capture_run(actors, grant)
    # the response answers nothing pending: the settlement stays asked for
    assert recorded(records, "CaptureResponse") == []
    assert actors.tm.notes[-1] == "SettleResponse answers no pending request"
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

    token_id = outcome.token.token_id
    request = CaptureRequest(token_id=token_id, provider_mac=b"\x01" * 32)
    response = capture("SP", codec.encode(request))
    assert not response.settled
    assert response.reason == DenialReason.BAD_SIGNATURE
    # the requester's own MAC is genuine, but the token names the provider
    to_tm = mac_keys(actors.sr.identity, "TM", actors.tm.identity.public_key)[0]
    _, presented = build_maced(CaptureRequest, to_tm, token_id=token_id)
    response = capture("SR", presented)
    assert response.reason == DenialReason.BAD_SIGNATURE
    assert actors.ap.ledger.settle_count == 0


def test_a_capture_of_a_token_id_never_minted_is_refused():
    actors = build_actors()
    _, outcome = approved_outcome(actors, quantity=5)
    unminted = bytes(16)
    assert unminted != outcome.token.token_id
    [(_, raw)] = actors.sp._maced_to("TM", CaptureRequest, token_id=unminted)
    [answer] = actors.run("SP", "TM", raw)[1:]
    response = codec.decode(answer.payload, CaptureResponse)
    assert answer.to_id == "SP"
    assert response.reason == DenialReason.BAD_SIGNATURE
    assert actors.tm.notes[-1] == (
        "capture refused (BAD_SIGNATURE): no token minted here for this provider"
    )
    assert [hold.phase for hold in actors.tm.holds.values()] == [HoldPhase.MINTED]
    assert actors.ap.ledger.settle_count == 0


def _first(payloads: list[bytes], cls: type):
    return next(codec.decode(raw) for raw in payloads if peek_type(raw) == cls.__name__)


def test_the_grant_and_the_completion_name_the_approved_order():
    payloads = run_storage_scenario(ScenarioConfig()).transcript.payloads()
    decision = _first(payloads, AuthDecision)
    assert decision.approved
    assert _first(payloads, ServiceGrant).order_nonce == decision.order_nonce
    assert _first(payloads, ServiceComplete).order_nonce == decision.order_nonce


def test_a_capture_names_the_token_of_the_outcome():
    payloads = run_storage_scenario(ScenarioConfig()).transcript.payloads()
    token = _first(payloads, AuthOutcome).token
    assert _first(payloads, CaptureRequest).token_id == token.token_id
    assert _first(payloads, CaptureResponse).token_id == token.token_id


# --- defensive delivery ------------------------------------------------------------


def test_garbage_bytes_are_dropped_with_a_note():
    actors = build_actors()
    assert actors.sp.deliver("SR", b"\x00\x01\x02", 0) == []
    assert any("undecodable" in note or "decode" in note for note in actors.sp.notes)


def _stray_capture_response(actors):
    return actors.tm._maced_to("SP", CaptureResponse, token_id=bytes(16), reason=None)[0][1]


def _stray_hold_response(actors):
    return actors.ap._maced_to(
        "TM", HoldResponse, hold_nonce=bytes(16), reason=None
    )[0][1]


def _stray_settle_response(actors):
    return actors.ap._maced_to(
        "TM", SettleResponse, hold_nonce=bytes(16), amount=50, reason=None
    )[0][1]


@pytest.mark.parametrize(
    "receiver, sender, make, note",
    [
        # a quote delivered to the account provider means nothing to it
        ("ap", "SP", lambda actors: quote_for(actors, 5), "ignored unexpected PriceQuote from SP"),
        # an answer naming no request its receiver made
        ("sp", "TM", _stray_capture_response, "CaptureResponse answers no pending request"),
        ("tm", "AP", _stray_hold_response, "HoldResponse answers no pending request"),
        ("tm", "AP", _stray_settle_response, "SettleResponse answers no pending request"),
        # a genuine outcome whose order has had its answer
        ("sp", "TM", lambda actors: codec.encode(approved_outcome(actors)[1]),
         "AuthOutcome answers no pending request"),
    ],
    ids=["PriceQuote-to-AP", "CaptureResponse-to-SP", "HoldResponse-to-TM",
         "SettleResponse-to-TM", "AuthOutcome-to-SP"],
)
def test_unexpected_message_type_is_ignored(receiver, sender, make, note):
    actors = build_actors()
    actor = getattr(actors, receiver)
    raw = make(actors)
    assert actors.run(sender, actor.subject_id, raw)[1:] == ()
    assert actor.notes[-1] == note


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
    signed = _trailing_authenticator("_signature")
    payloads = run_storage_scenario(ScenarioConfig()).transcript.payloads()
    return tuple(dict.fromkeys(tag for tag in map(peek_type, payloads) if tag in signed))


SIGNED_TAGS = _signed_tags()


def test_a_run_carries_five_signed_wire_types():
    # three the requester checks, two the provider checks
    assert sorted(SIGNED_TAGS) == sorted(
        ["PriceQuote", "AuthDecision", "ServiceGrant", "ObjectUpload", "ServiceComplete"]
    )


def _authentic(receiver, msg, sender: str, covered) -> bool:
    # the provider hashes an upload's objects before it checks the signature
    digests = object_digests(msg.objects) if type(msg) is ObjectUpload else None
    return receiver._authentic(msg, sender, covered, digests)


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
    [(_, raw)] = actors.sp._maced_to("TM", CaptureRequest, token_id=outcome.token.token_id)
    assert actors.run("SP", "TM", raw)[1:] == ()
    assert actors.tm.notes[-1] == "no MAC key for SP; CaptureResponse not sent"
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
