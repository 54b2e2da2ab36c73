"""Behavior of the four principals, driven directly and over a call bridge."""
from __future__ import annotations

import dataclasses
from random import Random
from types import SimpleNamespace

import pytest

from gset import (
    Adversary,
    AdversaryMode,
    AuthDecision,
    AuthOutcome,
    AuthorizeAndHold,
    CaptureRequest,
    CaptureResponse,
    DenialReason,
    HoldResponse,
    ObjectUpload,
    PaymentInfo,
    PolicyError,
    PriceQuote,
    QuoteDenial,
    ScenarioConfig,
    ServiceComplete,
    ServiceGrant,
    SettleResponse,
    TicketRedeemResponse,
    TrustError,
    TrustManager,
    UsageDescriptor,
    ValidationError,
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
    verify_signed,
)
from gset.messages import object_digests, upload_signing_payload

from genmsg import flip_bit
from harness import build_actors


def usage_mb(actors, quantity: int) -> UsageDescriptor:
    return dataclasses.replace(actors.scenario.usage, quantity=quantity)


def quote_for(actors, quantity: int, now: int = 0):
    request = actors.sr.request_price(usage_mb(actors, quantity))
    quote = actors.sp.quote_price(request, now=now)
    assert isinstance(quote, PriceQuote)
    return quote


def approved_outcome(actors, quantity: int = 5, now: int = 0):
    quote = quote_for(actors, quantity, now)
    auth = actors.sr.build_authorization(quote, now=now)
    relay = actors.sp.handle_authorization(auth, "SR", now=now)
    assert isinstance(relay, AuthorizeAndHold)
    outcome = actors.tm.handle_authorize(relay, "SP", actors.net("TM"))
    return auth, relay, outcome


def decide_then_upload(actors, quantity: int = 5, now: int = 0):
    """The SP relays a fresh authorization to the TM by call and answers the
    requester, then receives the requester's signed upload.

    Returns the SP's decision and its answer to the upload.
    """
    quote = quote_for(actors, quantity, now)
    auth = actors.sr.build_authorization(quote, now=now)
    [(dest, raw)] = actors.sp.deliver("SR", codec.encode(auth), now, actors.net("SP", now))
    assert dest == "SR"
    upload = build_signed(
        ObjectUpload,
        actors.sr.identity,
        order_nonce=auth.order_info.order_nonce,
        objects=actors.scenario.objects,
    )
    return codec.decode(raw, AuthDecision), actors.sp.deliver(
        "SR", codec.encode(upload), now + 1, None
    )


def granted(actors, quantity: int = 5) -> ServiceGrant:
    decision, [(dest, raw)] = decide_then_upload(actors, quantity)
    assert decision.approved and dest == "SR"
    return codec.decode(raw, ServiceGrant)


# --- price discovery --------------------------------------------------------


def test_price_request_for_five_megabytes():
    actors = build_actors()
    request = actors.sr.request_price(usage_mb(actors, 5))
    assert request.usage.quantity == 5
    assert request.usage.unit == "megabyte"


def test_price_requests_use_fresh_nonces():
    actors = build_actors()
    a = actors.sr.request_price(actors.scenario.usage)
    b = actors.sr.request_price(actors.scenario.usage)
    assert a.nonce != b.nonce


def test_zero_quantity_usage_is_unconstructible():
    with pytest.raises(ValidationError):
        usage_mb(build_actors(), 0)


def test_quote_is_rate_times_quantity():
    actors = build_actors(rate=10)
    quote = quote_for(actors, 5)
    assert quote.price == 50
    assert quote.expiry == actors.sp.config.quote_ttl


def test_two_quotes_for_same_request_have_distinct_ids():
    actors = build_actors()
    request = actors.sr.request_price(usage_mb(actors, 5))
    a = actors.sp.quote_price(request, now=0)
    b = actors.sp.quote_price(request, now=0)
    assert a.quote_id != b.quote_id


def test_unknown_service_id_gets_a_denial():
    actors = build_actors()
    odd = UsageDescriptor("unpriced-service", "noop", 1, "each")
    request = actors.sr.request_price(odd)
    reply = actors.sp.quote_price(request, now=0)
    assert isinstance(reply, QuoteDenial)
    assert reply.request_nonce == request.nonce


def test_price_beyond_u64_gets_a_denial_not_an_encode_error():
    actors = build_actors(rate=10)
    request = actors.sr.request_price(usage_mb(actors, 2**64 - 1))
    reply = actors.sp.quote_price(request, now=0)
    assert isinstance(reply, QuoteDenial)
    assert reply.request_nonce == request.nonce
    assert actors.sp.issued_quotes == {}
    [(dest, raw)] = actors.sp.deliver("SR", codec.encode(request), 0, None)
    assert dest == "SR"
    assert isinstance(codec.decode(raw), QuoteDenial)


def test_quote_signature_verifies_and_covers_price():
    actors = build_actors()
    quote = quote_for(actors, 5)
    sp_pub = actors.sp.identity.public_key
    from gset import verify

    assert verify(sp_pub, codec.signing_payload(quote), quote.provider_signature)


# --- authorization request construction ---------------------------------------


def test_authorization_envelope_opens_at_tm_to_the_limit():
    actors = build_actors(limit=60)
    quote = quote_for(actors, 5)
    auth = actors.sr.build_authorization(quote, now=1)
    payment = codec.decode(open_envelope(actors.tm.identity, auth.payment_envelope), PaymentInfo)
    assert payment.authorized_limit == 60
    assert payment.account_provider_id == "AP"
    assert payment.account_ref == actors.scenario.account_ref


def test_envelope_bytes_hide_the_account_ref():
    actors = build_actors()
    quote = quote_for(actors, 5)
    auth = actors.sr.build_authorization(quote, now=1)
    marker = actors.scenario.account_ref.encode()
    assert marker not in auth.payment_envelope.ciphertext
    assert marker not in auth.payment_envelope.wrapped_key
    assert marker not in codec.encode(auth)


def test_limit_below_price_fails_before_sending():
    actors = build_actors(limit=40, sanity=True)
    quote = quote_for(actors, 5)  # price 50
    with pytest.raises(PolicyError):
        actors.sr.build_authorization(quote, now=1)


def test_expired_quote_rejected_by_requester():
    actors = build_actors(quote_ttl=10)
    quote = quote_for(actors, 5, now=0)
    with pytest.raises(PolicyError):
        actors.sr.build_authorization(quote, now=10)


def test_forged_quote_signature_rejected():
    actors = build_actors()
    quote = quote_for(actors, 5)
    doctored = dataclasses.replace(quote, price=1)
    with pytest.raises(TrustError):
        actors.sr.build_authorization(doctored, now=1)


def test_dual_signature_binds_order_and_payment():
    actors = build_actors()
    quote = quote_for(actors, 5)
    auth = actors.sr.build_authorization(quote, now=1)
    # the payment half as the trust manager will see it
    payment = open_envelope(actors.tm.identity, auth.payment_envelope)
    assert auth.dual.oi_digest == hash_bytes(codec.encode(auth.order_info))
    assert auth.dual.pi_digest == hash_bytes(payment)


# --- provider-side authorization handling -------------------------------------


def test_valid_authorization_becomes_hold_instruction_at_quoted_price():
    actors = build_actors()
    quote = quote_for(actors, 5)
    auth = actors.sr.build_authorization(quote, now=1)
    relay = actors.sp.handle_authorization(auth, "SR", now=1)
    assert isinstance(relay, AuthorizeAndHold)
    assert relay.charge_amount == 50
    # MAC'd under the provider-to-trust-manager key, which no one else's is
    assert actors.tm._authentic(relay, "SP")
    assert not actors.tm._authentic(relay, "SR")
    assert relay.payment_envelope == auth.payment_envelope


def test_relay_encoding_carries_no_usage_strings():
    actors = build_actors()
    quote = quote_for(actors, 5)
    auth = actors.sr.build_authorization(quote, now=1)
    relay = actors.sp.handle_authorization(auth, "SR", now=1)
    raw = codec.encode(relay)
    for marker in (b"mobile-storage", b"store-objects", b"megabyte"):
        assert marker not in raw


def test_tampered_order_info_denied_as_bad_signature():
    actors = build_actors()
    quote = quote_for(actors, 5)
    auth = actors.sr.build_authorization(quote, now=1)
    doctored_order = dataclasses.replace(
        auth.order_info, usage=dataclasses.replace(auth.order_info.usage, quantity=4)
    )
    doctored = dataclasses.replace(auth, order_info=doctored_order)
    decision = actors.sp.handle_authorization(doctored, "SR", now=1)
    assert isinstance(decision, AuthDecision)
    assert not decision.approved
    assert actors.sp.denials[-1] == DenialReason.BAD_SIGNATURE


def test_dual_signature_mutation_denied_as_bad_signature():
    actors = build_actors()
    quote = quote_for(actors, 5)
    auth = actors.sr.build_authorization(quote, now=1)
    wrong_pi = hash_bytes(b"some other payment half")
    doctored = dataclasses.replace(auth, dual=dataclasses.replace(auth.dual, pi_digest=wrong_pi))
    decision = actors.sp.handle_authorization(doctored, "SR", now=1)
    assert isinstance(decision, AuthDecision)
    assert not decision.approved
    assert actors.sp.denials[-1] == DenialReason.BAD_SIGNATURE


def test_unknown_quote_denied_as_expired():
    actors = build_actors()
    quote = quote_for(actors, 5)
    auth = actors.sr.build_authorization(quote, now=1)
    # provider has dropped the quote by the time the order arrives
    del actors.sp.issued_quotes[quote.quote_id]
    decision = actors.sp.handle_authorization(auth, "SR", now=1)
    assert isinstance(decision, AuthDecision) and not decision.approved
    assert actors.sp.denials[-1] == DenialReason.EXPIRED_QUOTE


def test_expired_quote_denied_at_provider():
    actors = build_actors(quote_ttl=10)
    quote = quote_for(actors, 5, now=0)
    auth = actors.sr.build_authorization(quote, now=5)
    decision = actors.sp.handle_authorization(auth, "SR", now=11)
    assert isinstance(decision, AuthDecision) and not decision.approved
    assert actors.sp.denials[-1] == DenialReason.EXPIRED_QUOTE


def test_duplicate_authorization_is_ignored_not_answered():
    actors = build_actors()
    quote = quote_for(actors, 5)
    auth = actors.sr.build_authorization(quote, now=1)
    first = actors.sp.handle_authorization(auth, "SR", now=1)
    assert isinstance(first, AuthorizeAndHold)
    assert actors.sp.handle_authorization(auth, "SR", now=1) is None


# --- trust manager authorization ----------------------------------------------


def test_limit_60_charge_50_credit_100_approves_and_holds_50():
    actors = build_actors(limit=60, credit=100)
    _, relay, outcome = approved_outcome(actors, quantity=5)
    assert outcome.approved
    assert outcome.token is not None
    assert outcome.token.charge_amount == 50
    digest = hash_bytes(actors.scenario.account_ref.encode())
    assert sum(actors.ap.ledger.active_holds(digest).values()) == 50
    assert actors.ap.ledger.available(digest) == 50


def test_limit_60_charge_70_denied_over_limit_with_no_hold():
    actors = build_actors(limit=60, credit=500, sanity=False)
    _, relay, outcome = approved_outcome(actors, quantity=7)
    assert not outcome.approved
    assert outcome.reason == DenialReason.OVER_LIMIT
    assert actors.tm.denials == [DenialReason.OVER_LIMIT]
    assert actors.ap.ledger.holds_created() == 0


def test_limit_200_charge_150_credit_100_denied_insufficient():
    actors = build_actors(limit=200, credit=100)
    _, relay, outcome = approved_outcome(actors, quantity=15)
    assert not outcome.approved
    assert outcome.reason == DenialReason.INSUFFICIENT_CREDIT
    assert actors.ap.ledger.holds_created() == 0


def test_same_hold_instruction_twice_is_replay():
    actors = build_actors()
    _, relay, first = approved_outcome(actors, quantity=5)
    assert first.approved
    second = actors.tm.handle_authorize(relay, "SP", actors.net("TM"))
    assert not second.approved
    assert second.reason == DenialReason.REPLAY
    digest = hash_bytes(actors.scenario.account_ref.encode())
    assert actors.ap.ledger.holds_created() == 1
    assert sum(actors.ap.ledger.active_holds(digest).values()) == 50


def test_relay_presented_by_anyone_but_its_signer_is_refused():
    # the provider's identity on a relay is its signature's signer, nothing else
    actors = build_actors()
    quote = quote_for(actors, 5)
    auth = actors.sr.build_authorization(quote, now=0)
    relay = actors.sp.handle_authorization(auth, "SR", now=0)
    outcome = actors.tm.handle_authorize(relay, "SR", actors.net("TM"))
    assert outcome.reason == DenialReason.BAD_SIGNATURE
    assert actors.ap.ledger.holds_created() == 0
    assert actors.tm.minted_tokens == {}


def test_denied_attempt_still_burns_the_payment_nonce():
    actors = build_actors(limit=200, credit=100)
    _, relay, outcome = approved_outcome(actors, quantity=15)
    assert outcome.reason == DenialReason.INSUFFICIENT_CREDIT
    again = actors.tm.handle_authorize(relay, "SP", actors.net("TM"))
    assert again.reason == DenialReason.REPLAY


def test_unknown_account_provider_is_denied():
    actors = build_actors()
    quote = quote_for(actors, 5)
    actors.sr.config = dataclasses.replace(actors.sr.config, account_provider_id="BANK9")
    auth = actors.sr.build_authorization(quote, now=1)
    relay = actors.sp.handle_authorization(auth, "SR", now=1)
    outcome = actors.tm.handle_authorize(relay, "SP", actors.net("TM"))
    assert not outcome.approved
    assert outcome.reason == DenialReason.UNKNOWN_ACCOUNT


def test_unreachable_account_provider_is_denied():
    actors = build_actors()
    quote = quote_for(actors, 5)
    auth = actors.sr.build_authorization(quote, now=1)
    relay = actors.sp.handle_authorization(auth, "SR", now=1)
    outcome = actors.tm.handle_authorize(relay, "SP", net=None)
    assert not outcome.approved
    assert outcome.reason == DenialReason.UNKNOWN_ACCOUNT


def test_minted_token_verifies_and_names_the_provider():
    actors = build_actors()
    _, _, outcome = approved_outcome(actors, quantity=5)
    token = outcome.token
    tm_pub = actors.tm.identity.public_key
    from gset import verify

    assert token.provider_id == "SP"
    assert token.account_provider_id == "AP"
    assert verify(tm_pub, codec.signing_payload(token), token.tm_signature)


def test_tm_state_is_clean_after_denial():
    actors = build_actors(limit=60, sanity=False)
    _, _, outcome = approved_outcome(actors, quantity=7)
    assert not outcome.approved
    assert actors.tm.minted_tokens == {}


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
        auth = actors.sr.build_authorization(quote_for(actors, 5), now=0)
        [(_, raw)] = actors.sp.deliver("SR", codec.encode(auth), 0, actors.net("SP"))
        assert codec.decode(raw, AuthDecision).approved
        nonces.append(auth.order_info.order_nonce)
    return nonces


def honest_upload(actors, order_nonce: bytes) -> ObjectUpload:
    return build_signed(
        ObjectUpload, actors.sr.identity, order_nonce=order_nonce, objects=actors.scenario.objects
    )


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
    upload = honest_upload(actors, nonce)
    public = actors.sr.identity.public_key
    digests = object_digests(actors.scenario.objects)
    assert verify_signed(upload, public)
    assert verify_signed(upload, public, digests)
    from gset import verify

    assert verify(public, upload_signing_payload(nonce, digests), upload.requester_signature)
    [(dest, raw)] = actors.sp.deliver("SR", codec.encode(upload), 1, None)
    assert dest == "SR"
    assert len(actors.sp.stored_objects) == len(actors.scenario.objects)


@pytest.mark.parametrize("forgery", sorted(UPLOAD_FORGERIES))
def test_provider_refuses_an_upload_its_signature_does_not_bind(forgery):
    actors = build_actors()
    nonce, other = approved_order_nonces(actors, 2)
    forged = UPLOAD_FORGERIES[forgery](actors, honest_upload(actors, nonce), other)
    assert not verify_signed(forged, actors.sr.identity.public_key)
    assert actors.sp.deliver("SR", codec.encode(forged), 1, None) == []
    assert actors.sp.notes[-1] == "upload signature does not verify"
    assert actors.sp.stored_objects == {}
    # the refusal was the signature's: the honest upload is then granted
    assert actors.sp.deliver("SR", codec.encode(honest_upload(actors, nonce)), 2, None)
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
    actors = build_actors(limit=60, sanity=False)
    decision, upload_reply = decide_then_upload(actors, quantity=7)
    assert actors.tm.denials == [DenialReason.OVER_LIMIT]
    assert not decision.approved
    assert upload_reply == []
    assert actors.sp.stored_objects == {}


def test_forged_token_rejected_with_no_storage():
    actors = build_actors()
    impostor = generate_keypair("TM", 999)
    real_tm = actors.tm

    def forging_tm(sender, raw, now, net):
        # the real verdict, its token re-signed by a key that is not the TM's
        [(dest, out)] = real_tm.deliver(sender, raw, now, net)
        token = codec.decode(out, AuthOutcome).token
        forged = dataclasses.replace(
            token, tm_signature=sign(impostor, codec.signing_payload(token))
        )
        return [(dest, codec.encode(AuthOutcome(forged, None)))]

    actors.registry["TM"] = SimpleNamespace(subject_id="TM", deliver=forging_tm)
    decision, upload_reply = decide_then_upload(actors)
    assert not decision.approved
    assert upload_reply == []
    assert actors.sp.stored_objects == {}


def test_lost_outcome_cannot_approve_another_order_in_its_place():
    # two orders in flight; the trust manager's answer to the first is lost
    actors = build_actors()
    auths = [
        actors.sr.build_authorization(quote_for(actors, 5), now=0) for _ in range(2)
    ]
    run_scenario(
        actors.registry,
        [("SR", "SP", codec.encode(auth)) for auth in auths],
        adversary=Adversary(mode=AdversaryMode.DROP, target="AuthOutcome", max_hits=1),
    )
    assert set(actors.sp.granted.values()) == {auths[1].order_info.order_nonce}
    assert actors.ap.ledger.settle_count == 1


def test_ticket_redeems_to_matching_object_once():
    actors = build_actors()
    grant = granted(actors)
    ticket = grant.tickets[0]
    out = actors.sp.deliver("SR", codec.encode(actors.sr.redeem_request(ticket)), 2, None)
    response = codec.decode(out[0][1], TicketRedeemResponse)
    assert response.ok
    assert hash_bytes(response.payload) == ticket.object_digest
    # the same ticket a second time is refused
    from gset import TicketRedeemRequest

    again = actors.sp.deliver(
        "SR", codec.encode(TicketRedeemRequest(ticket.ticket_id)), 3, None
    )
    response2 = codec.decode(again[0][1], TicketRedeemResponse)
    assert not response2.ok


def test_fabricated_ticket_is_refused():
    actors = build_actors()
    granted(actors)
    from gset import TicketRedeemRequest

    out = actors.sp.deliver(
        "SR", codec.encode(TicketRedeemRequest(b"\x42" * 16)), 2, None
    )
    response = codec.decode(out[0][1], TicketRedeemResponse)
    assert not response.ok


def test_redeemed_object_failing_its_ticket_digest_is_ignored():
    actors = build_actors()
    decision, [(_, grant_raw)] = decide_then_upload(actors)
    # the requester checks the grant against the digests it signed its upload over
    [(_, upload_raw)] = actors.sr.deliver("SP", codec.encode(decision), 1, None)
    assert codec.decode(upload_raw, ObjectUpload).objects == actors.scenario.objects
    requests = actors.sr.deliver("SP", grant_raw, 2, None)
    responses = [actors.sp.deliver("SR", raw, 3, None)[0][1] for _, raw in requests]
    genuine = codec.decode(responses[0], TicketRedeemResponse)
    flipped = genuine.payload[:-1] + bytes([genuine.payload[-1] ^ 1])
    wrong = dataclasses.replace(genuine, payload=flipped)
    assert actors.sr.deliver("SP", codec.encode(wrong), 4, None) == []
    # ignored, not counted: the ticket is still outstanding
    assert genuine.ticket_id in actors.sr.unredeemed
    assert actors.sr.retrieved == {}
    assert actors.sr.redeem_failures == 0
    # the genuine responses, delivered afterwards, complete the order
    outs = [actors.sr.deliver("SP", raw, 5, None) for raw in responses]
    assert outs[:-1] == [[]] * (len(responses) - 1)
    [(dest, raw)] = outs[-1]
    assert dest == "SP"
    assert codec.decode(raw, ServiceComplete).grant_id == actors.sr.grant.grant_id
    assert actors.sr.completed
    assert actors.sr.retrieved[genuine.ticket_id] == genuine.payload


# --- capture ---------------------------------------------------------------------


def test_capture_settles_the_held_amount():
    actors = build_actors()
    _, _, outcome = approved_outcome(actors, quantity=5)
    response = actors.sp.collect_credits(outcome.token, actors.net("SP"))
    assert response.settled
    digest = hash_bytes(actors.scenario.account_ref.encode())
    assert actors.ap.ledger.settled_total(digest) == 50
    assert actors.ap.ledger.active_holds(digest) == {}
    assert actors.sp.receivable_total == 50


def test_capturing_the_same_token_twice_fails_with_replay():
    actors = build_actors()
    _, _, outcome = approved_outcome(actors, quantity=5)
    assert actors.sp.collect_credits(outcome.token, actors.net("SP")).settled
    second = actors.sp.collect_credits(outcome.token, actors.net("SP"))
    assert not second.settled
    assert second.reason == DenialReason.REPLAY
    digest = hash_bytes(actors.scenario.account_ref.encode())
    assert actors.ap.ledger.settled_total(digest) == 50
    assert actors.ap.ledger.settle_count == 1


def test_token_with_tampered_charge_fails_signature_check():
    actors = build_actors()
    _, _, outcome = approved_outcome(actors, quantity=5)
    doctored = dataclasses.replace(outcome.token, charge_amount=1)
    response = actors.sp.collect_credits(doctored, actors.net("SP"))
    assert not response.settled
    assert response.reason == DenialReason.BAD_SIGNATURE
    assert actors.ap.ledger.settle_count == 0


def test_token_signed_with_the_tm_key_but_minted_elsewhere_is_refused():
    actors = build_actors()
    quote = quote_for(actors, 5)
    auth = actors.sr.build_authorization(quote, now=0)
    relay = actors.sp.handle_authorization(auth, "SR", now=0)
    # a second trust manager with the same keys mints a token this one never did
    twin = TrustManager(actors.tm.identity, actors.tm.directory, actors.tm.config, Random("twin/TM"))
    outcome = twin.handle_authorize(relay, "SP", actors.net("TM"))
    assert outcome.approved
    response = actors.sp.collect_credits(outcome.token, actors.net("SP"))
    assert not response.settled
    assert response.reason == DenialReason.BAD_SIGNATURE
    assert actors.ap.ledger.settle_count == 0


def test_capture_request_must_come_from_the_named_provider():
    actors = build_actors()
    _, _, outcome = approved_outcome(actors, quantity=5)
    request = CaptureRequest(token=outcome.token, provider_mac=b"\x01" * 32)
    response = actors.tm.handle_capture(request, "SP", actors.net("TM"))
    assert not response.settled
    assert response.reason == DenialReason.BAD_SIGNATURE
    # the requester's own MAC is genuine, but the token names the provider
    to_tm = mac_keys(actors.sr.identity, "TM", actors.tm.identity.public_key)[0]
    presented = build_maced(CaptureRequest, to_tm, token=outcome.token)
    response = actors.tm.handle_capture(presented, "SR", actors.net("TM"))
    assert response.reason == DenialReason.BAD_SIGNATURE
    assert actors.ap.ledger.settle_count == 0


# --- defensive delivery ------------------------------------------------------------


def test_garbage_bytes_are_dropped_with_a_note():
    actors = build_actors()
    assert actors.sp.deliver("SR", b"\x00\x01\x02", 0, None) == []
    assert any("undecodable" in note or "decode" in note for note in actors.sp.notes)


def _stray_capture_response(actors):
    return actors.tm._maced_for("SP", CaptureResponse, reason=None)


def _stray_hold_response(actors):
    return actors.ap._maced_for(
        "TM", HoldResponse, hold_nonce=bytes(16), hold_ref=bytes(16), reason=None
    )


def _stray_settle_response(actors):
    return actors.ap._maced_for(
        "TM", SettleResponse, settle_nonce=bytes(16), amount=50, reason=None
    )


@pytest.mark.parametrize(
    "receiver, sender, make",
    [
        # a quote delivered to the account provider means nothing to it
        ("ap", "SP", lambda actors: quote_for(actors, 5)),
        # responses to synchronous calls are never queued; a queued one is
        # a duplicate or an injection
        ("sp", "TM", _stray_capture_response),
        # a genuine outcome arriving outside the call that asked for it
        ("sp", "TM", lambda actors: approved_outcome(actors)[2]),
        ("tm", "AP", _stray_hold_response),
        ("tm", "AP", _stray_settle_response),
    ],
    ids=["PriceQuote-to-AP", "CaptureResponse-to-SP", "AuthOutcome-to-SP",
         "HoldResponse-to-TM", "SettleResponse-to-TM"],
)
def test_unexpected_message_type_is_ignored(receiver, sender, make):
    actors = build_actors()
    actor = getattr(actors, receiver)
    assert actor.deliver(sender, codec.encode(make(actors)), 0, None) == []
    assert actor.notes[-1].startswith("ignored unexpected")


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
    granted(actors)
    [token] = actors.sp.approved_tokens.values()
    actors.sp.collect_credits(token, actors.net("SP"))
    blob = actors.sp.state_bytes()
    assert actors.scenario.account_ref.encode() not in blob


def test_trust_manager_state_never_contains_usage_markers():
    actors = build_actors()
    approved_outcome(actors, quantity=5)
    blob = actors.tm.state_bytes()
    for marker in (b"mobile-storage", b"store-objects", b"megabyte"):
        assert marker not in blob


# --- pairwise MACs on the server-to-server legs ----------------------------------

MACED_TAGS = (
    "AuthorizeAndHold", "HoldRequest", "HoldResponse", "CaptureRequest",
    "SettleRequest", "SettleResponse", "CaptureResponse",
)


@pytest.mark.parametrize("tag", MACED_TAGS)
def test_no_single_bit_flip_of_a_maced_leg_is_accepted(tag):
    # every bit of one honest encoding, flipped in turn: the receiver either
    # cannot decode the result or finds its MAC wrong, never accepts it
    report = run_storage_scenario(ScenarioConfig())
    record = next(r for r in report.transcript.records if peek_type(r.payload) == tag)
    receiver = report.scenario.endpoints[record.to_id]
    honest = codec.decode(record.payload)
    assert receiver._authentic(honest, record.from_id)
    undecodable = refused = 0
    for bit in range(len(record.payload) * 8):
        try:
            msg = codec.decode(flip_bit(record.payload, bit))
        except codec.CodecError:
            undecodable += 1
            continue
        assert type(msg) is type(honest), bit
        assert not receiver._authentic(msg, record.from_id), bit
        refused += 1
    assert undecodable and refused
    assert undecodable + refused == len(record.payload) * 8


def test_a_malformed_peer_key_is_a_refusal_not_an_exception():
    actors = build_actors()
    quote = quote_for(actors, 5)
    relay = actors.sp.handle_authorization(actors.sr.build_authorization(quote, 0), "SR", 0)
    for bad in (b"", b"\x00" * 63, b"\x00" * 64):  # short, and a low-order X25519 point
        directory = {**actors.tm.directory, "SP": bad}
        tm = TrustManager(actors.tm.identity, directory, actors.tm.config, Random(0))
        outcome = tm.handle_authorize(relay, "SP", actors.net("TM"))
        assert outcome.reason == DenialReason.BAD_SIGNATURE
        assert tm.pair_keys == {}


def test_an_actor_without_a_peer_key_sends_that_peer_nothing():
    actors = build_actors()
    _, _, outcome = approved_outcome(actors, quantity=5)
    del actors.tm.directory["SP"]
    actors.tm.pair_keys.clear()
    request = actors.sp._maced_for("TM", CaptureRequest, token=outcome.token)
    assert actors.tm.deliver("SP", codec.encode(request), 0, actors.net("TM")) == []
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
