"""Random well-formed message factories shared by the test modules.

One factory per registered type, wire messages and recorded state alike.
Every factory takes a ``random.Random`` and returns an instance that passes
the type's own validation, so the codec tests can hammer encode/decode
without tripping over semantic rules.
"""
from __future__ import annotations

from random import Random

from gset import (
    AuthDecision,
    AuthOutcome,
    AuthorizationRequest,
    AuthorizeAndHold,
    CaptureRequest,
    CaptureResponse,
    CaptureToken,
    DenialReason,
    Digest,
    Event,
    EventKind,
    HoldRequest,
    HoldResponse,
    LedgerAccountState,
    LedgerHoldState,
    LedgerSnapshot,
    ObjectUpload,
    OrderInfo,
    PaymentInfo,
    PriceQuote,
    PriceRequest,
    QuoteDenial,
    SealedEnvelope,
    ServiceComplete,
    ServiceGrant,
    SettleRequest,
    SettleResponse,
    Signature,
    Ticket,
    TicketRedeemRequest,
    TicketRedeemResponse,
    TranscriptMeta,
    TranscriptRecord,
    UploadManifest,
    UsageDescriptor,
    WireMessage,
    codec,
)
from gset.actors import (
    AccountProvider,
    HoldPhase,
    HoldRecord,
    IssuedQuote,
    ProviderOrder,
    ProviderPhase,
    RequesterOrder,
    RequesterPhase,
    ServiceProvider,
    ServiceRequester,
    TrustManager,
)
from gset.ledger import Account, HoldFate, HoldName, Ledger

_LABEL_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_."
U64_MAX = 2**64 - 1


def label(rng: Random, prefix: str = "") -> str:
    n = rng.randint(1, 12)
    body = "".join(rng.choice(_LABEL_CHARS) for _ in range(n))
    # a sprinkling of non-ASCII keeps the utf-8 path honest
    if rng.random() < 0.05:
        body += chr(rng.randint(0x00A1, 0x024F))
    return prefix + body


def nonce(rng: Random) -> bytes:
    return rng.randbytes(16)


def blob(rng: Random, lo: int = 1, hi: int = 64) -> bytes:
    return rng.randbytes(rng.randint(lo, hi))


def u64(rng: Random, minimum: int = 0) -> int:
    # skew small so arithmetic-looking values appear, but hit the top octets too
    if rng.random() < 0.7:
        return rng.randint(minimum, 100_000)
    return rng.randint(minimum, U64_MAX)


def gen_digest(rng: Random) -> Digest:
    return Digest(rng.randbytes(32))


def gen_signature(rng: Random) -> Signature:
    return Signature(blob(rng, 1, 80), label(rng))


def gen_mac(rng: Random) -> bytes:
    return rng.randbytes(32)


def gen_envelope(rng: Random) -> SealedEnvelope:
    return SealedEnvelope(rng.randbytes(32), blob(rng, 1, 120))


def gen_usage(rng: Random) -> UsageDescriptor:
    return UsageDescriptor(label(rng), label(rng), u64(rng, 1), label(rng))


def gen_order_info(rng: Random) -> OrderInfo:
    return OrderInfo(nonce(rng), gen_usage(rng), nonce(rng))


def gen_payment_info(rng: Random) -> PaymentInfo:
    return PaymentInfo(label(rng), label(rng, "ACCT-"), u64(rng, 1), nonce(rng))


def gen_ticket(rng: Random) -> Ticket:
    return Ticket(nonce(rng), gen_digest(rng))


def gen_capture_token(rng: Random) -> CaptureToken:
    return CaptureToken(label(rng), u64(rng, 1), gen_digest(rng), gen_signature(rng))


def gen_price_request(rng: Random) -> PriceRequest:
    return PriceRequest(gen_usage(rng), nonce(rng))


def gen_price_quote(rng: Random) -> PriceQuote:
    return PriceQuote(
        nonce(rng), nonce(rng), gen_usage(rng), u64(rng), u64(rng), gen_signature(rng)
    )


def gen_quote_denial(rng: Random) -> QuoteDenial:
    return QuoteDenial(nonce(rng), label(rng))


def gen_authorization_request(rng: Random) -> AuthorizationRequest:
    order = codec.encode(gen_order_info(rng))
    return AuthorizationRequest(order, gen_envelope(rng), gen_digest(rng), gen_signature(rng))


def gen_authorize_and_hold(rng: Random) -> AuthorizeAndHold:
    return AuthorizeAndHold(
        gen_envelope(rng), gen_digest(rng), gen_signature(rng), u64(rng, 1), gen_mac(rng),
    )


def gen_denial_reason(rng: Random) -> DenialReason:
    return rng.choice(list(DenialReason))


def gen_auth_outcome(rng: Random) -> AuthOutcome:
    if rng.random() < 0.5:
        return AuthOutcome(gen_digest(rng), gen_capture_token(rng), None)
    return AuthOutcome(gen_digest(rng), None, gen_denial_reason(rng))


def gen_auth_decision(rng: Random) -> AuthDecision:
    return AuthDecision(gen_digest(rng), rng.random() < 0.5, gen_signature(rng))


def gen_object_upload(rng: Random) -> ObjectUpload:
    objects = tuple(blob(rng, 1, 96) for _ in range(rng.randint(1, 3)))
    return ObjectUpload(gen_digest(rng), objects, gen_signature(rng))


def gen_upload_manifest(rng: Random) -> UploadManifest:
    return UploadManifest(gen_digest(rng), tuple(gen_digest(rng) for _ in range(rng.randint(1, 3))))


def gen_service_grant(rng: Random) -> ServiceGrant:
    tickets = tuple(gen_ticket(rng) for _ in range(rng.randint(1, 3)))
    return ServiceGrant(gen_digest(rng), tickets, gen_signature(rng))


def gen_redeem_request(rng: Random) -> TicketRedeemRequest:
    return TicketRedeemRequest(nonce(rng))


def gen_redeem_response(rng: Random) -> TicketRedeemResponse:
    if rng.random() < 0.5:
        return TicketRedeemResponse(nonce(rng), blob(rng, 1, 96))
    return TicketRedeemResponse(nonce(rng), b"")


def gen_service_complete(rng: Random) -> ServiceComplete:
    return ServiceComplete(gen_digest(rng), gen_signature(rng))


def gen_capture_request(rng: Random) -> CaptureRequest:
    return CaptureRequest(gen_digest(rng), gen_mac(rng))


def gen_capture_response(rng: Random) -> CaptureResponse:
    if rng.random() < 0.5:
        return CaptureResponse(gen_digest(rng), None, gen_mac(rng))
    return CaptureResponse(gen_digest(rng), gen_denial_reason(rng), gen_mac(rng))


def gen_hold_request(rng: Random) -> HoldRequest:
    return HoldRequest(nonce(rng), gen_digest(rng), u64(rng, 1), gen_mac(rng))


def gen_hold_response(rng: Random) -> HoldResponse:
    reason = None if rng.random() < 0.5 else gen_denial_reason(rng)
    return HoldResponse(nonce(rng), reason, gen_mac(rng))


def gen_settle_request(rng: Random) -> SettleRequest:
    return SettleRequest(nonce(rng), gen_mac(rng))


def gen_settle_response(rng: Random) -> SettleResponse:
    if rng.random() < 0.5:
        return SettleResponse(nonce(rng), u64(rng, 1), None, gen_mac(rng))
    return SettleResponse(nonce(rng), 0, gen_denial_reason(rng), gen_mac(rng))


def gen_ledger_hold_state(rng: Random) -> LedgerHoldState:
    return LedgerHoldState(nonce(rng), u64(rng))


def gen_ledger_account_state(rng: Random) -> LedgerAccountState:
    holds = tuple(gen_ledger_hold_state(rng) for _ in range(rng.randint(0, 3)))
    return LedgerAccountState(gen_digest(rng), u64(rng), u64(rng), holds)


def gen_ledger_snapshot(rng: Random) -> LedgerSnapshot:
    accounts = tuple(gen_ledger_account_state(rng) for _ in range(rng.randint(0, 3)))
    return LedgerSnapshot(accounts)


def gen_wire_message(rng: Random) -> WireMessage:
    return WireMessage(label(rng), label(rng), blob(rng, 1, 120))


def gen_transcript_record(rng: Random) -> TranscriptRecord:
    action = rng.choice(("", "observed", "tampered", "replayed", "dropped"))
    error = label(rng) if rng.random() < 0.2 else ""
    return TranscriptRecord(u64(rng), label(rng), label(rng), blob(rng, 1, 120), action, error)


def gen_transcript_meta(rng: Random) -> TranscriptMeta:
    initial = tuple(gen_wire_message(rng) for _ in range(rng.randint(0, 2)))
    return TranscriptMeta(u64(rng), u64(rng, 1), label(rng), initial)


def gen_event(rng: Random) -> Event:
    order = gen_digest(rng) if rng.random() < 0.5 else None
    reason = None if rng.random() < 0.5 else gen_denial_reason(rng)
    return Event(label(rng), rng.choice(list(EventKind)), order, reason)


def some(rng: Random, gen) -> list:
    """Zero to two values of ``gen``: a small collection."""
    return [gen(rng) for _ in range(rng.randint(0, 2))]


def some_map(rng: Random, key, value) -> dict:
    """Zero to two entries, keys of ``key`` to values of ``value``."""
    return {key(rng): value(rng) for _ in range(rng.randint(0, 2))}


def gen_issued_quote(rng: Random) -> IssuedQuote:
    return IssuedQuote(gen_usage(rng), u64(rng), u64(rng))


def gen_requester_order(rng: Random) -> RequesterOrder:
    tickets = {ticket.ticket_id: ticket for ticket in some(rng, gen_ticket)}
    retrieved = {ticket_id: blob(rng) for ticket_id in tickets if rng.random() < 0.5}
    return RequesterOrder(
        rng.choice(list(RequesterPhase)), tuple(some(rng, gen_digest)), tickets, retrieved,
        set(some(rng, nonce)),
    )


def gen_provider_order(rng: Random) -> ProviderOrder:
    return ProviderOrder(label(rng), u64(rng), rng.choice(list(ProviderPhase)))


def gen_hold_record(rng: Random) -> HoldRecord:
    phase = rng.choice(list(HoldPhase))
    return HoldRecord(label(rng), label(rng), u64(rng), gen_digest(rng), phase)


def gen_hold_name(rng: Random) -> HoldName:
    return HoldName(gen_digest(rng).bytes, rng.choice(list(HoldFate)))


def gen_account(rng: Random) -> Account:
    return Account(u64(rng), u64(rng), some_map(rng, nonce, u64))


def gen_ledger(rng: Random) -> Ledger:
    accounts = some_map(rng, lambda rng: gen_digest(rng).bytes, gen_account)
    # each open hold's name is open on its account; the other names are closed
    names = {ref: HoldName(key, HoldFate.OPEN)
             for key, account in accounts.items() for ref in account.holds}
    for ref, name in some_map(rng, nonce, gen_hold_name).items():
        if name.fate != HoldFate.OPEN:
            names.setdefault(ref, name)
    return Ledger(accounts, names)


def gen_requester_state(rng: Random):
    return ServiceRequester._State(
        some_map(rng, nonce, gen_usage),
        some_map(rng, gen_digest, gen_requester_order),
        some_map(rng, nonce, gen_digest),
    )


def gen_provider_state(rng: Random):
    return ServiceProvider._State(
        some_map(rng, nonce, gen_issued_quote),
        some_map(rng, gen_digest, gen_provider_order),
        some_map(rng, nonce, blob),
    )


def gen_trust_manager_state(rng: Random):
    return TrustManager._State(
        set(some(rng, nonce)),
        some_map(rng, nonce, gen_hold_record),
        some_map(rng, gen_digest, nonce),
    )


def gen_account_provider_state(rng: Random):
    return AccountProvider._State(gen_ledger(rng))


FACTORIES = {
    Signature: gen_signature,
    SealedEnvelope: gen_envelope,
    UsageDescriptor: gen_usage,
    OrderInfo: gen_order_info,
    PaymentInfo: gen_payment_info,
    Ticket: gen_ticket,
    CaptureToken: gen_capture_token,
    PriceRequest: gen_price_request,
    PriceQuote: gen_price_quote,
    QuoteDenial: gen_quote_denial,
    AuthorizationRequest: gen_authorization_request,
    AuthorizeAndHold: gen_authorize_and_hold,
    AuthOutcome: gen_auth_outcome,
    AuthDecision: gen_auth_decision,
    ObjectUpload: gen_object_upload,
    UploadManifest: gen_upload_manifest,
    ServiceGrant: gen_service_grant,
    TicketRedeemRequest: gen_redeem_request,
    TicketRedeemResponse: gen_redeem_response,
    ServiceComplete: gen_service_complete,
    CaptureRequest: gen_capture_request,
    CaptureResponse: gen_capture_response,
    HoldRequest: gen_hold_request,
    HoldResponse: gen_hold_response,
    SettleRequest: gen_settle_request,
    SettleResponse: gen_settle_response,
    LedgerHoldState: gen_ledger_hold_state,
    LedgerAccountState: gen_ledger_account_state,
    LedgerSnapshot: gen_ledger_snapshot,
    WireMessage: gen_wire_message,
    TranscriptRecord: gen_transcript_record,
    TranscriptMeta: gen_transcript_meta,
    Event: gen_event,
    IssuedQuote: gen_issued_quote,
    RequesterOrder: gen_requester_order,
    ProviderOrder: gen_provider_order,
    HoldRecord: gen_hold_record,
    HoldName: gen_hold_name,
    Account: gen_account,
    Ledger: gen_ledger,
    ServiceRequester._State: gen_requester_state,
    ServiceProvider._State: gen_provider_state,
    TrustManager._State: gen_trust_manager_state,
    AccountProvider._State: gen_account_provider_state,
}


def random_message(cls: type, rng: Random):
    return FACTORIES[cls](rng)


def flip_bit(raw: bytes, bit_index: int) -> bytes:
    """Flip one bit, MSB-first within the byte at bit_index // 8."""
    i, r = divmod(bit_index, 8)
    out = bytearray(raw)
    out[i] ^= 0x80 >> r
    return bytes(out)
