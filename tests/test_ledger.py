"""Credit ledger semantics: holds, settlement, release, conservation."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from random import Random

from gset import DenialReason, Ledger, LedgerError, codec, hash_bytes
from gset.codec import DecodeError, ValidationError
from gset.ledger import Account, HoldFate, HoldName

from ledger_model import drive_pair


# Hold names, as the account provider passes the trust manager's hold nonces.
A = bytes(range(16))
B = bytes(range(1, 17))
C = bytes(range(2, 18))


def fresh(limit=100, ref="ACCT-0001"):
    ledger = Ledger()
    digest = ledger.open_account(ref, limit)
    return ledger, digest


# --- open_account -----------------------------------------------------------


def test_open_account_makes_full_limit_available():
    ledger, digest = fresh(limit=100)
    assert ledger.available(digest) == 100
    assert ledger.settled_total(digest) == 0
    assert ledger.active_holds(digest) == {}


def test_account_is_keyed_by_digest_of_ref():
    ledger, digest = fresh(ref="ACCT-0001")
    assert digest == hash_bytes(b"ACCT-0001")


def test_duplicate_open_rejected():
    ledger, _ = fresh(ref="ACCT-0001")
    with pytest.raises(LedgerError):
        ledger.open_account("ACCT-0001", 50)


def test_zero_or_negative_limit_rejected():
    ledger = Ledger()
    with pytest.raises(LedgerError):
        ledger.open_account("ACCT-1", 0)
    with pytest.raises(LedgerError):
        ledger.open_account("ACCT-2", -5)


@pytest.mark.parametrize("value", [0, -5, 2**64, True, "10"])
def test_credit_limit_and_hold_amount_keep_the_positive_rule(value):
    ledger, digest = fresh()
    with pytest.raises(LedgerError) as exc:
        ledger.open_account("ACCT-2", value)
    assert str(exc.value) == "credit_limit must be an unsigned 64-bit integer >= 1"
    with pytest.raises(LedgerError) as exc:
        ledger.place_hold(digest, value, A)
    assert str(exc.value) == "amount must be an unsigned 64-bit integer >= 1"
    # a call no message can make uses no name up
    assert ledger.names == {}
    assert ledger.place_hold(digest, 10, A) is None


# --- place_hold -------------------------------------------------------------


def test_hold_sequence_50_60_50_on_limit_100():
    ledger, digest = fresh(limit=100)
    assert ledger.place_hold(digest, 50, A) is None
    assert ledger.available(digest) == 50
    assert ledger.place_hold(digest, 60, B) == DenialReason.INSUFFICIENT_CREDIT
    assert ledger.place_hold(digest, 50, C) is None
    assert ledger.active_holds(digest) == {A: 50, C: 50}
    assert ledger.available(digest) == 0


def test_hold_of_exactly_remaining_available_accepted():
    ledger, digest = fresh(limit=100)
    ledger.place_hold(digest, 30, A)
    assert ledger.place_hold(digest, 70, B) is None
    assert ledger.active_holds(digest)[B] == 70
    assert ledger.available(digest) == 0


def test_hold_on_unknown_account_rejected():
    ledger, _ = fresh()
    elsewhere = hash_bytes(b"ACCT-9999")
    assert ledger.place_hold(elsewhere, 10, A) == DenialReason.UNKNOWN_ACCOUNT
    assert ledger.names == {A: HoldName(elsewhere.bytes, HoldFate.REFUSED)}


def test_hold_amount_must_be_positive():
    ledger, digest = fresh()
    with pytest.raises(LedgerError):
        ledger.place_hold(digest, 0, A)
    with pytest.raises(LedgerError):
        ledger.place_hold(digest, -1, B)


def test_hold_is_kept_under_its_name_on_its_account():
    ledger, digest = fresh()
    other = ledger.open_account("ACCT-0002", 100)
    ledger.place_hold(digest, 10, A)
    assert ledger.active_holds(digest) == {A: 10}
    assert ledger.active_holds(other) == {}
    assert ledger.names == {A: HoldName(digest.bytes, HoldFate.OPEN)}


def test_hold_name_must_be_non_empty_bytes():
    ledger, digest = fresh()
    for name in (b"", "hold", None):
        with pytest.raises(LedgerError):
            ledger.place_hold(digest, 10, name)
    assert ledger.holds_created() == 0


@pytest.mark.parametrize("close", ["open", "settled", "released"])
def test_a_hold_name_is_used_once(close):
    ledger, digest = fresh(limit=100)
    other = ledger.open_account("ACCT-0002", 100)
    ledger.place_hold(digest, 10, A)
    if close == "settled":
        ledger.settle_hold(A)
    elif close == "released":
        ledger.release_hold(A)
    before = ledger.snapshot()
    names = dict(ledger.names)
    # refused on any account, and the refusal changes nothing
    for account in (digest, other):
        assert ledger.place_hold(account, 10, A) == DenialReason.REPLAY
    assert ledger.snapshot() == before
    assert ledger.names == names
    assert ledger.holds_created() == 1


@pytest.mark.parametrize("refusal", ["over the credit", "unknown account"])
def test_a_refused_hold_uses_its_name_up(refusal):
    # a hold refused under a name leaves that name used: asked again once
    # the refusal no longer applies, it is refused as a repeat
    ledger, digest = fresh(limit=100)
    first, reason = {
        "over the credit": ((digest, 101), DenialReason.INSUFFICIENT_CREDIT),
        "unknown account": ((hash_bytes(b"ACCT-9999"), 10), DenialReason.UNKNOWN_ACCOUNT),
    }[refusal]
    assert ledger.place_hold(*first, A) == reason
    assert ledger.place_hold(digest, 10, A) == DenialReason.REPLAY
    assert ledger.names[A].fate == HoldFate.REFUSED
    assert ledger.holds_created() == 0 and ledger.available(digest) == 100


# --- settle_hold ------------------------------------------------------------


def test_settle_moves_amount_from_hold_to_settled():
    ledger, digest = fresh(limit=100)
    ledger.place_hold(digest, 50, A)
    assert ledger.available(digest) == 50
    assert ledger.settle_hold(A) == (50, None)
    assert ledger.settled_total(digest) == 50
    # the amount stays committed: available is unchanged by settlement
    assert ledger.available(digest) == 50
    assert ledger.active_holds(digest) == {}
    assert ledger.names[A] == HoldName(digest.bytes, HoldFate.SETTLED)
    assert ledger.settle_count == 1


def test_settle_twice_is_a_replay():
    ledger, digest = fresh()
    ledger.place_hold(digest, 50, A)
    ledger.settle_hold(A)
    assert ledger.settle_hold(A) == (0, DenialReason.REPLAY)
    assert ledger.settled_total(digest) == 50 and ledger.settle_count == 1


def test_settle_unknown_ref_is_refused():
    ledger, _ = fresh()
    assert ledger.settle_hold(b"\x00" * 16) == (0, DenialReason.UNKNOWN_ACCOUNT)
    assert ledger.names == {}


# --- release_hold -----------------------------------------------------------


def test_release_restores_available_credit():
    ledger, digest = fresh(limit=100)
    ledger.place_hold(digest, 50, A)
    assert ledger.release_hold(A) == (50, None)
    assert ledger.available(digest) == 100
    assert ledger.settled_total(digest) == 0
    assert ledger.names[A] == HoldName(digest.bytes, HoldFate.RELEASED)


def test_release_then_settle_is_a_replay():
    ledger, digest = fresh()
    ledger.place_hold(digest, 50, A)
    ledger.release_hold(A)
    assert ledger.settle_hold(A) == (0, DenialReason.REPLAY)
    assert ledger.settled_total(digest) == 0


def test_release_twice_is_a_replay():
    ledger, digest = fresh()
    ledger.place_hold(digest, 50, A)
    ledger.release_hold(A)
    assert ledger.release_hold(A) == (0, DenialReason.REPLAY)
    assert ledger.available(digest) == 100


def test_release_unknown_ref_is_refused():
    ledger, _ = fresh()
    assert ledger.release_hold(b"\xaa" * 16) == (0, DenialReason.UNKNOWN_ACCOUNT)


# --- serialized state -------------------------------------------------------


def test_snapshot_round_trips_through_codec():
    ledger, digest = fresh(limit=100)
    ledger.place_hold(digest, 20, A)
    ledger.place_hold(digest, 30, B)
    ledger.settle_hold(B)
    snap = ledger.snapshot()
    assert codec.decode(codec.encode(ledger.snapshot())) == snap
    account = snap.accounts[0]
    assert account.credit_limit == 100
    assert account.settled_total == 30
    assert sum(h.amount for h in account.holds) == 20


K = hash_bytes(b"ACCT-0001").bytes

# Ledgers no sequence of the ledger's own operations makes: each account as
# (credit_limit, settled_total, holds), and the hold names.
OPEN, SETTLED = HoldFate.OPEN, HoldFate.SETTLED
UNMADE = {
    "an open name whose hold its account lacks": ({K: (100, 0, {})}, {A: HoldName(K, OPEN)}),
    "a hold with no open name": ({K: (100, 0, {A: 10})}, {}),
    "a credit limit of 0": ({K: (0, 0, {})}, {}),
    "settled and held over the limit": ({K: (100, 80, {A: 30})}, {A: HoldName(K, OPEN)}),
    "a settled name on no account": ({}, {A: HoldName(K, SETTLED)}),
}


@pytest.mark.parametrize("accounts, names", UNMADE.values(), ids=list(UNMADE))
def test_a_ledger_its_operations_could_not_make_is_refused(accounts, names):
    with pytest.raises(ValidationError):
        Ledger({key: Account(*fields) for key, fields in accounts.items()}, names)
    # the same state, reached by editing a ledger after it was built, does not decode
    ledger = Ledger()
    for key, (limit, settled, holds) in accounts.items():
        account = ledger._accounts[key] = Account(1)
        account.credit_limit, account.settled_total, account.holds = limit, settled, holds
    ledger.names = names
    with pytest.raises(DecodeError):
        codec.decode(codec.encode(ledger), Ledger)


def test_a_refused_name_may_name_an_account_the_ledger_does_not_keep():
    ledger = Ledger()
    assert ledger.place_hold(hash_bytes(b"ACCT-0001"), 10, A) == DenialReason.UNKNOWN_ACCOUNT
    assert ledger.names == {A: HoldName(K, HoldFate.REFUSED)}
    assert codec.decode(codec.encode(ledger), Ledger) == ledger


def test_every_ledger_its_operations_make_decodes():
    rng = Random("ledger-decodes")
    ledger = Ledger()
    digests = [ledger.open_account(f"ACCT-{i}", 100) for i in range(3)]
    digests.append(hash_bytes(b"ACCT-unknown"))
    names = [bytes([i]) * 16 for i in range(40)]
    fates = set()
    for _ in range(200):
        ref = rng.choice(names)
        if rng.random() < 0.5:
            ledger.place_hold(rng.choice(digests), rng.randint(1, 60), ref)
        else:
            (ledger.settle_hold if rng.random() < 0.5 else ledger.release_hold)(ref)
        assert codec.decode(codec.encode(ledger), Ledger) == ledger
        fates |= {name.fate for name in ledger.names.values()}
    assert fates == set(HoldFate)


def test_serialized_state_never_contains_plaintext_ref():
    ledger = Ledger()
    ref = "ACCT-SECRET-REF-0099"
    digest = ledger.open_account(ref, 500)
    ledger.place_hold(digest, 77, A)
    assert ref.encode() not in codec.encode(ledger.snapshot())


# --- oracle equivalence -----------------------------------------------------


def test_random_operations_match_naive_oracle():
    agreed = drive_pair(seed=11, steps=600)
    assert agreed["open", "ok"] > 0
    # a reused name, a refused one among them, an over-limit hold, each
    # refusal of a close, and a close of a refused name each came up
    assert agreed["hold", "REPLAY"] > 0
    assert agreed["hold", "REPLAY of a refused name"] > 0
    assert agreed["hold", "INSUFFICIENT_CREDIT"] > 0
    for reason in ("UNKNOWN_ACCOUNT", "REPLAY"):
        assert agreed["settle", reason] + agreed["release", reason] > 0
    assert agreed["settle", "UNKNOWN_ACCOUNT of a refused name"] \
        + agreed["release", "UNKNOWN_ACCOUNT of a refused name"] > 0


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_oracle_equivalence_across_seeds(seed):
    drive_pair(seed=seed, steps=120)


def test_conservation_is_asserted_internally():
    ledger, digest = fresh(limit=60)
    ledger.place_hold(digest, 60, A)
    assert ledger.place_hold(digest, 1, B) == DenialReason.INSUFFICIENT_CREDIT
