"""Credit ledger semantics: holds, settlement, release, conservation."""
from __future__ import annotations

from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gset import (
    DuplicateAccountError,
    DuplicateHoldError,
    HoldClosedError,
    InsufficientCreditError,
    Ledger,
    LedgerError,
    UnknownAccountError,
    UnknownHoldError,
    codec,
    hash_bytes,
)


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
    with pytest.raises(DuplicateAccountError):
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
    assert ledger.holds_created() == 0


# --- place_hold -------------------------------------------------------------


def test_hold_sequence_50_60_50_on_limit_100():
    ledger, digest = fresh(limit=100)
    ledger.place_hold(digest, 50, A)
    assert ledger.available(digest) == 50
    with pytest.raises(InsufficientCreditError):
        ledger.place_hold(digest, 60, B)
    ledger.place_hold(digest, 50, C)
    assert ledger.active_holds(digest) == {A: 50, C: 50}
    assert ledger.available(digest) == 0


def test_hold_of_exactly_remaining_available_accepted():
    ledger, digest = fresh(limit=100)
    ledger.place_hold(digest, 30, A)
    ledger.place_hold(digest, 70, B)
    assert ledger.active_holds(digest)[B] == 70
    assert ledger.available(digest) == 0


def test_hold_on_unknown_account_rejected():
    ledger, _ = fresh()
    with pytest.raises(UnknownAccountError):
        ledger.place_hold(hash_bytes(b"ACCT-9999"), 10, A)


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
    # refused on any account, and the refusal changes nothing
    for account in (digest, other):
        with pytest.raises(DuplicateHoldError):
            ledger.place_hold(account, 10, A)
    assert ledger.snapshot() == before
    assert ledger.holds_created() == 1


@pytest.mark.parametrize("refusal", ["over the credit", "unknown account", "zero amount"])
def test_a_refused_hold_uses_its_name_up(refusal):
    # a hold refused under a name leaves that name used: asked again once
    # the refusal no longer applies, it is refused as a repeat
    ledger, digest = fresh(limit=100)
    first = {
        "over the credit": (digest, 101),
        "unknown account": (hash_bytes(b"ACCT-9999"), 10),
        "zero amount": (digest, 0),
    }[refusal]
    with pytest.raises(LedgerError) as refused:
        ledger.place_hold(*first, A)
    assert not isinstance(refused.value, DuplicateHoldError)
    with pytest.raises(DuplicateHoldError):
        ledger.place_hold(digest, 10, A)
    assert ledger.holds_created() == 0 and ledger.available(digest) == 100


# --- settle_hold ------------------------------------------------------------


def test_settle_moves_amount_from_hold_to_settled():
    ledger, digest = fresh(limit=100)
    ledger.place_hold(digest, 50, A)
    assert ledger.available(digest) == 50
    assert ledger.settle_hold(A) == 50
    assert ledger.settled_total(digest) == 50
    # the amount stays committed: available is unchanged by settlement
    assert ledger.available(digest) == 50
    assert ledger.active_holds(digest) == {}


def test_settle_twice_errors():
    ledger, digest = fresh()
    ledger.place_hold(digest, 50, A)
    ledger.settle_hold(A)
    with pytest.raises(HoldClosedError):
        ledger.settle_hold(A)


def test_settle_unknown_ref_errors():
    ledger, _ = fresh()
    with pytest.raises(UnknownHoldError):
        ledger.settle_hold(b"\x00" * 16)


# --- release_hold -----------------------------------------------------------


def test_release_restores_available_credit():
    ledger, digest = fresh(limit=100)
    ledger.place_hold(digest, 50, A)
    assert ledger.release_hold(A) == 50
    assert ledger.available(digest) == 100
    assert ledger.settled_total(digest) == 0


def test_release_then_settle_errors():
    ledger, digest = fresh()
    ledger.place_hold(digest, 50, A)
    ledger.release_hold(A)
    with pytest.raises(HoldClosedError):
        ledger.settle_hold(A)


def test_release_twice_errors():
    ledger, digest = fresh()
    ledger.place_hold(digest, 50, A)
    ledger.release_hold(A)
    with pytest.raises(HoldClosedError):
        ledger.release_hold(A)


def test_release_unknown_ref_errors():
    ledger, _ = fresh()
    with pytest.raises(UnknownHoldError):
        ledger.release_hold(b"\xaa" * 16)


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


def test_serialized_state_never_contains_plaintext_ref():
    ledger = Ledger()
    ref = "ACCT-SECRET-REF-0099"
    digest = ledger.open_account(ref, 500)
    ledger.place_hold(digest, 77, A)
    assert ref.encode() not in codec.encode(ledger.snapshot())


# --- oracle equivalence -----------------------------------------------------


class NaiveLedger:
    """List-based reference model: no indexes, recompute everything.  A
    hold name is refused once any hold was asked for under it, placed or
    refused."""

    def __init__(self):
        self.accounts = {}  # digest bytes -> limit
        self.events = []    # ("hold"|"settle"|"release", digest, ref, amount)
        self.asked = []     # every hold name asked for, in order

    def _held(self, d):
        live = {}
        for kind, digest, ref, amount in self.events:
            if kind == "hold":
                live[ref] = (digest, amount)
            else:
                live.pop(ref, None)
        return sum(a for dd, a in live.values() if dd == d)

    def _settled(self, d):
        return sum(
            amount for kind, digest, ref, amount in self.events
            if kind == "settle" and digest == d
        )

    def _live_refs(self):
        live = set()
        for kind, digest, ref, amount in self.events:
            if kind == "hold":
                live.add(ref)
            else:
                live.discard(ref)
        return live

    def open(self, d, limit):
        if d in self.accounts:
            return "dup"
        self.accounts[d] = limit
        return "ok"

    def hold(self, d, amount, ref):
        if ref in self.asked:
            return "dup"
        self.asked.append(ref)
        if d not in self.accounts:
            return "unknown"
        if amount > self.accounts[d] - self._settled(d) - self._held(d):
            return "refused"
        self.events.append(("hold", d, ref, amount))
        return "ok"

    def close(self, kind, ref):
        if ref not in self._live_refs():
            return "bad-ref"
        digest, amount = next(
            (dd, a) for k, dd, r, a in reversed(self.events) if k == "hold" and r == ref
        )
        self.events.append((kind, digest, ref, amount))
        return "ok"


def drive_pair(seed, steps):
    rng = Random(seed)
    ledger = Ledger()
    oracle = NaiveLedger()
    digests = []
    asked = []  # every name asked for: refused, open, settled or released
    refused = set()  # the names of holds refused for credit
    open_refs = []
    agreed = Counter()  # (operation, outcome) -> times both sides gave it
    for step in range(steps):
        roll = rng.random()
        if roll < 0.08 or not digests:
            ref = f"ACCT-{step}"
            limit = rng.randint(1, 400)
            d = hash_bytes(ref.encode())
            try:
                got = ledger.open_account(ref, limit) and "ok"
            except DuplicateAccountError:
                got = "dup"
            want = oracle.open(d.bytes, limit)
            assert got == want, f"open disagrees at step {step}"
            agreed["open", want] += 1
            if want == "ok":
                digests.append(d)
        elif roll < 0.65:
            d = rng.choice(digests)
            amount = rng.randint(1, 250)
            # now and then a name already asked for: refused, open, settled or released
            if asked and rng.random() < 0.15:
                ref = rng.choice(asked)
            else:
                ref = rng.randbytes(16)
            try:
                ledger.place_hold(d, amount, ref)
                got = "ok"
            except DuplicateHoldError:
                got = "dup"
            except InsufficientCreditError:
                got = "refused"
            except UnknownAccountError:
                got = "unknown"
            want = oracle.hold(d.bytes, amount, ref)
            assert got == want, f"hold disagrees at step {step}"
            agreed["hold", want] += 1
            if want == "dup" and ref in refused:
                agreed["hold", "dup of a refused name"] += 1
            if want == "refused":
                refused.add(ref)
            if want != "dup":
                asked.append(ref)
            if want == "ok":
                open_refs.append(ref)
        else:
            kind = "settle" if rng.random() < 0.5 else "release"
            if open_refs and rng.random() < 0.8:
                ref = open_refs[rng.randrange(len(open_refs))]
            else:
                ref = rng.randbytes(16)
            try:
                if kind == "settle":
                    ledger.settle_hold(ref)
                else:
                    ledger.release_hold(ref)
                got = "ok"
            except (UnknownHoldError, HoldClosedError):
                got = "bad-ref"
            want = oracle.close(kind, ref)
            assert got == want, f"{kind} disagrees at step {step}"
            agreed[kind, want] += 1
            if want == "ok":
                open_refs.remove(ref)
    # final balances must agree account by account
    for d in digests:
        assert ledger.settled_total(d) == oracle._settled(d.bytes)
        assert sum(ledger.active_holds(d).values()) == oracle._held(d.bytes)
        held = oracle._held(d.bytes)
        settled = oracle._settled(d.bytes)
        assert ledger.available(d) == oracle.accounts[d.bytes] - held - settled
    return agreed


def test_random_operations_match_naive_oracle():
    agreed = drive_pair(seed=11, steps=600)
    assert agreed["open", "ok"] > 0
    # a reused name, a refused one among them, an over-limit hold and a bad
    # close each came up
    assert agreed["hold", "dup"] > 0
    assert agreed["hold", "dup of a refused name"] > 0
    assert agreed["hold", "refused"] > 0
    assert agreed["settle", "bad-ref"] + agreed["release", "bad-ref"] > 0


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_oracle_equivalence_across_seeds(seed):
    drive_pair(seed=seed, steps=120)


def test_conservation_is_asserted_internally():
    ledger, digest = fresh(limit=60)
    ledger.place_hold(digest, 60, A)
    with pytest.raises(InsufficientCreditError):
        ledger.place_hold(digest, 1, B)
