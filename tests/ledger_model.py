"""A list-based reference model of the credit ledger, and a driver that runs
the ledger and the model through one random sequence of operations.

The model keeps no index and recomputes everything from its log, so it
shares no shortcut with the ledger it checks.  The driver compares every
answer, refusals by their ``DenialReason``, and at the end every account's
balances and every hold name's record.
"""
from __future__ import annotations

from collections import Counter
from random import Random

from gset import DenialReason, Ledger, LedgerError, hash_bytes
from gset.ledger import HoldFate, HoldName

_FATE_OF = {"hold": HoldFate.OPEN, "settle": HoldFate.SETTLED, "release": HoldFate.RELEASED}


class NaiveLedger:
    """A hold name is refused once any hold was asked for under it, placed
    or refused."""

    def __init__(self):
        self.accounts = {}  # digest bytes -> limit
        self.events = []    # ("hold"|"settle"|"release", digest, ref, amount)
        self.asked = []     # (ref, digest) of every hold asked for, in order

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

    def fate(self, ref):
        """What became of the name ``ref``: None if it was never asked for."""
        kinds = [kind for kind, _, r, _ in self.events if r == ref]
        if kinds:
            return _FATE_OF[kinds[-1]]
        return HoldFate.REFUSED if any(r == ref for r, _ in self.asked) else None

    def open(self, d, limit):
        if d in self.accounts:
            return "dup"
        self.accounts[d] = limit
        return "ok"

    def hold(self, d, amount, ref):
        if any(r == ref for r, _ in self.asked):
            return DenialReason.REPLAY
        self.asked.append((ref, d))
        if d not in self.accounts:
            return DenialReason.UNKNOWN_ACCOUNT
        if amount > self.accounts[d] - self._settled(d) - self._held(d):
            return DenialReason.INSUFFICIENT_CREDIT
        self.events.append(("hold", d, ref, amount))
        return None

    def close(self, kind, ref):
        fate = self.fate(ref)
        if fate in (None, HoldFate.REFUSED):
            return 0, DenialReason.UNKNOWN_ACCOUNT
        if fate != HoldFate.OPEN:
            return 0, DenialReason.REPLAY
        digest, amount = next(
            (dd, a) for k, dd, r, a in reversed(self.events) if k == "hold" and r == ref
        )
        self.events.append((kind, digest, ref, amount))
        return amount, None


def _outcome(reason):
    return "ok" if reason is None else reason.name


def drive_pair(seed, steps):
    """Run ``steps`` random operations on a ledger and on the model, assert
    they agree, and count each (operation, outcome) they agreed on."""
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
            except LedgerError:
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
            want = oracle.hold(d.bytes, amount, ref)
            assert ledger.place_hold(d, amount, ref) == want, f"hold disagrees at step {step}"
            agreed["hold", _outcome(want)] += 1
            if want == DenialReason.REPLAY and ref in refused:
                agreed["hold", "REPLAY of a refused name"] += 1
            if want == DenialReason.INSUFFICIENT_CREDIT:
                refused.add(ref)
            if want != DenialReason.REPLAY:
                asked.append(ref)
            if want is None:
                open_refs.append(ref)
        else:
            kind = "settle" if rng.random() < 0.5 else "release"
            # mostly an open hold; else a name already asked for, or a new one
            if open_refs and rng.random() < 0.8:
                ref = open_refs[rng.randrange(len(open_refs))]
            elif asked and rng.random() < 0.5:
                ref = rng.choice(asked)
            else:
                ref = rng.randbytes(16)
            got = ledger.settle_hold(ref) if kind == "settle" else ledger.release_hold(ref)
            want = oracle.close(kind, ref)
            assert got == want, f"{kind} disagrees at step {step}"
            agreed[kind, _outcome(want[1])] += 1
            if want[1] == DenialReason.UNKNOWN_ACCOUNT and ref in refused:
                agreed[kind, "UNKNOWN_ACCOUNT of a refused name"] += 1
            if want[1] is None:
                open_refs.remove(ref)
    # final balances must agree account by account
    for d in digests:
        assert ledger.settled_total(d) == oracle._settled(d.bytes)
        assert sum(ledger.active_holds(d).values()) == oracle._held(d.bytes)
        held = oracle._held(d.bytes)
        settled = oracle._settled(d.bytes)
        assert ledger.available(d) == oracle.accounts[d.bytes] - held - settled
    # and so must every name's record: the account it was asked of, its fate
    assert ledger.names == {ref: HoldName(d, oracle.fate(ref)) for ref, d in oracle.asked}
    return agreed
