"""Account provider ledger: credit lines with two-phase hold/settle.

Accounts are keyed by the digest of the account reference, so the ledger's
own stored state never duplicates the secret reference string.  Money is
an unsigned integer count of minor currency units; all arithmetic is exact.

The conservation rule, re-asserted after every mutation, is

    settled_total + sum(active holds)  <=  credit_limit

A hold is named by its caller (the account provider passes the trust
manager's hold nonce), and a name is used once: the first ``place_hold``
under it uses it up, whether it places the hold or refuses it.  Each name
has one record, ``HoldName``: the account it was asked of and its fate.
Holds move to settled exactly once, or are released explicitly.  Nothing
expires on its own; release is an instruction, not a timer.

The ledger answers a refusal the way the protocol words it, as the
``DenialReason`` the account provider sends back:

    call     outcome                                      reason
    hold     name already used                            REPLAY
    hold     unknown account                              UNKNOWN_ACCOUNT
    hold     over the available credit                    INSUFFICIENT_CREDIT
    settle   name never asked for, or its hold refused    UNKNOWN_ACCOUNT
    settle   hold already settled or released             REPLAY

``release_hold`` answers as ``settle_hold`` does.  ``LedgerError`` is left
for calls no message can make, and ``ValidationError`` for a ledger, built
or decoded, that no sequence of calls makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from .codec import Positive, ValidationError, canonical_message, check, register_message
from .crypto import Digest, hash_bytes
from .messages import DenialReason


class LedgerError(Exception):
    """A call no message can make: a malformed name or amount, or an
    account opened twice."""


@canonical_message
class LedgerHoldState:
    hold_ref: bytes
    amount: int


@canonical_message
class LedgerAccountState:
    account_ref_digest: Digest
    credit_limit: int
    settled_total: int
    holds: tuple[LedgerHoldState, ...]


@canonical_message
class LedgerSnapshot:
    accounts: tuple[LedgerAccountState, ...]


def _check_positive(value: int, what: str) -> None:
    try:
        check(Positive, value, what)
    except ValidationError as exc:
        raise LedgerError(str(exc)) from None


class HoldFate(IntEnum):
    REFUSED = 0
    OPEN = 1
    SETTLED = 2
    RELEASED = 3


@register_message
@dataclass
class HoldName:
    account: bytes  # the digest of the account the hold was asked of
    fate: HoldFate


@register_message
@dataclass
class Account:
    credit_limit: int
    settled_total: int = 0
    holds: dict[bytes, int] = field(default_factory=dict)  # the open holds' amounts

    def validate(self) -> None:
        """Raise ``ValidationError`` unless the limit is positive and conserved."""
        check(Positive, self.credit_limit, "credit_limit")
        if self.available() < 0:
            raise ValidationError("ledger conservation violated")

    def available(self) -> int:
        return self.credit_limit - self.settled_total - sum(self.holds.values())


@register_message
@dataclass
class Ledger:
    """Holds-and-settlements ledger for one account provider; a codec message,
    so the account provider's recorded state is the whole ledger."""

    _accounts: dict[bytes, Account] = field(default_factory=dict)
    names: dict[bytes, HoldName] = field(default_factory=dict)  # every name place_hold was given

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Refuse, with ``ValidationError``, a state the ledger's own operations
        could not make: each account keeps its limit, each open hold has its
        one ``OPEN`` name, and a name not refused names an account it keeps."""
        for account in self._accounts.values():
            account.validate()
        held = {(key, ref) for key, account in self._accounts.items() for ref in account.holds}
        if held != {(n.account, ref) for ref, n in self.names.items() if n.fate == HoldFate.OPEN}:
            raise ValidationError("the open holds and the OPEN hold names differ")
        if any(n.fate != HoldFate.REFUSED and n.account not in self._accounts
               for n in self.names.values()):
            raise ValidationError("a hold name that was not refused names no account")

    def open_account(self, account_ref: str, credit_limit: int) -> Digest:
        """Create an account for ``account_ref``; returns its digest key.

        The reference string is hashed immediately and not retained.
        """
        if not isinstance(account_ref, str) or not account_ref:
            raise LedgerError("account_ref must be a non-empty string")
        _check_positive(credit_limit, "credit_limit")
        digest = hash_bytes(account_ref.encode("utf-8"))
        if digest.bytes in self._accounts:
            raise LedgerError(f"account {digest.hex()[:12]} already exists")
        self._accounts[digest.bytes] = Account(credit_limit=credit_limit)
        return digest

    def available(self, account_ref_digest: Digest) -> int:
        return self._accounts[account_ref_digest.bytes].available()

    def settled_total(self, account_ref_digest: Digest) -> int:
        return self._accounts[account_ref_digest.bytes].settled_total

    def active_holds(self, account_ref_digest: Digest) -> dict[bytes, int]:
        return dict(self._accounts[account_ref_digest.bytes].holds)

    def place_hold(self, account_ref_digest: Digest, amount: int, ref: bytes) -> DenialReason | None:
        """Reserve ``amount`` against the account's remaining credit, as the
        hold named ``ref``, a name this call uses up even when it refuses."""
        if not isinstance(ref, bytes) or not ref:
            raise LedgerError("hold name must be non-empty bytes")
        _check_positive(amount, "amount")
        if ref in self.names:
            return DenialReason.REPLAY
        account = self._accounts.get(account_ref_digest.bytes)
        if account is None:
            reason = DenialReason.UNKNOWN_ACCOUNT
        elif amount > account.available():
            reason = DenialReason.INSUFFICIENT_CREDIT
        else:
            reason = None
            account.holds[ref] = amount
            account.validate()
        fate = HoldFate.OPEN if reason is None else HoldFate.REFUSED
        self.names[ref] = HoldName(account_ref_digest.bytes, fate)
        return reason

    def settle_hold(self, hold_ref: bytes) -> tuple[int, DenialReason | None]:
        """Convert a hold into settled spend; returns the settled amount and
        the refusal, as a ``SettleResponse`` carries them."""
        return self._close(hold_ref, HoldFate.SETTLED)

    def release_hold(self, hold_ref: bytes) -> tuple[int, DenialReason | None]:
        """Drop a hold, returning the credit; returns the released amount and
        the refusal."""
        return self._close(hold_ref, HoldFate.RELEASED)

    def _close(self, hold_ref: bytes, fate: HoldFate) -> tuple[int, DenialReason | None]:
        name = self.names.get(hold_ref)
        if name is None or name.fate == HoldFate.REFUSED:
            return 0, DenialReason.UNKNOWN_ACCOUNT
        if name.fate != HoldFate.OPEN:
            return 0, DenialReason.REPLAY
        account = self._accounts[name.account]
        amount = account.holds.pop(hold_ref)
        if fate == HoldFate.SETTLED:
            account.settled_total += amount
        name.fate = fate
        account.validate()
        return amount, None

    # --- observability -------------------------------------------------------

    @property
    def settle_count(self) -> int:
        return sum(name.fate == HoldFate.SETTLED for name in self.names.values())

    def total_settled(self) -> int:
        return sum(a.settled_total for a in self._accounts.values())

    def total_held(self) -> int:
        return sum(sum(a.holds.values()) for a in self._accounts.values())

    def holds_created(self) -> int:
        return sum(name.fate != HoldFate.REFUSED for name in self.names.values())

    def snapshot(self) -> LedgerSnapshot:
        accounts = []
        for digest_bytes in sorted(self._accounts):
            account = self._accounts[digest_bytes]
            holds = tuple(
                LedgerHoldState(hold_ref=ref, amount=account.holds[ref])
                for ref in sorted(account.holds)
            )
            accounts.append(
                LedgerAccountState(
                    account_ref_digest=Digest(digest_bytes),
                    credit_limit=account.credit_limit,
                    settled_total=account.settled_total,
                    holds=holds,
                )
            )
        return LedgerSnapshot(accounts=tuple(accounts))
