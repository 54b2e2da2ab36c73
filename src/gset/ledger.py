"""Account provider ledger: credit lines with two-phase hold/settle.

Accounts are keyed by the digest of the account reference, so the ledger's
own stored state never duplicates the secret reference string.  Money is
an unsigned integer count of minor currency units; all arithmetic is exact.

The conservation rule, re-asserted after every mutation, is

    settled_total + sum(active holds)  <=  credit_limit

A hold is named by its caller (the account provider passes the trust
manager's hold nonce), and a name is used once: the first ``place_hold``
under it uses it up, whether it places the hold or refuses it.  Holds move
to settled exactly once, or are released explicitly.  Nothing expires on
its own; release is an instruction, not a timer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .codec import Positive, ValidationError, canonical_message, check, register_message
from .crypto import Digest, hash_bytes


class LedgerError(Exception):
    """Base class for ledger refusals and misuse."""


class DuplicateAccountError(LedgerError):
    pass


class UnknownAccountError(LedgerError):
    pass


class DuplicateHoldError(LedgerError):
    """The hold name was already used by this ledger."""


class UnknownHoldError(LedgerError):
    """No hold of that name was ever placed in this ledger."""


class HoldClosedError(LedgerError):
    """The hold was already settled or released."""


class InsufficientCreditError(LedgerError):
    def __init__(self, requested: int, available: int) -> None:
        super().__init__(f"requested {requested}, available {available}")
        self.requested = requested
        self.available = available


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


@register_message
@dataclass
class Account:
    credit_limit: int
    settled_total: int = 0
    holds: dict[bytes, int] = field(default_factory=dict)

    def available(self) -> int:
        return self.credit_limit - self.settled_total - sum(self.holds.values())


@register_message
@dataclass
class Ledger:
    """Holds-and-settlements ledger for one account provider; a codec message,
    so the account provider's recorded state is the whole ledger."""

    _accounts: dict[bytes, Account] = field(default_factory=dict)
    _hold_owner: dict[bytes, bytes] = field(default_factory=dict)  # hold_ref -> account digest
    used_refs: set[bytes] = field(default_factory=set)  # every name place_hold was given
    settled_refs: set[bytes] = field(default_factory=set)
    released_refs: set[bytes] = field(default_factory=set)

    def open_account(self, account_ref: str, credit_limit: int) -> Digest:
        """Create an account for ``account_ref``; returns its digest key.

        The reference string is hashed immediately and not retained.
        """
        if not isinstance(account_ref, str) or not account_ref:
            raise LedgerError("account_ref must be a non-empty string")
        _check_positive(credit_limit, "credit_limit")
        digest = hash_bytes(account_ref.encode("utf-8"))
        if digest.bytes in self._accounts:
            raise DuplicateAccountError(f"account {digest.hex()[:12]} already exists")
        self._accounts[digest.bytes] = Account(credit_limit=credit_limit)
        return digest

    def _account(self, account_ref_digest: Digest) -> Account:
        account = self._accounts.get(account_ref_digest.bytes)
        if account is None:
            raise UnknownAccountError(f"no account {account_ref_digest.hex()[:12]}")
        return account

    def available(self, account_ref_digest: Digest) -> int:
        return self._account(account_ref_digest).available()

    def settled_total(self, account_ref_digest: Digest) -> int:
        return self._account(account_ref_digest).settled_total

    def active_holds(self, account_ref_digest: Digest) -> dict[bytes, int]:
        return dict(self._account(account_ref_digest).holds)

    def place_hold(self, account_ref_digest: Digest, amount: int, ref: bytes) -> None:
        """Reserve ``amount`` against the account's remaining credit, as the
        hold named ``ref``, a name this call uses up even when it refuses."""
        if not isinstance(ref, bytes) or not ref:
            raise LedgerError("hold name must be non-empty bytes")
        if ref in self.used_refs:
            raise DuplicateHoldError("hold name already used")
        self.used_refs.add(ref)
        account = self._account(account_ref_digest)
        _check_positive(amount, "amount")
        available = account.available()
        if amount > available:
            raise InsufficientCreditError(requested=amount, available=available)
        account.holds[ref] = amount
        self._hold_owner[ref] = account_ref_digest.bytes
        self._assert_conserved(account)

    def _open_hold(self, hold_ref: bytes) -> tuple[Account, int]:
        owner = self._hold_owner.get(hold_ref)
        if owner is None:
            if hold_ref in self.settled_refs or hold_ref in self.released_refs:
                raise HoldClosedError("hold already settled or released")
            raise UnknownHoldError("no such hold")
        account = self._accounts[owner]
        return account, account.holds[hold_ref]

    def settle_hold(self, hold_ref: bytes) -> int:
        """Convert a hold into settled spend; returns the settled amount."""
        account, amount = self._open_hold(hold_ref)
        del account.holds[hold_ref]
        del self._hold_owner[hold_ref]
        account.settled_total += amount
        self.settled_refs.add(hold_ref)
        self._assert_conserved(account)
        return amount

    def release_hold(self, hold_ref: bytes) -> int:
        """Drop a hold, returning the credit; returns the released amount."""
        account, amount = self._open_hold(hold_ref)
        del account.holds[hold_ref]
        del self._hold_owner[hold_ref]
        self.released_refs.add(hold_ref)
        self._assert_conserved(account)
        return amount

    def _assert_conserved(self, account: Account) -> None:
        held = sum(account.holds.values())
        if account.settled_total + held > account.credit_limit:
            raise AssertionError("ledger conservation violated")

    # --- observability -------------------------------------------------------

    @property
    def settle_count(self) -> int:
        return len(self.settled_refs)

    def total_settled(self) -> int:
        return sum(a.settled_total for a in self._accounts.values())

    def total_held(self) -> int:
        return sum(sum(a.holds.values()) for a in self._accounts.values())

    def holds_created(self) -> int:
        return len(self._hold_owner) + len(self.settled_refs) + len(self.released_refs)

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
