"""Ready-made storage scenario: build the four actors, run, report.

A scenario is fully determined by its config.  ``build_scenario`` derives
everything else (keys, account reference, payload objects, the kick-off
message) from the seed, so two builds from equal configs are
indistinguishable, which is what makes transcript replay meaningful.  It
also builds the run's one input, ``Scenario.meta``: the seed, the tick
budget, the adversary spec as the config names it (``""`` is ``"none"``)
and the kick-off message.  A run is ``run_scenario(scenario.endpoints,
scenario.meta)``, and its transcript replays on the endpoints of another
build from the same config.

Each build derives its four key pairs afresh and keeps them only in the
scenario's actors, so the keys live and die with the run.  Nothing here
remembers an identity from one build to the next.

Each config field but ``adversary_spec`` is annotated with its kind
(``Label``, ``U64``, ``Positive``), the one statement of its rule.
``build_scenario`` checks each through ``codec.check``, then what a run
computes from two fields (the price, the latest quote expiry, the upload's
size, the sealed payment's size), and refuses a config that breaks any,
before any object is made, with a ``ScenarioError`` naming the field.
"""

from __future__ import annotations

import hashlib
import typing
from dataclasses import dataclass
from random import Random

from .actors import (
    AccountProvider,
    AccountProviderConfig,
    EventKind,
    HoldPhase,
    ProviderConfig,
    ProviderPhase,
    RequesterConfig,
    RequesterOrder,
    RequesterPhase,
    ServiceProvider,
    ServiceRequester,
    TrustManager,
    TrustManagerConfig,
)
from . import codec
from .codec import Label, Positive, U64, ValidationError
from .crypto import (
    DIGEST_SIZE,
    SIGNATURE_SIZE,
    U64_MAX,
    Digest,
    Signature,
    generate_keypair,
    keystreams,
)
from .messages import PAYMENT_SIZE, ObjectUpload, PaymentInfo, UsageDescriptor
from .simnet import (
    Actor,
    PrivacyMarkers,
    PrivacyReport,
    Transcript,
    TranscriptMeta,
    WireMessage,
    assert_privacy,
    run_scenario,
)


class ScenarioError(Exception):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    seed: U64 = 7
    requester_id: Label = "SR"
    provider_id: Label = "SP"
    trust_manager_id: Label = "TM"
    account_provider_id: Label = "AP"
    service_id: Label = "mobile-storage"
    operation: Label = "store-objects"
    unit: Label = "megabyte"
    quantity: Positive = 3
    rate: Positive = 10
    authorized_limit: Positive = 60
    credit_limit: Positive = 500
    object_count: Positive = 3
    object_size: Positive = 64
    quote_ttl: Positive = 100
    max_ticks: Positive = 10_000
    adversary_spec: str = "none"  # "" or "none" for no adversary

    @property
    def expected_price(self) -> int:
        return self.rate * self.quantity


# Each kinded field and its kind, the one statement of its rule.
_KINDS = tuple(
    (name, kind)
    for name, kind in typing.get_type_hints(ScenarioConfig).items()
    if isinstance(kind, typing.NewType)
)


# The bytes of an ``ObjectUpload`` frame beside its objects and its signer's
# id: those of a one-object upload signed by "-", less that object's field (a
# 4-byte length and 1 byte) and that id.  Taken once, so no run encodes it.
_UPLOAD_FRAMING = len(codec.encode(ObjectUpload(
    oi_digest=Digest(bytes(DIGEST_SIZE)),
    objects=(b"\0",),
    requester_signature=Signature(bytes(SIGNATURE_SIZE), "-"),
))) - (4 + 1) - 1


# An encoded ``PaymentInfo`` less its two labels ("-" each), taken once like the upload's.
_PAYMENT_FRAMING = len(codec.encode(PaymentInfo("-", "-", 1, bytes(codec.NONCE_SIZE)))) - 2


def _upload_size(config: ScenarioConfig) -> int:
    """Bytes of the ``ObjectUpload`` frame a run sends, reckoned without
    building its objects."""
    signer = len(config.requester_id.encode("utf-8"))
    return _UPLOAD_FRAMING + signer + config.object_count * (4 + config.object_size)


def _objects(config: ScenarioConfig) -> tuple[bytes, ...]:
    """``object_count`` objects of ``object_size`` bytes each: object ``i`` is
    the ChaCha20 keystream keyed by SHA-256(f"{seed}/objects") under the
    nonce ``i``.  A cipher stream costs far less per byte than
    ``Random.randbytes``, which made object generation a visible share of a
    bulk run.  ``crypto.keystreams`` cuts them, on two cores when they come
    to 128 KiB or more: a bulk run's 16 x 64 KiB objects take about 0.6 of
    the wall time they take on one core, for a few percent more CPU time.
    """
    key = hashlib.sha256(f"{config.seed}/objects".encode("utf-8")).digest()
    return keystreams(key, config.object_count, config.object_size)


@dataclass
class Scenario:
    """Constructed actors plus everything a run and its checks need."""

    config: ScenarioConfig
    endpoints: dict[str, Actor]
    usage: UsageDescriptor
    account_ref: str
    objects: tuple[bytes, ...]
    markers: PrivacyMarkers
    meta: TranscriptMeta

    @property
    def requester(self) -> ServiceRequester:
        return self.endpoints[self.config.requester_id]  # type: ignore[return-value]

    @property
    def provider(self) -> ServiceProvider:
        return self.endpoints[self.config.provider_id]  # type: ignore[return-value]

    @property
    def trust_manager(self) -> TrustManager:
        return self.endpoints[self.config.trust_manager_id]  # type: ignore[return-value]

    @property
    def account_provider(self) -> AccountProvider:
        return self.endpoints[self.config.account_provider_id]  # type: ignore[return-value]


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Derive keys, account, payload, and actors from the config alone."""
    for name, kind in _KINDS:
        try:
            codec.check(kind, getattr(config, name), name)
        except ValidationError as exc:
            raise ScenarioError(f"{exc}, got {getattr(config, name)!r}") from None
    if config.expected_price > U64_MAX:
        raise ScenarioError(
            f"rate x quantity must fit in 64 bits, got {config.rate} x {config.quantity}"
        )
    if config.max_ticks + config.quote_ttl > U64_MAX:
        raise ScenarioError(  # the latest expiry a quote can carry
            "max_ticks + quote_ttl must fit in 64 bits, "
            f"got {config.max_ticks} + {config.quote_ttl}"
        )
    if _upload_size(config) > codec.U32_MAX:
        raise ScenarioError(
            "object_count x object_size must fit the upload's 4-byte length prefix, "
            f"got {config.object_count} x {config.object_size}"
        )
    account_ref = "ACCT-" + Random(f"{config.seed}/account-ref").randbytes(24).hex()
    payer = len(config.account_provider_id.encode("utf-8"))
    if _PAYMENT_FRAMING + payer + len(account_ref) >= PAYMENT_SIZE:  # no room for 0x80
        raise ScenarioError(
            f"account_provider_id must fit the {PAYMENT_SIZE}-byte sealed payment, "
            f"got {payer} bytes"
        )
    ids = (
        config.requester_id,
        config.provider_id,
        config.trust_manager_id,
        config.account_provider_id,
    )
    if len(set(ids)) != len(ids):
        raise ScenarioError(f"actor ids must be distinct, got {ids}")
    keys = {subject: generate_keypair(subject, config.seed) for subject in ids}
    directory = {subject: pair.public_key for subject, pair in keys.items()}

    objects = _objects(config)
    usage = UsageDescriptor(
        service_id=config.service_id,
        operation=config.operation,
        quantity=config.quantity,
        unit=config.unit,
    )

    requester = ServiceRequester(
        keys[config.requester_id],
        directory,
        RequesterConfig(
            provider_id=config.provider_id,
            trust_manager_id=config.trust_manager_id,
            account_provider_id=config.account_provider_id,
            account_ref=account_ref,
            authorized_limit=config.authorized_limit,
            objects=objects,
        ),
        Random(f"{config.seed}/{config.requester_id}"),
    )
    provider = ServiceProvider(
        keys[config.provider_id],
        directory,
        ProviderConfig(
            trust_manager_id=config.trust_manager_id,
            pricing={config.service_id: config.rate},
            quote_ttl=config.quote_ttl,
        ),
        Random(f"{config.seed}/{config.provider_id}"),
    )
    trust_manager = TrustManager(
        keys[config.trust_manager_id],
        directory,
        TrustManagerConfig(account_providers=frozenset({config.account_provider_id})),
        Random(f"{config.seed}/{config.trust_manager_id}"),
    )
    account_provider = AccountProvider(
        keys[config.account_provider_id],
        directory,
        AccountProviderConfig(trust_managers=frozenset({config.trust_manager_id})),
    )
    account_provider.ledger.open_account(account_ref, config.credit_limit)

    markers = PrivacyMarkers(
        payment_markers=(
            account_ref.encode("utf-8"),
            bytes.fromhex(account_ref.removeprefix("ACCT-")),
            config.authorized_limit.to_bytes(8, "big"),
        ),
        usage_markers=(
            config.service_id.encode("utf-8"),
            config.operation.encode("utf-8"),
            config.unit.encode("utf-8"),
        ),
    )

    endpoints: dict[str, Actor] = {
        actor.subject_id: actor
        for actor in (requester, provider, trust_manager, account_provider)
    }
    to_id, kick = requester.begin(usage)
    meta = TranscriptMeta(
        seed=config.seed,
        max_ticks=config.max_ticks,
        adversary_spec=config.adversary_spec or "none",
        initial=(WireMessage(from_id=config.requester_id, to_id=to_id, payload=kick),),
    )
    return Scenario(
        config=config,
        endpoints=endpoints,
        usage=usage,
        account_ref=account_ref,
        objects=objects,
        markers=markers,
        meta=meta,
    )


@dataclass
class RunReport:
    """Outcome, accounting, and hygiene checks for one scenario run."""

    config: ScenarioConfig
    scenario: Scenario
    transcript: Transcript
    business_outcome: str
    expected_price: int
    holds_created: int
    settle_count: int
    tokens_minted: int
    grants_issued: int
    objects_retrieved: int
    retrieval_mismatches: int
    provider_receivable: int
    settled_total: int
    ticks_used: int
    invariant_failures: list[str]
    privacy: PrivacyReport

    def complete_success(self) -> bool:
        """Did the full happy path land, with clean books and clean privacy?"""
        return (
            self.business_outcome == "APPROVED"
            and not self.invariant_failures
            and self.privacy.clean
            and self.objects_retrieved == self.config.object_count
            and self.holds_created == 1
            and self.settle_count == 1
            and self.tokens_minted == 1
            and self.grants_issued == 1
            and self.provider_receivable == self.expected_price
            and self.settled_total == self.expected_price
        )

    def describe(self) -> list[str]:
        lines = [
            f"outcome            {self.business_outcome}",
            f"price              {self.expected_price}",
            f"holds placed       {self.holds_created}",
            f"captures settled   {self.settle_count}",
            f"tokens minted      {self.tokens_minted}",
            f"grants issued      {self.grants_issued}",
            f"objects retrieved  {self.objects_retrieved}/{self.config.object_count}",
            f"provider booked    {self.provider_receivable}",
            f"account settled    {self.settled_total}",
            f"wire records       {len(self.transcript.records)} over {self.ticks_used} ticks",
        ]
        lines.append(
            "privacy            clean"
            if self.privacy.clean
            else f"privacy            LEAKED at {self.privacy.hits[0].location}"
        )
        if self.invariant_failures:
            lines.append(f"invariant failures {'; '.join(self.invariant_failures)}")
        else:
            lines.append("invariant failures none")
        return lines


def retrieval_mismatches(order: RequesterOrder, objects: typing.Sequence[bytes]) -> int:
    """The objects ``order`` retrieved that differ from the ones uploaded,
    compared with the uploaded bytes, not with the requester's own check.
    Each is paired with the object whose digest its ticket names, so the
    order of the tickets does not matter.  A retrieved object is a view,
    which compares with bytes item by item, so it is compared as bytes."""
    uploaded = dict(zip(order.digests, objects))
    return sum(
        bytes(obj) != uploaded.get(order.tickets[t].object_digest)
        for t, obj in order.retrieved.items()
    )


def run_storage_scenario(config: ScenarioConfig) -> RunReport:
    """Build, run to quiescence, and audit one scenario, under the adversary
    ``config.adversary_spec`` names."""
    scenario = build_scenario(config)
    transcript = run_scenario(scenario.endpoints, scenario.meta)

    provider = scenario.provider
    trust_manager = scenario.trust_manager
    ledger = scenario.account_provider.ledger
    # each order as the requester and the provider keep it
    bought = scenario.requester.orders.values()
    sold = provider.orders.values()
    # the trust manager's first refusal decides, then the provider's
    refused = [e for e in transcript.events if e.kind == EventKind.AUTHORIZATION_REFUSED]
    refused.sort(key=lambda event: event.actor != config.trust_manager_id)

    settle_count = ledger.settle_count
    if settle_count >= 1 and any(o.phase == RequesterPhase.COMPLETED for o in bought):
        outcome = "APPROVED"
    elif refused:
        outcome = f"DENIED:{refused[0].reason.name}"
    else:
        outcome = "INCOMPLETE"

    failures: list[str] = []
    for index, record in enumerate(transcript.records):
        if record.error:
            failures.append(f"record {index}: {record.error}")
    receivable = sum(o.charge for o in sold if o.phase == ProviderPhase.CAPTURED)
    if receivable > ledger.total_settled():
        failures.append(
            f"provider booked {receivable} "
            f"but only {ledger.total_settled()} is settled"
        )
    mismatches = sum(retrieval_mismatches(order, scenario.objects) for order in bought)
    if mismatches:
        failures.append(f"{mismatches} retrieved objects differ from the uploaded ones")
    for account in ledger.snapshot().accounts:
        held = sum(hold.amount for hold in account.holds)
        if account.settled_total + held > account.credit_limit:
            failures.append(
                f"account {account.account_ref_digest.hex()[:12]} over limit: "
                f"{account.settled_total} settled + {held} held > {account.credit_limit}"
            )

    privacy = assert_privacy(
        transcript,
        provider.state_bytes(),
        trust_manager.state_bytes(),
        scenario.markers,
        provider_id=config.provider_id,
        trust_manager_id=config.trust_manager_id,
    )

    return RunReport(
        config=config,
        scenario=scenario,
        transcript=transcript,
        business_outcome=outcome,
        expected_price=config.expected_price,
        holds_created=ledger.holds_created(),
        settle_count=settle_count,
        tokens_minted=sum(h.phase >= HoldPhase.MINTED for h in trust_manager.holds.values()),
        grants_issued=sum(o.phase >= ProviderPhase.GRANTED for o in sold),
        objects_retrieved=sum(len(o.retrieved) for o in bought),
        retrieval_mismatches=mismatches,
        provider_receivable=receivable,
        settled_total=ledger.total_settled(),
        ticks_used=transcript.records[-1].tick if transcript.records else 0,
        invariant_failures=failures,
        privacy=privacy,
    )
