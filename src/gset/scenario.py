"""Ready-made storage scenario: build the four actors, run, report.

A scenario is fully determined by its config.  ``build_scenario`` derives
everything else (keys, account reference, payload objects, the kick-off
message) from the seed, so two builds from equal configs are
indistinguishable, which is what makes transcript replay meaningful.

Each build derives its four key pairs afresh and keeps them only in the
scenario's actors, so the keys live and die with the run.  Nothing here
remembers an identity from one build to the next.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from random import Random
from typing import Callable, Mapping

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .actors import (
    AccountProvider,
    AccountProviderConfig,
    HoldPhase,
    ProviderConfig,
    ProviderPhase,
    RequesterConfig,
    RequesterPhase,
    ServiceProvider,
    ServiceRequester,
    TrustManager,
    TrustManagerConfig,
)
from .crypto import generate_keypair
from .messages import UsageDescriptor
from .simnet import (
    Actor,
    Adversary,
    PrivacyMarkers,
    PrivacyReport,
    Transcript,
    WireMessage,
    assert_privacy,
    run_scenario,
)


class ScenarioError(Exception):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 7
    requester_id: str = "SR"
    provider_id: str = "SP"
    trust_manager_id: str = "TM"
    account_provider_id: str = "AP"
    service_id: str = "mobile-storage"
    operation: str = "store-objects"
    unit: str = "megabyte"
    quantity: int = 3
    rate: int = 10
    authorized_limit: int = 60
    credit_limit: int = 500
    object_count: int = 3
    object_size: int = 64
    quote_ttl: int = 100
    max_ticks: int = 10_000
    adversary_spec: str = "none"

    @property
    def expected_price(self) -> int:
        return self.rate * self.quantity


def ini_overrides(path: str | Path) -> dict:
    """Parse a scenario INI file into constructor keyword overrides."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(str(path))
    except configparser.Error as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    if not read:
        raise ScenarioError(f"cannot read config file {path}")
    if not parser.has_section("scenario"):
        raise ScenarioError(f"{path}: missing [scenario] section")
    section = parser["scenario"]
    known = {f.name: f.type for f in fields(ScenarioConfig)}
    overrides: dict = {}
    for key in section:
        if key not in known:
            raise ScenarioError(f"{path}: unknown scenario key {key!r}")
        try:
            if known[key] == "int":
                overrides[key] = section.getint(key)
            else:
                overrides[key] = section.get(key)
        except ValueError as exc:
            raise ScenarioError(f"{path}: bad value for {key!r}: {exc}") from exc
    return overrides


def _objects(config: ScenarioConfig) -> tuple[bytes, ...]:
    """``object_count`` objects of ``object_size`` bytes each, cut in order
    from one AES-256-CTR keystream keyed by SHA-256(f"{seed}/objects") under
    a zero nonce.  A cipher stream costs far less per byte than
    ``Random.randbytes``, which made object generation a visible share of a
    bulk run.
    """
    key = hashes.Hash(hashes.SHA256())
    key.update(f"{config.seed}/objects".encode("utf-8"))
    stream = Cipher(algorithms.AES(key.finalize()), modes.CTR(bytes(16))).encryptor()
    zeros = bytes(config.object_size)
    return tuple(stream.update(zeros) for _ in range(config.object_count))


@dataclass
class Scenario:
    """Constructed actors plus everything a run and its checks need."""

    config: ScenarioConfig
    endpoints: dict[str, Actor]
    usage: UsageDescriptor
    account_ref: str
    objects: tuple[bytes, ...]
    markers: PrivacyMarkers
    initial: list[WireMessage]

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

    account_ref = "ACCT-" + Random(f"{config.seed}/account-ref").randbytes(24).hex()
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
    initial = [WireMessage(from_id=config.requester_id, to_id=to_id, payload=kick)]
    return Scenario(
        config=config,
        endpoints=endpoints,
        usage=usage,
        account_ref=account_ref,
        objects=objects,
        markers=markers,
        initial=initial,
    )


def endpoints_factory(config: ScenarioConfig) -> Callable[[int], Mapping[str, Actor]]:
    """Rebuilder for transcript replay: same config, seed swapped in."""

    def factory(seed: int) -> Mapping[str, Actor]:
        return build_scenario(replace(config, seed=seed)).endpoints

    return factory


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
    invariant_failures: list[str] = field(default_factory=list)
    privacy: PrivacyReport | None = None

    def complete_success(self) -> bool:
        """Did the full happy path land, with clean books and clean privacy?"""
        return (
            self.business_outcome == "APPROVED"
            and not self.invariant_failures
            and (self.privacy is None or self.privacy.clean)
            and self.objects_retrieved == self.config.object_count
            and self.retrieval_mismatches == 0
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
        if self.privacy is not None:
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


def run_storage_scenario(
    config: ScenarioConfig,
    adversary: Adversary | None = None,
    scenario: Scenario | None = None,
) -> RunReport:
    """Build (unless given), run to quiescence, and audit one scenario."""
    if scenario is None:
        scenario = build_scenario(config)
    if adversary is None:
        adversary = Adversary.from_spec(config.adversary_spec)
    transcript = run_scenario(
        scenario.endpoints,
        scenario.initial,
        adversary=adversary,
        seed=config.seed,
        max_ticks=config.max_ticks,
    )

    requester = scenario.requester
    provider = scenario.provider
    trust_manager = scenario.trust_manager
    ledger = scenario.account_provider.ledger
    # each order as the requester and the provider keep it
    bought = requester.orders.values()
    sold = provider.orders.values()

    if ledger.settle_count >= 1 and any(o.phase == RequesterPhase.COMPLETED for o in bought):
        outcome = "APPROVED"
    elif trust_manager.denials:
        outcome = f"DENIED:{trust_manager.denials[0].name}"
    elif provider.denials:
        outcome = f"DENIED:{provider.denials[0].name}"
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
    # Compared with the uploaded bytes, not with the requester's own check.
    # An order's tickets are kept in grant order, one per uploaded object.
    # A retrieved object is a view, which compares with bytes item by item,
    # so it is compared as bytes.
    mismatches = 0
    for order in bought:
        uploaded = dict(zip(order.tickets, scenario.objects))
        mismatches += sum(bytes(obj) != uploaded.get(t) for t, obj in order.retrieved.items())
    if mismatches:
        failures.append(f"{mismatches} retrieved objects differ from the uploaded ones")
    for account in ledger.snapshot().accounts:
        held = sum(hold.amount for hold in account.holds)
        if account.settled_total + held > account.credit_limit:
            failures.append(
                f"account {account.account_ref_digest.hex()[:12]} over limit: "
                f"{account.settled_total} settled + {held} held > {account.credit_limit}"
            )

    captures = list(adversary.capture_log) if adversary is not None else []
    privacy = assert_privacy(
        transcript,
        provider.state_bytes(),
        trust_manager.state_bytes(),
        scenario.markers,
        provider_id=config.provider_id,
        trust_manager_id=config.trust_manager_id,
        captured=captures,
    )

    return RunReport(
        config=config,
        scenario=scenario,
        transcript=transcript,
        business_outcome=outcome,
        expected_price=config.expected_price,
        holds_created=ledger.holds_created(),
        settle_count=ledger.settle_count,
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
