"""Shared test rig: deterministic keys, a simnet call handle, actor builders."""
from __future__ import annotations

from random import Random

from gset import (
    AccountProvider,
    AccountProviderConfig,
    KeyPair,
    ProviderConfig,
    RequesterConfig,
    ServiceProvider,
    ServiceRequester,
    TrustManager,
    TrustManagerConfig,
    UsageDescriptor,
    generate_keypair,
)
from gset.simnet import _NetHandle, _Runner

ACTOR_IDS = ("SR", "SP", "TM", "AP")
KEY_SEED = 7

USAGE = UsageDescriptor(
    service_id="mobile-storage", operation="store-objects", quantity=3, unit="megabyte"
)
OBJECTS = (b"alpha" * 13, b"bravo" * 13, b"charlie" * 9)
ACCOUNT_REF = "ACCT-" + "ab" * 24


def make_keys(seed: int = KEY_SEED) -> dict[str, KeyPair]:
    return {name: generate_keypair(name, seed) for name in ACTOR_IDS}


def make_directory(keys: dict[str, KeyPair]) -> dict[str, bytes]:
    return {name: kp.public_key for name, kp in keys.items()}


class ActorSet:
    def __init__(self, sr, sp, tm, ap):
        self.sr = sr
        self.sp = sp
        self.tm = tm
        self.ap = ap
        self.registry = {a.subject_id: a for a in (sr, sp, tm, ap)}

    def net(self, caller_id: str, now: int = 0) -> _NetHandle:
        """The simnet's own call path, with no adversary, at tick ``now``."""
        runner = _Runner(self.registry, None, Random(0))
        runner.tick = now
        return _NetHandle(runner, caller_id)


def build_actors(
    *,
    limit: int = 60,
    credit: int = 500,
    rate: int = 10,
    sanity: bool = True,
    quote_ttl: int = 100,
    account_ref: str = ACCOUNT_REF,
    objects: tuple[bytes, ...] = OBJECTS,
    seed: int = KEY_SEED,
) -> ActorSet:
    keys = make_keys(seed)
    directory = make_directory(keys)
    sr = ServiceRequester(
        keys["SR"],
        directory,
        RequesterConfig(
            provider_id="SP",
            trust_manager_id="TM",
            account_provider_id="AP",
            account_ref=account_ref,
            authorized_limit=limit,
            objects=objects,
            enforce_limit_sanity=sanity,
        ),
        Random(f"{seed}/SR"),
    )
    sp = ServiceProvider(
        keys["SP"],
        directory,
        ProviderConfig(
            trust_manager_id="TM",
            pricing={USAGE.service_id: rate},
            quote_ttl=quote_ttl,
        ),
        Random(f"{seed}/SP"),
    )
    tm = TrustManager(
        keys["TM"],
        directory,
        TrustManagerConfig(account_providers=frozenset({"AP"})),
        Random(f"{seed}/TM"),
    )
    ap = AccountProvider(
        keys["AP"],
        directory,
        AccountProviderConfig(trust_managers=frozenset({"TM"})),
        Random(f"{seed}/AP"),
    )
    ap.open_account(account_ref, credit)
    return ActorSet(sr, sp, tm, ap)
