"""Shared test rig: the four actors of a built scenario, and a simnet call handle."""
from __future__ import annotations

from gset import Adversary, AdversaryMode, Scenario, ScenarioConfig, build_scenario, peek_type
from gset.simnet import _NetHandle, _Runner

# build_actors keyword -> the ScenarioConfig field it sets
_FIELDS = {
    "limit": "authorized_limit",
    "credit": "credit_limit",
    "rate": "rate",
    "quote_ttl": "quote_ttl",
}


class ActorSet:
    """A built scenario's actors under short names."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.sr = scenario.requester
        self.sp = scenario.provider
        self.tm = scenario.trust_manager
        self.ap = scenario.account_provider
        self.registry = scenario.endpoints

    def net(self, caller_id: str, now: int = 0, drop: str | None = None) -> _NetHandle:
        """The simnet's own call path at tick ``now``: with no adversary, or
        with one that drops the first message of type ``drop``."""
        adversary = None if drop is None else Adversary(mode=AdversaryMode.DROP, target=drop)
        runner = _Runner(self.registry, adversary, None)
        runner.tick = now
        return _NetHandle(runner, caller_id)


def recorded(net: _NetHandle, tag: str) -> list[bytes]:
    """The payloads of type ``tag`` among the calls made through ``net``, as
    its runner recorded them (a dropped message included)."""
    return [r.payload for r in net._runner.records if peek_type(r.payload) == tag]


def build_actors(**knobs) -> ActorSet:
    """Actors of ``build_scenario``; each knob overrides one config field."""
    return ActorSet(build_scenario(ScenarioConfig(**{_FIELDS[k]: v for k, v in knobs.items()})))
