"""Shared test rig: the four actors of a built scenario, and a simnet call handle."""
from __future__ import annotations

from gset import Scenario, ScenarioConfig, build_scenario
from gset.simnet import _NetHandle, _Runner

# build_actors keyword -> the ScenarioConfig field it sets
_FIELDS = {
    "limit": "authorized_limit",
    "credit": "credit_limit",
    "rate": "rate",
    "sanity": "enforce_limit_sanity",
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

    def net(self, caller_id: str, now: int = 0) -> _NetHandle:
        """The simnet's own call path, with no adversary, at tick ``now``."""
        runner = _Runner(self.registry, None, None)
        runner.tick = now
        return _NetHandle(runner, caller_id)


def build_actors(**knobs) -> ActorSet:
    """Actors of ``build_scenario``; each knob overrides one config field."""
    return ActorSet(build_scenario(ScenarioConfig(**{_FIELDS[k]: v for k, v in knobs.items()})))
