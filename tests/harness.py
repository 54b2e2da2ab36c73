"""Shared test rig: the four actors of a built scenario, and a way to run
the servers' legs through the simnet's queue."""
from __future__ import annotations

from dataclasses import replace

from gset import (
    Event,
    Scenario,
    ScenarioConfig,
    TranscriptRecord,
    WireMessage,
    build_scenario,
    peek_type,
    run_scenario,
)

# build_actors keyword -> the ScenarioConfig field it sets
_FIELDS = {
    "limit": "authorized_limit",
    "credit": "credit_limit",
    "rate": "rate",
    "quote_ttl": "quote_ttl",
}


class ActorSet:
    """A built scenario's actors under short names, and the events of every
    ``run`` so far, in order."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.sr = scenario.requester
        self.sp = scenario.provider
        self.tm = scenario.trust_manager
        self.ap = scenario.account_provider
        self.registry = scenario.endpoints
        self.events: list[Event] = []

    def run(
        self, sender: str, to: str, raw: bytes, drop: str | None = None
    ) -> tuple[TranscriptRecord, ...]:
        """Deliver ``raw`` from ``sender`` to ``to`` on ``run_scenario``'s queue,
        then every message the servers send in turn, until the queue is empty.

        The requester takes no part: what is sent to it is recorded with a
        "no endpoint" error and not delivered, so a test plays its steps.
        With ``drop``, the first message of that type is dropped.  Returns the
        run's records, the delivery of ``raw`` first; its events are appended
        to ``events``.
        """
        servers = {k: v for k, v in self.registry.items() if k != self.sr.subject_id}
        meta = replace(
            self.scenario.meta,
            adversary_spec="none" if drop is None else f"drop:{drop}:1",
            initial=(WireMessage(sender, to, raw),),
        )
        transcript = run_scenario(servers, meta)
        self.events += transcript.events
        return transcript.records


def recorded(records, tag: str) -> list[bytes]:
    """The payloads of type ``tag`` among ``records``, a dropped one included."""
    return [r.payload for r in records if peek_type(r.payload) == tag]


def build_actors(**knobs) -> ActorSet:
    """Actors of ``build_scenario``; each knob overrides one config field."""
    return ActorSet(build_scenario(ScenarioConfig(**{_FIELDS[k]: v for k, v in knobs.items()})))
