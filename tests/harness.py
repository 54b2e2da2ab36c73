"""Shared test rig: the four actors of a built scenario, a way to run the
servers' legs through the simnet's queue, and one party's view of a run."""
from __future__ import annotations

import dataclasses
import typing
from dataclasses import replace

from gset import (
    Digest,
    Event,
    RunReport,
    Scenario,
    ScenarioConfig,
    SealedEnvelope,
    Signature,
    TranscriptRecord,
    WireMessage,
    build_scenario,
    codec,
    peek_type,
    run_scenario,
)
from gset.codec import Mac

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


# The fields whose bytes hide what they were made from, beside every Digest
# and every Mac: a view compares them by length only.
_OPAQUE_FIELDS = {(Signature, "bytes"), (SealedEnvelope, "ciphertext")}


def _differences(a, b, hint, where: str) -> list[str]:
    """Where ``a`` and ``b``, two values of type ``hint``, differ field by
    field, each opaque field by its length.  A mapping pairs its entries in
    their encoded order."""
    if type(a) is not type(b):
        return [f"{where}: {type(a).__name__} != {type(b).__name__}"]
    if hint is Mac or isinstance(a, Digest):
        a, b = len(a if hint is Mac else a.bytes), len(b if hint is Mac else b.bytes)
    elif dataclasses.is_dataclass(a):
        hints = typing.get_type_hints(type(a))
        found = []
        for f in dataclasses.fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if (type(a), f.name) in _OPAQUE_FIELDS:
                x, y = len(x), len(y)
            found += _differences(x, y, hints[f.name], f"{where}.{f.name}")
        return found
    elif isinstance(a, (tuple, dict)):
        args = typing.get_args(hint)
        if len(a) != len(b):
            return [f"{where}: {len(a)} entries != {len(b)}"]
        if isinstance(a, tuple):
            pairs = [(x, y, args[0], f"{where}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
        else:
            pairs = [(x, y, args[0], f"{where} key") for x, y in zip(a, b)]
            pairs += [(a[x], b[y], args[1], f"{where}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
        return [d for x, y, tp, at in pairs for d in _differences(x, y, tp, at)]
    return [] if a == b else [f"{where}: {a!r} != {b!r}"]


def view_differences(party: str, a: RunReport, b: RunReport) -> list[str]:
    """Where ``party``'s view of run ``a`` differs from its view of run ``b``:
    every record it receives or sends, each payload decoded field by field,
    its events and its decoded ``state_bytes()``.  A digest, MAC, signature
    or ciphertext is compared by its length, and every other field must be
    equal.  Empty when the party cannot tell the two runs apart, up to the
    cryptography."""
    views = []
    for report in (a, b):
        transcript = report.transcript
        records = [r for r in transcript.records if party in (r.from_id, r.to_id)]
        actor = report.scenario.endpoints[party]
        views.append((
            [((r.tick, r.from_id, r.to_id, r.action, r.error), codec.decode(r.payload))
             for r in records],
            [e for e in transcript.events if e.actor == party],
            codec.decode(actor.state_bytes(), type(actor)._State),
        ))
    (records, events, state), (records_b, events_b, state_b) = views
    found = _differences(len(records), len(records_b), int, f"{party} records")
    for i, ((route, msg), (route_b, msg_b)) in enumerate(zip(records, records_b)):
        if route != route_b:
            found.append(f"{party} record {i}: {route} != {route_b}")
        found += _differences(msg, msg_b, type(msg), f"{party} record {i} payload")
    found += _differences(tuple(events), tuple(events_b), tuple[Event, ...], f"{party} events")
    return found + _differences(state, state_b, type(state), f"{party} state")
