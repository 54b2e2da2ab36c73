"""Deterministic simulated network with an interposable adversary.

One FIFO queue, one delivery per tick.  Each ``Send`` an actor's ``deliver``
returns, the server-to-server legs included, is queued and delivered later,
and each ``Event`` is kept with the record of its delivery, which gives it
its tick and its place.  So a transcript is a faithful, replayable record of
every byte that moved and every refusal, in order, including the legs the
adversary touched.

The adversary operates strictly on encoded bytes, in one of its ``MODES``:
it can observe, flip bits, duplicate, or swallow messages; it cannot forge
signatures or MACs or open envelopes, which is exactly the boundary the
protocol is supposed to hold.

A run's one input is its ``TranscriptMeta``: the seed, the tick budget, the
adversary spec ``mode[:target][:mutation][:max_hits]`` and the initial
messages.  ``run_scenario(endpoints, meta)`` builds the adversary from the
spec (``Adversary.from_spec``) for that run alone and returns the meta as
the transcript's first block.  Every random bit the adversary flips is drawn
from a stream the spec names under the seed (``bit=rand`` or
``bit=rand/N``), so ``replay_transcript`` is one more run of the recorded
meta on fresh actors, whose records and events must match.  What the
adversary did is the transcript's record actions; the records it
``observed`` are an eavesdropper's haul, which ``assert_privacy`` scans.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from enum import IntEnum
from pathlib import Path
from random import Random
from typing import Iterable, Mapping, Protocol

from . import codec
from .actors import Effects, Event
from .codec import CodecError, Label, Positive, ValidationError, canonical_message


class SimnetError(Exception):
    pass


class Actor(Protocol):
    """An endpoint: ``deliver`` returns effects, ``Send``s to queue and ``Event``s to record."""

    subject_id: str

    def deliver(self, sender: str, raw: bytes, now: int) -> Effects: ...
    def state_bytes(self) -> bytes: ...


# --- adversary -----------------------------------------------------------------


class Action(IntEnum):
    """What the adversary did to a record's message, shown as its name in lower case."""

    NONE, OBSERVED, TAMPERED, REPLAYED, DROPPED = range(5)


# Each adversary mode: its name in a spec, and the action its records carry.
MODES: dict[str, Action] = {
    "eavesdrop": Action.OBSERVED,
    "tamper": Action.TAMPERED,
    "replay": Action.REPLAYED,
    "drop": Action.DROPPED,
}


def _count(text: str) -> int:
    """``text`` as a count of at most 20 ASCII digits, as a u64 has, else -1."""
    return int(text) if text.isascii() and text.isdigit() and len(text) <= 20 else -1


@dataclass
class Adversary:
    """On-path attacker working on wire bytes only, named by its spec.

    ``action`` is its mode's ``MODES`` entry, what it does to each message
    it matches.  ``target`` is a message type name (as reported by the
    codec) or None for any message.  ``max_hits`` caps how many matching
    messages are acted on; 0 means unlimited.  Tamper mutations:

    * ``bit=rand``   flip one bit drawn from ``Random(f"{seed}/adversary")``
    * ``bit=rand/N`` flip one bit drawn from
      ``Random(f"{seed}/tamper/{target}/{N}")``, N >= 0: the N-th run of a
      tamper sweep over ``target``
    * ``bit=tail/K`` flip the bit K >= 1 positions before the end
    * ``bit=abs/K``  flip bit K >= 0 from the start

    ``seed`` is the run's, and ``stream`` names the stream under it, so the
    spec and the seed a transcript records are the whole adversary.  Any
    other mutation raises ``SimnetError`` when the adversary is built.
    ``hits`` counts within one run, which builds its own adversary.
    """

    action: Action
    target: str | None = None
    mutation: str = "bit=rand"
    max_hits: int = 1
    hits: int = 0
    stream: str = field(init=False, default="adversary")

    def __post_init__(self) -> None:
        kind, _, arg = self.mutation.partition("/")
        k = _count(arg)
        if kind == "bit=rand" and (self.mutation == kind or k >= 0):
            if k >= 0:
                self.stream = f"tamper/{self.target}/{k}"
            self._pick = lambda bits, rng: rng.randrange(bits)
        elif kind == "bit=tail" and k > 0:
            self._pick = lambda bits, rng: max(0, bits - k)
        elif kind == "bit=abs" and k >= 0:
            self._pick = lambda bits, rng: min(k, bits - 1)
        else:
            raise SimnetError(f"unknown mutation {self.mutation!r}")

    @classmethod
    def from_spec(cls, spec: str) -> "Adversary | None":
        """Parse ``mode[:target][:mutation][:max_hits]``; "none" gives None."""
        text = spec.strip()
        if text == "" or text == "none":
            return None
        mode, *rest = text.split(":")
        action = MODES.get(mode)
        if action is None:
            raise SimnetError(f"unknown adversary mode {mode!r}")
        max_hits = 0 if action is Action.OBSERVED else 1
        if rest and _count(rest[-1]) >= 0:
            max_hits = _count(rest.pop())
        mutation = "bit=rand"
        if action is Action.TAMPERED and rest and rest[-1].startswith("bit="):
            mutation = rest.pop()
        if len(rest) > 1:
            raise SimnetError(f"cannot parse adversary spec {spec!r}")
        target = (rest[0] or None) if rest else None
        if target is None and action is not Action.OBSERVED:
            raise SimnetError(f"adversary mode {mode!r} needs a target type")
        return cls(action, target, mutation, max_hits)

    def _matches(self, payload: bytes) -> bool:
        if self.max_hits > 0 and self.hits >= self.max_hits:
            return False
        try:
            return self.target is None or codec.peek_type(payload) == self.target
        except CodecError:
            return False

    def _mutate(self, payload: bytes, rng: Random) -> bytes:
        total_bits = len(payload) * 8
        if total_bits == 0:
            return payload
        index = self._pick(total_bits, rng)
        flipped = bytearray(payload)
        flipped[index // 8] ^= 1 << (7 - index % 8)
        return bytes(flipped)

    def act(self, payload: bytes, rng: Random) -> tuple[Action, bytes | None, list[bytes]]:
        """Interpose on one message: (action, payload to deliver or None, copies to inject)."""
        if not self._matches(payload):
            return (Action.NONE, payload, [])
        self.hits += 1
        if self.action is Action.TAMPERED:
            payload = self._mutate(payload, rng)
        copies = [payload] if self.action is Action.REPLAYED else []
        return (self.action, None if self.action is Action.DROPPED else payload, copies)


# --- transcript ------------------------------------------------------------------

@canonical_message
class WireMessage:
    from_id: Label
    to_id: Label
    payload: bytes

    def validate(self) -> None:
        if not self.payload:
            raise ValidationError("wire message payload must not be empty")


@canonical_message
class TranscriptRecord:
    tick: int
    from_id: Label
    to_id: Label
    payload: bytes
    action: Action
    error: str

    def validate(self) -> None:
        if not self.payload:
            raise ValidationError("record payload must not be empty")

    @property
    def delivered(self) -> bool:
        return self.action is not Action.DROPPED and not self.error

    @property
    def type_name(self) -> str:
        """The payload's message type, or ``<garbled>`` when it names none."""
        try:
            return codec.peek_type(self.payload)
        except CodecError:
            return "<garbled>"


@canonical_message
class TranscriptMeta:
    seed: int
    max_ticks: Positive
    adversary_spec: Label  # "none" for no adversary
    initial: tuple[WireMessage, ...]


Step = tuple[TranscriptRecord, tuple[Event, ...]]  # a record and the events its delivery drew


@dataclass(frozen=True)
class Transcript:
    """Everything that moved on the wire during one run, in order, each
    record with the events it drew; its bytes hold each record followed by
    its events."""

    meta: TranscriptMeta
    steps: tuple[Step, ...]

    @property
    def records(self) -> tuple[TranscriptRecord, ...]:
        return tuple(record for record, _ in self.steps)

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(event for _, events in self.steps for event in events)

    def payloads(self) -> list[bytes]:
        return [record.payload for record, _ in self.steps]

    def to_bytes(self) -> bytes:
        chunks = [codec.encode(self.meta)]
        for record, events in self.steps:
            chunks += [codec.encode(record), *map(codec.encode, events)]
        return b"".join(chunks)

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Transcript":
        items = codec.decode_stream(raw)
        if not items or not isinstance(items[0], TranscriptMeta):
            raise SimnetError("not a transcript: missing leading metadata block")
        steps: list[tuple[TranscriptRecord, list[Event]]] = []
        for item in items[1:]:
            if isinstance(item, TranscriptRecord):
                steps.append((item, []))
            elif isinstance(item, Event) and steps:  # drawn by the record before it
                steps[-1][1].append(item)
            else:  # another type, or an event before any record
                raise SimnetError(f"stray {type(item).__name__} after {len(steps)} records")
        return cls(items[0], tuple((record, tuple(events)) for record, events in steps))

    @classmethod
    def load(cls, path: str | Path) -> "Transcript":
        return cls.from_bytes(Path(path).read_bytes())


# --- runner ----------------------------------------------------------------------


class _NetHandle:
    """An empty stub: no delivery runs inside another.

    ``perfbench/tracing.py`` wraps ``_NetHandle.call`` as its
    ``simnet.net_call`` span, which therefore never opens; delete this class
    together with that entry.
    """

    call = None


def run_scenario(endpoints: Mapping[str, Actor], meta: TranscriptMeta) -> Transcript:
    """Run ``meta`` on ``endpoints``: pump the queue until empty or out of
    ticks, under the adversary ``meta.adversary_spec`` names, built for this
    run alone.  Returns the transcript of ``meta`` as given.

    Every delivery, drop, tamper and event lands in the transcript in
    execution order, one delivery per tick.  A copy the adversary injects is
    queued before what the receiving actor sends.
    """
    adversary = Adversary.from_spec(meta.adversary_spec)
    rng = None if adversary is None else Random(f"{meta.seed}/{adversary.stream}")
    queue = deque((wire.from_id, wire.to_id, wire.payload) for wire in meta.initial)
    steps: list[Step] = []
    tick = 0
    while queue and tick < meta.max_ticks:
        tick += 1
        frm, to, payload = queue.popleft()
        action, delivered = Action.NONE, payload
        if adversary is not None:
            action, delivered, inject = adversary.act(payload, rng)
            queue.extend((frm, to, extra) for extra in inject)
        actor = endpoints.get(to)
        if delivered is None or actor is None:
            error = "" if delivered is None else f"no endpoint {to!r}"
            kept = payload if delivered is None else delivered
            steps.append((TranscriptRecord(tick, frm, to, kept, action, error), ()))
            continue
        record = TranscriptRecord(tick, frm, to, delivered, action, "")
        try:
            out = actor.deliver(frm, delivered, tick)
        except Exception as exc:  # actors should never raise; keep the run honest
            steps.append((replace(record, error=f"{type(exc).__name__}: {exc}"), ()))
            continue
        steps.append((record, tuple(effect for effect in out if isinstance(effect, Event))))
        queue.extend((to, *effect) for effect in out if not isinstance(effect, Event))
    return Transcript(meta, tuple(steps))


# --- replay-and-compare ------------------------------------------------------------


@dataclass(frozen=True)
class DivergenceReport:
    matches: bool
    first_divergence: int | None
    expected_records: int
    actual_records: int
    detail: str
    replayed: Transcript

    def render(self) -> str:
        verdict = "MATCH" if self.matches else "DIVERGED"
        lines = [
            f"replay: {verdict}",
            f"records: {self.expected_records} recorded, {self.actual_records} replayed",
        ]
        if self.first_divergence is not None:
            lines.append(f"first divergence at record {self.first_divergence}")
        lines.append(self.detail)
        return "\n".join(lines)


def replay_transcript(transcript: Transcript, endpoints: Mapping[str, Actor]) -> DivergenceReport:
    """Re-run a recorded meta on ``endpoints`` and diff each record and the events it drew.

    ``endpoints`` must be actors built afresh exactly as the original run's
    were; the adversary is rebuilt from the recorded spec.
    """
    fresh = run_scenario(endpoints, transcript.meta)
    expected = transcript.steps
    actual = fresh.steps
    index = next((i for i, pair in enumerate(zip(expected, actual)) if pair[0] != pair[1]), None)
    if index is not None:
        detail = (
            f"record {index} differs: expected "
            f"{_describe(*expected[index])}, got {_describe(*actual[index])}"
        )
    elif len(expected) != len(actual):
        index = min(len(expected), len(actual))
        detail = f"record counts differ: {len(expected)} recorded, {len(actual)} replayed"
    else:
        detail = "replay is byte-identical, events included"
    return DivergenceReport(
        matches=index is None,
        first_divergence=index,
        expected_records=len(expected),
        actual_records=len(actual),
        detail=detail,
        replayed=fresh,
    )


def _describe(record: TranscriptRecord, events: tuple[Event, ...]) -> str:
    suffix = f" [{record.action.name.lower()}]" if record.action else ""
    drew = "".join(f"; {event}" for event in events)
    return f"t{record.tick} {record.from_id}->{record.to_id} {record.type_name}{suffix}{drew}"


# --- privacy scanning ----------------------------------------------------------------


@dataclass(frozen=True)
class PrivacyMarkers:
    """Byte patterns that must stay on their own side of the privacy split.

    ``payment_markers`` must never surface at the provider or on the open
    wire; ``usage_markers`` must never surface at the trust manager.
    """

    payment_markers: tuple[bytes, ...]
    usage_markers: tuple[bytes, ...]


@dataclass(frozen=True)
class PrivacyHit:
    location: str
    marker: bytes
    offset: int


@dataclass(frozen=True)
class PrivacyReport:
    hits: tuple[PrivacyHit, ...]
    locations_checked: int

    @property
    def clean(self) -> bool:
        return not self.hits

    def render(self) -> str:
        verdict = "CLEAN" if self.clean else f"{len(self.hits)} HIT(S)"
        lines = [f"privacy scan: {verdict} over {self.locations_checked} locations"]
        lines += (f"  {hit.location}: marker {hit.marker.hex()} at offset {hit.offset}"
                  for hit in self.hits)
        return "\n".join(lines)


def scan_for_markers(location: str, blob: bytes, markers: Iterable[bytes]) -> list[PrivacyHit]:
    found = ((marker, blob.find(marker)) for marker in markers)
    return [PrivacyHit(location, marker, at) for marker, at in found if at >= 0]


def assert_privacy(
    transcript: Transcript,
    provider_state: bytes,
    trust_manager_state: bytes,
    markers: PrivacyMarkers,
    provider_id: str = "SP",
    trust_manager_id: str = "TM",
) -> PrivacyReport:
    """Scan every byte each restricted party received, stored or returned.

    Payment markers must be absent from everything the provider saw (wire
    and state) or returned as an event, and from every record a passive
    eavesdropper observed, its haul; usage markers must be absent from
    everything the trust manager saw or returned.
    """
    captured = [r.payload for r in transcript.records if r.action is Action.OBSERVED]
    hits: list[PrivacyHit] = []
    checked = 2 + len(captured)
    restricted = {provider_id: markers.payment_markers, trust_manager_id: markers.usage_markers}
    for index, record in enumerate(transcript.records):
        if record.to_id in restricted:
            checked += 1
            hits += scan_for_markers(
                f"wire->{record.to_id} record {index}", record.payload, restricted[record.to_id]
            )
    for index, event in enumerate(transcript.events):
        if event.actor in restricted:
            checked += 1
            hits += scan_for_markers(
                f"{event.actor} event {index}", codec.encode(event), restricted[event.actor]
            )
    hits += scan_for_markers("provider-state", provider_state, markers.payment_markers)
    hits += scan_for_markers("trust-manager-state", trust_manager_state, markers.usage_markers)
    for index, blob in enumerate(captured):
        hits += scan_for_markers(f"captured[{index}]", blob, markers.payment_markers)
    return PrivacyReport(hits=tuple(hits), locations_checked=checked)
