"""Deterministic simulated network with an interposable adversary.

One FIFO queue, one delivery per tick.  Every leg, the server-to-server
ones included, is a message an actor's ``deliver`` returns and the queue
delivers later; nothing runs nested inside another delivery.  So a
transcript is a faithful, replayable record of every byte that moved, in
the order it moved, including the legs the adversary touched.

The adversary operates strictly on encoded bytes.  It can observe, flip
bits, duplicate, or swallow messages; it cannot forge signatures or MACs
or open envelopes, which is exactly the boundary the protocol is supposed
to hold.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from enum import IntEnum
from pathlib import Path
from random import Random
from typing import Callable, Iterable, Mapping, Protocol, Sequence

from . import codec
from .codec import CodecError, ValidationError, canonical_message


class SimnetError(Exception):
    pass


class Actor(Protocol):
    subject_id: str

    def deliver(self, sender: str, raw: bytes, now: int) -> list[tuple[str, bytes]]: ...
    def state_bytes(self) -> bytes: ...


# --- adversary -----------------------------------------------------------------


class AdversaryMode(IntEnum):
    PASSIVE_EAVESDROP = 1
    TAMPER = 2
    REPLAY = 3
    DROP = 4


_MODE_NAMES = {
    AdversaryMode.PASSIVE_EAVESDROP: "eavesdrop",
    AdversaryMode.TAMPER: "tamper",
    AdversaryMode.REPLAY: "replay",
    AdversaryMode.DROP: "drop",
}
_NAME_MODES = {name: mode for mode, name in _MODE_NAMES.items()}


@dataclass
class Adversary:
    """On-path attacker working on wire bytes only.

    ``target`` is a message type name (as reported by the codec) or None
    for any message.  ``max_hits`` caps how many matching messages are
    acted on; 0 means unlimited.  Tamper mutations:

    * ``bit=rand``   flip one randomly chosen bit
    * ``bit=tail/K`` flip the bit K >= 1 positions before the end
    * ``bit=abs/K``  flip bit K >= 0 from the start

    Any other mutation raises ``SimnetError`` when the adversary is built.
    """

    mode: AdversaryMode
    target: str | None = None
    mutation: str = "bit=rand"
    max_hits: int = 1
    rng: Random | None = None
    hits: int = 0
    capture_log: list[bytes] = field(default_factory=list)

    def __post_init__(self) -> None:
        kind, _, arg = self.mutation.partition("/")
        k = int(arg) if arg.isascii() and arg.isdigit() else -1
        if self.mutation == "bit=rand":
            self._pick = lambda bits, rng: rng.randrange(bits)
        elif kind == "bit=tail" and k > 0:
            self._pick = lambda bits, rng: max(0, bits - k)
        elif kind == "bit=abs" and k >= 0:
            self._pick = lambda bits, rng: min(k, bits - 1)
        else:
            raise SimnetError(f"unknown mutation {self.mutation!r}")

    @property
    def spec(self) -> str:
        parts = [_MODE_NAMES[self.mode]]
        if self.target is not None:
            parts.append(self.target)
        if self.mode is AdversaryMode.TAMPER:
            parts.append(self.mutation)
        parts.append(str(self.max_hits))
        return ":".join(parts)

    @classmethod
    def from_spec(cls, spec: str) -> "Adversary | None":
        """Parse ``mode[:target][:mutation][:max_hits]``; "none" gives None."""
        text = spec.strip()
        if text == "" or text == "none":
            return None
        parts = text.split(":")
        mode = _NAME_MODES.get(parts[0])
        if mode is None:
            raise SimnetError(f"unknown adversary mode {parts[0]!r}")
        rest = parts[1:]
        max_hits = 0 if mode is AdversaryMode.PASSIVE_EAVESDROP else 1
        if rest and rest[-1].isdigit():
            max_hits = int(rest[-1])
            rest = rest[:-1]
        mutation = "bit=rand"
        if mode is AdversaryMode.TAMPER and rest and rest[-1].startswith("bit="):
            mutation = rest[-1]
            rest = rest[:-1]
        target: str | None = None
        if rest:
            if len(rest) > 1:
                raise SimnetError(f"cannot parse adversary spec {spec!r}")
            target = rest[0] or None
        if mode in (AdversaryMode.TAMPER, AdversaryMode.REPLAY, AdversaryMode.DROP) \
                and target is None:
            raise SimnetError(f"adversary mode {parts[0]!r} needs a target type")
        return cls(mode=mode, target=target, mutation=mutation, max_hits=max_hits)

    def _matches(self, payload: bytes) -> bool:
        if self.max_hits > 0 and self.hits >= self.max_hits:
            return False
        if self.target is None:
            return True
        try:
            return codec.peek_type(payload) == self.target
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

    def act(self, payload: bytes, rng: Random) -> tuple[str, bytes | None, list[bytes]]:
        """Interpose on one in-flight message.

        Returns (action, payload-to-deliver-or-None, extra copies to inject).
        """
        if not self._matches(payload):
            return ("", payload, [])
        self.hits += 1
        if self.mode is AdversaryMode.PASSIVE_EAVESDROP:
            self.capture_log.append(payload)
            return ("observed", payload, [])
        if self.mode is AdversaryMode.TAMPER:
            return ("tampered", self._mutate(payload, rng), [])
        if self.mode is AdversaryMode.REPLAY:
            return ("replayed", payload, [payload])
        return ("dropped", None, [])


# --- transcript ------------------------------------------------------------------

_ACTIONS = ("", "observed", "tampered", "replayed", "dropped")


@canonical_message
class WireMessage:
    from_id: str
    to_id: str
    payload: bytes

    def validate(self) -> None:
        if not self.from_id or not self.to_id:
            raise ValidationError("wire message needs both endpoint ids")
        if not self.payload:
            raise ValidationError("wire message payload must not be empty")


@canonical_message
class TranscriptRecord:
    tick: int
    from_id: str
    to_id: str
    payload: bytes
    action: str
    error: str

    def validate(self) -> None:
        if not self.from_id or not self.to_id:
            raise ValidationError("record needs both endpoint ids")
        if not self.payload:
            raise ValidationError("record payload must not be empty")
        if self.action not in _ACTIONS:
            raise ValidationError(f"unknown adversary action {self.action!r}")

    @property
    def delivered(self) -> bool:
        return self.action != "dropped" and not self.error


@canonical_message
class TranscriptMeta:
    seed: int
    max_ticks: int
    adversary_spec: str
    initial: tuple[WireMessage, ...]

    def validate(self) -> None:
        if self.max_ticks < 1:
            raise ValidationError("max_ticks must be at least 1")
        if not self.adversary_spec:
            raise ValidationError("adversary_spec must not be empty ('none' for no adversary)")


@dataclass(frozen=True)
class Transcript:
    """Everything that moved on the wire during one run, in order."""

    meta: TranscriptMeta
    records: tuple[TranscriptRecord, ...]

    def payloads(self) -> list[bytes]:
        return [r.payload for r in self.records]

    def to_bytes(self) -> bytes:
        chunks = [codec.encode(self.meta)]
        chunks += [codec.encode(record) for record in self.records]
        return b"".join(chunks)

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Transcript":
        items = codec.decode_stream(raw)
        if not items or not isinstance(items[0], TranscriptMeta):
            raise SimnetError("not a transcript: missing leading metadata block")
        records = []
        for item in items[1:]:
            if not isinstance(item, TranscriptRecord):
                raise SimnetError(f"transcript holds a stray {type(item).__name__}")
            records.append(item)
        return cls(meta=items[0], records=tuple(records))

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


def run_scenario(
    endpoints: Mapping[str, Actor],
    initial: Sequence[WireMessage],
    adversary: Adversary | None = None,
    seed: int = 0,
    max_ticks: int = 10_000,
) -> Transcript:
    """Pump the queue until empty or out of ticks; returns the transcript.

    Every delivery, drop and tamper lands in the transcript in execution
    order, one delivery per tick.  A copy the adversary injects is queued
    before what the receiving actor sends.
    """
    rng = None
    if adversary is not None:
        rng = adversary.rng if adversary.rng is not None else Random(f"{seed}/adversary")
    queue = deque((wire.from_id, wire.to_id, wire.payload) for wire in initial)
    records: list[TranscriptRecord] = []
    tick = 0
    while queue and tick < max_ticks:
        tick += 1
        frm, to, payload = queue.popleft()
        action, delivered = "", payload
        if adversary is not None:
            action, delivered, inject = adversary.act(payload, rng)
            queue.extend((frm, to, extra) for extra in inject)
        actor = endpoints.get(to)
        if delivered is None or actor is None:
            error = "" if delivered is None else f"no endpoint {to!r}"
            kept = payload if delivered is None else delivered
            records.append(TranscriptRecord(tick, frm, to, kept, action, error))
            continue
        records.append(TranscriptRecord(tick, frm, to, delivered, action, ""))
        try:
            out = actor.deliver(frm, delivered, tick)
        except Exception as exc:  # actors should never raise; keep the run honest
            records[-1] = replace(records[-1], error=f"{type(exc).__name__}: {exc}")
            continue
        queue.extend((to, dest, raw) for dest, raw in out)
    meta = TranscriptMeta(
        seed=seed,
        max_ticks=max_ticks,
        adversary_spec=adversary.spec if adversary is not None else "none",
        initial=tuple(initial),
    )
    return Transcript(meta=meta, records=tuple(records))


# --- replay-and-compare ------------------------------------------------------------


@dataclass(frozen=True)
class DivergenceReport:
    matches: bool
    first_divergence: int | None
    expected_records: int
    actual_records: int
    detail: str
    replayed: Transcript

    def __bool__(self) -> bool:
        return self.matches

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


def replay_transcript(
    transcript: Transcript,
    endpoints_factory: Callable[[int], Mapping[str, Actor]],
    adversary: Adversary | None = None,
) -> DivergenceReport:
    """Re-run a recorded scenario from scratch and diff the wire traffic.

    ``endpoints_factory(seed)`` must rebuild the actors exactly as the
    original run did.  The adversary is rebuilt from the recorded spec
    unless a custom one is supplied.
    """
    meta = transcript.meta
    if adversary is None:
        adversary = Adversary.from_spec(meta.adversary_spec)
    fresh = run_scenario(
        endpoints_factory(meta.seed),
        meta.initial,
        adversary=adversary,
        seed=meta.seed,
        max_ticks=meta.max_ticks,
    )
    expected = transcript.records
    actual = fresh.records
    limit = min(len(expected), len(actual))
    for index in range(limit):
        if expected[index] != actual[index]:
            return DivergenceReport(
                matches=False,
                first_divergence=index,
                expected_records=len(expected),
                actual_records=len(actual),
                detail=(
                    f"record {index} differs: expected "
                    f"{_describe(expected[index])}, got {_describe(actual[index])}"
                ),
                replayed=fresh,
            )
    if len(expected) != len(actual):
        return DivergenceReport(
            matches=False,
            first_divergence=limit,
            expected_records=len(expected),
            actual_records=len(actual),
            detail=f"record counts differ: {len(expected)} recorded, {len(actual)} replayed",
            replayed=fresh,
        )
    return DivergenceReport(
        matches=True,
        first_divergence=None,
        expected_records=len(expected),
        actual_records=len(actual),
        detail="replay is byte-identical",
        replayed=fresh,
    )


def _describe(record: TranscriptRecord) -> str:
    try:
        kind = codec.peek_type(record.payload)
    except CodecError:
        kind = "<garbled>"
    suffix = f" [{record.action}]" if record.action else ""
    return f"t{record.tick} {record.from_id}->{record.to_id} {kind}{suffix}"


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
        for hit in self.hits:
            lines.append(
                f"  {hit.location}: marker {hit.marker.hex()} at offset {hit.offset}"
            )
        return "\n".join(lines)


def scan_for_markers(location: str, blob: bytes, markers: Iterable[bytes]) -> list[PrivacyHit]:
    hits = []
    for marker in markers:
        offset = blob.find(marker)
        if offset >= 0:
            hits.append(PrivacyHit(location=location, marker=marker, offset=offset))
    return hits


def assert_privacy(
    transcript: Transcript,
    provider_state: bytes,
    trust_manager_state: bytes,
    markers: PrivacyMarkers,
    provider_id: str = "SP",
    trust_manager_id: str = "TM",
    captured: Sequence[bytes] = (),
) -> PrivacyReport:
    """Scan every byte each restricted party received or stored.

    Payment markers must be absent from everything the provider saw (wire
    and state) and from anything a passive eavesdropper captured; usage
    markers must be absent from everything the trust manager saw.
    """
    hits: list[PrivacyHit] = []
    checked = 2 + len(captured)
    for index, record in enumerate(transcript.records):
        if record.to_id == provider_id:
            checked += 1
            hits += scan_for_markers(
                f"wire->{provider_id} record {index}", record.payload, markers.payment_markers
            )
        elif record.to_id == trust_manager_id:
            checked += 1
            hits += scan_for_markers(
                f"wire->{trust_manager_id} record {index}", record.payload, markers.usage_markers
            )
    hits += scan_for_markers("provider-state", provider_state, markers.payment_markers)
    hits += scan_for_markers("trust-manager-state", trust_manager_state, markers.usage_markers)
    for index, blob in enumerate(captured):
        hits += scan_for_markers(f"captured[{index}]", blob, markers.payment_markers)
    return PrivacyReport(hits=tuple(hits), locations_checked=checked)
