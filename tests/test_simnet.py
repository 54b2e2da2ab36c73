"""Deterministic transport, adversary interposition, transcripts, replay."""
from __future__ import annotations

import dataclasses
import string
import typing
from collections import deque
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gset import (
    Action,
    Adversary,
    DenialReason,
    Digest,
    Event,
    EventKind,
    PrivacyMarkers,
    ScenarioConfig,
    SimnetError,
    Transcript,
    TranscriptMeta,
    TranscriptRecord,
    WireMessage,
    assert_privacy,
    build_scenario,
    codec,
    replay_transcript,
    run_scenario,
    run_storage_scenario,
    scan_for_markers,
)
from gset.attacks import REPLAY_TARGETS
from gset.codec import Bulk
from gset.simnet import MODES

from harness import recorded, view_differences

CONFIG = ScenarioConfig()


def run_once(adversary_spec: str = "none", **overrides):
    config = dataclasses.replace(CONFIG, adversary_spec=adversary_spec, **overrides)
    return run_storage_scenario(config)


# --- adversary specs ----------------------------------------------------------


def test_no_adversary_specs():
    assert Adversary.from_spec("none") is None
    assert Adversary.from_spec("") is None


def test_eavesdrop_spec_defaults_to_unlimited():
    adversary = Adversary.from_spec("eavesdrop")
    assert adversary.action is Action.OBSERVED
    assert adversary.max_hits == 0


def test_tamper_spec_parses():
    adversary = Adversary.from_spec("tamper:AuthorizationRequest:bit=tail/100:1")
    assert adversary.action is Action.TAMPERED
    assert adversary.target == "AuthorizationRequest"
    assert adversary.mutation == "bit=tail/100"
    assert adversary.max_hits == 1


def test_active_modes_require_a_target():
    for bad in ("tamper", "replay", "drop", "tamper:", "unknownmode:X"):
        with pytest.raises(SimnetError):
            Adversary.from_spec(bad)


def test_each_mode_is_named_by_its_spec_name():
    # one action per spec name, and one spec name per action but NONE
    assert list(MODES) == ["eavesdrop", "tamper", "replay", "drop"]
    assert sorted(MODES.values()) == [action for action in Action if action is not Action.NONE]
    for name, action in MODES.items():
        assert Adversary.from_spec(f"{name}:PriceQuote").action is action
    with pytest.raises(SimnetError) as exc:
        Adversary.from_spec("TAMPER:PriceQuote")
    assert str(exc.value) == "unknown adversary mode 'TAMPER'"


@pytest.mark.parametrize(
    "spec",
    ["tamper:PriceQuote:\u00b2", "drop:PriceQuote:\u0663", "tamper:PriceQuote:bit=abs/\u0663:1",
     "drop:PriceQuote:" + "9" * 5000, "tamper:PriceQuote:bit=abs/" + "9" * 5000],
)
def test_a_count_not_of_at_most_20_ascii_digits_is_refused(spec):
    with pytest.raises(SimnetError):
        Adversary.from_spec(spec)


# Specs built from ":", "/", "=", ASCII letters and digits, "\u00b2" and
# "\u0663": a mode, or any text, then up to three parts.
SPEC_CHARS = "/=" + string.ascii_letters + string.digits + "\u00b2\u0663"
SPEC_MODE = st.one_of(st.sampled_from([*MODES, "none"]), st.text(SPEC_CHARS, max_size=8))
SPEC_PART = st.one_of(
    st.sampled_from(["PriceQuote", "bit=rand", "bit=tail/", "bit=abs/", "1", "\u00b2", "\u0663"]),
    st.text(SPEC_CHARS, max_size=8),
)
SPECS = st.tuples(SPEC_MODE, st.lists(SPEC_PART, max_size=3)).map(lambda t: ":".join([t[0], *t[1]]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(SPECS)
def test_a_spec_parses_to_an_adversary_or_none_or_raises_simnet_error(spec):
    try:
        adversary = Adversary.from_spec(spec)
    except SimnetError:
        return
    assert adversary is None or isinstance(adversary, Adversary)


def test_a_numbered_random_flip_draws_from_its_sweep_stream():
    honest = run_once()
    tampered = run_once("tamper:AuthorizationRequest:bit=rand/3:1")
    assert tampered.transcript.meta.adversary_spec == "tamper:AuthorizationRequest:bit=rand/3:1"
    [index] = [i for i, r in enumerate(tampered.transcript.records) if r.action is Action.TAMPERED]
    before = honest.transcript.records[index].payload
    after = tampered.transcript.records[index].payload
    bit = Random("7/tamper/AuthorizationRequest/3").randrange(len(before) * 8)
    flipped = bytearray(before)
    flipped[bit // 8] ^= 1 << (7 - bit % 8)
    assert after == bytes(flipped)


@pytest.mark.parametrize(
    "mutation",
    ["bit=tail/x", "bit=tail", "bit=tail/0", "bit=abs/-9", "bit=bogus",
     "bit=rand/", "bit=rand/x", "bit=rand/-1"],
)
def test_malformed_mutation_is_refused_when_the_adversary_is_built(mutation):
    with pytest.raises(SimnetError):
        Adversary.from_spec(f"tamper:PriceQuote:{mutation}:1")


def test_tail_mutation_flips_a_bit_near_the_end():
    adversary = Adversary.from_spec("tamper:PriceQuote:bit=tail/9:1")
    payload = bytes(16)
    mutated = adversary._mutate(payload, Random(0))
    assert mutated != payload
    assert len(mutated) == len(payload)
    flipped = [i for i in range(len(payload)) if mutated[i] != payload[i]]
    assert flipped == [14]  # bit 119 of 128, MSB-first


def test_abs_mutation_flips_the_named_bit():
    adversary = Adversary.from_spec("tamper:PriceQuote:bit=abs/0:1")
    mutated = adversary._mutate(bytes(4), Random(0))
    assert mutated == b"\x80\x00\x00\x00"


# --- deterministic happy path ---------------------------------------------------


def test_happy_path_completes_and_is_deterministic():
    first = run_once()
    second = run_once()
    assert first.business_outcome == "APPROVED"
    assert first.complete_success()
    assert first.transcript.events == ()  # the happy path draws no event
    assert first.transcript.to_bytes() == second.transcript.to_bytes()


def test_happy_path_books_match_the_quote():
    report = run_once()
    assert report.expected_price == 30
    assert report.holds_created == 1
    assert report.settle_count == 1
    assert report.settled_total == 30
    assert report.provider_receivable == 30
    assert report.objects_retrieved == 3
    assert report.invariant_failures == []


def test_final_states_are_deterministic():
    a = build_scenario(CONFIG)
    b = build_scenario(CONFIG)
    run_scenario(a.endpoints, a.meta)
    run_scenario(b.endpoints, b.meta)
    states_a = {sid: actor.state_bytes() for sid, actor in a.endpoints.items()}
    states_b = {sid: actor.state_bytes() for sid, actor in b.endpoints.items()}
    assert sorted(states_a) == ["AP", "SP", "SR", "TM"]
    assert states_a == states_b


def test_one_top_level_delivery_per_tick():
    # every leg is a queued message, the server-to-server ones included, so
    # no delivery shares its tick with another
    for config in (CONFIG, ScenarioConfig(object_count=16, object_size=65536)):
        records = run_storage_scenario(config).transcript.records
        assert [r.tick for r in records] == list(range(1, len(records) + 1))


def test_transcript_meta_pins_the_run():
    report = run_once()
    meta = report.transcript.meta
    assert meta.seed == CONFIG.seed
    assert meta.adversary_spec == "none"
    assert len(meta.initial) == 1
    assert codec.peek_type(meta.initial[0].payload) == "PriceRequest"


# --- transcript persistence ------------------------------------------------------


def test_transcript_bytes_round_trip(tmp_path):
    transcript = run_once().transcript
    again = Transcript.from_bytes(transcript.to_bytes())
    assert again == transcript
    path = tmp_path / "run.gsett"
    transcript.save(path)
    assert Transcript.load(path) == transcript


TAMPERED_AUTHORIZATION = "tamper:AuthorizationRequest:bit=tail/100:1"


def test_each_event_follows_the_record_that_drew_it():
    transcript = run_once(TAMPERED_AUTHORIZATION).transcript
    drawn = [(record.tick, e.actor, e.kind) for record, events in transcript.steps for e in events]
    assert drawn == [
        (3, "SP", EventKind.AUTHORIZATION_REFUSED), (4, "SR", EventKind.AUTHORIZATION_DENIED)
    ]
    raw = transcript.to_bytes()
    entries = [type(item).__name__ for item in codec.decode_stream(raw)[1:]]
    record = "TranscriptRecord"
    assert entries == [record, record, record, "Event", record, "Event"]
    assert Transcript.from_bytes(raw) == transcript


def _stream(*entries) -> bytes:
    return b"".join(codec.encode(entry) for entry in entries)


def test_an_event_before_any_record_is_refused():
    transcript = run_once(TAMPERED_AUTHORIZATION).transcript
    meta, records, (first, second) = transcript.meta, transcript.records, transcript.events
    with pytest.raises(SimnetError, match="stray Event after 0 records"):
        Transcript.from_bytes(_stream(meta, first, *records, second))


def test_an_event_belongs_to_the_record_before_it():
    # an event carries no tick: its place in the bytes is its record
    transcript = run_once(TAMPERED_AUTHORIZATION).transcript
    meta, records, (first, second) = transcript.meta, transcript.records, transcript.events
    moved = Transcript.from_bytes(_stream(meta, *records, first, second))
    assert moved.records == records and moved.events == (first, second)
    assert moved.steps[2] == (records[2], ()) and moved.steps[-1] == (records[-1], (first, second))
    assert moved != transcript


def test_transcript_bytes_must_start_with_meta():
    transcript = run_once().transcript
    record_bytes = codec.encode(transcript.records[0])
    with pytest.raises(SimnetError):
        Transcript.from_bytes(record_bytes)


def test_transcript_helpers_filter_by_recipient():
    transcript = run_once().transcript
    to_provider = [r for r in transcript.records if r.to_id == "SP" and r.delivered]
    assert to_provider
    assert len(transcript.payloads()) == len(transcript.records)


# --- scheduler edge cases --------------------------------------------------------


class EchoActor:
    """Minimal endpoint: replies once to whoever wrote to it."""

    def __init__(self, subject_id: str, reply_to: str | None = None):
        self.subject_id = subject_id
        self.reply_to = reply_to
        self.inbox: list[bytes] = []

    def deliver(self, sender, raw, now):
        self.inbox.append(raw)
        if self.reply_to:
            target, self.reply_to = self.reply_to, None
            return [(target, raw)]
        return []

    def state_bytes(self):
        return b"".join(self.inbox)


class FaultyActor(EchoActor):
    def deliver(self, sender, raw, now):
        raise RuntimeError("synthetic actor fault")


def wire(frm: str, to: str, payload: bytes = b"\x00\x00\x00\x01x") -> WireMessage:
    return WireMessage(frm, to, payload)


def run_meta(*initial: WireMessage, max_ticks: int = 10_000) -> TranscriptMeta:
    return TranscriptMeta(seed=1, max_ticks=max_ticks, adversary_spec="none", initial=initial)


def test_undeliverable_destination_becomes_an_error_record():
    a = EchoActor("A")
    transcript = run_scenario({"A": a}, run_meta(wire("A", "NOWHERE")))
    (record,) = transcript.records
    assert record.error != ""
    assert not record.delivered
    assert a.inbox == []


def test_actor_exception_becomes_an_error_record():
    transcript = run_scenario({"A": FaultyActor("A")}, run_meta(wire("X", "A")))
    (record,) = transcript.records
    assert "synthetic actor fault" in record.error
    assert not record.delivered


def test_max_ticks_stops_the_run():
    # two echoes bouncing a payload forever
    a = EchoActor("A", reply_to="B")
    b = EchoActor("B", reply_to="A")

    def rearm(actor, target):
        original = actor.deliver

        def forever(sender, raw, now):
            actor.inbox.append(raw)
            return [(target, raw)]

        actor.deliver = forever

    rearm(a, "B")
    rearm(b, "A")
    transcript = run_scenario({"A": a, "B": b}, run_meta(wire("A", "B"), max_ticks=5))
    assert len(transcript.records) == 5


def test_empty_initial_messages_make_an_empty_transcript():
    transcript = run_scenario({"A": EchoActor("A")}, run_meta())
    assert transcript.records == ()


# --- adversary end-to-end ---------------------------------------------------------


def test_tampered_authorization_is_denied_as_bad_signature():
    report = run_once("tamper:AuthorizationRequest:bit=tail/100:1")
    assert report.business_outcome == "DENIED:BAD_SIGNATURE"
    assert report.holds_created == 0
    assert report.settle_count == 0
    tampered = [r for r in report.transcript.records if r.action is Action.TAMPERED]
    assert len(tampered) == 1


def test_replayed_hold_instruction_creates_exactly_one_hold():
    report = run_once("replay:AuthorizeAndHold:1")
    assert report.business_outcome == "APPROVED"
    assert report.holds_created == 1
    assert report.settle_count == 1
    replayed = [r for r in report.transcript.records if r.action is Action.REPLAYED]
    assert len(replayed) == 1


@pytest.mark.parametrize("target", ["ServiceComplete", "ObjectUpload"])
def test_replayed_completion_or_upload_is_served_and_captured_once(target):
    report = run_once(f"replay:{target}:1")
    assert report.business_outcome == "APPROVED"
    sent = [codec.peek_type(r.payload) for r in report.transcript.records]
    assert sent.count(target) == 2
    assert sent.count("ServiceGrant") == 1
    assert sent.count("CaptureRequest") == 1


# One drop of each wire type at seed 11: (type, outcome, holds placed,
# settlements, provider booked, account settled, credit still held).
SINGLE_DROPS = [
    ("PriceRequest", "INCOMPLETE", 0, 0, 0, 0, 0),
    ("PriceQuote", "INCOMPLETE", 0, 0, 0, 0, 0),
    ("AuthorizationRequest", "INCOMPLETE", 0, 0, 0, 0, 0),
    ("AuthorizeAndHold", "INCOMPLETE", 0, 0, 0, 0, 0),
    # A lost hold leg leaves the trust manager's hold pending, with no
    # denial (test below).
    ("HoldRequest", "INCOMPLETE", 0, 0, 0, 0, 0),
    # Stranded credit (ROADMAP item 3): the account provider keeps the hold
    # while the trust manager waits for its answer, and every drop after it
    # until the settlement leaves the hold open with nothing to release it.
    ("HoldResponse", "INCOMPLETE", 1, 0, 0, 0, 30),
    ("AuthOutcome", "INCOMPLETE", 1, 0, 0, 0, 30),
    ("AuthDecision", "INCOMPLETE", 1, 0, 0, 0, 30),
    ("ObjectUpload", "INCOMPLETE", 1, 0, 0, 0, 30),
    ("ServiceGrant", "INCOMPLETE", 1, 0, 0, 0, 30),
    ("TicketRedeemRequest", "INCOMPLETE", 1, 0, 0, 0, 30),
    ("TicketRedeemResponse", "INCOMPLETE", 1, 0, 0, 0, 30),
    ("ServiceComplete", "INCOMPLETE", 1, 0, 0, 0, 30),
    ("CaptureRequest", "INCOMPLETE", 1, 0, 0, 0, 30),
    ("SettleRequest", "INCOMPLETE", 1, 0, 0, 0, 30),
    # Books that disagree (ROADMAP item 3): the account settled what the
    # provider never booked, and the report passes it as APPROVED.
    ("SettleResponse", "APPROVED", 1, 1, 0, 30, 0),
    ("CaptureResponse", "APPROVED", 1, 1, 0, 30, 0),
]


def test_single_drops_cover_every_wire_type():
    assert sorted(row[0] for row in SINGLE_DROPS) == sorted(REPLAY_TARGETS)


@pytest.mark.parametrize(
    "target, outcome, holds, settles, booked, settled, held",
    SINGLE_DROPS,
    ids=[row[0] for row in SINGLE_DROPS],
)
def test_a_single_drop_leaves_these_books(target, outcome, holds, settles, booked, settled, held):
    report = run_storage_scenario(ScenarioConfig(seed=11, adversary_spec=f"drop:{target}:1"))
    assert report.business_outcome == outcome
    assert report.holds_created == holds
    assert report.settle_count == settles
    assert report.provider_receivable == booked
    assert report.settled_total == settled
    assert report.scenario.account_provider.ledger.total_held() == held
    assert report.invariant_failures == []
    dropped = [r for r in report.transcript.records if r.action is Action.DROPPED]
    assert len(dropped) == 1
    assert not dropped[0].delivered
    if target in ("HoldRequest", "HoldResponse"):
        assert [e for e in report.transcript.events if e.actor == "TM"] == []


def test_eavesdropper_sees_everything_but_learns_no_payment_secrets():
    config = dataclasses.replace(CONFIG, adversary_spec="eavesdrop")
    report = run_storage_scenario(config)
    assert report.complete_success()
    records = report.transcript.records
    assert all(record.action is Action.OBSERVED for record in records)
    for record in records:
        markers = report.scenario.markers.payment_markers
        assert scan_for_markers("capture", record.payload, markers) == []


def test_tamper_budget_limits_the_number_of_hits():
    report = run_once("tamper:TicketRedeemRequest:bit=tail/9:2")
    tampered = [r for r in report.transcript.records if r.action is Action.TAMPERED]
    assert len(tampered) == 2


# --- replay-and-compare -----------------------------------------------------------


def fresh(config: ScenarioConfig = CONFIG):
    """The endpoints of a new build of ``config``, to replay a run on."""
    return build_scenario(config).endpoints


def test_happy_path_replays_cleanly():
    transcript = run_once().transcript
    report = replay_transcript(transcript, fresh())
    assert report.matches
    assert report.first_divergence is None
    assert "MATCH" in report.render()


def test_adversarial_run_replays_cleanly_from_its_spec():
    transcript = run_once("tamper:AuthorizationRequest:bit=tail/100:1").transcript
    report = replay_transcript(transcript, fresh())
    assert report.matches


def test_one_meta_runs_alike_on_each_fresh_actor_set():
    # a run builds its adversary from the meta, so a dropper given to a
    # second run drops there too, and both runs replay from their meta
    config = dataclasses.replace(CONFIG, adversary_spec="drop:PriceQuote:1")
    meta = build_scenario(config).meta
    first, second = (run_scenario(fresh(config), meta) for _ in range(2))
    assert first == second
    assert [r.action for r in first.records] == [Action.NONE, Action.DROPPED]
    for transcript in (first, second):
        report = replay_transcript(transcript, fresh(config))
        assert report.matches, report.detail


def test_edited_record_is_caught_at_or_next_to_the_edit():
    transcript = run_once().transcript
    for k in (0, 5, len(transcript.records) - 1):
        record = transcript.records[k]
        doctored = dataclasses.replace(
            record, payload=record.payload[:-1] + bytes([record.payload[-1] ^ 1])
        )
        steps = list(transcript.steps)
        steps[k] = (doctored, steps[k][1])
        edited = Transcript(transcript.meta, tuple(steps))
        report = replay_transcript(edited, fresh())
        assert not report.matches
        assert report.first_divergence is not None
        assert report.first_divergence <= k + 1
        assert "DIVERGED" in report.render()


def test_replay_reports_a_decision_that_differs_at_the_record_that_drew_it():
    # the wire is the same; only the provider's recorded decision differs
    transcript = run_once(TAMPERED_AUTHORIZATION).transcript
    record, (first,) = transcript.steps[2]
    other = dataclasses.replace(first, reason=DenialReason.EXPIRED_QUOTE)
    tampered = "t3 SR->SP AuthorizationRequest [tampered]"
    for events, recorded in (((other,), f"{tampered}; {other}"), ((), tampered)):
        steps = list(transcript.steps)
        steps[2] = (record, events)
        report = replay_transcript(Transcript(transcript.meta, tuple(steps)), fresh())
        assert not report.matches
        assert report.first_divergence == 2  # the delivery at tick 3
        assert report.detail == f"record 2 differs: expected {recorded}, got {tampered}; {first}"
        assert "DIVERGED" in report.render()


def test_truncated_transcript_reports_count_mismatch():
    transcript = run_once().transcript
    edited = Transcript(transcript.meta, transcript.steps[:-1])
    report = replay_transcript(edited, fresh())
    assert not report.matches
    assert report.expected_records == len(transcript.records) - 1
    assert report.actual_records == len(transcript.records)


def test_empty_transcript_replays_to_an_empty_report():
    meta = TranscriptMeta(seed=CONFIG.seed, max_ticks=10, adversary_spec="none", initial=())
    empty = Transcript(meta, ())
    report = replay_transcript(empty, fresh())
    assert report.matches
    assert report.expected_records == 0
    assert report.actual_records == 0


# --- privacy scanning --------------------------------------------------------------


def markers() -> PrivacyMarkers:
    return build_scenario(CONFIG).markers


def test_clean_run_passes_the_privacy_scan():
    report = run_once()
    assert report.privacy.clean
    assert report.privacy.locations_checked > 10
    assert "CLEAN" in report.privacy.render()


def test_the_payers_account_provider_changes_nothing_the_provider_sees():
    # The marker scan cannot see a short id like "AP"; compare the provider's
    # whole view instead, with only the payer's account provider renamed.
    # Each record decodes field by field; the sealed payment's ciphertext,
    # its digest and the dual signature differ with the payment, so they
    # compare by length, and the padded payment keeps that length.
    short, long = (
        run_storage_scenario(ScenarioConfig(seed=3, account_provider_id=ap))
        for ap in ("AP", "AP-long-name")
    )
    assert short.complete_success() and long.complete_success()
    assert view_differences("SP", short, long) == []
    assert short.scenario.provider.state_bytes() == long.scenario.provider.state_bytes()
    # the payer's limit is as hidden
    higher = run_storage_scenario(ScenarioConfig(seed=3, authorized_limit=10**6))
    assert higher.complete_success() and view_differences("SP", short, higher) == []
    for tag in ("AuthorizationRequest", "AuthorizeAndHold"):
        [raw], [raw_long] = (recorded(r.transcript.records, tag) for r in (short, long))
        assert len(raw) == len(raw_long), tag
    # every other record the provider receives is the same bytes
    for record, record_long in zip(short.transcript.records, long.transcript.records):
        if record.to_id == "SP" and record.type_name != "AuthorizationRequest":
            assert record.payload == record_long.payload, record.type_name


@pytest.mark.parametrize("usage", [
    dict(service_id="cold-archive", operation="retrieve-all", unit="gigabyte"),
    dict(quantity=1, rate=30),
    dict(quantity=5, rate=6),
    dict(quantity=15, rate=2),
    dict(quantity=30, rate=1),
], ids=["service", "1x30", "5x6", "15x2", "30x1"])
def test_the_usage_changes_nothing_the_trust_manager_sees(usage):
    # The same charge for another usage, of another service, operation and
    # unit or at another quantity and rate than 3 x 10: the trust manager's
    # and the account provider's records, events and state differ only in
    # opaque bytes.
    config = ScenarioConfig(seed=3)
    other = dataclasses.replace(config, **usage)
    first, second = run_storage_scenario(config), run_storage_scenario(other)
    assert first.complete_success() and second.complete_success()
    assert first.settled_total == second.settled_total == config.expected_price
    assert view_differences("TM", first, second) == []
    assert view_differences("AP", first, second) == []
    # the view check sees what the usage changes: the order digest it relays
    [relay], [relay_other] = (
        recorded(r.transcript.records, "AuthorizeAndHold") for r in (first, second)
    )
    assert relay != relay_other and len(relay) == len(relay_other)
    # and a change of charge, which the trust manager must see, shows
    pricier = run_storage_scenario(dataclasses.replace(config, rate=11))
    assert "TM record 0 payload.charge_amount: 30 != 33" in view_differences("TM", first, pricier)


def test_scanner_catches_a_deliberate_payment_leak_to_the_provider():
    scenario = build_scenario(CONFIG)
    leak = scenario.account_ref.encode()
    records = (
        TranscriptRecord(
            tick=1, from_id="SR", to_id="SP", payload=b"prefix" + leak, action=Action.NONE, error=""
        ),
    )
    meta = TranscriptMeta(seed=1, max_ticks=5, adversary_spec="none", initial=())
    transcript = Transcript(meta, tuple((record, ()) for record in records))
    report = assert_privacy(transcript, b"", b"", scenario.markers)
    assert not report.clean
    assert report.hits[0].marker == leak
    assert "record" in report.hits[0].location
    assert "HIT" in report.render()


def test_scanner_reaches_the_events_of_the_provider_and_the_trust_manager():
    scenario = build_scenario(CONFIG)
    payment = bytes.fromhex(scenario.account_ref.removeprefix("ACCT-"))  # 24 bytes
    usage = scenario.config.service_id.encode()

    def event(actor: str, marker: bytes) -> Event:
        order = Digest(marker.ljust(32, b"\x00"))
        return Event(actor, EventKind.NOT_PENDING, order, None)

    meta = TranscriptMeta(seed=1, max_ticks=5, adversary_spec="none", initial=())
    record = TranscriptRecord(1, "SR", "XX", b"\x00\x00\x00\x01x", Action.NONE, "")
    # the requester may hold either marker; the provider and the trust manager may not
    events = (event("SR", payment), event("SP", payment), event("TM", usage), event("SR", usage))
    transcript = Transcript(meta, ((record, events),))
    report = assert_privacy(transcript, b"", b"", scenario.markers)
    assert [(hit.location, hit.marker) for hit in report.hits] == [
        ("SP event 1", payment), ("TM event 2", usage)
    ]
    assert report.locations_checked == 2 + 2


def test_an_event_drawn_at_the_tick_of_the_limit_is_no_leak():
    # an event carries no tick, so a refusal at tick == authorized_limit
    # does not read as the limit marker
    scenario = build_scenario(CONFIG)
    meta = TranscriptMeta(seed=1, max_ticks=100, adversary_spec="none", initial=())
    record = TranscriptRecord(
        CONFIG.authorized_limit, "SR", "XX", b"\x00\x00\x00\x01x", Action.NONE, ""
    )
    events = (Event("SP", EventKind.DUPLICATE, None, None),)
    report = assert_privacy(Transcript(meta, ((record, events),)), b"", b"", scenario.markers)
    assert report.clean


def test_scanner_catches_usage_markers_in_trust_manager_state():
    scenario = build_scenario(CONFIG)
    meta = TranscriptMeta(seed=1, max_ticks=5, adversary_spec="none", initial=())
    transcript = Transcript(meta, ())
    leaky_state = b"..." + scenario.config.service_id.encode() + b"..."
    report = assert_privacy(transcript, b"", leaky_state, scenario.markers)
    assert not report.clean
    assert any("trust" in h.location or "TM" in h.location for h in report.hits)


def _recorded_containers(actor) -> list[str]:
    """Every container attribute the actor records, its wiring left out."""
    return sorted(
        name for name, value in vars(actor).items()
        if name not in actor._WIRING and isinstance(value, (set, dict, list, deque))
    )


def _plant(actor, attribute: str, leak: bytes) -> None:
    """Put ``leak`` into ``actor``'s recorded ``attribute`` as a key of its
    declared type (zero-padded, for a digest), beside a value of a byte type
    holding it too, or else a copy of a value the run left there."""
    held = getattr(actor, attribute)
    key_type, *value_type = typing.get_args(typing.get_type_hints(actor._State)[attribute])
    key = Digest(leak.ljust(32, b"\0")) if key_type is Digest else leak
    if isinstance(held, set):
        held.add(key)
    else:
        held[key] = leak if value_type[0] in (bytes, Bulk) else next(iter(held.values()))


_BUILT = build_scenario(CONFIG)


@pytest.mark.parametrize("attribute", _recorded_containers(_BUILT.provider))
def test_provider_state_scan_reaches_every_recorded_attribute(attribute):
    report = run_once()
    assert report.complete_success() and report.privacy.clean
    scenario = report.scenario
    leak = bytes.fromhex(scenario.account_ref.removeprefix("ACCT-"))  # 24 bytes
    _plant(scenario.provider, attribute, leak)
    privacy = assert_privacy(
        report.transcript,
        scenario.provider.state_bytes(),
        scenario.trust_manager.state_bytes(),
        scenario.markers,
    )
    assert [(hit.location, hit.marker) for hit in privacy.hits] == [("provider-state", leak)]


@pytest.mark.parametrize("attribute", _recorded_containers(_BUILT.trust_manager))
def test_trust_manager_state_scan_reaches_every_recorded_attribute(attribute):
    report = run_once()
    assert report.complete_success() and report.privacy.clean
    scenario = report.scenario
    leak = scenario.config.service_id.encode()
    _plant(scenario.trust_manager, attribute, leak)
    privacy = assert_privacy(
        report.transcript,
        scenario.provider.state_bytes(),
        scenario.trust_manager.state_bytes(),
        scenario.markers,
    )
    assert [(hit.location, hit.marker) for hit in privacy.hits] == [
        ("trust-manager-state", leak)
    ]


def test_scanner_checks_eavesdropper_captures():
    scenario = build_scenario(CONFIG)
    meta = TranscriptMeta(seed=1, max_ticks=5, adversary_spec="eavesdrop:0", initial=())
    leak = scenario.account_ref.encode()
    observed = TranscriptRecord(1, "SR", "XX", leak, Action.OBSERVED, "")
    transcript = Transcript(meta, ((observed, ()),))
    report = assert_privacy(transcript, b"", b"", scenario.markers)
    assert [hit.location for hit in report.hits] == ["captured[0]"]
    assert report.locations_checked == 3


def test_scan_reports_first_offset_per_marker():
    hits = scan_for_markers("here", b"xxMARKERyyMARKERzz", [b"MARKER", b"absent"])
    assert len(hits) == 1
    assert hits[0].offset == 2
