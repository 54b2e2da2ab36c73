"""Deterministic transport, adversary interposition, transcripts, replay."""
from __future__ import annotations

import dataclasses
from collections import deque
from random import Random

import pytest

from gset import (
    Adversary,
    AdversaryMode,
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
    endpoints_factory,
    replay_transcript,
    run_scenario,
    run_storage_scenario,
    scan_for_markers,
)
from gset.attacks import REPLAY_TARGETS

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
    assert adversary.mode == AdversaryMode.PASSIVE_EAVESDROP
    assert adversary.max_hits == 0


def test_tamper_spec_round_trips():
    spec = "tamper:AuthorizationRequest:bit=tail/100:1"
    adversary = Adversary.from_spec(spec)
    assert adversary.mode == AdversaryMode.TAMPER
    assert adversary.target == "AuthorizationRequest"
    assert adversary.mutation == "bit=tail/100"
    assert adversary.spec == spec


def test_replay_and_drop_specs_round_trip():
    for spec in ("replay:AuthorizeAndHold:1", "drop:PriceQuote:2"):
        assert Adversary.from_spec(spec).spec == spec


def test_active_modes_require_a_target():
    for bad in ("tamper", "replay", "drop", "tamper:", "unknownmode:X"):
        with pytest.raises(SimnetError):
            Adversary.from_spec(bad)


@pytest.mark.parametrize(
    "mutation", ["bit=tail/x", "bit=tail", "bit=tail/0", "bit=abs/-9", "bit=bogus"]
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
    run_scenario(a.endpoints, a.initial, seed=CONFIG.seed)
    run_scenario(b.endpoints, b.initial, seed=CONFIG.seed)
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


def test_undeliverable_destination_becomes_an_error_record():
    a = EchoActor("A")
    transcript = run_scenario({"A": a}, [wire("A", "NOWHERE")], seed=1)
    (record,) = transcript.records
    assert record.error != ""
    assert not record.delivered
    assert a.inbox == []


def test_actor_exception_becomes_an_error_record():
    transcript = run_scenario({"A": FaultyActor("A")}, [wire("X", "A")], seed=1)
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
    transcript = run_scenario({"A": a, "B": b}, [wire("A", "B")], seed=1, max_ticks=5)
    assert len(transcript.records) == 5


def test_empty_initial_messages_make_an_empty_transcript():
    transcript = run_scenario({"A": EchoActor("A")}, [], seed=1)
    assert transcript.records == ()


# --- adversary end-to-end ---------------------------------------------------------


def test_tampered_authorization_is_denied_as_bad_signature():
    report = run_once("tamper:AuthorizationRequest:bit=tail/100:1")
    assert report.business_outcome == "DENIED:BAD_SIGNATURE"
    assert report.holds_created == 0
    assert report.settle_count == 0
    tampered = [r for r in report.transcript.records if r.action == "tampered"]
    assert len(tampered) == 1


def test_replayed_hold_instruction_creates_exactly_one_hold():
    report = run_once("replay:AuthorizeAndHold:1")
    assert report.business_outcome == "APPROVED"
    assert report.holds_created == 1
    assert report.settle_count == 1
    replayed = [r for r in report.transcript.records if r.action == "replayed"]
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
    dropped = [r for r in report.transcript.records if r.action == "dropped"]
    assert len(dropped) == 1
    assert not dropped[0].delivered
    if target in ("HoldRequest", "HoldResponse"):
        assert report.scenario.trust_manager.denials == []


def test_eavesdropper_sees_everything_but_learns_no_payment_secrets():
    config = dataclasses.replace(CONFIG, adversary_spec="eavesdrop")
    scenario = build_scenario(config)
    adversary = Adversary.from_spec("eavesdrop")
    report = run_storage_scenario(config, adversary=adversary, scenario=scenario)
    assert report.complete_success()
    assert len(adversary.capture_log) == len(report.transcript.records)
    for blob in adversary.capture_log:
        assert scan_for_markers("capture", blob, scenario.markers.payment_markers) == []


def test_tamper_budget_limits_the_number_of_hits():
    report = run_once("tamper:TicketRedeemRequest:bit=tail/9:2")
    tampered = [r for r in report.transcript.records if r.action == "tampered"]
    assert len(tampered) == 2


# --- replay-and-compare -----------------------------------------------------------


def factory():
    return endpoints_factory(CONFIG)


def test_happy_path_replays_cleanly():
    transcript = run_once().transcript
    report = replay_transcript(transcript, factory())
    assert report.matches
    assert report.first_divergence is None
    assert "MATCH" in report.render()


def test_adversarial_run_replays_cleanly_from_its_spec():
    transcript = run_once("tamper:AuthorizationRequest:bit=tail/100:1").transcript
    report = replay_transcript(transcript, factory())
    assert report.matches


def test_edited_record_is_caught_at_or_next_to_the_edit():
    transcript = run_once().transcript
    for k in (0, 5, len(transcript.records) - 1):
        record = transcript.records[k]
        doctored = dataclasses.replace(
            record, payload=record.payload[:-1] + bytes([record.payload[-1] ^ 1])
        )
        records = list(transcript.records)
        records[k] = doctored
        edited = Transcript(meta=transcript.meta, records=tuple(records))
        report = replay_transcript(edited, factory())
        assert not report.matches
        assert report.first_divergence is not None
        assert report.first_divergence <= k + 1
        assert "DIVERGED" in report.render()


def test_truncated_transcript_reports_count_mismatch():
    transcript = run_once().transcript
    edited = Transcript(meta=transcript.meta, records=transcript.records[:-1])
    report = replay_transcript(edited, factory())
    assert not report.matches
    assert report.expected_records == len(transcript.records) - 1
    assert report.actual_records == len(transcript.records)


def test_empty_transcript_replays_to_an_empty_report():
    meta = TranscriptMeta(seed=CONFIG.seed, max_ticks=10, adversary_spec="none", initial=())
    empty = Transcript(meta=meta, records=())
    report = replay_transcript(empty, factory())
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
    views = []
    for config in (
        ScenarioConfig(seed=3),
        ScenarioConfig(seed=3, account_provider_id="AP-long-name"),
    ):
        report = run_storage_scenario(config)
        assert report.complete_success()
        received = [
            (codec.peek_type(r.payload), r.payload)
            for r in report.transcript.records
            if r.to_id == config.provider_id
        ]
        views.append((received, report.scenario.provider.state_bytes()))
    (received, state), (received_long, state_long) = views
    assert state == state_long
    assert [kind for kind, _ in received] == [kind for kind, _ in received_long]
    for (kind, raw), (_, raw_long) in zip(received, received_long):
        # The one exception: the sealed payment envelope's length still
        # tracks the payment labels, until its plaintext is padded (ROADMAP
        # item 13).
        if kind != "AuthorizationRequest":
            assert raw == raw_long, kind


def test_scanner_catches_a_deliberate_payment_leak_to_the_provider():
    scenario = build_scenario(CONFIG)
    leak = scenario.account_ref.encode()
    records = (
        TranscriptRecord(
            tick=1, from_id="SR", to_id="SP", payload=b"prefix" + leak, action="", error=""
        ),
    )
    meta = TranscriptMeta(seed=1, max_ticks=5, adversary_spec="none", initial=())
    transcript = Transcript(meta=meta, records=records)
    report = assert_privacy(transcript, b"", b"", scenario.markers)
    assert not report.clean
    assert report.hits[0].marker == leak
    assert "record" in report.hits[0].location
    assert "HIT" in report.render()


def test_scanner_catches_usage_markers_in_trust_manager_state():
    scenario = build_scenario(CONFIG)
    meta = TranscriptMeta(seed=1, max_ticks=5, adversary_spec="none", initial=())
    transcript = Transcript(meta=meta, records=())
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


def _plant(held, leak: bytes) -> None:
    if isinstance(held, dict):
        held[leak] = leak
    else:
        (held.add if isinstance(held, set) else held.append)(leak)


_BUILT = build_scenario(CONFIG)


@pytest.mark.parametrize("attribute", _recorded_containers(_BUILT.provider))
def test_provider_state_scan_reaches_every_recorded_attribute(attribute):
    report = run_once()
    assert report.complete_success() and report.privacy.clean
    scenario = report.scenario
    leak = scenario.account_ref.encode()
    _plant(getattr(scenario.provider, attribute), leak)
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
    _plant(getattr(scenario.trust_manager, attribute), leak)
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
    meta = TranscriptMeta(seed=1, max_ticks=5, adversary_spec="none", initial=())
    transcript = Transcript(meta=meta, records=())
    leak = scenario.account_ref.encode()
    report = assert_privacy(transcript, b"", b"", scenario.markers, captured=[leak])
    assert not report.clean


def test_scan_reports_first_offset_per_marker():
    hits = scan_for_markers("here", b"xxMARKERyyMARKERzz", [b"MARKER", b"absent"])
    assert len(hits) == 1
    assert hits[0].offset == 2
