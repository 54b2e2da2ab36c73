"""Scenario configuration, the storage run report, and the attack sweeps."""
from __future__ import annotations

import dataclasses
import gc
import hashlib
import subprocess
import sys
import tracemalloc
import typing
from pathlib import Path

import pytest

import gset
from gset import (
    AccountProvider,
    Adversary,
    ObjectUpload,
    ScenarioConfig,
    ScenarioError,
    ServiceGrant,
    ServiceProvider,
    ServiceRequester,
    Ticket,
    Transcript,
    TrustManager,
    assert_privacy,
    build_scenario,
    codec,
    replay_transcript,
    run_storage_scenario,
)
from gset.attacks import (
    REPLAY_CORE,
    REPLAY_TARGETS,
    TAMPER_EXPECTATIONS,
    TAMPER_TARGETS,
    eavesdrop_check,
    replay_sweep,
    run_attack_suite,
    tamper_sweep,
)
from gset.cli import ini_overrides
from gset.messages import PAYMENT_SIZE
from gset.scenario import _upload_size, retrieval_mismatches

from order_scaling import all_done, run_orders


# --- configuration ------------------------------------------------------------


def test_default_config_prices_to_thirty():
    config = ScenarioConfig()
    assert config.rate == 10
    assert config.quantity == 3
    assert config.expected_price == 30


def test_config_requires_distinct_actor_ids():
    config = dataclasses.replace(ScenarioConfig(), provider_id="SR")
    with pytest.raises(ScenarioError):
        build_scenario(config)


def test_every_config_field_but_the_adversary_declares_a_kind():
    # The kind is the one statement of a field's rule; adversary_spec stays
    # a str, as "" means no adversary.
    hints = typing.get_type_hints(ScenarioConfig)
    kinds = (codec.Label, codec.U64, codec.Positive)
    assert [name for name, tp in hints.items() if tp not in kinds] == ["adversary_spec"]
    assert hints["adversary_spec"] is str


@pytest.mark.parametrize("config", [
    ScenarioConfig(),
    ScenarioConfig(requester_id="requester-\u00e9", object_count=5, object_size=100),
])
def test_the_reckoned_upload_size_is_the_size_sent(config):
    # build_scenario refuses an upload too large for its length prefix from
    # this size, before any object exists.
    report = run_storage_scenario(config)
    records = report.transcript.records
    [upload] = [r.payload for r in records if codec.peek_type(r.payload) == "ObjectUpload"]
    assert _upload_size(config) == len(upload)


def test_an_account_provider_id_too_long_for_the_padded_payment_is_refused():
    # the payment and the padding's 0x80 byte must fit PAYMENT_SIZE; the
    # default payment, for "AP", encodes in 110 bytes, so the id has room
    # for 17 more bytes, counted in UTF-8
    room = 2 + (PAYMENT_SIZE - 1 - 110)
    assert run_storage_scenario(ScenarioConfig(account_provider_id="A" * room)).complete_success()
    with pytest.raises(ScenarioError, match=f"account_provider_id .* got {room + 1} bytes"):
        build_scenario(ScenarioConfig(account_provider_id="A" * (room - 1) + "\u00e9"))


def test_ini_overrides_full_round_trip(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(
        "[scenario]\n"
        "seed = 11\n"
        "quantity = 4\n"
        "rate = 25\n"
        "authorized_limit = 150\n"
        "credit_limit = 900\n"
        "adversary_spec = drop:PriceQuote:1\n"
    )
    overrides = ini_overrides(path)
    assert overrides == {
        "seed": 11,
        "quantity": 4,
        "rate": 25,
        "authorized_limit": 150,
        "credit_limit": 900,
        "adversary_spec": "drop:PriceQuote:1",
    }
    config = ScenarioConfig(**overrides)
    assert config.expected_price == 100
    assert config.seed == 11


def test_ini_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[scenario]\nnot_a_field = 1\n")
    with pytest.raises(ScenarioError):
        ini_overrides(path)


def test_ini_rejects_bad_integers(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[scenario]\nseed = banana\n")
    with pytest.raises(ScenarioError):
        ini_overrides(path)


def test_ini_requires_scenario_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[other]\nseed = 3\n")
    with pytest.raises(ScenarioError):
        ini_overrides(path)


def test_missing_ini_file_is_an_error(tmp_path):
    with pytest.raises(ScenarioError):
        ini_overrides(tmp_path / "nope.ini")


# --- scenario construction -------------------------------------------------------


def test_scenario_account_ref_is_seed_stable():
    a = build_scenario(ScenarioConfig())
    b = build_scenario(ScenarioConfig())
    assert a.account_ref == b.account_ref
    assert a.account_ref.startswith("ACCT-")
    c = build_scenario(ScenarioConfig(seed=8))
    assert c.account_ref != a.account_ref


def test_scenario_objects_match_config():
    scenario = build_scenario(ScenarioConfig(object_count=5, object_size=32))
    assert len(scenario.objects) == 5
    assert all(len(obj) == 32 for obj in scenario.objects)


BULK = dict(object_count=16, object_size=65536)


def test_bulk_objects_are_pinned():
    # one AES-256-CTR keystream keyed by SHA-256("1/objects"), zero nonce
    objects = build_scenario(ScenarioConfig(seed=1, **BULK)).objects
    assert hashlib.sha256(b"".join(objects)).hexdigest() == (
        "d30721ccdc0488ef2f3a49b1077b9333cbb8cdc94724c8ab4acf6216d55b253b"
    )


def test_equal_configs_give_equal_objects_and_seeds_differ():
    a = build_scenario(ScenarioConfig(seed=3, **BULK)).objects
    b = build_scenario(ScenarioConfig(seed=3, **BULK)).objects
    c = build_scenario(ScenarioConfig(seed=4, **BULK)).objects
    assert a == b
    assert len(set(a)) == len(a)
    assert not set(a) & set(c)


@pytest.mark.parametrize("spec,recorded", [
    ("none", "none"),
    ("", "none"),
    ("eavesdrop:0", "eavesdrop:0"),
    ("tamper:HoldRequest:bit=rand/4:1", "tamper:HoldRequest:bit=rand/4:1"),
])
def test_the_built_meta_is_the_runs_transcript_meta(spec, recorded):
    # the meta build_scenario makes is the run's one input, and the
    # transcript records it as given, with "" recorded as "none"
    config = ScenarioConfig(seed=5, max_ticks=900, adversary_spec=spec)
    meta = build_scenario(config).meta
    assert meta == run_storage_scenario(config).transcript.meta
    assert (meta.seed, meta.max_ticks, meta.adversary_spec) == (5, 900, recorded)


def test_scenario_markers_cover_both_sides():
    scenario = build_scenario(ScenarioConfig())
    assert scenario.account_ref.encode() in scenario.markers.payment_markers
    assert b"mobile-storage" in scenario.markers.usage_markers


def test_building_scenarios_keeps_nothing_per_identity():
    # Python memory kept after building scenarios for N fresh seeds, then N
    # more: the second N may add a constant, never something per identity
    # (a process-wide cache of four 64-byte keys per seed adds ~80 KB here).
    def build(seeds):
        for seed in seeds:
            build_scenario(ScenarioConfig(seed=seed))
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    n = 100
    gc.collect()
    tracemalloc.start()
    try:
        after_n = build(range(10**9, 10**9 + n))
        after_2n = build(range(10**9 + n, 10**9 + 2 * n))
    finally:
        tracemalloc.stop()
    assert after_2n - after_n < 4096


def test_a_run_loads_one_crypto_library():
    # in a fresh process, since the test runner itself imports hashlib;
    # hashlib and hmac would load a second libcrypto through _hashlib
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "import gset, gset.attacks;"
        "assert gset.run_storage_scenario(gset.ScenarioConfig()).complete_success();"
        "sys.exit('_hashlib' in sys.modules)"
    )
    src = str(Path(gset.__file__).resolve().parent.parent)
    subprocess.run([sys.executable, "-c", script, src], check=True)


# --- run reports ----------------------------------------------------------------


def test_denial_outcomes_from_config():
    # a limit below the price: the trust manager refuses before any hold
    over = run_storage_scenario(
        dataclasses.replace(ScenarioConfig(), authorized_limit=20)
    )
    assert over.business_outcome == "DENIED:OVER_LIMIT"
    assert over.holds_created == 0

    broke = run_storage_scenario(
        dataclasses.replace(ScenarioConfig(), credit_limit=29)
    )
    assert broke.business_outcome == "DENIED:INSUFFICIENT_CREDIT"
    assert broke.holds_created == 0


def test_a_wrong_retrieved_object_is_caught_by_the_audit(monkeypatch):
    # the requester's digest check is switched off and the provider serves
    # a different object for the first ticket: the audit compares bytes
    # with what was uploaded, so it does not rely on the requester's check
    monkeypatch.setattr(Ticket, "matches", lambda self, obj: True)
    on_upload = ServiceProvider._HANDLERS[ObjectUpload]

    def corrupting(self, sender, upload, covered, now):
        out = on_upload(self, sender, upload, covered, now)
        [(_, raw)] = out
        first = codec.decode(raw, ServiceGrant).tickets[0].ticket_id
        self.stored_objects[first] = b"not what was uploaded"
        return out

    monkeypatch.setitem(ServiceProvider._HANDLERS, ObjectUpload, corrupting)
    report = run_storage_scenario(ScenarioConfig())
    assert report.objects_retrieved == 3
    assert report.retrieval_mismatches == 1
    assert report.invariant_failures == ["1 retrieved objects differ from the uploaded ones"]
    assert not report.complete_success()


def test_the_audit_pairs_objects_alike_on_a_decoded_requester():
    # a mapping decodes in key order, so a decoded order's tickets are out
    # of grant order; each retrieved object is paired with the uploaded one
    # its ticket names by digest, not by its ticket's position
    report = run_storage_scenario(ScenarioConfig())
    requester = report.scenario.requester
    decoded = codec.decode(requester.state_bytes(), ServiceRequester._State)
    [live] = requester.orders.values()
    [order] = decoded.orders.values()
    assert list(order.tickets) != list(live.tickets)
    assert retrieval_mismatches(live, report.scenario.objects) == 0
    assert retrieval_mismatches(order, report.scenario.objects) == 0


@pytest.mark.parametrize(
    "config",
    [ScenarioConfig(), ScenarioConfig(object_count=16, object_size=65536)],
    ids=["default", "bulk"],
)
def test_a_finished_run_is_freed_without_the_cyclic_collector(config):
    # actors, their stored objects and the transcript are freed by reference
    # counting alone once the report goes: no run leaves a reference cycle
    gc.collect()
    gc.disable()
    try:
        report = run_storage_scenario(config)
        assert report.complete_success()
        del report
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_fifty_orders_through_one_actor_set_all_settle():
    # the builder of tests/order_scaling.py, at a size tier-1 can afford
    scenario, transcript = run_orders(50)
    assert all_done(scenario, 50)
    ledger = scenario.account_provider.ledger
    assert len(scenario.trust_manager.holds) == ledger.holds_created() == 50
    assert ledger.settle_count == 50
    assert ledger.total_settled() == 50 * scenario.config.expected_price
    assert ledger.total_held() == 0
    privacy = assert_privacy(
        transcript,
        scenario.provider.state_bytes(),
        scenario.trust_manager.state_bytes(),
        scenario.markers,
    )
    assert privacy.clean


def test_describe_is_deterministic_and_line_oriented():
    a = run_storage_scenario(ScenarioConfig()).describe()
    b = run_storage_scenario(ScenarioConfig()).describe()
    assert a == b
    assert len(a) >= 5
    assert any(line.startswith("outcome") for line in a)


def test_complete_success_requires_every_book_to_balance():
    report = run_storage_scenario(ScenarioConfig())
    assert report.complete_success()
    tweaked = dataclasses.replace(report, settle_count=0)
    assert not tweaked.complete_success()
    tweaked = dataclasses.replace(report, objects_retrieved=2)
    assert not tweaked.complete_success()


# --- the audit of every run, pinned ------------------------------------------------

# SHA-256 over the repr of each pinned run's summary, in run order: a change
# to how an actor keeps its state must leave every audited fact and event as is.
# Re-taken when every hold came to be named by the trust manager's hold nonce
# alone: the messages that carried the other names got shorter, so the random
# bit a tamper of an AuthOutcome, HoldResponse, SettleRequest or
# SettleResponse flips lands elsewhere and some of those runs note another
# refusal.  Every other run's notes, and every run's books, are as before.
# Re-taken when every server-to-server leg became a queued message: every
# run's books are as before.  A hold leg lost to a tamper (HoldRequest 6 runs,
# HoldResponse 10) now leaves the authorization pending, INCOMPLETE, where the
# nested call turned it into a denial.  Notes change in 63 runs: an answer
# that reaches no pending request is noted as such rather than as a failed
# call or an unexpected type, a response that does not decode is noted by
# the receiver's ``deliver``, and a repeat while its first copy is pending
# is ignored rather than refused.
# Re-taken when the order digest became each order's one name: the messages
# that named an order by nonce or token id got longer or shorter, so the
# random bit of 36 tamper runs lands in another field and is noted as
# another refusal, with the same books.  A flip inside the order, which now
# travels as the bytes its digest hashes, is refused by the dual-signature
# check (AuthorizationRequest#0, #3, #6: DENIED:BAD_SIGNATURE, not
# INCOMPLETE, no hold either way), and the flip in the nonce of
# PriceRequest#8 now leaves its quote answering no pending request, so that
# run stalls with no hold instead of completing.  Every replay and seeded
# run is as before.
# Re-taken when handlers came to return typed events in place of notes: the
# last column is the transcript's events, not each actor's notes.  Compared
# with the parent run by run, every other field is as before, and each run's
# events map one to one, in order, onto its notes.
# Unchanged when each actor's recorded state became one codec message.
# Re-taken when events lost their tick, which is their record's, and the
# provider came to record its quote refusals: compared run by run, every
# other field is as before, each earlier event is the new one at the tick of
# the record that drew it, and the one event added is the provider's
# QUOTE_REFUSED in tamper:PriceRequest#0.
# Re-taken when the sealed envelope lost its content key, key wrap and
# recipient id: the AuthorizationRequest and the AuthorizeAndHold are 78
# bytes shorter, so the random bit of 11 of their tamper runs lands in
# another field.  In AuthorizationRequest #1, #2, #4, #7, #8 and #9 the
# provider now refuses the flip (BAD_SIGNATURE) where the trust manager
# refused a flip in the envelope; in #5 and #6 and AuthorizeAndHold #3 a
# length prefix is hit and the run stalls undecodable (INCOMPLETE); in
# AuthorizeAndHold #4 and #6 the trust manager refuses the flip under the
# order's own digest, so the provider passes the denial on.  None of the
# 11 places a hold or settles, every audit is clean, and the other 186
# runs are as before.
# Re-taken when each half of the dual signature came to travel with the
# other half's digest only, the provider naming the order by the hash of
# the order bytes it received, and the sealed payment came to be padded to
# 128 bytes: each of the two messages is 22 bytes shorter, so the random
# bit of some of their tamper runs lands in another field.  In
# AuthorizationRequest #1, #2, #3, #8 and #9 the flip lands inside the
# order, which the provider still refuses (BAD_SIGNATURE), now under the
# digest of the bytes it received, so the requester's decision answers no
# order it placed (NOT_PENDING, not AUTHORIZATION_DENIED).  In
# AuthorizationRequest #4 the flip lands in the ciphertext, so the trust
# manager refuses it where the provider refused a flip in the order
# digest.  In AuthorizeAndHold #2 the flip lands in the relayed order
# digest, so the provider finds no order for the trust manager's refusal
# (NOT_PENDING) where it passed a refusal on.  Two outcomes move, with no
# hold, token or settlement either way: in AuthorizationRequest #7 the flip
# hits the signature's length prefix and the request stalls undecodable at
# the provider (INCOMPLETE, not DENIED:BAD_SIGNATURE), and in
# AuthorizeAndHold #3 the flip that hit a length prefix now lands in the
# relayed order digest, refused by the trust manager (DENIED:BAD_SIGNATURE,
# not INCOMPLETE).  Every audit is clean, and the other 188 runs are as
# before.
RUN_REPORTS_SHA256 = "372888cbe89d03b7456b735d7b39e6cf65cf92c20fd5c8491fff44384754f21c"


def _pinned_runs():
    """(attack, config) of each pinned run, in run order: the tamper sweep's
    runs at 10 mutations per type and the replay sweep's runs, each config
    built as its sweep builds it, then seeds 0-9."""
    base = ScenarioConfig(seed=7)
    for target in TAMPER_TARGETS:
        for index in range(10):
            spec = f"tamper:{target}:bit=rand/{index}:1"
            yield f"tamper:{target}#{index}", dataclasses.replace(base, adversary_spec=spec)
    for target in REPLAY_TARGETS:
        yield f"replay:{target}", dataclasses.replace(base, adversary_spec=f"replay:{target}:1")
    for s in range(10):
        yield f"seed:{s}", ScenarioConfig(seed=s)


def _summary(attack: str, report) -> tuple:
    return (
        attack,
        report.business_outcome,
        report.holds_created,
        report.settle_count,
        report.tokens_minted,
        report.grants_issued,
        report.objects_retrieved,
        report.retrieval_mismatches,
        report.provider_receivable,
        report.settled_total,
        report.invariant_failures,
        report.privacy.clean,
        report.transcript.events,
    )


def test_every_pinned_run_audits_as_before():
    # Each run also replays from its saved transcript, which names the
    # adversary its config names.
    digest = hashlib.sha256()
    for attack, config in _pinned_runs():
        report = run_storage_scenario(config)
        digest.update(repr(_summary(attack, report)).encode("utf-8"))
        saved = Transcript.from_bytes(report.transcript.to_bytes())
        assert saved == report.transcript, attack
        named = Adversary.from_spec(saved.meta.adversary_spec)
        assert named == Adversary.from_spec(config.adversary_spec), attack
        replay = replay_transcript(saved, build_scenario(config).endpoints)
        assert replay.matches, (attack, replay.detail)
        # each actor's recorded state reads back field by field
        for actor in report.scenario.endpoints.values():
            state = actor.state_bytes()
            assert codec.encode(codec.decode(state, actor._State)) == state, attack
    assert digest.hexdigest() == RUN_REPORTS_SHA256


# --- false positives of the limit marker -------------------------------------------

# The payment marker of the limit is its 8 big-endian bytes, so equal bytes
# the provider receives or records read as a leak: the price 30 (in the
# token it receives and in its quote and order), the framing of a capture
# response's absent reason before its 32-byte MAC (32), and the quote's
# expiry, tick 1 + quote_ttl 100.  These are every hit of the sweep below,
# and the list may only shrink.
LIMIT_MARKER_READINGS = {
    (30, "none"): {"wire->SP record 6", "provider-state"},
    (30, "drop:HoldResponse:1"): {"provider-state"},
    (32, "none"): {"wire->SP record 20"},
    (101, "none"): {"provider-state"},
    (101, "drop:HoldResponse:1"): {"provider-state"},
}


def test_the_limit_marker_reads_as_a_leak_only_where_listed():
    for limit in range(30, 301):
        for spec in ("none", "drop:HoldResponse:1"):
            report = run_storage_scenario(
                ScenarioConfig(authorized_limit=limit, adversary_spec=spec)
            )
            hits = {hit.location for hit in report.privacy.hits}
            assert hits <= LIMIT_MARKER_READINGS.get((limit, spec), set()), (limit, spec, hits)


# --- attack sweeps (small scale; the acceptance gate runs them full-size) ---------


def test_tamper_targets_cover_all_signed_wire_types():
    # the sweep targets every type the default run sends, in the order it
    # first sends them, the unsigned price enquiry aside
    records = run_storage_scenario(ScenarioConfig()).transcript.records
    sent = [record.type_name for record in records]
    assert set(TAMPER_TARGETS) == set(sent)
    first_sent = [name for name in dict.fromkeys(sent) if name != "PriceRequest"]
    assert list(TAMPER_EXPECTATIONS) == first_sent
    # a quote denial is the one type an actor handles that no sweep run sends
    actors = (ServiceRequester, ServiceProvider, TrustManager, AccountProvider)
    handled = {cls.__name__ for actor in actors for cls in actor._HANDLERS}
    assert handled - set(TAMPER_TARGETS) == {"QuoteDenial"}


def test_tamper_sweep_stays_clean_at_small_scale():
    sweep = tamper_sweep(seed=7, mutations_per_type=3)
    assert sweep.ok, sweep.findings[:5]
    assert sweep.runs == len(TAMPER_TARGETS) * 3


def test_tamper_sweep_survives_a_price_request_whose_price_overflows():
    # this seed's PriceRequest tamper raises the quantity until
    # rate * quantity no longer fits in a u64
    sweep = tamper_sweep(seed=3174133209588332760, mutations_per_type=1)
    assert sweep.findings == []


def test_replay_sweep_stays_clean():
    sweep = replay_sweep(seed=7)
    assert sweep.ok, sweep.findings[:5]
    assert sweep.runs == len(TAMPER_TARGETS)


def test_eavesdrop_check_passes():
    sweep = eavesdrop_check(seed=7)
    assert sweep.ok, sweep.findings[:5]


def test_attack_suite_report_is_deterministic():
    a = run_attack_suite(seed=7, iterations=2)
    b = run_attack_suite(seed=7, iterations=2)
    assert a.ok
    assert a.render() == b.render()
    assert "[PASS]" in a.render()


def test_attack_suite_rejects_nonpositive_iterations():
    with pytest.raises(ValueError):
        run_attack_suite(seed=7, iterations=0)


def test_replay_core_targets_are_authorization_and_capture_legs():
    assert set(REPLAY_CORE) == {
        "AuthorizationRequest",
        "AuthorizeAndHold",
        "HoldRequest",
        "CaptureRequest",
        "SettleRequest",
    }
    assert set(REPLAY_CORE) <= set(TAMPER_EXPECTATIONS)
