"""Scenario configuration, the storage run report, and the attack sweeps."""
from __future__ import annotations

import dataclasses
import gc
import hashlib
import subprocess
import sys
import tracemalloc
from pathlib import Path
from random import Random

import pytest

import gset
from gset import (
    Adversary,
    AdversaryMode,
    ObjectUpload,
    ScenarioConfig,
    ScenarioError,
    ServiceGrant,
    ServiceProvider,
    Ticket,
    build_scenario,
    codec,
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
from gset.scenario import ini_overrides


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
# to how an actor keeps its state must leave every audited fact and note as is.
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
RUN_REPORTS_SHA256 = "11f4ea9ae76c58f48ed338d827b7c26d867fe3722b5eb105acbd64a1378b0910"


def _pinned_runs():
    """(attack, config, adversary) of each pinned run, in run order: the
    tamper sweep's adversaries at 10 mutations per type, built as
    ``tamper_sweep`` builds them, every replay target, and seeds 0-9."""
    seed = 7
    for target in TAMPER_TARGETS:
        for index in range(10):
            adversary = Adversary(
                mode=AdversaryMode.TAMPER,
                target=target,
                mutation="bit=rand",
                max_hits=1,
                rng=Random(f"{seed}/tamper/{target}/{index}"),
            )
            yield f"tamper:{target}#{index}", ScenarioConfig(seed=seed), adversary
    for target in REPLAY_TARGETS:
        adversary = Adversary(mode=AdversaryMode.REPLAY, target=target, max_hits=1)
        yield f"replay:{target}", ScenarioConfig(seed=seed), adversary
    for s in range(10):
        yield f"seed:{s}", ScenarioConfig(seed=s), None


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
        [(actor_id, actor.notes) for actor_id, actor in report.scenario.endpoints.items()],
    )


def test_every_pinned_run_audits_as_before():
    digest = hashlib.sha256()
    for attack, config, adversary in _pinned_runs():
        report = run_storage_scenario(config, adversary=adversary)
        digest.update(repr(_summary(attack, report)).encode("utf-8"))
    assert digest.hexdigest() == RUN_REPORTS_SHA256


# --- attack sweeps (small scale; the acceptance gate runs them full-size) ---------


def test_tamper_targets_cover_all_signed_wire_types():
    for name in (
        "PriceQuote",
        "AuthorizationRequest",
        "AuthorizeAndHold",
        "AuthOutcome",
        "HoldRequest",
        "HoldResponse",
        "SettleRequest",
        "SettleResponse",
        "CaptureRequest",
        "CaptureResponse",
        "ObjectUpload",
        "ServiceGrant",
        "ServiceComplete",
        "AuthDecision",
        "TicketRedeemRequest",
        "TicketRedeemResponse",
    ):
        assert name in TAMPER_TARGETS, name


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
