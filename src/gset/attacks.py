"""Systematic adversarial sweeps over the storage scenario.

Every sweep drives complete scenario runs through the simulated network
with a byte-level adversary and then audits the books: the attacker must
never cause an approval, an extra hold, or an extra settlement, and must
never learn payment details.  Findings are collected, not raised, so a
whole suite can run and report in one pass.

Each run is the sweep's base config with one adversary spec swapped in,
and each finding is named by that spec (``tamper:HoldRequest:bit=rand/4:1``
is the fifth tamper run over ``HoldRequest``).  So any run, and any
finding, is rerun from its spec and seed alone: ``gset demo-storage``
prints each refusal the run drew as an event under its record, and
``replay_transcript`` on its transcript compares those events too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .scenario import RunReport, ScenarioConfig, run_storage_scenario
from .simnet import Action

# Wire message types in the order they first appear in a happy run, with
# the books both sides should show after a single-shot tamper of that
# type: (holds placed, settlements).  A tamper can stall the flow or force
# a denial, but whatever already settled honestly is allowed to stand.
# Every bit of every type here is load-bearing: it sits under a signature,
# inside a sealed envelope, or is a handle whose corruption gets refused.
TAMPER_EXPECTATIONS: dict[str, tuple[int, int]] = {
    "PriceQuote": (0, 0),
    "AuthorizationRequest": (0, 0),
    "AuthorizeAndHold": (0, 0),
    "HoldRequest": (0, 0),
    "HoldResponse": (1, 0),
    "AuthOutcome": (1, 0),
    "AuthDecision": (1, 0),
    "ObjectUpload": (1, 0),
    "ServiceGrant": (1, 0),
    "TicketRedeemRequest": (1, 0),
    "TicketRedeemResponse": (1, 0),
    "ServiceComplete": (1, 0),
    "CaptureRequest": (1, 0),
    "SettleRequest": (1, 0),
    "SettleResponse": (1, 1),
    "CaptureResponse": (1, 1),
}

# The price enquiry is deliberately unauthenticated.  A flipped bit stalls
# the run: its quote names no pending request or prices another usage.
# Tampering it must still never corrupt the books or leak anything.
RELAXED_TAMPER_TARGETS = ("PriceRequest",)

TAMPER_TARGETS = tuple(TAMPER_EXPECTATIONS) + RELAXED_TAMPER_TARGETS

# Types whose duplication must never double-spend.  All of them: a replayed
# message anywhere in the flow has to be absorbed without a second hold,
# second settlement, or a stalled honest run.
REPLAY_TARGETS = TAMPER_TARGETS

# The replay-sensitive core: messages that move money if honored twice.
REPLAY_CORE = (
    "AuthorizationRequest",
    "AuthorizeAndHold",
    "HoldRequest",
    "CaptureRequest",
    "SettleRequest",
)


@dataclass(frozen=True)
class AttackFinding:
    attack: str
    expectation: str
    observed: str


@dataclass
class SweepReport:
    name: str
    runs: int = 0
    findings: list[AttackFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def expect(self, attack: str, held: bool, expectation: str, observed: str) -> None:
        """Record a finding against ``attack`` unless ``expectation`` held."""
        if not held:
            self.findings.append(AttackFinding(attack, expectation, observed))


def _audit_common(sweep: SweepReport, attack: str, report: RunReport) -> None:
    sweep.runs += 1
    failures = report.invariant_failures
    sweep.expect(attack, not failures, "no invariant failures", "; ".join(failures))
    leaks = report.privacy.hits
    sweep.expect(attack, not leaks, "no payment/usage leakage",
                 f"marker at {leaks[0].location}" if leaks else "")


def tamper_sweep(seed: int = ScenarioConfig.seed, mutations_per_type: int = 200) -> SweepReport:
    """Flip one random bit per run in each wire message type, many times.

    A tampered message must never yield an approval or settlement of its
    own: the books may only show what the honest prefix of the run already
    earned.
    """
    base = ScenarioConfig(seed=seed)
    sweep = SweepReport(name="tamper")
    for target in TAMPER_TARGETS:
        expectation = TAMPER_EXPECTATIONS.get(target)
        for index in range(mutations_per_type):
            attack = f"tamper:{target}:bit=rand/{index}:1"
            report = run_storage_scenario(replace(base, adversary_spec=attack))
            _audit_common(sweep, attack, report)
            holds, settles = report.holds_created, report.settle_count
            if expectation is None:
                # relaxed target: books must stay consistent, nothing more
                sweep.expect(attack, settles <= holds <= 1, "books stay consistent",
                             f"{holds} holds, {settles} settlements")
                continue
            want_holds, want_settles = expectation
            sweep.expect(attack, not report.complete_success(),
                         "tampered run must not fully succeed", "it did")
            sweep.expect(attack, holds == want_holds,
                         f"exactly {want_holds} hold(s)", f"{holds} holds")
            sweep.expect(attack, settles == want_settles,
                         f"exactly {want_settles} settlement(s)", f"{settles} settlements")
    return sweep


def replay_sweep(seed: int = ScenarioConfig.seed) -> SweepReport:
    """Duplicate each wire message type once; the flow must still finish
    with exactly one hold and one settlement."""
    base = ScenarioConfig(seed=seed)
    sweep = SweepReport(name="replay")
    price = base.expected_price
    for target in REPLAY_TARGETS:
        attack = f"replay:{target}:1"
        report = run_storage_scenario(replace(base, adversary_spec=attack))
        _audit_common(sweep, attack, report)
        outcome = report.business_outcome
        sweep.expect(attack, outcome == "APPROVED", "honest flow still completes", outcome)
        sweep.expect(attack, report.holds_created == 1,
                     "exactly 1 hold", f"{report.holds_created} holds")
        sweep.expect(attack, report.settle_count == 1,
                     "exactly 1 settlement", f"{report.settle_count} settlements")
        sweep.expect(attack, report.settled_total == price,
                     f"settled total {price}", f"settled total {report.settled_total}")
    return sweep


def eavesdrop_check(seed: int = ScenarioConfig.seed) -> SweepReport:
    """Record every byte on the wire and scan the haul for payment markers."""
    base = ScenarioConfig(seed=seed)
    sweep = SweepReport(name="eavesdrop")
    attack = "eavesdrop:0"
    report = run_storage_scenario(replace(base, adversary_spec=attack))
    _audit_common(sweep, attack, report)
    sweep.expect(attack, report.complete_success(),
                 "passive observation changes nothing", "run degraded")
    records = report.transcript.records
    observed = sum(record.action is Action.OBSERVED for record in records)
    sweep.expect(attack, observed == len(records),
                 "every record observed", f"{observed} of {len(records)}")
    return sweep


@dataclass
class AttackSuiteReport:
    seed: int
    iterations: int
    tamper: SweepReport
    replay: SweepReport
    eavesdrop: SweepReport

    @property
    def ok(self) -> bool:
        return self.tamper.ok and self.replay.ok and self.eavesdrop.ok

    @property
    def total_runs(self) -> int:
        return self.tamper.runs + self.replay.runs + self.eavesdrop.runs

    def render(self) -> str:
        lines = [
            f"attack suite  seed={self.seed}  iterations={self.iterations}",
            f"total adversarial runs: {self.total_runs}",
            "",
        ]
        for sweep in (self.tamper, self.replay, self.eavesdrop):
            verdict = "PASS" if sweep.ok else "FAIL"
            lines.append(f"[{verdict}] {sweep.name}: {sweep.runs} runs")
            for finding in sweep.findings[:20]:
                lines.append(
                    f"    {finding.attack}: expected {finding.expectation}, "
                    f"observed {finding.observed}"
                )
            if len(sweep.findings) > 20:
                lines.append(f"    ... and {len(sweep.findings) - 20} more")
        lines.append("")
        lines.append("verdict: " + ("all properties held" if self.ok else "PROPERTY VIOLATIONS"))
        return "\n".join(lines)


def run_attack_suite(seed: int = ScenarioConfig.seed, iterations: int = 200) -> AttackSuiteReport:
    """Tamper, replay, and eavesdrop sweeps with a shared seed."""
    if iterations < 1:
        raise ValueError("iterations must be positive")
    return AttackSuiteReport(
        seed=seed,
        iterations=iterations,
        tamper=tamper_sweep(seed=seed, mutations_per_type=iterations),
        replay=replay_sweep(seed=seed),
        eavesdrop=eavesdrop_check(seed=seed),
    )
