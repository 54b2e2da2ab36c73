"""The benchmark's three closed-loop workloads over gset's public API.

One client in one process, no threads: each transaction (or adversarial
run) starts only after the previous one has been audited.

* ``txn-small``: default storage transactions, 3 objects x 64 B.  Fixed
  per-message costs dominate (signs, verifies, encodes, records).
* ``txn-bulk``: the same flow with 16 objects x 64 KiB, where work that
  grows with message bytes dominates (hashing, signing large bodies,
  framing copies, the privacy scan).
* ``attack-mix``: ``tamper_sweep``, ``replay_sweep`` and
  ``eavesdrop_check`` from ``gset.attacks``, called directly rather than
  through ``run_attack_suite`` so that a new sweep added to the suite
  cannot silently change this workload.  Most runs end early on the
  rejection path, which the happy path never takes.

Every transaction draws its own scenario seed from the workload seed.
Keys for every seed are derived in set-up (``build_scenario`` caches them
per subject and seed), because identities are long-lived.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from random import Random
from time import perf_counter

from gset import attacks, scenario
from gset.scenario import ScenarioConfig

BASE_CONFIGS = {
    "txn-small": ScenarioConfig(),
    "txn-bulk": ScenarioConfig(object_count=16, object_size=64 * 1024),
    "attack-mix": ScenarioConfig(),
}

# Scenario seeds the timed loop may use per second of run time: an upper
# bound on transactions per second (rounds per second for attack-mix), so
# the loop rarely has to cycle back to a seed it already used.
SEEDS_PER_SECOND = {"txn-small": 150, "txn-bulk": 30, "attack-mix": 4}

# Set-up runs this many times with a fresh pool of seeds each time; the
# benchmark reports the median and the timed loop draws from every pool.
SETUP_ROUNDS = 3
WARMUP_TRANSACTIONS = 2

# Tampered runs per wire message type per round.  Three keep the rejection
# path at three quarters of the runs, so the median run is a tampered one.
TAMPER_MUTATIONS_PER_TYPE = 3


@dataclass
class LoopResult:
    """What one timed loop did and how long it took."""

    elapsed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    latencies_s: list[float] = field(default_factory=list)
    wire_bytes: list[int] = field(default_factory=list)

    @property
    def rate_per_s(self) -> float:
        return self.attempted / self.elapsed_s

    def percentile_ms(self, share: float) -> float:
        ordered = sorted(self.latencies_s)
        return 1e3 * ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def scenario_seeds(workload: str, seed: int, count: int) -> list[int]:
    """``count`` distinct scenario seeds drawn from the workload seed."""
    rng = Random(f"perfbench/{workload}/{seed}")
    seen: set[int] = set()
    out = []
    while len(out) < count:
        candidate = rng.getrandbits(63)
        if candidate not in seen:
            seen.add(candidate)
            out.append(candidate)
    return out


def txn_ok(report, config: ScenarioConfig) -> bool:
    """The output check for one happy-path transaction."""
    return (
        report.complete_success()
        and report.settled_total == config.expected_price
        and report.privacy is not None
        and report.privacy.clean
    )


def derive_keys(seeds: list[int]) -> None:
    """Derive every identity's keys for ``seeds``; gset.scenario caches them."""
    for scenario_seed in seeds:
        scenario.build_scenario(ScenarioConfig(seed=scenario_seed))


def setup(workload: str, seed: int, seconds: float) -> tuple[list[int], list[float]]:
    """Derive keys for every seed the run may use and warm up.

    Returns the seeds for the timed loop and the duration of each set-up
    round.
    """
    per_round = max(WARMUP_TRANSACTIONS,
                    int(seconds * SEEDS_PER_SECOND[workload] / SETUP_ROUNDS) + 1)
    seeds = scenario_seeds(workload, seed, per_round * SETUP_ROUNDS)
    base = BASE_CONFIGS[workload]
    rounds = []
    for index in range(SETUP_ROUNDS):
        pool = seeds[index * per_round:(index + 1) * per_round]
        start = perf_counter()
        derive_keys(pool)
        for scenario_seed in pool[:WARMUP_TRANSACTIONS]:
            config = replace(base, seed=scenario_seed)
            if not txn_ok(scenario.run_storage_scenario(config), config):
                raise RuntimeError(f"warm-up transaction failed at seed {scenario_seed}")
        rounds.append(perf_counter() - start)
    return seeds, rounds


def run_txn(workload: str, seeds: list[int], seconds: float, offset: int = 0) -> LoopResult:
    """Back-to-back transactions until ``seconds`` have passed."""
    base = BASE_CONFIGS[workload]
    result = LoopResult()
    start = now = perf_counter()
    deadline = start + seconds
    index = offset
    while now < deadline:
        config = replace(base, seed=seeds[index % len(seeds)])
        index += 1
        report = scenario.run_storage_scenario(config)
        if not txn_ok(report, config):
            result.failed += 1
        result.wire_bytes.append(sum(len(record.payload) for record in report.transcript.records))
        done = perf_counter()
        result.latencies_s.append(done - now)
        now = done
    result.attempted = len(result.latencies_s)
    result.elapsed_s = now - start
    return result


@contextmanager
def timed_runs(latencies: list[float]):
    """Time every scenario run the sweeps make, at their call into gset.scenario."""
    original = attacks.run_storage_scenario

    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            latencies.append(perf_counter() - start)

    attacks.run_storage_scenario = timed
    try:
        yield
    finally:
        attacks.run_storage_scenario = original


def attack_round(round_seed: int):
    """The three sweeps of one attack-mix round, as zero-argument calls."""
    return (
        lambda: attacks.tamper_sweep(seed=round_seed, mutations_per_type=TAMPER_MUTATIONS_PER_TYPE),
        lambda: attacks.replay_sweep(seed=round_seed),
        lambda: attacks.eavesdrop_check(seed=round_seed),
    )


def run_attack(seeds: list[int], seconds: float, offset: int = 0) -> LoopResult:
    """Attack-mix rounds until ``seconds`` have passed.

    A run fails its check when its sweep reports any finding for it.
    """
    result = LoopResult()
    start = now = perf_counter()
    deadline = start + seconds
    index = offset
    with timed_runs(result.latencies_s):
        while now < deadline:
            round_seed = seeds[index % len(seeds)]
            index += 1
            for sweep in attack_round(round_seed):
                report = sweep()
                result.attempted += report.runs
                result.failed += len({finding.attack for finding in report.findings})
                now = perf_counter()
                if now >= deadline:
                    break
    result.elapsed_s = now - start
    return result


def run_loop(workload: str, seeds: list[int], seconds: float, offset: int = 0) -> LoopResult:
    if workload == "attack-mix":
        return run_attack(seeds, seconds, offset)
    return run_txn(workload, seeds, seconds, offset)
