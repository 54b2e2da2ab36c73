"""Per-order run time as orders pile up in one actor set.

One requester queues N price requests at one provider, trust manager and
account provider, and the run goes on to quiescence; every order must end
COMPLETED at the requester and CAPTURED at the provider.  That is done for
N = 10 and N = 2000.  Then batches of 10 more orders run through each of
the two actor sets in turn, and the script prints the milliseconds per
order of a batch at each N, the median of 25 batches.  It exits 1 when a
batch at N = 2000 costs more than 10% more per order than one at N = 10:
a handler that finds its record by scanning every order it holds shows up
as that growth.  The batches alternate and each takes a few milliseconds,
so a host whose speed drifts over seconds slows both sizes alike.  Run it
from the repository root:

    PYTHONPATH=src python tests/order_scaling.py

pytest does not collect this file; ``tests/test_scenario.py`` runs the same
builder at N = 50 and checks the books.
"""
from __future__ import annotations

import statistics
import sys
import time
from dataclasses import replace

from gset import Scenario, ScenarioConfig, Transcript, WireMessage, build_scenario, run_scenario
from gset.actors import ProviderPhase, RequesterPhase

SIZES = (10, 2000)
BATCH = 10
BATCHES = 25
MAX_GROWTH = 1.10
# Deliveries per order; a tick counts deliveries across every order.
RECORDS_PER_ORDER = 21


def orders_config(capacity: int) -> ScenarioConfig:
    """A config under which ``capacity`` orders, all queued at once, complete.

    No quote expires and no run is cut short, because both spans cover
    every delivery of every order.  Credit covers every charge, and the
    per-order limit stays above 136, clear of the small integers the
    privacy scanner would mistake for the limit.
    """
    price = ScenarioConfig().expected_price
    ticks = RECORDS_PER_ORDER * capacity + 1
    return ScenarioConfig(
        quote_ttl=ticks,
        max_ticks=ticks,
        authorized_limit=max(137, price),
        credit_limit=capacity * price,
    )


def queue_orders(scenario: Scenario, n: int) -> list[WireMessage]:
    """``n`` fresh price requests of the scenario's requester."""
    requester = scenario.requester
    return [
        WireMessage(requester.subject_id, *requester.begin(scenario.usage)) for _ in range(n)
    ]


def run_orders(n: int, capacity: int | None = None) -> tuple[Scenario, Transcript]:
    """One actor set, sized for ``capacity`` orders (default ``n``), after a
    run of ``n`` orders queued at once; and the run's transcript."""
    scenario = build_scenario(orders_config(capacity or n))
    # build_scenario queued the first
    initial = scenario.meta.initial + tuple(queue_orders(scenario, n - 1))
    transcript = run_scenario(scenario.endpoints, replace(scenario.meta, initial=initial))
    return scenario, transcript


def all_done(scenario: Scenario, n: int) -> bool:
    """Are all ``n`` orders completed at the requester and captured at the provider?"""
    bought = scenario.requester.orders.values()
    sold = scenario.provider.orders.values()
    return (
        len(bought) == len(sold) == n
        and all(o.phase == RequesterPhase.COMPLETED for o in bought)
        and all(o.phase == ProviderPhase.CAPTURED for o in sold)
    )


def batch_ms_per_order(scenario: Scenario) -> float:
    """Run ``BATCH`` more orders through the actor set; ms per order."""
    meta = replace(scenario.meta, initial=tuple(queue_orders(scenario, BATCH)))
    start = time.perf_counter()
    run_scenario(scenario.endpoints, meta)
    return (time.perf_counter() - start) * 1000 / BATCH


def main() -> int:
    sets = {n: run_orders(n, n + BATCH * BATCHES)[0] for n in SIZES}
    samples: dict[int, list[float]] = {n: [] for n in SIZES}
    for _ in range(BATCHES):
        for n in SIZES:
            samples[n].append(batch_ms_per_order(sets[n]))
    for n, scenario in sets.items():
        if not all_done(scenario, n + BATCH * BATCHES):
            print(f"N = {n}: not every order completed and was captured")
            return 1
    medians = {n: statistics.median(times) for n, times in samples.items()}
    for n in SIZES:
        print(f"N = {n:>4}: {medians[n]:.3f} ms/order (median of {BATCHES} batches of {BATCH})")
    growth = medians[SIZES[-1]] / medians[SIZES[0]]
    verdict = "ok" if growth <= MAX_GROWTH else f"over the {MAX_GROWTH:.2f} bound"
    print(f"N = {SIZES[-1]} / N = {SIZES[0]}: {growth:.3f}x, {verdict}")
    return 0 if growth <= MAX_GROWTH else 1


if __name__ == "__main__":
    sys.exit(main())
