"""Tests of the benchmark itself: tracing is invisible when off, traced
counts match the transcripts, and counts are deterministic.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import gset
import gset.attacks
import gset.cli  # noqa: F401  (loaded so that its bindings are checked too)
import pytest
import tracing
import workloads
from gset import scenario

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _bindings() -> dict:
    """Every attribute of every gset module and traced class, by identity."""
    seen = {}
    for name, module in sorted(sys.modules.items()):
        if name == "gset" or name.startswith("gset."):
            seen.update({(name, key): id(value) for key, value in vars(module).items()})
    for module, cls, _attr, _span in tracing.METHODS:
        owner = getattr(sys.modules[module], cls)
        seen.update({(module, cls, key): id(value) for key, value in vars(owner).items()})
    return seen


def _traced(workload: str, seeds: list[int]) -> tuple[tracing.Tracer, list]:
    workloads.derive_keys(seeds)
    base = workloads.BASE_CONFIGS[workload]
    tracer = tracing.Tracer()
    reports = []
    with tracer:
        for seed in seeds:
            reports.append(scenario.run_storage_scenario(replace(base, seed=seed)))
    return tracer, reports


def test_untraced_and_traced_runs_leave_every_binding_as_it_was():
    seeds, _rounds = workloads.setup("txn-small", 1, 0.1)
    before = _bindings()
    original_sign = gset.crypto.sign
    workloads.run_loop("txn-small", seeds, 0.05)
    workloads.run_loop("attack-mix", seeds, 0.05)
    assert _bindings() == before
    with tracing.Tracer():
        wrapped = gset.crypto.sign
        assert wrapped is not original_sign
        assert gset.messages.sign is wrapped and gset.actors.sign is wrapped
        assert gset.attacks.run_storage_scenario is gset.scenario.run_storage_scenario
        assert isinstance(gset.crypto.Ed25519PrivateKey, tracing._KeyClassProxy)
    assert _bindings() == before
    assert gset.crypto.sign is original_sign


def test_traced_wire_bytes_and_records_equal_the_transcripts():
    for workload in ("txn-small", "attack-mix"):
        seeds = workloads.scenario_seeds(workload, 3, 4)
        tracer, reports = _traced(workload, seeds)
        ops = tracer.per_txn_ops()
        assert tracer.transactions == len(reports)
        for entry, report in zip(ops, reports):
            records = report.transcript.records
            assert entry["simnet.records.count"] == len(records)
            assert entry["simnet.wire_bytes"] == sum(len(r.payload) for r in records)


def test_self_times_partition_the_root_spans():
    tracer, _reports = _traced("txn-small", workloads.scenario_seeds("txn-small", 4, 2))
    own = tracer.self_ns()
    assert min(own) >= 0
    roots = sum(s[4] - s[3] for s in tracer.spans if s[1] < 0)
    assert sum(own) == roots


def test_same_seed_same_counts_other_seed_other_bytes_same_counts():
    first = workloads.scenario_seeds("txn-small", 5, 3)
    again = workloads.scenario_seeds("txn-small", 5, 3)
    other = workloads.scenario_seeds("txn-small", 6, 3)
    assert first == again and set(first).isdisjoint(other)
    runs = [_traced("txn-small", seeds) for seeds in (first, again, other)]
    ops = [tracer.per_txn_ops() for tracer, _reports in runs]
    assert ops[0] == ops[1]
    assert all(entry == ops[0][0] for entry in ops[0] + ops[2])
    payloads = [[r.transcript.payloads() for r in reports] for _tracer, reports in runs]
    assert payloads[0] == payloads[1]
    assert payloads[0] != payloads[2]


def test_attack_round_counts_repeat_for_the_same_seed():
    def traced_round(round_seed: int) -> list[dict]:
        workloads.derive_keys([round_seed])
        tracer = tracing.Tracer()
        with tracer:
            for sweep in workloads.attack_round(round_seed):
                sweep()
        return tracer.per_txn_ops()

    seed = workloads.scenario_seeds("attack-mix", 1, 1)[0]
    ops = traced_round(seed)
    assert len(ops) == 17 * workloads.TAMPER_MUTATIONS_PER_TYPE + 17 + 1
    assert ops == traced_round(seed)
    assert sum(entry.get("crypto.verify.fail", 0) + entry.get("codec.decode.fail", 0)
               for entry in ops) > 0


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("workload,trace,key", [
    ("txn-small", "0", "end_to_end"),
    ("attack-mix", "1", "per_layer"),
])
def test_command_prints_every_metric_with_its_unit(workload, trace, key):
    done = _run(ROOT, "--workload", workload, "--seed", "2", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in spec[key]
    }


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "txn-small", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout == ""
