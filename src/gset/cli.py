"""Command-line front end: demo scenario, attack suite, key fixtures.

Exit codes: 0 means the command ran and every integrity scan held (a
business denial is still a 0; the protocol did its job); 1 means a
property or invariant was violated; 2 means the invocation or config was
unusable.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import fields
from pathlib import Path

from .attacks import run_attack_suite
from .crypto import U64_MAX, generate_keypair
from .scenario import (
    RunReport,
    ScenarioConfig,
    ScenarioError,
    build_scenario,
    run_storage_scenario,
)
from .simnet import DivergenceReport, SimnetError, replay_transcript

DEFAULT_SEED = ScenarioConfig.seed
DEFAULT_IDS = (ScenarioConfig.requester_id, ScenarioConfig.provider_id,
               ScenarioConfig.trust_manager_id, ScenarioConfig.account_provider_id)

# What the --adversary shorthand expands to.  The tamper preset flips a
# bit near the tail of the authorization request, which lands inside the
# dual signature and must produce a clean BAD_SIGNATURE denial.
ADVERSARY_PRESETS = {
    "none": "none",
    "tamper": "tamper:AuthorizationRequest:bit=tail/100:1",
    "replay": "replay:AuthorizeAndHold:1",
    "eavesdrop": "eavesdrop:0",
}


class UsageError(Exception):
    pass


def _resolve_seed(cli_seed: int | None, config_seed: int | None, env: dict) -> int:
    """Precedence: --seed, then config file, then GSET_SEED, then default."""
    if cli_seed is not None:
        seed = cli_seed
    elif config_seed is not None:
        seed = config_seed
    elif env.get("GSET_SEED"):
        raw = env["GSET_SEED"]
        try:
            seed = int(raw)
        except ValueError:
            raise UsageError(f"GSET_SEED must be an integer, got {raw!r}")
    else:
        seed = DEFAULT_SEED
    if not 0 <= seed <= U64_MAX:
        raise UsageError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def ini_overrides(path: str | Path) -> dict:
    """Parse a scenario INI file into constructor keyword overrides."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(str(path))
    except configparser.Error as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    if not read:
        raise ScenarioError(f"cannot read config file {path}")
    if not parser.has_section("scenario"):
        raise ScenarioError(f"{path}: missing [scenario] section")
    section = parser["scenario"]
    # each field's base type, an int or a str, is the type of its default
    known = {f.name: type(f.default) for f in fields(ScenarioConfig)}
    overrides: dict = {}
    for key in section:
        if key not in known:
            raise ScenarioError(f"{path}: unknown scenario key {key!r}")
        try:
            overrides[key] = section.getint(key) if known[key] is int else section.get(key)
        except ValueError as exc:
            raise ScenarioError(f"{path}: bad value for {key!r}: {exc}") from exc
    return overrides


def _load_config(args, env: dict) -> ScenarioConfig:
    overrides = ini_overrides(args.config) if args.config else {}
    overrides["seed"] = _resolve_seed(args.seed, overrides.get("seed"), env)
    if args.adversary is not None:
        overrides["adversary_spec"] = ADVERSARY_PRESETS[args.adversary]
    return ScenarioConfig(**overrides)


def _record_line(index: int, record) -> str:
    line = (
        f"  {index:3d}  t{record.tick:<4d} {record.from_id:>3s} -> {record.to_id:<3s} "
        f"{record.type_name}"
    )
    if record.action:
        line += f"  [{record.action.name.lower()}]"
    if record.error:
        line += f"  !! {record.error}"
    return line


def _oracle_outcome(config: ScenarioConfig) -> str:
    if config.expected_price > config.authorized_limit:
        return "DENIED:OVER_LIMIT"
    if config.expected_price > config.credit_limit:
        return "DENIED:INSUFFICIENT_CREDIT"
    return "APPROVED"


def _five_dimensions(report: RunReport, replay: DivergenceReport) -> tuple[list[str], bool]:
    config = report.config
    restricted = {config.trust_manager_id, config.account_provider_id}
    requester = config.requester_id
    crossed = [
        r for r in report.transcript.records
        if (r.from_id == requester and r.to_id in restricted)
        or (r.to_id == requester and r.from_id in restricted)
    ]
    transparency = not crossed
    trust = not report.invariant_failures
    privacy = report.privacy.clean
    oracle = _oracle_outcome(config)
    adversary_active = report.transcript.meta.adversary_spec != "none"
    agility = report.business_outcome == oracle or (
        adversary_active
        and report.business_outcome in ("DENIED:BAD_SIGNATURE", "DENIED:REPLAY")
    )
    agility_text = (
        f"decision for (price={report.expected_price}, limit={config.authorized_limit}, "
        f"credit={config.credit_limit}) matches the live-policy oracle: {oracle}"
        if report.business_outcome == oracle
        else f"adversarial interference rejected as {report.business_outcome}"
    )

    def row(ok: bool, name: str, text: str) -> str:
        return f"  [{'PASS' if ok else 'FAIL'}] {name:<12s} {text}"

    lines = [
        row(
            transparency, "transparency",
            "requester exchanged messages with the provider only; payment ran upstream"
            if transparency
            else f"requester crossed the payment boundary in {len(crossed)} record(s)",
        ),
        row(
            trust, "trust",
            "every accepted message passed its signature or ticket-digest check; books reconcile"
            if trust
            else "; ".join(report.invariant_failures),
        ),
        row(
            privacy, "privacy",
            "payment markers absent at provider and on the wire; usage markers absent "
            "at trust manager"
            if privacy
            else f"marker found at {report.privacy.hits[0].location}",
        ),
        row(agility, "agility", agility_text),
        row(
            replay.matches, "reliability",
            f"rerun with seed {config.seed} reproduced the transcript byte for byte"
            if replay.matches
            else f"rerun DIVERGED from the recorded transcript: {replay.detail}",
        ),
    ]
    ok = transparency and trust and privacy and agility and replay.matches
    return lines, ok


def cmd_demo_storage(args, env: dict) -> int:
    config = _load_config(args, env)
    report = run_storage_scenario(config)

    # the reliability dimension: a rerun of the recorded meta on actors built
    # afresh must reproduce the wire
    replay = replay_transcript(report.transcript, build_scenario(config).endpoints)

    out_path = Path(args.out) if args.out else Path("gset-demo.gsett")
    report.transcript.save(out_path)

    print(f"storage demo  seed={config.seed}  adversary={config.adversary_spec}")
    print(
        f"usage: {config.quantity} x {config.service_id}/{config.operation} "
        f"@ {config.rate}/{config.unit} = {report.expected_price} credits"
    )
    print(f"limit {config.authorized_limit}, account credit {config.credit_limit}")
    print()
    print("wire transcript:")
    for index, (record, events) in enumerate(report.transcript.steps):
        print(_record_line(index, record))
        for event in events:  # indented under the record whose delivery drew it
            print(f"{'':20s}{event}")
    print()
    for line in report.describe():
        print(line)
    print()
    dimension_lines, dimensions_ok = _five_dimensions(report, replay)
    print("five dimensions:")
    for line in dimension_lines:
        print(line)
    print()
    print(f"transcript written to {out_path}")

    completed = report.business_outcome != "INCOMPLETE"
    if dimensions_ok and completed:
        print("verdict: all integrity scans held")
        return 0
    if not completed:
        print("verdict: FAIL (run did not reach a decision)")
    else:
        print("verdict: FAIL (integrity scan violations above)")
    return 1


def cmd_attack_suite(args, env: dict) -> int:
    if args.iterations < 1:
        raise UsageError("--iterations must be a positive integer")
    seed = _resolve_seed(args.seed, None, env)
    suite = run_attack_suite(seed=seed, iterations=args.iterations)
    text = suite.render()
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"report written to {args.out}")
    return 0 if suite.ok else 1


def cmd_keys(args, env: dict) -> int:
    ids = tuple(args.ids) if args.ids else DEFAULT_IDS
    if len(set(ids)) != len(ids):
        raise UsageError(f"duplicate subject ids: {', '.join(ids)}")
    if not all(ids):
        raise UsageError("subject ids must be non-empty")
    seed = _resolve_seed(args.seed, None, env)
    lines = ["[keys]", f"seed = {seed}", ""]
    for subject_id in ids:
        pair = generate_keypair(subject_id, seed)
        lines += [
            f"[{subject_id}]",
            f"public = {pair.public_key.hex()}",
            f"private = {pair.private_key.hex()}",
            "",
        ]
    out_path = Path(args.out) if args.out else Path("gset-keys.ini")
    out_path.write_text("\n".join(lines), encoding="utf-8")
    print(f"wrote {len(ids)} keypairs (seed {seed}) to {out_path}")
    return 0


# The fields the help's example config sets, each at its default.
_EXAMPLE_FIELDS = ("seed", "service_id", "quantity", "rate", "authorized_limit",
                   "credit_limit", "adversary_spec")
_EXAMPLE_CONFIG = "\n".join(
    ["  [scenario]"] + [f"  {name} = {getattr(ScenarioConfig, name)}" for name in _EXAMPLE_FIELDS]
)
_CONFIG_HELP = f"""\
config file format (INI):

{_EXAMPLE_CONFIG}

Any ScenarioConfig field may appear; unknown keys are rejected.
Seed precedence: --seed, config file, GSET_SEED, default {DEFAULT_SEED}.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gset",
        description="Dynamic authorization and payment protocol toolkit",
        epilog=_CONFIG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser(
        "demo-storage",
        help="run the mobile-storage scenario and print transcript plus verdicts",
    )
    demo.add_argument("--config", help="scenario INI file")
    demo.add_argument("--seed", type=int, help="override the run seed")
    demo.add_argument("--out", help="transcript output path (default gset-demo.gsett)")
    demo.add_argument(
        "--adversary",
        choices=sorted(ADVERSARY_PRESETS),
        help="interpose a preset adversary on the wire",
    )
    demo.set_defaults(func=cmd_demo_storage)

    suite = sub.add_parser("attack-suite", help="run tamper/replay/eavesdrop sweeps")
    suite.add_argument("--seed", type=int, help="sweep seed")
    suite.add_argument(
        "--iterations", type=int, default=200,
        help="bit mutations per message type (default 200)",
    )
    suite.add_argument("--out", help="also write the report to this path")
    suite.set_defaults(func=cmd_attack_suite)

    keys = sub.add_parser("keys", help="write a deterministic keypair fixture file")
    keys.add_argument("ids", nargs="*", help=f"subject ids (default {' '.join(DEFAULT_IDS)})")
    keys.add_argument("--seed", type=int, help="derivation seed")
    keys.add_argument("--out", help="fixture path (default gset-keys.ini)")
    keys.set_defaults(func=cmd_keys)

    return parser


def main(argv: list[str] | None = None, env: dict | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    environment = dict(os.environ) if env is None else env
    try:
        return args.func(args, environment)
    except (UsageError, ScenarioError, SimnetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
