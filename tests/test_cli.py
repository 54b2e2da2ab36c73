"""CLI behaviour: exit codes, determinism, seed precedence, key fixtures."""
from __future__ import annotations

import configparser
import dataclasses

import pytest

import gset.attacks
import gset.scenario
from gset import (
    PRIVATE_KEY_SIZE,
    PUBLIC_KEY_SIZE,
    Action,
    AuthorizationRequest,
    ScenarioConfig,
    Signature,
    cli,
    codec,
    run_storage_scenario,
)
from gset.attacks import tamper_sweep
from gset.cli import main
from gset.scenario import build_scenario

from harness import recorded


def run_cli(argv, env=None, cwd=None, monkeypatch=None, capsys=None):
    if cwd is not None:
        monkeypatch.chdir(cwd)
    code = main(argv, env=env if env is not None else {})
    out, err = capsys.readouterr()
    return code, out, err


# --- demo-storage ----------------------------------------------------------------


def test_happy_demo_exits_zero(tmp_path, monkeypatch, capsys):
    code, out, err = run_cli(
        ["demo-storage"], cwd=tmp_path, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0, err
    assert "outcome            APPROVED" in out
    assert not any(line.startswith(" " * 20) for line in out.splitlines())  # no event
    assert "verdict: all integrity scans held" in out
    assert (tmp_path / "gset-demo.gsett").exists()


def test_demo_stdout_is_deterministic(tmp_path, monkeypatch, capsys):
    argv = ["demo-storage", "--seed", "7", "--out", str(tmp_path / "t.gsett")]
    monkeypatch.chdir(tmp_path)
    main(argv, env={})
    first = capsys.readouterr().out
    first_bytes = (tmp_path / "t.gsett").read_bytes()
    main(argv, env={})
    second = capsys.readouterr().out
    assert first == second
    assert (tmp_path / "t.gsett").read_bytes() == first_bytes


def test_demo_reports_where_a_rerun_diverges(tmp_path, monkeypatch, capsys):
    # actors built under another seed cannot reproduce the wire
    def other_seed(config):
        return build_scenario(dataclasses.replace(config, seed=config.seed + 1))

    monkeypatch.setattr(cli, "build_scenario", other_seed)
    code, out, _ = run_cli(
        ["demo-storage"], cwd=tmp_path, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 1
    [row] = [line for line in out.splitlines() if "reliability" in line]
    assert row.startswith("  [FAIL] reliability  rerun DIVERGED from the recorded transcript: ")
    assert "differs: expected" in row


def test_demo_reports_business_denial_but_exits_zero(tmp_path, monkeypatch, capsys):
    # the protocol refusing an over-limit charge is correct behaviour
    ini = tmp_path / "over.ini"
    ini.write_text("[scenario]\nauthorized_limit = 20\n")
    code, out, _ = run_cli(
        ["demo-storage", "--config", str(ini)],
        cwd=tmp_path, monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    assert "DENIED:OVER_LIMIT" in out


def test_demo_flags_stalled_run_as_failure(tmp_path, monkeypatch, capsys):
    ini = tmp_path / "drop.ini"
    ini.write_text("[scenario]\nadversary_spec = drop:PriceQuote:1\n")
    code, out, _ = run_cli(
        ["demo-storage", "--config", str(ini)],
        cwd=tmp_path, monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 1
    assert "did not reach a decision" in out


@pytest.mark.parametrize(
    "preset,needle",
    [
        ("none", "outcome            APPROVED"),
        ("tamper", "DENIED:BAD_SIGNATURE"),
        ("replay", "outcome            APPROVED"),
        ("eavesdrop", "outcome            APPROVED"),
    ],
)
def test_adversary_presets(tmp_path, monkeypatch, capsys, preset, needle):
    code, out, _ = run_cli(
        ["demo-storage", "--adversary", preset],
        cwd=tmp_path, monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    assert needle in out


def _field_bounds(data: bytes, cls: type, pos: int, end: int) -> dict[str, tuple[int, int]]:
    """The content bounds of each field of ``cls`` encoded in ``data[pos:end]``,
    as the codec reads their lengths."""
    bounds = {}
    for name, _, _ in codec._schema_for(cls).fields:
        bounds[name] = codec._field(data, pos, end, name)
        pos = bounds[name][1]
    assert pos == end
    return bounds


def test_the_tamper_preset_flips_a_bit_of_the_dual_signature():
    # The run's outcome cannot tell: a flip in the payment's digest is a
    # BAD_SIGNATURE denial too.  So locate the dual signature's bytes in the
    # request the requester sent and find the flipped bit among them.
    spec = cli.ADVERSARY_PRESETS["tamper"]
    [sent] = recorded(run_storage_scenario(ScenarioConfig()).transcript.records,
                      "AuthorizationRequest")
    [tampered] = [r.payload for r in run_storage_scenario(ScenarioConfig(adversary_spec=spec))
                  .transcript.records if r.action is Action.TAMPERED]
    [at] = [i for i, (a, b) in enumerate(zip(sent, tampered)) if a != b]
    fields_at = codec._field(sent, 0, len(sent), "type tag")[1]
    dual = _field_bounds(sent, AuthorizationRequest, fields_at, len(sent))["dual"]
    start, stop = _field_bounds(sent, Signature, *dual)["bytes"]
    assert start <= at < stop


def test_tamper_preset_passes_agility_scan(tmp_path, monkeypatch, capsys):
    # adversarial interference is expected to surface as a denial, and the
    # dimension scan treats that as the correct decision
    code, out, _ = run_cli(
        ["demo-storage", "--adversary", "tamper"],
        cwd=tmp_path, monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    assert "[PASS] agility" in out
    assert "rejected as DENIED:BAD_SIGNATURE" in out


def test_demo_prints_each_event_under_the_record_that_drew_it(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(
        ["demo-storage", "--adversary", "tamper"],
        cwd=tmp_path, monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    lines = out.splitlines()
    at = lines.index("    2  t3     SR -> SP  AuthorizationRequest  [tampered]")
    assert lines[at + 1].startswith(" " * 20 + "SP AUTHORIZATION_REFUSED BAD_SIGNATURE order ")
    assert lines[at + 2] == "    3  t4     SP -> SR  AuthDecision"


# --- seed handling ---------------------------------------------------------------


def test_seed_from_environment(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(
        ["demo-storage"], env={"GSET_SEED": "11"},
        cwd=tmp_path, monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    assert "seed=11" in out


def test_seed_flag_beats_environment(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(
        ["demo-storage", "--seed", "13"], env={"GSET_SEED": "11"},
        cwd=tmp_path, monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    assert "seed=13" in out


def test_config_seed_beats_environment(tmp_path, monkeypatch, capsys):
    ini = tmp_path / "s.ini"
    ini.write_text("[scenario]\nseed = 21\n")
    code, out, _ = run_cli(
        ["demo-storage", "--config", str(ini)], env={"GSET_SEED": "11"},
        cwd=tmp_path, monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    assert "seed=21" in out


@pytest.mark.parametrize(
    "argv, env, config, expected",
    [
        (["demo-storage"], {"GSET_SEED": "banana"}, None, "GSET_SEED"),
        (["demo-storage"], {"GSET_SEED": "-1"}, None, "seed"),
        (["demo-storage", "--seed", "-5"], {}, None, "seed"),
        (["demo-storage", "--seed", str(2**64)], {}, None, "seed"),
        (["demo-storage"], {}, "[scenario]\nseed = -1\n", "seed"),
        (["keys", "SR", "--seed", "-1"], {}, None, "seed"),
        (["keys", "SR", "--seed", str(2**64)], {}, None, "seed"),
        (["attack-suite", "--seed", "-1", "--iterations", "1"], {}, None, "seed"),
    ],
    ids=["env-banana", "env-negative", "demo-negative", "demo-2**64", "config-negative",
         "keys-negative", "keys-2**64", "attack-suite-negative"],
)
def test_bad_environment_seed_is_usage_error(
    tmp_path, monkeypatch, capsys, argv, env, config, expected
):
    if config is not None:
        ini = tmp_path / "seed.ini"
        ini.write_text(config)
        argv = argv + ["--config", str(ini)]
    code, _, err = run_cli(argv, env=env, cwd=tmp_path, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2
    assert "error:" in err
    assert expected in err


def test_the_help_example_config_loads_as_the_defaults(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["--help"], env={})
    help_text = capsys.readouterr().out
    lines = help_text.split("  [scenario]\n", 1)[1].split("\n\n", 1)[0].splitlines()
    ini = tmp_path / "example.ini"
    ini.write_text("\n".join(["[scenario]"] + [line.strip() for line in lines]) + "\n")
    args = cli.build_parser().parse_args(["demo-storage", "--config", str(ini)])
    assert cli._load_config(args, {}) == ScenarioConfig()


# --- config errors ---------------------------------------------------------------


def test_missing_config_file_exits_two(tmp_path, monkeypatch, capsys):
    code, _, err = run_cli(
        ["demo-storage", "--config", str(tmp_path / "nope.ini")],
        cwd=tmp_path, monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 2
    assert "error:" in err


def test_unknown_config_key_exits_two(tmp_path, monkeypatch, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[scenario]\nwrong_key = 1\n")
    code, _, err = run_cli(
        ["demo-storage", "--config", str(ini)],
        cwd=tmp_path, monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 2
    assert "wrong_key" in err


UNUSABLE_SCENARIO_VALUES = [
    ("quantity", "0"),
    ("service_id", ""),
    ("credit_limit", "0"),
    ("max_ticks", "0"),
    ("object_count", "0"),
    ("object_size", "0"),
    ("rate", "0"),
    ("authorized_limit", "0"),
    ("quote_ttl", "0"),
    ("quantity", str(2**64)),
    ("credit_limit", str(2**64)),
    ("authorized_limit", str(2**64)),
    # the price, rate x quantity, overflows 64 bits at the default rate 10
    ("quantity", str(2**64 - 1)),
    # a quote's expiry, at most max_ticks + quote_ttl, overflows 64 bits
    ("quote_ttl", str(2**64 - 1)),
    # three 2 GiB objects: refused before any is made, so nothing is allocated
    ("object_size", str(2**31)),
]


@pytest.mark.parametrize("key, value", UNUSABLE_SCENARIO_VALUES)
def test_unusable_config_value_exits_two(tmp_path, monkeypatch, capsys, key, value):
    # refused before any object is made, so an oversized upload never allocates
    def no_objects(config):
        raise AssertionError("objects made for an unusable config")

    monkeypatch.setattr(gset.scenario, "_objects", no_objects)
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[scenario]\n{key} = {value}\n")
    code, _, err = run_cli(
        ["demo-storage", "--config", str(ini)],
        cwd=tmp_path, monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 2
    [line] = err.splitlines()
    assert line.startswith("error:") and key in line


def test_malformed_tamper_mutation_in_config_exits_two(tmp_path, monkeypatch, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[scenario]\nadversary_spec = tamper:PriceQuote:bit=tail/0:1\n")
    code, _, err = run_cli(
        ["demo-storage", "--config", str(ini)],
        cwd=tmp_path, monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 2
    assert "error:" in err


def test_a_hit_count_that_is_not_ascii_digits_in_config_exits_two(tmp_path, monkeypatch, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[scenario]\nadversary_spec = tamper:PriceQuote:²\n", encoding="utf-8")
    code, _, err = run_cli(
        ["demo-storage", "--config", str(ini)],
        cwd=tmp_path, monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 2
    [line] = err.splitlines()
    assert line.startswith("error:")


def test_a_sweep_run_reruns_from_its_spec(tmp_path, monkeypatch, capsys):
    spec = "tamper:AuthorizationRequest:bit=rand/3:1"
    reports = []
    run = gset.attacks.run_storage_scenario

    def kept(config):
        reports.append(run(config))
        return reports[-1]

    monkeypatch.setattr(gset.attacks, "run_storage_scenario", kept)
    tamper_sweep(seed=7, mutations_per_type=4)
    [swept] = [r for r in reports if r.config.adversary_spec == spec]

    ini = tmp_path / "finding.ini"
    ini.write_text(f"[scenario]\nadversary_spec = {spec}\n")
    out_path = tmp_path / "finding.gsett"
    code, out, err = run_cli(
        ["demo-storage", "--seed", "7", "--config", str(ini), "--out", str(out_path)],
        cwd=tmp_path, monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0, err
    assert out_path.read_bytes() == swept.transcript.to_bytes()
    assert "  [PASS] reliability  " in out


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"], env={})
    assert exc.value.code == 2
    capsys.readouterr()


# --- attack-suite ----------------------------------------------------------------


def test_attack_suite_small_run_exits_zero(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(
        ["attack-suite", "--iterations", "1"],
        cwd=tmp_path, monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    assert "verdict: all properties held" in out


def test_attack_suite_writes_report_file(tmp_path, monkeypatch, capsys):
    out_file = tmp_path / "suite.txt"
    code, out, _ = run_cli(
        ["attack-suite", "--iterations", "1", "--out", str(out_file)],
        cwd=tmp_path, monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    assert out_file.read_text().startswith("attack suite")


def test_attack_suite_rejects_zero_iterations(tmp_path, monkeypatch, capsys):
    code, _, err = run_cli(
        ["attack-suite", "--iterations", "0"],
        cwd=tmp_path, monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 2
    assert "--iterations" in err


# --- keys ------------------------------------------------------------------------


def test_keys_fixture_is_deterministic(tmp_path, monkeypatch, capsys):
    a = tmp_path / "a.ini"
    b = tmp_path / "b.ini"
    monkeypatch.chdir(tmp_path)
    assert main(["keys", "--seed", "7", "--out", str(a)], env={}) == 0
    assert main(["keys", "--seed", "7", "--out", str(b)], env={}) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_keys_fixture_parses_and_sizes_check_out(tmp_path, monkeypatch, capsys):
    out = tmp_path / "k.ini"
    code = main(["keys", "--seed", "7", "--out", str(out), "SR", "SP"], env={})
    capsys.readouterr()
    assert code == 0
    parser = configparser.ConfigParser()
    parser.read(str(out))
    assert set(parser.sections()) == {"keys", "SR", "SP"}
    for subject in ("SR", "SP"):
        assert len(bytes.fromhex(parser[subject]["public"])) == PUBLIC_KEY_SIZE
        assert len(bytes.fromhex(parser[subject]["private"])) == PRIVATE_KEY_SIZE


def test_keys_differ_across_seeds(tmp_path, monkeypatch, capsys):
    a = tmp_path / "a.ini"
    b = tmp_path / "b.ini"
    main(["keys", "--seed", "7", "--out", str(a)], env={})
    main(["keys", "--seed", "8", "--out", str(b)], env={})
    capsys.readouterr()
    assert a.read_bytes() != b.read_bytes()


@pytest.mark.parametrize(
    "ids, expected",
    [(["SR", "SR"], "duplicate"), ([""], "non-empty"), (["SR", ""], "non-empty")],
    ids=["duplicate", "empty", "one-empty"],
)
def test_keys_rejects_duplicate_ids(tmp_path, monkeypatch, capsys, ids, expected):
    code, _, err = run_cli(
        ["keys", *ids], cwd=tmp_path, monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 2
    assert "error:" in err
    assert expected in err
