import copy
import csv
import filecmp
import io
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from crfid_downlink.channel import D_REF_CM, round_odds
import crfid_downlink.scenario as scenario
from crfid_downlink.cli import main
from crfid_downlink.host import LogEvent, SessionResult, TransferLog, Variant
from crfid_downlink.ihex import generate_fixture, parse_file
from crfid_downlink.metrics import compute_metrics
from crfid_downlink.protocol import build_ladder
from crfid_downlink.reader import ROUNDS_PER_SEC, OperationReport, Reader, ReportResult
from crfid_downlink.scenario import (
    DistanceProfile,
    RunOutcome,
    ScenarioConfig,
    ScenarioError,
    ScenarioOutcome,
    load_config,
    parse_config_text,
    run_scenario,
    write_artifacts,
    SUMMARY_COLUMNS,
    LOG_COLUMNS,
)
from crfid_downlink.tag import FRAM_SIZE, Tag
from test_pins import (
    GOLDEN_CONFIGS,
    PINS,
    csv_digest,
    held,
    readme_key_rows,
)

CONFIG_TEXT = """
# transfer setup
protocol = ex
s_p = throttle
ocv = 15
n_threshold = 20
r_max = 3
m_threshold = 10
t_u = 1
t_de = -2
t_dl = -3
s_max = 16

distance = oscillate
d_min_cm = 20
d_max_cm = 90
speed_m_per_s = 0.1

seed = 5
repeats = 2
"""


# -- config parsing -------------------------------------------------------------


def test_parse_full_config():
    cfg = parse_config_text(CONFIG_TEXT)
    assert cfg.protocol is Variant.EX
    assert cfg.s_p is None  # throttle
    assert cfg.ocv == 15 and cfg.n_threshold == 20 and cfg.r_max == 3
    assert cfg.profile.kind == "oscillate"
    assert cfg.profile.min_cm == 20 and cfg.profile.max_cm == 90
    assert cfg.seed == 5 and cfg.repeats == 2


def test_parse_defaults_and_comments():
    cfg = parse_config_text("# nothing but comments\n\ns_p = 4 # fixed\n")
    assert cfg.s_p == 4
    assert cfg.profile.kind == "static"
    assert cfg.seed == 1 and cfg.repeats == 1


@pytest.mark.parametrize(
    "text",
    [
        "mystery_key = 1\n",
        "ocv fifteen\n",
        "ocv = 5\nocv = 7\n",
        "OCV = 5\nocv = 7\n",
        "ocv = fifteen\n",
        "protocol = turbo\n",
        "distance = warp\n",
        "s_p = big\n",
        "distance = oscillate\nd_min_cm = 90\nd_max_cm = 20\n",
        "brownout = abc\n",
        "repeats = 0\n",
        # checks of ScenarioConfig.validate
        "t_u = 2\nt_de = -2\nt_dl = -3\n",
        "t_u = 1\nt_de = -3\nt_dl = -2\n",
        "t_u = 1\nt_de = 2\nt_dl = -3\n",
        "t_u = 0\nt_de = -2\nt_dl = -3\n",
        "t_u = 5\n",
        "n_threshold = 20\nocv = 25\n",
        "ocv = 0\n",
        "n_threshold = 0\n",
        "r_max = 0\n",
        "s_p = 0\n",
        "s_p = 4\nprotocol = basic\n",
        "brownout = 2\n",
        "brownout = -0.1\n",
        "brownout = nan\n",
        "write_fault_prob = -1\n",
        "write_fault_prob = 1.5\n",
        "m_threshold = -5\n",
        "distance = oscillate\nspeed_m_per_s = -1\n",
        "distance = oscillate\nd_max_cm = inf\n",
        "max_sim_seconds = 0\n",
        "max_sim_seconds = 0.001\n",
        "max_sim_seconds = nan\n",
        "max_sim_seconds = 1e308\n",
        "distance = oscillate\nspeed_m_per_s = 1e308\n",
        "d_cm = 0\n",
        "d_cm = inf\n",
        "distance = oscillate\nd_min_cm = -5\n",
        "s_max = 0\n",
        "s_max = 31\n",
        "s_max = 16\ns_p = 40\n",
        # the round rate, distance scale and miss factor are fixed, not keys
        "rounds_per_sec = 60\n",
        "rounds_per_sec = 0\n",
        "d_ref_cm = 200\n",
        "d_ref_cm = 0\n",
        "k_miss = 5\n",
        "k_miss = -1\n",
        "k_miss = nan\n",
    ],
)
def test_parse_config_errors(text):
    # The message names the key of the offending (last) line.
    key = text.strip().splitlines()[-1].split("=")[0].split()[0]
    with pytest.raises(ScenarioError, match=re.escape(key)):
        parse_config_text(text)


def test_repeated_key_names_both_lines():
    # Keys are lower-cased before they are compared, so the case does not matter.
    with pytest.raises(ScenarioError, match=r"line 4: r_max is given twice, first on line 2"):
        parse_config_text("ocv = 5\nR_max = 2\n# r_max = 9\nr_max = 3\n")


def test_shipped_configs_load(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    paths = sorted(repo.glob("configs/*.cfg")) + sorted(repo.glob("benchmarks/workloads/*.cfg"))
    assert len(paths) == 6
    for path in paths:
        # The benchmark workloads leave hex_file to the harness; name one here.
        text = path.read_text()
        if not re.search(r"^\s*hex_file\s*=", text, re.MULTILINE):
            text += "\nhex_file = image.hex\n"
        copy = tmp_path / path.name
        copy.write_text(text)
        assert load_config(copy).hex_file, path


# Each key draws an edge value or one that it accepts, so configs both fail
# and get through.
FUZZ_EDGES = ["0", "-1", "1", "30", "31", "1e9", "1e100", "1e308", "nan", "inf", "word"]
FUZZ_VALID = {
    "protocol": ["ex", "basic"], "s_p": ["throttle", "4"], "ocv": ["15"],
    "n_threshold": ["20"], "r_max": ["3"], "m_threshold": ["10"], "t_u": ["1"],
    "t_de": ["-2"], "t_dl": ["-3"], "s_max": ["16"], "distance": ["static", "oscillate"],
    "d_cm": ["20", "60"], "d_min_cm": ["20"], "d_max_cm": ["90"], "speed_m_per_s": ["0.1"],
    "seed": ["7"], "repeats": ["2"], "bootloader": ["true", "false"],
    "brownout": ["auto", "0.05"], "write_fault_prob": ["0.01"], "dump_fram": ["true"],
    "max_sim_seconds": ["10"],
}
FUZZ_ENTRY = st.sampled_from(sorted(FUZZ_VALID)).flatmap(
    lambda key: st.tuples(st.just(key), st.one_of(st.sampled_from(FUZZ_EDGES),
                                                  st.sampled_from(FUZZ_VALID[key])))
)
ONE_ROW = parse_file(generate_fixture(bytes(range(32)), record_width=32))


@settings(max_examples=300, deadline=None)
@given(st.lists(FUZZ_ENTRY, max_size=8))
def test_config_fuzz_rejects_or_runs(entries):
    text = "".join(f"{key} = {value}\n" for key, value in entries)
    try:
        cfg = parse_config_text(text)
    except ScenarioError:
        return
    cfg.repeats = 1
    cfg.max_sim_seconds = 200 / ROUNDS_PER_SEC
    with tempfile.TemporaryDirectory() as out:
        outcome = run_scenario(cfg, out_dir=out, matrix=ONE_ROW)
    assert len(outcome.runs) == 1


def oscillating_at(speed):
    return DistanceProfile(kind="oscillate", speed_m_per_s=speed)


@pytest.mark.parametrize("key,text,config", [
    # int(max_sim_seconds * ROUNDS_PER_SEC) overflowed as the run started.
    ("max_sim_seconds", "max_sim_seconds = 1e308", ScenarioConfig(max_sim_seconds=1e308)),
    # speed_m_per_s * 100 overflowed, so round 0 failed on a nan distance.
    ("speed_m_per_s", "distance = oscillate\nspeed_m_per_s = 1e308",
     ScenarioConfig(profile=oscillating_at(1e308))),
    # A finite speed whose path over the run's time overflows.
    ("speed_m_per_s", "distance = oscillate\nspeed_m_per_s = 1e306",
     ScenarioConfig(profile=oscillating_at(1e306))),
])
def test_a_setting_past_the_float_range_is_rejected_before_the_run(tmp_path, capsys, key, text,
                                                                   config):
    with pytest.raises(ScenarioError, match=key):
        run_scenario(config, matrix=ONE_ROW)  # a config built in code
    path = tmp_path / "extreme.cfg"
    path.write_text(f"hex_file = configs/demo.hex\n{text}\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,config", [
    # A string is not Variant.BASIC, so "basic" ran the extended flavour.
    ("protocol", ScenarioConfig(protocol="basic")),
    # Every kind but "static" ran as an oscillation.
    ("distance", ScenarioConfig(profile=DistanceProfile(kind="circle"))),
    # Any non-empty string is true, so "no" sent the INIT or dumped the memory.
    ("bootloader", ScenarioConfig(bootloader="no")),
    ("dump_fram", ScenarioConfig(dump_fram="no")),
    # The ladder snaps 4.5 down, so it ran at 4 words.
    ("s_p", ScenarioConfig(s_p=4.5)),
    # range() raised a raw TypeError; True ran one repeat.
    ("repeats", ScenarioConfig(repeats=2.0)),
    ("repeats", ScenarioConfig(repeats=True)),
    # The seed arithmetic raised a raw TypeError, or ran a fractional seed.
    ("seed", ScenarioConfig(seed="x")),
    ("seed", ScenarioConfig(seed=1.5)),
])
def test_a_config_built_in_code_with_a_wrong_type_is_rejected(tmp_path, key, config):
    with pytest.raises(ScenarioError, match=f"^{key} must be"):
        run_scenario(config, out_dir=tmp_path, matrix=ONE_ROW)
    assert not any(tmp_path.iterdir())  # rejected before the first run


SCHEMA = {key.name: key for key in scenario.CONFIG_KEYS + scenario.PROFILE_KEYS}
# Values of a wrong type for each value type of the schema, keyed by its check.
WRONG_TYPES = {
    scenario.INT[2]: st.one_of(st.text(), st.floats(), st.booleans(), st.none()),
    scenario.NUMBER[2]: st.one_of(st.text(), st.booleans(), st.none(),
                                  st.sampled_from([math.nan, math.inf, -math.inf, -10**400])),
    scenario.BOOL[2]: st.one_of(st.text(), st.integers(), st.none()),
    scenario.PATH[2]: st.one_of(st.integers(), st.floats(), st.none()),
    scenario.PROTOCOL[2]: st.one_of(st.text(), st.none()),
    scenario.KIND[2]: st.one_of(st.integers(), st.none(),
                                st.text().filter(lambda text: text not in scenario._KINDS)),
}
WRONG_ENTRY = st.sampled_from(sorted(SCHEMA)).map(SCHEMA.get).flatmap(
    lambda key: st.tuples(st.just(key), WRONG_TYPES[key.accepts].filter(
        lambda value: value is not None or not key.none)))


@settings(max_examples=200, deadline=None)
@given(WRONG_ENTRY)
# Each of these raised a raw TypeError mid-check, or ran to completion.
@example((SCHEMA["max_sim_seconds"], "10"))
@example((SCHEMA["write_fault_prob"], "0"))
@example((SCHEMA["d_cm"], "20"))
@example((SCHEMA["d_min_cm"], "20"))
@example((SCHEMA["ocv"], 2.5))
@example((SCHEMA["n_threshold"], 20.0))
@example((SCHEMA["repeats"], True))
@example((SCHEMA["speed_m_per_s"], 10**400))  # float(10**400) overflows
def test_every_key_set_in_code_to_a_wrong_type_is_named_before_any_round(entry):
    key, value = entry
    if key in scenario.PROFILE_KEYS:
        config = ScenarioConfig(profile=DistanceProfile(**{key.field: value}))
    else:
        config = ScenarioConfig(**{key.field: value})
    named = f"^{key.name} must be {re.escape(key.code)}, got "
    with mock.patch.object(scenario, "_run_repeats", side_effect=AssertionError("a round ran")):
        with pytest.raises(ScenarioError, match=named):
            run_scenario(config, matrix=ONE_ROW)


def as_config_text(key, value) -> str:
    """A value as a config file writes it, as README's key table shows defaults."""
    if value is None:
        return key.none
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, Variant):
        return value.value
    return f"{value:g}" if isinstance(value, float) else str(value)


def test_readme_key_table_matches_the_schema():
    def plain(text: str) -> str:
        return text.replace("`", "").replace("'", "")

    rows = readme_key_rows()
    assert sorted(row[0].strip("`") for row in rows) == sorted(SCHEMA)  # each key once
    for name, default, valid, _ in rows:
        key = SCHEMA[name.strip("`")]
        text = as_config_text(key, key.default)
        assert default == (f"`{text}`" if text else "—"), name
        assert key.read(text) == key.default, name  # the text reads back as the default
        # The valid cell states the key's type and its rule in the schema's words.
        assert plain(key.text) in plain(valid), name
        assert plain(key.rule_text) in plain(valid), name


# Every shipped config, parsed before the key table: the fields that differ from
# DEFAULT_FIELDS.  The benchmark workloads name no hex_file; the test adds one.
DEFAULT_FIELDS = {
    "hex_file": "", "protocol": Variant.EX, "s_p": None, "ocv": 15, "n_threshold": 20,
    "r_max": 3, "m_threshold": 10, "t_u": 1, "t_de": -2, "t_dl": -3, "s_max": 16, "seed": 1,
    "repeats": 1, "bootloader": False, "brownout": None, "write_fault_prob": 0.0,
    "max_sim_seconds": 3600.0, "dump_fram": False, "profile.kind": "static",
    "profile.d_cm": 20.0, "profile.min_cm": 20.0, "profile.max_cm": 90.0,
    "profile.speed_m_per_s": 0.1, "profile.period": 1,
}
SHIPPED_FIELDS = {
    "configs/benchmark.cfg": {"hex_file": "configs/demo.hex", "s_p": 16, "repeats": 3},
    "configs/mobility.cfg": {"hex_file": "configs/demo.hex", "repeats": 5,
                             "profile.kind": "oscillate", "profile.period": 840},
    "configs/reprogram.cfg": {"hex_file": "configs/demo.hex", "repeats": 10, "bootloader": True,
                              "write_fault_prob": 0.001, "profile.kind": "oscillate",
                              "profile.period": 840},
    "benchmarks/workloads/basic_write.cfg": {"hex_file": "image.hex", "protocol": Variant.BASIC,
                                             "bootloader": True, "brownout": 0.0,
                                             "write_fault_prob": 0.001},
    "benchmarks/workloads/mobility_throttle.cfg": {"hex_file": "image.hex", "repeats": 5,
                                                   "profile.kind": "oscillate",
                                                   "profile.period": 840},
    "benchmarks/workloads/static_sp16.cfg": {"hex_file": "image.hex", "s_p": 16, "repeats": 5},
}


def field_texts(cfg) -> dict[str, str]:
    """Each of DEFAULT_FIELDS' fields of ``cfg`` as its repr, which tells 20 from 20.0."""
    return {field: repr(getattr(cfg.profile if field.startswith("profile.") else cfg,
                                field.removeprefix("profile."))) for field in DEFAULT_FIELDS}


@pytest.mark.parametrize("name", sorted(SHIPPED_FIELDS))
def test_shipped_configs_read_every_field_as_before(name):
    text = (Path(__file__).resolve().parents[1] / name).read_text()
    if not re.search(r"^\s*hex_file\s*=", text, re.MULTILINE):
        text += "\nhex_file = image.hex\n"
    expected = {**DEFAULT_FIELDS, **SHIPPED_FIELDS[name]}
    assert field_texts(parse_config_text(text)) == {k: repr(v) for k, v in expected.items()}
    assert field_texts(ScenarioConfig()) == {k: repr(v) for k, v in DEFAULT_FIELDS.items()}


def test_a_distance_past_the_float_range_runs_or_names_d_cm(tmp_path):
    # d_cm**4 overflows a float; the run must not end in a raw OverflowError.
    text = "distance = static\nd_cm = 1e100\nmax_sim_seconds = 10\n"
    try:
        cfg = parse_config_text(text)
    except ScenarioError as exc:
        assert "d_cm" in str(exc)
        return
    outcome = run_scenario(cfg, out_dir=tmp_path, matrix=ONE_ROW)
    assert len(outcome.runs) == 1 and not outcome.all_completed
    assert (tmp_path / "summary.csv").is_file()


# -- distance profile -------------------------------------------------------------


def test_static_profile():
    p = DistanceProfile(kind="static", d_cm=35.0)
    assert p.at(0) == 35.0
    assert p.at(100_000) == 35.0


def test_triangle_profile_positions():
    p = DistanceProfile(kind="oscillate", min_cm=20, max_cm=90, speed_m_per_s=0.1)
    rps = ROUNDS_PER_SEC
    assert p.at(0) == pytest.approx(20.0)
    assert p.at(int(3.5 * rps)) == pytest.approx(55.0)  # halfway up
    assert p.at(7 * rps) == pytest.approx(90.0)  # top of the sweep
    assert p.at(int(10.5 * rps)) == pytest.approx(55.0)  # halfway down
    assert p.at(14 * rps) == pytest.approx(20.0)  # full period


def test_triangle_profile_stays_in_bounds():
    p = DistanceProfile(kind="oscillate", min_cm=20, max_cm=90, speed_m_per_s=0.1)
    values = [p.at(r) for r in range(0, 3000, 7)]
    assert min(values) >= 20.0 and max(values) <= 90.0


def test_triangle_profile_repeats_its_first_cycle_bit_for_bit():
    # 20-90 cm at 0.1 m/s is an 840-round cycle.  A later cycle that drifts
    # in the last bits gives one position several distances, each a separate
    # entry in the per-distance odds memo.
    p = DistanceProfile(kind="oscillate", min_cm=20, max_cm=90, speed_m_per_s=0.1)
    for k in (1, 10, 257):
        assert [p.at(r + k * 840) for r in range(840)] == [p.at(r) for r in range(840)]


# -- scenario runs and artifacts ----------------------------------------------------


@pytest.fixture()
def config_dir(tmp_path, small_matrix):
    from crfid_downlink.ihex import encode

    hex_path = tmp_path / "image.hex"
    hex_path.write_text(encode(small_matrix))
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(
        f"hex_file = {hex_path}\ns_p = throttle\ndistance = static\nd_cm = 20\n"
        "seed = 3\nrepeats = 2\n"
    )
    return tmp_path, cfg_path


def test_run_scenario_writes_artifacts(config_dir, small_matrix):
    tmp_path, cfg_path = config_dir
    from crfid_downlink.scenario import load_config

    out = tmp_path / "out"
    outcome = run_scenario(load_config(cfg_path), out_dir=out)
    assert outcome.all_completed
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == ",".join(SUMMARY_COLUMNS)
    assert len(summary) == 3  # header + 2 runs
    log0 = (out / "run_00_log.csv").read_text().splitlines()
    assert log0[0] == ",".join(LOG_COLUMNS)
    assert (out / "distance_trace.csv").exists()


def test_run_scenario_can_dump_fram(config_dir, small_matrix):
    tmp_path, cfg_path = config_dir
    from crfid_downlink.scenario import load_config

    cfg = load_config(cfg_path)
    cfg.dump_fram = True
    cfg.repeats = 1
    out = tmp_path / "dump"
    outcome = run_scenario(cfg, out_dir=out)
    assert outcome.all_completed
    blob = (out / "run_00_fram.bin").read_bytes()
    assert len(blob) == 64 * 1024
    for address, value in small_matrix.flat_image().items():
        assert blob[address] == value


def test_run_scenario_deterministic(config_dir):
    tmp_path, cfg_path = config_dir
    from crfid_downlink.scenario import load_config

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_scenario(load_config(cfg_path), out_dir=out_a)
    run_scenario(load_config(cfg_path), out_dir=out_b)
    for name in sorted(p.name for p in out_a.iterdir()):
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name


def test_seed_changes_change_noisy_outcomes(tmp_path, small_matrix):
    from crfid_downlink.scenario import ScenarioConfig

    cfg_a = ScenarioConfig(seed=1, repeats=1, s_p=1,
                           profile=DistanceProfile(kind="static", d_cm=80.0))
    cfg_b = ScenarioConfig(seed=2, repeats=1, s_p=1,
                           profile=DistanceProfile(kind="static", d_cm=80.0))
    out_a = run_scenario(cfg_a, matrix=small_matrix)
    out_b = run_scenario(cfg_b, matrix=small_matrix)
    assert out_a.runs[0].result.rounds != out_b.runs[0].result.rounds


STREAMS = ("channel", "power", "fault", "energy")


def stream_states(monkeypatch, config, matrix):
    """The ``getstate()`` of every random stream each repeat builds, by stream name."""
    built = []

    class RecordingChannel(scenario.ChannelModel):
        def __init__(self, seed):
            super().__init__(seed)
            built.append(("channel", self.rng.getstate()))

    class RecordingPower(scenario.PowerModel):
        def __init__(self, seed):
            super().__init__(seed)
            built.append(("power", self.rng.getstate()))

    class RecordingTag(scenario.Tag):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.extend([("fault", self._fault_rng.getstate()),
                          ("energy", self.energy_rng.getstate())])

    monkeypatch.setattr(scenario, "ChannelModel", RecordingChannel)
    monkeypatch.setattr(scenario, "PowerModel", RecordingPower)
    monkeypatch.setattr(scenario, "Tag", RecordingTag)
    run_scenario(config, matrix=matrix)
    assert len(built) == len(STREAMS) * config.repeats
    return [dict(built[i : i + len(STREAMS)]) for i in range(0, len(built), len(STREAMS))]


@pytest.mark.usefixtures("one_worker")
def test_every_random_stream_derives_from_the_master_seed(monkeypatch, small_matrix):
    config = ScenarioConfig(seed=5, repeats=2, s_p=16, profile=DistanceProfile(d_cm=20.0))
    first = stream_states(monkeypatch, config, small_matrix)
    assert stream_states(monkeypatch, config, small_matrix) == first  # same config, same streams
    other = copy.copy(config)
    other.seed = 6
    other_seed = stream_states(monkeypatch, other, small_matrix)
    for run in first:
        assert sorted(run) == sorted(STREAMS)
        assert len(set(run.values())) == len(STREAMS)  # no two streams of a run coincide
    for name in STREAMS:
        assert first[0][name] != first[1][name], name  # two repeats of one seed
        assert first[0][name] != other_seed[0][name], name


# -- CLI ------------------------------------------------------------------------------


def test_cli_simulate_success(config_dir, capsys):
    tmp_path, cfg_path = config_dir
    code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "cli_out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "2/2 transfers completed" in out
    assert (tmp_path / "cli_out" / "summary.csv").exists()


def test_cli_simulate_seed_overrides_the_configs(config_dir, capsys):
    tmp_path, cfg_path = config_dir
    seeded = tmp_path / "seeded.cfg"
    seeded.write_text(cfg_path.read_text().replace("seed = 3\n", "seed = 7\n"))
    outs = {name: tmp_path / name for name in ("flag", "config", "own")}
    assert main(["simulate", "--config", str(cfg_path), "--seed", "7",
                 "--out", str(outs["flag"])]) == 0
    assert main(["simulate", "--config", str(seeded), "--out", str(outs["config"])]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(outs["own"])]) == 0
    csvs = {name: {p.name: p.read_bytes() for p in out.glob("*.csv")} for name, out in outs.items()}
    assert "summary.csv" in csvs["flag"] and csvs["flag"] == csvs["config"]
    assert csvs["own"] != csvs["flag"]  # the config's own seed 3 gives other runs


def test_cli_simulate_failure_exit_code(tmp_path, small_matrix, capsys):
    from crfid_downlink.ihex import encode

    hex_path = tmp_path / "image.hex"
    hex_path.write_text(encode(small_matrix))
    cfg = tmp_path / "far.cfg"
    cfg.write_text(
        f"hex_file = {hex_path}\ns_p = 16\ndistance = static\nd_cm = 150\n"
        "seed = 1\nrepeats = 1\nmax_sim_seconds = 120\n"
    )
    assert main(["simulate", "--config", str(cfg)]) == 1


def test_cli_simulate_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("ocv = 25\nn_threshold = 20\nhex_file = missing.hex\n")
    assert main(["simulate", "--config", str(bad)]) == 2


@pytest.mark.parametrize(
    "hex_text,protocol",
    [
        (":00400000C0\n:00000001FF\n", "ex"),  # one zero-length record
        (":00400000C0\n:00000001FF\n", "basic"),
        (":00000001FF\n", "ex"),  # EOF record only
    ],
)
def test_cli_simulate_rejects_image_without_data(tmp_path, capsys, hex_text, protocol):
    hex_path = tmp_path / "empty.hex"
    hex_path.write_text(hex_text)
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(f"hex_file = {hex_path}\nprotocol = {protocol}\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "hex_file" in capsys.readouterr().err



@pytest.mark.parametrize(
    "hex_text,protocol,message",
    [
        (":28440000" + "00" * 40 + "94\n:00000001FF\n", "basic",
         "row has 40 data bytes; offset headers stop at 0x20"),
        (":02AADD00BBCCF1\n:00000001FF\n", "ex", "line 1: checksum 0xf1 != computed 0xf0"),
        (None, "ex", "No such file or directory"),  # the file is never written
    ],
)
def test_cli_simulate_names_hex_file_in_image_errors(tmp_path, capsys, hex_text, protocol,
                                                     message):
    hex_path = tmp_path / "image.hex"
    if hex_text is not None:
        hex_path.write_text(hex_text)
    cfg = tmp_path / "image.cfg"
    cfg.write_text(f"hex_file = {hex_path}\nprotocol = {protocol}\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"hex_file {str(hex_path)!r}" in err
    assert message in err

@pytest.mark.parametrize("protocol", ["ex", "basic"])
def test_image_past_0xffff_is_rejected_before_the_first_round(tmp_path, capsys, protocol):
    # Without the check, the extended flavour failed mid-run writing 26 bytes
    # at 0xFFF0, the basic one writing the byte at 0x10000.
    hex_path = tmp_path / "image.hex"
    hex_path.write_text(generate_fixture(bytes(range(1, 27)), 26, 0xFFF0))
    assert main(["checksum", str(hex_path)]) == 1
    assert "line 1: 26 data bytes at 0xfff0 run past 0xFFFF" in capsys.readouterr().err
    cfg = tmp_path / "image.cfg"
    cfg.write_text(f"hex_file = {hex_path}\nprotocol = {protocol}\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "run past 0xFFFF" in capsys.readouterr().err
    assert not out.exists()


def test_cli_model_output(capsys):
    code = main(["model", "--distance", "20", "--words", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "psi_t = 148.2112" in out
    assert "eta   = 0.9310" in out


def test_cli_model_unknown_distance():
    assert main(["model", "--distance", "45", "--words", "1"]) == 2


def test_cli_checksum_valid(tmp_path, capsys):
    path = tmp_path / "ok.hex"
    path.write_text(":02AADD00BBCCF0\n:00000001FF\n")
    assert main(["checksum", str(path)]) == 0
    assert "valid: 1 records, 2 data bytes" in capsys.readouterr().out


def test_cli_checksum_invalid(tmp_path, capsys):
    path = tmp_path / "bad.hex"
    path.write_text(":02AADD00BBCCF1\n:00000001FF\n")
    assert main(["checksum", str(path)]) == 1
    assert "invalid" in capsys.readouterr().err


def test_cli_checksum_missing_file():
    assert main(["checksum", "/nonexistent/nope.hex"]) == 2


# -- golden rows, column by column ---------------------------------------------------
#
# Each reads its column of a golden row of ``test_pins.PINS``; the row runs once.

GOLDEN_ROWS = sorted(name for name in PINS if name.rsplit("-", 1)[0] in GOLDEN_CONFIGS)


@pytest.mark.parametrize("row", GOLDEN_ROWS)
def test_csv_digests_pinned(request, row):
    run = held(request, row)
    assert PINS[row].events <= run.events  # the digest covers the paths it guards
    assert run.csv == PINS[row].csv


@pytest.mark.parametrize("row", GOLDEN_ROWS)
def test_tag_state_digests_pinned(request, row):
    assert held(request, row).tag_state == PINS[row].tag_state


@pytest.mark.parametrize("row", [row for row in GOLDEN_ROWS if PINS[row].counts])
def test_session_counts_pinned(request, row):
    run = held(request, row)
    assert run.idle_nacks  # every run consumes idle reports, which count as no access operation
    assert run.counts == PINS[row].counts


# -- throttle steps ------------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 2])
def test_each_outcome_takes_its_own_throttle_step(small_matrix, seed):
    # No other golden run has a lost timeout.  Each throttle row follows the
    # ACK or timeout that took it and walks its row's ladder by that outcome's
    # step, clamped at the ends; both timeout kinds step S_p in every seed.
    cfg = parse_config_text(GOLDEN_CONFIGS["steps"] + f"seed = {seed}\n")
    steps = {"ack": cfg.t_u, "error": cfg.t_de, "lost": cfg.t_dl}
    taken = set()
    for run in run_scenario(cfg, matrix=small_matrix).runs:
        assert run.result.completed
        events = run.result.log.events
        for cause, step in zip(events, events[1:]):
            if step.event != "throttle":
                continue
            assert cause.event in ("ack", "timeout")
            assert (cause.row, cause.chunk) == (step.row, step.chunk)
            outcome = cause.event if cause.event == "ack" else cause.result
            ladder = build_ladder(small_matrix.rows[step.row].word_count(), cfg.s_max)
            old, new = (ladder.index(int(s_p)) for s_p in step.result.split("->"))
            assert new == max(0, min(len(ladder) - 1, old + steps[outcome]))
            assert step.s_p == ladder[new]
            taken.add(outcome)
    assert taken == {"ack", "error", "lost"}


# -- a completed run holds the image ------------------------------------------------

WRITE_FAULT_RATES = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05)
SETTINGS = [(protocol, boot) for protocol in Variant for boot in (False, True)]


def test_a_completed_run_holds_the_image_and_runs_it(small_matrix):
    # Seed s runs setting s % 4 at rate WRITE_FAULT_RATES[s // 4 % 6], so each
    # flavour, with the bootloader off and on, meets every write-fault rate,
    # at 20 cm with distance-derived brown-outs.
    completed = dict.fromkeys(SETTINGS, 0)
    for seed in range(80):
        protocol, bootloader = SETTINGS[seed % 4]
        cfg = ScenarioConfig(protocol=protocol, bootloader=bootloader, seed=seed,
                             write_fault_prob=WRITE_FAULT_RATES[seed // 4 % 6])
        run = run_scenario(cfg, matrix=small_matrix).runs[0]
        if run.result.completed:
            completed[protocol, bootloader] += 1
            for row in small_matrix.rows:
                assert run.tag.fram.read(row.address, len(row.data)) == row.data, seed
            assert run.result.reached_application is bootloader, seed
    assert min(completed.values()) >= 10, completed  # the property is not vacuous


def test_basic_transfers_survive_brownouts_at_40_cm():
    # Each brown-out clears the tag's address registers; the host puts the
    # row's address pair on air again before it resends a data byte.
    demo = Path(__file__).resolve().parents[1] / "configs" / "demo.hex"
    matrix = parse_file(demo.read_text())
    completed = timeouts = 0
    for seed in range(10):
        cfg = ScenarioConfig(protocol=Variant.BASIC, profile=DistanceProfile(d_cm=40),
                             seed=seed)
        assert cfg.brownout is None  # auto: the brown-out odds follow the distance
        run = run_scenario(cfg, matrix=matrix).runs[0]
        timeouts += run.result.log.count("timeout")
        if run.result.completed:
            completed += 1
            for row in matrix.rows:
                assert run.tag.fram.read(row.address, len(row.data)) == row.data, seed
    assert completed >= 8
    assert timeouts > 0  # brown-outs did strike


def test_shared_memo_does_not_leak_between_runs(tmp_path, small_matrix):
    # The per-distance odds and their series tables are memoised for the whole
    # process; a run that fills the memo first must not move the next run's
    # output.
    # The last run reads the series tables that the first filled at 50 cm.
    round_odds.cache_clear()
    for run, (name, seed) in enumerate((("long", 1), ("ex", 1), ("long", 1))):
        out = tmp_path / f"{name}{run}"
        run_scenario(parse_config_text(GOLDEN_CONFIGS[name] + f"seed = {seed}\n"),
                     out_dir=out, matrix=small_matrix)
        assert csv_digest(out) == PINS[f"{name}-{seed}"].csv
        assert run or round_odds(50 / D_REF_CM)[4]


# -- streamed log rows ---------------------------------------------------------------


def reference_log_csv(events) -> bytes:
    """A run log as ``csv.writer`` writes it, the way the rows were once written."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(LOG_COLUMNS)
    for e in events:
        w.writerow([e.round_no, e.event, e.row, e.chunk, f"{e.s_p:.6f}", e.result,
                    e.epc.hex().upper()])
    return buf.getvalue().encode()


# Every event name and result text the host logs; throttle steps log "old->new".
HOST_EVENTS = ["send", "resend", "ack", "nack", "timeout", "abort", "throttle", "complete"]
HOST_RESULTS = ["", "lost", "error", "resend budget exhausted", "round budget exhausted",
                *(r.value for r in ReportResult),
                *(f"{a}->{b}" for a in range(1, 31) for b in range(1, 31) if a != b)]
HOST_S_P = [0.0, 0.5, *range(1, 17)]


def test_host_log_text_needs_no_csv_quoting():
    for text in HOST_EVENTS + HOST_RESULTS:
        assert not set(text) & set(',"\r\n'), text


log_events = st.builds(
    LogEvent,
    round_no=st.integers(0, 10**6),
    event=st.sampled_from(HOST_EVENTS),
    row=st.integers(-1, 400),
    chunk=st.integers(0, 400),
    s_p=st.sampled_from(HOST_S_P),
    result=st.sampled_from(HOST_RESULTS),
    epc=st.one_of(st.just(b""), st.binary(min_size=2, max_size=12)),
)
EVERY_WORD = [LogEvent(i, HOST_EVENTS[i % len(HOST_EVENTS)], i % 7 - 1, i % 5,
                       HOST_S_P[i % len(HOST_S_P)], result, bytes([i % 256, 0xAB])[: i % 3])
              for i, result in enumerate(HOST_RESULTS)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(log_events, max_size=40), min_size=1, max_size=3))
@example([EVERY_WORD, []])
def test_streamed_log_matches_csv_writer(logs):
    runs = []
    for i, events in enumerate(logs):
        result = SessionResult(True, 10, TransferLog(list(events)), 1, 0, 0.5, 1, 1)
        runs.append(RunOutcome(i, result, compute_metrics(result), tag=None))
    with tempfile.TemporaryDirectory() as tmp:
        write_artifacts(ScenarioConfig(), ScenarioOutcome(runs), Path(tmp))
        for i, events in enumerate(logs):
            assert (Path(tmp) / f"run_{i:02d}_log.csv").read_bytes() == reference_log_csv(events)


@pytest.mark.parametrize("name", ["basic", "ex"])
def test_run_logs_match_csv_writer(tmp_path, small_matrix, name):
    cfg = parse_config_text(GOLDEN_CONFIGS[name] + "seed = 1\n")
    outcome = run_scenario(cfg, out_dir=tmp_path, matrix=small_matrix)
    for r in outcome.runs:
        events = r.result.log.events
        assert {e.result for e in events} <= set(HOST_RESULTS)
        assert (tmp_path / f"run_{r.run:02d}_log.csv").read_bytes() == reference_log_csv(events)


CHUNK = scenario.LOG_CHUNK_ROWS


@pytest.mark.parametrize("rows", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_chunked_log_matches_csv_writer(tmp_path, rows):
    # The rows are rendered and written LOG_CHUNK_ROWS at a time; a log of
    # any length, across every chunk boundary, writes csv.writer's bytes.
    events = [EVERY_WORD[i % len(EVERY_WORD)]._replace(round_no=i) for i in range(rows)]
    result = SessionResult(True, 10, TransferLog(events), 1, 0, 0.5, 1, 1)
    runs = [RunOutcome(0, result, compute_metrics(result), tag=None)]
    write_artifacts(ScenarioConfig(), ScenarioOutcome(runs), tmp_path)
    assert (tmp_path / "run_00_log.csv").read_bytes() == reference_log_csv(events)
    chunks = [chunk.count("\n") for chunk in scenario._log_lines(result.log)]
    assert chunks == [CHUNK] * (rows // CHUNK) + ([rows % CHUNK] if rows % CHUNK else [])


# -- repeated NACK rows --------------------------------------------------------------

# The golden basic and EX configs, and an EX run at 50 cm whose brown-outs make
# no-tag and success NACKs alternate, and the success ones change EPC in a flight.
REPEAT_NACK_CONFIGS = {
    "basic": GOLDEN_CONFIGS["basic"],
    "ex": GOLDEN_CONFIGS["ex"],
    "ex_50cm_brownouts": "protocol = ex\ns_p = throttle\nbrownout = 0.2\ndistance = static\n"
                         "d_cm = 50\nrepeats = 2\n",
}


@pytest.mark.usefixtures("one_worker")
@pytest.mark.parametrize("name", sorted(REPEAT_NACK_CONFIGS))
def test_repeated_nack_rows_log_the_report_they_consume(monkeypatch, small_matrix, name):
    """A NACK row that reuses its flight's last kind id must still log its own report.

    Every NACK row must carry the result and EPC of the report the round before
    it produced, and the row, chunk and S_p of the last transmission; the log
    must rebuild from its events id for id, with no kind interned twice.
    """
    ticks = []  # per reader, in run order: its reports by round
    tick, repeat = Reader.tick, Reader.repeat

    def recording_tick(self, now):
        if not ticks or ticks[-1][0] is not self:
            ticks.append((self, {}))
        report = tick(self, now)
        if report is not None:
            ticks[-1][1][now] = report
        return report

    def recording_repeat(self, now, *args):
        # Each round of a batch but its last repeats the last report, unless the
        # batch lists it with the result and EPC of a round with no full reply;
        # the batch returns the last one's report.
        last = self._last
        k, report, missed = repeat(self, now, *args)
        ticks[-1][1].update(dict.fromkeys(range(now, now + k - 1), last))
        ticks[-1][1].update((r, OperationReport(last.spec_id, result, epc))
                            for r, result, epc in missed)
        if k:
            ticks[-1][1][now + k - 1] = report
        return k, report, missed

    monkeypatch.setattr(Reader, "tick", recording_tick)
    monkeypatch.setattr(Reader, "repeat", recording_repeat)
    outcome = run_scenario(parse_config_text(REPEAT_NACK_CONFIGS[name] + "seed = 1\n"),
                           matrix=small_matrix)
    assert len(ticks) == len(outcome.runs)
    for r, (_, reports) in zip(outcome.runs, ticks):
        log = r.result.log
        flight = None
        for e in log.events:
            if e.event in ("send", "resend"):
                flight = (e.row, e.chunk, e.s_p)
            elif e.event == "nack":
                report = reports[e.round_no - 1]
                assert (e.result, e.epc) == (report.result.value, report.epc)
                assert (e.row, e.chunk, e.s_p) == flight
        rebuilt = TransferLog(log.events)
        assert rebuilt.rounds == log.rounds
        assert rebuilt.kind_ids == log.kind_ids
        assert rebuilt.kinds == log.kinds
        assert len(set(log.kinds)) == len(log.kinds)
        assert log.count("nack") > len({k for k in log.kinds if k[0] == "nack"})


# -- repeats on every CPU -------------------------------------------------------------
#
# ``run_scenario`` runs its repeats in W = min(repeats, usable CPUs) shares, each
# share after the first in a forked child.  Forcing the CPU count forces W.

def run_in_shares(monkeypatch, cpus, config, matrix, out_dir=None):
    monkeypatch.setattr(scenario, "_usable_cpus", lambda: cpus)
    return run_scenario(config, out_dir=out_dir, matrix=matrix)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_state(r) -> tuple:
    """A run's log rows, result, metrics and tag state: memory, mask, mode, EPC, streams."""
    log, tag = r.result.log, r.tag
    return (r.run, log.rounds, log.kind_ids, log.kinds, replace(r.result, log=None), r.metrics,
            tag.fram.read(0, FRAM_SIZE), bytes(tag._written), tag.mode, tag.epc,
            tag._fault_rng.getstate(), tag.energy_rng.getstate())


SHARE_CONFIGS = {
    **GOLDEN_CONFIGS,
    # every run cut by its round budget
    "budget": GOLDEN_CONFIGS["ex"] + "max_sim_seconds = 3\n",
}


@pytest.mark.parametrize("name", sorted(SHARE_CONFIGS))
def test_a_split_into_shares_moves_nothing(monkeypatch, tmp_path, small_matrix, name):
    # Four repeats: at W = 2 each share holds two runs, at W = 3 share 0 does.
    cfg = parse_config_text(SHARE_CONFIGS[name] + "seed = 1\n")
    cfg.repeats = 4
    states, csvs = {}, {}
    for cpus in (1, 2, 3):
        out = tmp_path / str(cpus)
        outcome = run_in_shares(monkeypatch, cpus, cfg, small_matrix, out)
        assert_no_child_left()
        assert [r.run for r in outcome.runs] == list(range(cfg.repeats))
        states[cpus] = [run_state(r) for r in outcome.runs]
        csvs[cpus] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert states[2] == states[1] and states[3] == states[1]
    assert csvs[2] == csvs[1] and csvs[3] == csvs[1]
    if name == "budget":
        assert {r[4].failure_reason for r in states[1]} == {"round budget exhausted"}


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_row_too_long_names_the_image_in_every_split(monkeypatch, cpus):
    image = parse_file(":28440000" + "00" * 40 + "94\n:00000001FF\n")
    cfg = ScenarioConfig(protocol=Variant.BASIC, hex_file="image.hex", repeats=3)
    with pytest.raises(ScenarioError) as raised:
        run_in_shares(monkeypatch, cpus, cfg, image)
    assert str(raised.value) == ("hex_file 'image.hex': row has 40 data bytes; "
                                 "offset headers stop at 0x20")
    assert_no_child_left()


class RunCrashed(RuntimeError):
    pass


class MisbehavingTag(Tag):
    """A tag that misbehaves as one chosen run builds it, in whichever process runs it.

    ``run_single`` seeds run i's write-fault stream with
    seed * 1_000_003 + i * 7919 + 3, so at seed 1 the fault seed tells the run.
    ``actions`` maps a run to what it does: raise, interrupt, or (only in a
    forked child, never in the test's own process) stall or die by SIGKILL.
    A "late" raise or interrupt first waits until ``out_dir`` holds two files
    besides its sentinel: at W = 2, the child's logs of runs 1 and 3.
    """

    actions: dict[int, str] = {}
    parent_pid = 0
    out_dir = Path()

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        run = (kwargs["fault_seed"] - 1_000_003 - 3) // 7919
        action, forked = self.actions.get(run), os.getpid() != self.parent_pid
        if action in ("late raise", "late interrupt"):
            deadline = time.monotonic() + 20
            while len(list(self.out_dir.iterdir())) < 3:
                assert time.monotonic() < deadline, "the children wrote no logs"
                time.sleep(0.01)
            action = action.split()[1]
        if action == "raise":
            raise RunCrashed(f"run {run} crashed")
        if action == "interrupt":
            raise KeyboardInterrupt
        if action == "stall" and forked:
            time.sleep(60)
        if action == "kill" and forked:
            os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture
def sentinel_dir(tmp_path):
    """An out_dir holding one file, which a failed run must leave as it found it."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "sentinel").write_text("kept\n")
    return out


def assert_left_as_found(out: Path) -> None:
    assert_no_child_left()
    assert [p.name for p in out.iterdir()] == ["sentinel"]
    assert (out / "sentinel").read_text() == "kept\n"


def run_misbehaving(monkeypatch, cpus, repeats, actions, out_dir):
    monkeypatch.setattr(scenario, "Tag", MisbehavingTag)
    monkeypatch.setattr(MisbehavingTag, "actions", actions)
    monkeypatch.setattr(MisbehavingTag, "parent_pid", os.getpid())
    monkeypatch.setattr(MisbehavingTag, "out_dir", out_dir)
    cfg = ScenarioConfig(seed=1, repeats=repeats, brownout=0.0)
    return run_in_shares(monkeypatch, cpus, cfg, ONE_ROW, out_dir)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_run_that_raises_surfaces_as_it_does_in_one_process(monkeypatch, sentinel_dir, cpus):
    # Run 1 raises in a child at W = 2 and 3; at W = 3 the parent must also
    # kill the child that stalls in run 2.
    started = time.monotonic()
    with pytest.raises(RunCrashed, match="^run 1 crashed$"):
        run_misbehaving(monkeypatch, cpus, 3, {1: "raise", 2: "stall"}, sentinel_dir)
    assert_left_as_found(sentinel_dir)
    assert time.monotonic() - started < 30


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_an_interrupt_of_the_parent_kills_every_child(monkeypatch, sentinel_dir, cpus):
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_misbehaving(monkeypatch, cpus, 3, {0: "interrupt", 1: "stall", 2: "stall"},
                        sentinel_dir)
    assert_left_as_found(sentinel_dir)
    assert time.monotonic() - started < 30


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork: one share only")
def test_a_child_killed_by_a_signal_names_its_runs(monkeypatch, sentinel_dir):
    with pytest.raises(ChildProcessError,
                       match=f"^the process running runs 1, 3 was killed by signal "
                             f"{int(signal.SIGKILL)} "):
        run_misbehaving(monkeypatch, 2, 4, {1: "kill"}, sentinel_dir)
    assert_left_as_found(sentinel_dir)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork: one share only")
@pytest.mark.parametrize("cpus, actions, raised, within", [
    # W = 2: run 2 raises or is interrupted in this process once the child has
    # written the logs of runs 1 and 3.
    (2, {2: "late raise"}, RunCrashed, ""),
    (2, {2: "late interrupt"}, KeyboardInterrupt, ""),
    # W = 3: the child of share 2 raises or dies after the child of share 1
    # has written run 1's log and sent its run back; the directories that
    # child made up to an out_dir that did not exist go too.
    (3, {2: "raise"}, RunCrashed, ""),
    (3, {2: "kill"}, ChildProcessError, ""),
    (3, {2: "raise"}, RunCrashed, "new/out"),
])
def test_a_failed_run_takes_back_what_the_children_wrote(monkeypatch, sentinel_dir, cpus,
                                                         actions, raised, within):
    with pytest.raises(raised):
        run_misbehaving(monkeypatch, cpus, 4, actions, sentinel_dir / within)
    assert_left_as_found(sentinel_dir)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork: one share only")
def test_a_failed_write_takes_back_the_staged_logs(monkeypatch, tmp_path, small_matrix):
    # At W = 2 the child stages the logs of runs 1 and 3.  The parent's write of
    # run 2's log raises, as a full disk would, after run 1's was renamed into
    # place: run 3's staged log must go too.
    parent, write_log = os.getpid(), scenario._write_log

    def failing_write_log(path, log):
        if os.getpid() == parent and path.name == "run_02_log.csv":
            raise OSError(28, "No space left on device")
        write_log(path, log)

    monkeypatch.setattr(scenario, "_write_log", failing_write_log)
    cfg = parse_config_text(GOLDEN_CONFIGS["ex"] + "seed = 1\n")
    cfg.repeats = 4
    with pytest.raises(OSError, match="No space left on device"):
        run_in_shares(monkeypatch, 2, cfg, small_matrix, tmp_path)
    assert_no_child_left()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "run_00_log.csv", "run_01_log.csv", "summary.csv"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork: one share only")
def test_each_forked_share_renders_its_own_logs(monkeypatch, tmp_path, small_matrix):
    # At W = 2 this process renders share 0's logs, of runs 0 and 2, and the
    # child renders those of runs 1 and 3; the files hold W = 1's bytes.
    rendered = []
    log_lines = scenario._log_lines
    monkeypatch.setattr(scenario, "_log_lines", lambda log: rendered.append(log) or log_lines(log))
    cfg = parse_config_text(GOLDEN_CONFIGS["ex"] + "seed = 1\n")
    cfg.repeats = 4
    csvs = {}
    for cpus, mine in ((2, [0, 2]), (1, [0, 1, 2, 3])):
        rendered.clear()
        out = tmp_path / str(cpus)
        outcome = run_in_shares(monkeypatch, cpus, cfg, small_matrix, out)
        assert_no_child_left()
        assert [id(log) for log in rendered] == [id(outcome.runs[i].result.log) for i in mine]
        csvs[cpus] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert csvs[2] == csvs[1]


@pytest.mark.parametrize("repeats, other_thread", [(1, False), (2, True)])
def test_one_repeat_or_another_thread_never_forks(monkeypatch, small_matrix, repeats,
                                                  other_thread):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    if other_thread:
        waiter.start()
    try:
        cfg = parse_config_text(GOLDEN_CONFIGS["long"] + "seed = 1\n")
        cfg.repeats = repeats
        assert len(run_in_shares(monkeypatch, 4, cfg, small_matrix).runs) == repeats
    finally:
        release.set()
        if other_thread:
            waiter.join(60)
    assert not waiter.is_alive()


def test_the_cli_leaves_pickle_unimported():
    # The forked path alone imports shares.py and pickle: a cold start would
    # pay to compile the one and import the other.
    src = str(Path(scenario.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import crfid_downlink.cli; "
            "sys.exit(bool({'pickle', 'crfid_downlink.shares'} & set(sys.modules)))")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
