import csv
import filecmp
import hashlib
import io
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from crfid_downlink.channel import D_REF_CM, round_odds
import crfid_downlink.scenario as scenario
from crfid_downlink.cli import main
from crfid_downlink.host import LogEvent, SessionResult, TransferLog, Variant
from crfid_downlink.ihex import generate_fixture, parse_file
from crfid_downlink.metrics import compute_metrics
from crfid_downlink.reader import ROUNDS_PER_SEC, Reader, ReportResult
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
from crfid_downlink.tag import FRAM_SIZE

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
            built.append(("power", self._rng.getstate()))

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


def test_every_random_stream_derives_from_the_master_seed(monkeypatch, small_matrix):
    config = ScenarioConfig(seed=5, repeats=2, s_p=16, profile=DistanceProfile(d_cm=20.0))
    first = stream_states(monkeypatch, config, small_matrix)
    assert stream_states(monkeypatch, config, small_matrix) == first  # same config, same streams
    other_seed = stream_states(monkeypatch, replace(config, seed=6), small_matrix)
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


# -- golden CSV digests ---------------------------------------------------------------
#
# Pinned SHA-256 of every CSV artifact for three noisy configs on the 520-byte
# image.  A refactor of the transfer engine must leave these untouched; a
# change that moves simulated behaviour on purpose updates them and says why.

GOLDEN_CONFIGS = {
    # NACK timeouts of the single-word flavour, each resend after the row's address pair
    "basic": "protocol = basic\nbootloader = true\nbrownout = auto\n"
             "distance = static\nd_cm = 40\nwrite_fault_prob = 0.01\nrepeats = 2\n",
    # aborts of the single-word flavour, at a range where address messages fail too
    "far": "protocol = basic\nbootloader = true\nbrownout = auto\n"
           "distance = static\nd_cm = 120\nwrite_fault_prob = 0.01\nrepeats = 2\n",
    # throttle steps and re-cut resends of the extended flavour
    "ex": "protocol = ex\ns_p = throttle\nbootloader = true\ndistance = oscillate\n"
          "write_fault_prob = 0.01\nrepeats = 2\n",
    # long BlockWrite series at a range where slots drain and resends follow
    "long": "protocol = ex\ns_p = 16\nbrownout = auto\ndistance = static\nd_cm = 50\n"
            "write_fault_prob = 0.01\nrepeats = 2\n",
}

GOLDEN_DIGESTS = {
    # basic re-pinned when a timed-out data byte began to follow its row's address
    # pair: the second run of seed 1 and both runs of seed 2 now complete.
    ("basic", 1): "2d6e260618b977c04532f36a1cea13f71ff260b4cb28e2318ccf2e9173238955",
    ("basic", 2): "0bd6e59816c23d101f37cd46e0a695dd072a86cabcb1e643fce87be0fa5c7e7d",
    ("far", 1): "3b4df96506bf3fc83465998f930741201055c4fb536726fe6026e8966eb03416",
    # ex and long re-pinned when a series began to be sampled with one channel
    # draw from its outcome table: the same law from a different stream.
    ("ex", 1): "728158c900bace2eaa8fc26cb7a9385ce9ec7911b1d455aed6471639ba8d0456",
    ("ex", 2): "6ff79143209c4353636b0b2d29244f0230c121e61f1d944bbd6e2cebddaf5e2f",
    ("long", 1): "01bde756d55bd30c6ded2c043da27064fa4b06f2e5b4f311550aff956c92da22",
}

GOLDEN_EVENTS = {"basic": {"resend", "timeout", "complete"}, "far": {"resend", "timeout", "abort"},
                 "ex": {"throttle", "resend"}, "long": {"timeout", "resend"}}


def csv_digest(out_dir) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name,seed", sorted(GOLDEN_DIGESTS))
def test_csv_digests_pinned(tmp_path, small_matrix, name, seed):
    cfg = parse_config_text(GOLDEN_CONFIGS[name] + f"seed = {seed}\n")
    outcome = run_scenario(cfg, out_dir=tmp_path, matrix=small_matrix)
    events = {e.event for r in outcome.runs for e in r.result.log.events}
    assert GOLDEN_EVENTS[name] <= events  # the digest covers the paths it guards
    assert csv_digest(tmp_path) == GOLDEN_DIGESTS[name, seed]


# The CSVs show neither the tag's write-fault stream nor its energy stream, nor
# the memory a run leaves behind.  One digest per golden run covers all three:
# each run's memory and written mask, then the ``getstate()`` of both streams.
GOLDEN_TAG_STATES = {
    ("basic", 1): "1a6d3c4765681caf832bb893fec8061094589614cfaf188d2cbe6c0e151a2a0d",
    ("basic", 2): "10a23660d5a1f0ef3b1847509ead0d50d579a92c5c77ec42d2d1d2e1b0067f43",
    ("far", 1): "20b9109fcd1e22314b6c94c93f44541eecd0895391ff06113d5993d33c0d4aed",
    # ex and long re-pinned with the one-draw series; the energy stream is no
    # longer drawn, so its state is the seeded one.
    ("ex", 1): "edb7681c9cca4df13424a733142c79bc6e93a00173d87442ae173b9565d41d45",
    ("ex", 2): "a3a7671636b4e8deb5cdc78c31e4e7d3f49a029f1f48f62dd4764c4195d2486d",
    ("long", 1): "48bf52ef4663703d751c4bd6ffd29f2899ae5f1b5459cd7f307151c7f6afd6fc",
}


def tag_state_digest(outcome) -> str:
    h = hashlib.sha256()
    for r in sorted(outcome.runs, key=lambda r: r.run):
        h.update(r.tag.fram.read(0, FRAM_SIZE) + bytes(r.tag._written))
        h.update(repr(r.tag._fault_rng.getstate()).encode())
        h.update(repr(r.tag.energy_rng.getstate()).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name,seed", sorted(GOLDEN_TAG_STATES))
def test_tag_state_digests_pinned(small_matrix, name, seed):
    cfg = parse_config_text(GOLDEN_CONFIGS[name] + f"seed = {seed}\n")
    outcome = run_scenario(cfg, matrix=small_matrix)
    assert tag_state_digest(outcome) == GOLDEN_TAG_STATES[name, seed]


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
        assert csv_digest(out) == GOLDEN_DIGESTS[name, seed]
        assert run or round_odds(50 / D_REF_CM)[5]


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


# -- repeated NACK rows --------------------------------------------------------------

# The golden basic and EX configs, and an EX run at 50 cm whose brown-outs make
# no-tag and success NACKs alternate, and the success ones change EPC in a flight.
REPEAT_NACK_CONFIGS = {
    "basic": GOLDEN_CONFIGS["basic"],
    "ex": GOLDEN_CONFIGS["ex"],
    "ex_50cm_brownouts": "protocol = ex\ns_p = throttle\nbrownout = 0.2\ndistance = static\n"
                         "d_cm = 50\nrepeats = 2\n",
}


@pytest.mark.parametrize("name", sorted(REPEAT_NACK_CONFIGS))
def test_repeated_nack_rows_log_the_report_they_consume(monkeypatch, small_matrix, name):
    """A NACK row that reuses its flight's last kind id must still log its own report.

    Every NACK row must carry the result and EPC of the report the round before
    it produced, and the row, chunk and S_p of the last transmission; the log
    must rebuild from its events id for id, with no kind interned twice.
    """
    ticks = []  # per reader, in run order: its reports by round
    tick = Reader.tick

    def recording_tick(self, now, tag, channel):
        if not ticks or ticks[-1][0] is not self:
            ticks.append((self, {}))
        report = tick(self, now, tag, channel)
        if report is not None:
            ticks[-1][1][now] = report
        return report

    monkeypatch.setattr(Reader, "tick", recording_tick)
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
