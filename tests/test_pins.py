"""Every pinned output of the simulator, in one table.

A row is a seeded scenario and what its run must reproduce: the SHA-256 of
its CSVs (each file's name, a NUL and its bytes, in name order, the rule of
``benchmarks/harness.py``'s ``artifact_digest``), and where it has them the
tag-state digest, each run's counts and the log events the pins must cover.
``test_pins_hold`` runs each row once.  A refactor leaves every row alone.  A
change that moves simulated output on purpose edits the moved rows and says
why in their ``reason``, in the same change.
"""

from __future__ import annotations

import hashlib
import os
import re
from pathlib import Path
from typing import NamedTuple

import pytest

import crfid_downlink.scenario as scenario
import crfid_downlink.shares as shares
from crfid_downlink.ihex import parse_file
from crfid_downlink.scenario import parse_config_text, run_scenario
from crfid_downlink.tag import FRAM_SIZE

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = ("static_sp16", "mobility_throttle", "basic_write")

# Noisy configs on the 520-byte image (``small_matrix``), each pinned at seeds 1 and 2.
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
    # a throttle step of its own size for each outcome: ACK, error and lost timeout
    "steps": "protocol = ex\ns_p = throttle\nm_threshold = 0\nt_u = 2\nt_de = -3\nt_dl = -5\n"
             "r_max = 10\nbrownout = 0.3\ndistance = static\nd_cm = 40\n"
             "write_fault_prob = 0.01\nrepeats = 2\n",
    # A static tag that never browns out, where the reader batches stale Write
    # repeats (``Reader.repeat``).  Batches run through errors and no-tag rounds and end at OCV.
    # The static rows above batch too, each round's power step drawn ahead of
    # it: basic, far, long and steps.  In basic and steps brown-outs end batches.
    "batch_basic": "protocol = basic\nbootloader = true\nbrownout = 0\ndistance = static\n"
                   "d_cm = 90\nwrite_fault_prob = 0.01\nrepeats = 2\n",
    # Its extended twin, whose stale series repeats the reader batches the same way,
    # series cut short included.
    "batch_ex": "protocol = ex\ns_p = throttle\nocv = 10\nn_threshold = 10\nbrownout = 0\n"
                "distance = static\nd_cm = 70\nwrite_fault_prob = 0.01\nrepeats = 2\n",
}


class Pin(NamedTuple):
    """A scenario and its pinned outputs; an empty column is not pinned.

    ``image`` names the fixture that gives the image, or is empty for the
    config's own ``hex_file``, read from the repository root.  ``counts`` is
    each run's ``session_counts``, in run order, and ``events`` the log
    events the runs must hold between them, so the digests cover those paths.
    """

    config: str
    image: str
    csv: str
    reason: str
    tag_state: str = ""
    counts: tuple = ()
    events: frozenset = frozenset()


def golden(name: str, seed: int, csv: str, tag_state: str, reason: str, events: str,
           counts: tuple = ()) -> Pin:
    return Pin(GOLDEN_CONFIGS[name] + f"seed = {seed}\n", "small_matrix", csv, reason,
               tag_state, counts, frozenset(events.split()))


def workload(name: str, csv: str, reason: str) -> Pin:
    """``benchmarks/workloads/<name>.cfg`` as ``benchmarks/run.py --seed 0`` runs it: on
    the test suite's firmware image, at master seed 1."""
    text = (REPO / "benchmarks" / "workloads" / f"{name}.cfg").read_text()
    return Pin(text + "\nseed = 1\n", "firmware_matrix", csv, reason)


# Each log is the last pin's log up to its complete row, then the CRC pair's
# rows and the complete row; no tag state moved.
CRC_FLIGHT = ("re-pinned when the application CRC went over the air as the cursor's last "
              "two Writes, in place of the host's direct call on the tag")
FAR_ABORTS = "pinned when a timed-out data byte began to follow its row's address pair"
# The extended rows' energy stream is no longer drawn, so its state is the seeded one.
ONE_DRAW = ("re-pinned when a series began to be sampled with one channel draw from its "
            "outcome table: the same law from a different stream")
STEPS = "pinned with the one throttle controller, when the message cursor took over S_p"
# A completed basic run commits each byte until its fault draws spare it, whatever
# the channel did, so batch_basic's runs leave basic's tag states.
BATCHES = "pinned before the reader batched stale Write repeats, when every round ran alone"
HARNESS_RULE = ("re-pinned when the pin moved from CI's `cat out/*.csv | sha256sum` to the "
                "harness rule; the CSVs are those CI pinned as {}")

PINS = {
    "basic-1": golden(
        "basic", 1, "ac507685a479f40346f8c4cf134c478921b33a59e7fde353fd0c03a8c5679bfa",
        "1a6d3c4765681caf832bb893fec8061094589614cfaf188d2cbe6c0e151a2a0d", CRC_FLIGHT,
        "resend timeout complete", ((563, 0, 281.5, 8432, 8432), (572, 3, 286.0, 8562, 8572))),
    "basic-2": golden(
        "basic", 2, "a41e98df41857fe97e8fbb853958588525c78af566077f6b124d30757eefd8e2",
        "10a23660d5a1f0ef3b1847509ead0d50d579a92c5c77ec42d2d1d2e1b0067f43", CRC_FLIGHT,
        "resend timeout complete", ((569, 2, 284.5, 8521, 8527), (575, 4, 287.5, 8610, 8619))),
    "far-1": golden(
        "far", 1, "3b4df96506bf3fc83465998f930741201055c4fb536726fe6026e8966eb03416",
        "20b9109fcd1e22314b6c94c93f44541eecd0895391ff06113d5993d33c0d4aed", FAR_ABORTS,
        "resend timeout abort", ((26, 8, 13.0, 91, 397), (10, 3, 5.0, 32, 158))),
    "ex-1": golden(
        "ex", 1, "539e37d119918b0ecda96173fd579af1432e032351f2cb71e7768fb36d1c7cfb",
        "edb7681c9cca4df13424a733142c79bc6e93a00173d87442ae173b9565d41d45", CRC_FLIGHT,
        "throttle resend", ((96, 6, 305.5, 1182, 1546), (97, 8, 310.5, 1130, 1524))),
    "ex-2": golden(
        "ex", 2, "cf65b75b031c2eaca7d23553ca31cf7e93041ffbc8db967f9a99350df132c4b2",
        "a3a7671636b4e8deb5cdc78c31e4e7d3f49a029f1f48f62dd4764c4195d2486d", CRC_FLIGHT,
        "throttle resend", ((105, 6, 308.5, 1324, 1677), (94, 5, 306.5, 1185, 1520))),
    "long-1": golden(
        "long", 1, "01bde756d55bd30c6ded2c043da27064fa4b06f2e5b4f311550aff956c92da22",
        "48bf52ef4663703d751c4bd6ffd29f2899ae5f1b5459cd7f307151c7f6afd6fc", ONE_DRAW,
        "timeout resend", ((25, 5, 325.0, 65, 344), (28, 8, 364.0, 79, 351))),
    "steps-1": golden(
        "steps", 1, "c6f83a0af0632e32a9dcfa686a71aa81dabfef76a4ed2cb3c44d928e3a8740a0",
        "631ed463af885243d7e41582d5d7002f763be28bec6f3a5f44ed2b4637e7417b", STEPS,
        "throttle timeout resend complete",
        ((162, 45, 458.0, 1069, 2548), (143, 40, 473.0, 982, 2245))),
    "steps-2": golden(
        "steps", 2, "8c3441e9dc8bfc129fbbfd6a50275d1059e534aa4d121539b824bf9e92ff96e8",
        "f1bdce46f9712b3834b1f7ee9c6e222142b3e5760cdde2165411e63982f697bf", STEPS,
        "throttle timeout resend complete",
        ((142, 41, 465.0, 890, 2212), (109, 30, 422.0, 698, 1684))),
    "batch_basic-1": golden(
        "batch_basic", 1, "4bca4f3813883567c8bf7b7e3dcacb8c334de0f64fb8d1901c82202845d923cb",
        "1a6d3c4765681caf832bb893fec8061094589614cfaf188d2cbe6c0e151a2a0d", CRC_FLIGHT,
        "nack complete"),
    "batch_basic-2": golden(
        "batch_basic", 2, "5bacafbdf7fc858cbe6556ce092a78d7437d70d5847f05b47bd478d4a1024c11",
        "10a23660d5a1f0ef3b1847509ead0d50d579a92c5c77ec42d2d1d2e1b0067f43", CRC_FLIGHT,
        "nack complete"),
    "batch_ex-1": golden(
        "batch_ex", 1, "328813988864efbd7d4ae78b7703278b1c9cdd619a6e9db739da9825424e418b",
        "6643386bd1914084c9849b756a8057147b4276571adf640700c2c56875445fb8", BATCHES,
        "throttle timeout resend complete"),
    "batch_ex-2": golden(
        "batch_ex", 2, "ff43ed15898de044e0c04ab6d2d029bc24fe23c1ae9bbe9ceac55e677f7a51ba",
        "b2cc3680597e373bb995a0bf1fa42d272630fc4f134664fea78a6dd47a699d28", BATCHES,
        "throttle timeout resend complete"),
    # Single-word Writes through brown-outs and readdressing at 40 cm, on configs/demo.hex.
    "brownout.cfg": Pin(
        "hex_file = configs/demo.hex\nprotocol = basic\nbrownout = auto\n"
        "distance = static\nd_cm = 40\n", "",
        "c9132254ded820697ebfa86264afbe7a2007d1ce54420d29bbf313f1b330dcc1",
        HARNESS_RULE.format("a9511046beb1fda345199ec2ba6aea20555435fc018afc5dead8ef987e02eb69")),
    # The reprogramming case study: series repeats meet write faults and brown-outs.
    "reprogram.cfg": Pin(
        (REPO / "configs" / "reprogram.cfg").read_text(), "",
        "ad32a847e9843be55c188eac4b398321394760145845312a8fab59ded0f58dab", CRC_FLIGHT),
    # The benchmark's workloads; CI's full-size benchmark step pins the same digests.
    "static_sp16": workload(
        "static_sp16", "72f4073ecb77543644d7f6ef29a317f74fa953551be2296f7395176898953b48",
        ONE_DRAW),
    "mobility_throttle": workload(
        "mobility_throttle", "94176f60a259551680759b36fb778a48c41304fd7c90dd0d95766c901d6f12d9",
        ONE_DRAW),
    "basic_write": workload(
        "basic_write", "d801edf25f07f951450557193f1a075901041ee41f169f2ae0382373a4ed7ef9",
        CRC_FLIGHT),
}


def csv_digest(out_dir) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def tag_state_digest(outcome) -> str:
    """The CSVs show neither the tag's write-fault stream nor its energy stream, nor
    the memory a run leaves behind: each run's memory and written mask, then the
    ``getstate()`` of both streams."""
    h = hashlib.sha256()
    for r in sorted(outcome.runs, key=lambda r: r.run):
        h.update(r.tag.fram.read(0, FRAM_SIZE) + bytes(r.tag._written))
        h.update(repr(r.tag._fault_rng.getstate()).encode())
        h.update(repr(r.tag.energy_rng.getstate()).encode())
    return h.hexdigest()


def session_counts(result) -> tuple:
    """What no CSV carries: (messages_sent, resends, sum_s_p, op_success, op_total)."""
    return (result.messages_sent, result.resends, result.sum_s_p, result.op_success,
            result.op_total)


def run_pin(request, name: str, out_dir: Path):
    pin = PINS[name]
    cfg = parse_config_text(pin.config)
    if pin.image:
        matrix = request.getfixturevalue(pin.image)
    else:  # a shipped config's path is relative to the repository root
        matrix = parse_file((REPO / cfg.hex_file).read_text())
    return run_scenario(cfg, out_dir=out_dir, matrix=matrix)


class Held(NamedTuple):
    """What a row's run wrote and left, in the table's columns."""

    csv: str
    tag_state: str
    counts: tuple
    events: frozenset
    idle_nacks: bool  # every run consumed an idle report
    runs: list  # the ``RunOutcome`` of each run, in run order


_HELD: dict[str, Held] = {}


def held(request, name: str) -> Held:
    """Run row ``name`` once per test session; later callers read the first run."""
    if name not in _HELD:
        out_dir = request.getfixturevalue("tmp_path_factory").mktemp(name)
        outcome = run_pin(request, name, out_dir)
        runs = sorted(outcome.runs, key=lambda r: r.run)
        _HELD[name] = Held(
            csv_digest(out_dir), tag_state_digest(outcome),
            tuple(session_counts(r.result) for r in runs),
            frozenset(e.event for r in runs for e in r.result.log.events),
            all(("nack", "inventory") in {(k[0], k[4]) for k in r.result.log.kinds}
                for r in runs),
            runs)
    return _HELD[name]


@pytest.mark.parametrize("name", sorted(PINS))
def test_pins_hold(request, name):
    pin, run = PINS[name], held(request, name)
    assert pin.events <= run.events
    assert run.csv == pin.csv
    if pin.tag_state:
        assert run.tag_state == pin.tag_state
    if pin.counts:
        assert run.idle_nacks  # idle reports count as no access operation
        assert run.counts == pin.counts


CRC_PAIR_END = [("send", -1, 1), ("ack", -1, 1), ("send", -1, 2), ("ack", -1, 2),
                ("complete", -1, 0)]


@pytest.mark.parametrize("name", [name for name, pin in PINS.items()
                                  if parse_config_text(pin.config).bootloader])
def test_a_completed_bootloader_run_ends_with_the_crc_pair(request, name):
    # The application CRC's high byte (row -1, chunk 1), then its low byte
    # (chunk 2), are each sent and ACKed last; only then is the run complete,
    # and a complete run is one that reached the application.
    runs = [r.result for r in held(request, name).runs]
    for result in runs:
        assert result.reached_application == result.completed
        if result.completed:
            rows = [(e.event, e.row, e.chunk) for e in result.log.events
                    if e.event in ("send", "ack", "complete")]
            assert rows[-5:] == CRC_PAIR_END
            assert result.log.events[-1].event == "complete"
    assert any(r.completed for r in runs) or "abort" in PINS[name].events


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork: one share only")
def test_reprogram_pin_holds_in_two_shares_and_in_one_process(request, monkeypatch, tmp_path):
    # Its 10 repeats in two forked shares, then all in this process, write the pinned bytes.
    splits = []
    run_shares = shares.run_shares
    monkeypatch.setattr(shares, "run_shares",
                        lambda run, n, w: splits.append(w) or run_shares(run, n, w))
    for cpus in (2, 1):
        monkeypatch.setattr(scenario, "_usable_cpus", lambda: cpus)
        run_pin(request, "reprogram.cfg", tmp_path / str(cpus))
        assert csv_digest(tmp_path / str(cpus)) == PINS["reprogram.cfg"].csv
    assert splits == [2]  # the first run forked, the second did not


def readme_key_rows() -> list[list[str]]:
    """The cells of each row of README's config key table."""
    readme = (REPO / "README.md").read_text()
    section = readme.split("\n## Config files\n", 1)[1].split("\n## ", 1)[0]
    return [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]


def test_readme_defaults_write_what_an_image_only_config_writes(request, tmp_path):
    # Every static-profile key of README's key table, written at its documented
    # default, writes the same bytes as a config that names only the image: a
    # default that drifts between the schema, the parser and README fails here.
    oscillate = {key.name for key in scenario.PROFILE_KEYS if key.kind == "oscillate"}
    lines = ["hex_file = configs/demo.hex"]
    for name, default, *_ in readme_key_rows():
        if default != "—" and name.strip("`") not in oscillate:
            lines.append(f"{name.strip('`')} = {default.strip('`')}")
    assert len(lines) == 20
    digests = []
    for label, text in (("defaults", "\n".join(lines)), ("image_only", lines[0])):
        run_scenario(parse_config_text(text), out_dir=tmp_path / label,
                     matrix=parse_file((REPO / "configs" / "demo.hex").read_text()))
        digests.append(csv_digest(tmp_path / label))
    assert digests[0] == digests[1]


def test_ci_benchmark_pins_are_the_tables():
    # CI's full-size benchmark step pins the workloads' seed-0 digests in shell;
    # a re-pin that misses one copy fails here.
    workflow = (REPO / ".github" / "workflows" / "tests.yml").read_text()
    lines = [line.strip() for line in workflow.splitlines() if "pinned=" in line]
    pinned = dict(m.groups() for line in lines
                  if (m := re.fullmatch(r"(\w+)\) pinned=([0-9a-f]{64}) ;;", line)))
    assert len(pinned) == len(lines) == len(WORKLOADS)
    assert pinned == {w: PINS[w].csv for w in WORKLOADS}
