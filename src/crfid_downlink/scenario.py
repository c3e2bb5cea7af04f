"""Scenario orchestration: config files, distance profiles, CSV artifacts.

A scenario wires the whole stack together (hex file -> host -> reader ->
tag -> channel), runs it ``repeats`` times with per-run derived seeds and
writes one transfer log CSV per run plus a summary CSV.  The repeats run at
once on every usable CPU, each share in its own forked process.  Identical
config and seed produce byte-identical outputs, whatever the number of CPUs.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .channel import ChannelModel
from .host import HostSession, SessionResult, TransferLog, Variant
from .ihex import HexFileError, RecordMatrix, parse_file
from .metrics import SessionMetrics, compute_metrics
from .protocol import RowTooLong
from .reader import MAX_WORD_COUNT, ROUNDS_PER_SEC
from .tag import PowerModel, Tag

SUMMARY_COLUMNS = ["run", "completed", "t", "m_t", "m_r", "p_r", "mean_S_p", "theta"]
LOG_COLUMNS = ["round", "event", "i", "j", "S_p", "result", "epc"]
TRACE_COLUMNS = ["round", "d_cm"]


class ScenarioError(ValueError):
    pass


def _require(ok: bool, key: str, rule: str, value) -> None:
    if not ok:
        raise ScenarioError(f"{key} must be {rule}, got {value}")


@dataclass  # __post_init__ derives ``period``; tests subclass it as a dataclass
class DistanceProfile:
    """Static position or a triangle-wave oscillation between two bounds.

    The fields are fixed once the profile is built: ``__post_init__`` derives
    ``period`` from them, the rounds after which ``at`` repeats bit for bit.
    It is 1 for one distance (a static profile, a speed of 0), the up-and-down
    cycle when that is a whole number of rounds, and 0 otherwise.
    """

    kind: str = "static"  # "static" | "oscillate"
    d_cm: float = 20.0
    min_cm: float = 20.0
    max_cm: float = 90.0
    speed_m_per_s: float = 0.1

    def __post_init__(self):
        # ``at`` reduces the round number by the period, so every cycle
        # repeats the first one's distances bit for bit instead of drifting
        # in the last bits as the float position grows.
        self.period = 0
        span, rate = self.max_cm - self.min_cm, self.speed_m_per_s * 100.0
        if self.kind == "static" or span <= 0 or rate == 0:
            self.period = 1
        elif rate > 0:
            n = 2 * span * ROUNDS_PER_SEC / rate
            if math.isfinite(n) and abs(n - round(n)) <= 1e-9 * n:
                self.period = round(n)

    def at(self, round_no: int) -> float:
        if self.kind == "static":
            return self.d_cm
        span = self.max_cm - self.min_cm
        if span <= 0:
            return self.min_cm
        if self.period:
            round_no %= self.period
        pos = (self.speed_m_per_s * 100.0) * (round_no / ROUNDS_PER_SEC)
        cycle = pos % (2 * span)
        return self.min_cm + (cycle if cycle <= span else 2 * span - cycle)


@dataclass  # tests copy it with dataclasses.replace
class ScenarioConfig:
    hex_file: str = ""
    protocol: Variant = Variant.EX
    s_p: int | None = None  # None = throttle
    ocv: int = 15
    n_threshold: int = 20
    r_max: int = 3
    m_threshold: int = 10
    t_u: int = 1
    t_de: int = -2
    t_dl: int = -3
    s_max: int = 16
    profile: DistanceProfile = field(default_factory=DistanceProfile)
    seed: int = 1
    repeats: int = 1
    bootloader: bool = False
    brownout: float | None = None  # None = derive from distance
    write_fault_prob: float = 0.0
    max_sim_seconds: float = 3600.0
    dump_fram: bool = False  # write each run's memory image next to its log

    def validate(self) -> None:
        """Check every setting before a run; a ScenarioError names the key."""
        prof = self.profile
        # A config built in code skips the parser: a wrong type would run as something else.
        _require(isinstance(self.protocol, Variant), "protocol", "a Variant", repr(self.protocol))
        _require(prof.kind in ("static", "oscillate"), "distance", "'static' or 'oscillate'",
                 repr(prof.kind))
        for key in ("bootloader", "dump_fram"):
            _require(type(getattr(self, key)) is bool, key, "a bool", repr(getattr(self, key)))
        _require(self.s_p is None or type(self.s_p) is int, "s_p", "an integer or None",
                 repr(self.s_p))
        # The share split and every run's seeds compute with these two.
        for key in ("repeats", "seed"):
            _require(type(getattr(self, key)) is int, key, "an integer", repr(getattr(self, key)))
        for key, value in (("max_sim_seconds", self.max_sim_seconds),
                           ("write_fault_prob", self.write_fault_prob),
                           ("brownout", self.brownout or 0.0), ("d_cm", prof.d_cm),
                           ("d_min_cm", prof.min_cm), ("d_max_cm", prof.max_cm),
                           ("speed_m_per_s", prof.speed_m_per_s)):
            _require(math.isfinite(value), key, "finite", value)
        for key in ("ocv", "n_threshold", "r_max", "repeats"):
            _require(getattr(self, key) >= 1, key, "at least 1", getattr(self, key))
        # Every stale echo of the old operation frame counts as a NACK, so a
        # frame longer than the NACK window times out the message it floods.
        _require(self.ocv <= self.n_threshold, "ocv",
                 f"at most n_threshold = {self.n_threshold}", self.ocv)
        # The host takes int(max_sim_seconds * ROUNDS_PER_SEC) as its round budget.
        _require(1 <= self.max_sim_seconds * ROUNDS_PER_SEC < math.inf, "max_sim_seconds",
                 f"between one round and {sys.float_info.max / ROUNDS_PER_SEC:g} s at "
                 f"{ROUNDS_PER_SEC} rounds/s", self.max_sim_seconds)
        _require(self.m_threshold >= 0, "m_threshold", "at least 0", self.m_threshold)
        _require(0 <= self.write_fault_prob <= 1, "write_fault_prob", "in [0, 1]",
                 self.write_fault_prob)
        _require(self.brownout is None or 0 <= self.brownout <= 1, "brownout",
                 "in [0, 1] or 'auto'", self.brownout)
        if prof.kind == "static":
            _require(prof.d_cm > 0, "d_cm", "greater than 0", prof.d_cm)
        else:
            _require(prof.min_cm > 0, "d_min_cm", "greater than 0", prof.min_cm)
            _require(prof.min_cm < prof.max_cm, "d_max_cm",
                     f"greater than d_min_cm = {prof.min_cm}", prof.max_cm)
            _require(prof.speed_m_per_s >= 0, "speed_m_per_s", "at least 0",
                     prof.speed_m_per_s)
            # ``at`` walks the tag speed * 100 cm/s times the elapsed seconds.
            _require(math.isfinite(prof.speed_m_per_s * 100.0 * self.max_sim_seconds),
                     "speed_m_per_s", f"small enough that the path walked in max_sim_seconds = "
                     f"{self.max_sim_seconds:g} s is finite", prof.speed_m_per_s)
        # An extended message is two header words plus S_p payload words.
        s_max_top = MAX_WORD_COUNT - 2
        _require(1 <= self.s_max <= s_max_top, "s_max", f"in 1..{s_max_top}", self.s_max)
        if self.s_p is not None:
            _require(self.protocol is Variant.EX, "s_p",
                     "'throttle' for protocol = basic, which sends one word", self.s_p)
            _require(1 <= self.s_p <= self.s_max, "s_p",
                     f"in 1..s_max = {self.s_max}, or 'throttle'", self.s_p)
        elif self.protocol is Variant.EX:
            _require(1 <= self.t_u < -self.t_de <= -self.t_dl, "t_u, t_de, t_dl",
                     "steps with 1 <= t_u < -t_de <= -t_dl",
                     f"{self.t_u}, {self.t_de}, {self.t_dl}")


_BOOL = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def parse_config_text(text: str) -> ScenarioConfig:
    """Parse the flat ``key = value`` config format ('#' starts a comment)."""
    values: dict[str, str] = {}
    key_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key in key_line:
            raise ScenarioError(f"line {lineno}: {key} is given twice, first on line {key_line[key]}")
        key_line[key] = lineno
        values[key] = val.strip()

    cfg = ScenarioConfig()

    def pop_num(key: str, cast, default):
        if key not in values:
            return default
        raw = values.pop(key)
        try:
            return cast(raw)
        except ValueError:
            raise ScenarioError(f"{key}: cannot parse {raw!r}") from None

    cfg.hex_file = values.pop("hex_file", "")
    proto = values.pop("protocol", "ex").lower()
    if proto not in ("ex", "basic"):
        raise ScenarioError(f"protocol must be 'ex' or 'basic', got {proto!r}")
    cfg.protocol = Variant.EX if proto == "ex" else Variant.BASIC

    raw_sp = values.pop("s_p", "throttle").lower()
    if raw_sp == "throttle":
        cfg.s_p = None
    else:
        try:
            cfg.s_p = int(raw_sp)
        except ValueError:
            raise ScenarioError(f"s_p must be an integer or 'throttle', got {raw_sp!r}") from None

    cfg.ocv = pop_num("ocv", int, cfg.ocv)
    cfg.n_threshold = pop_num("n_threshold", int, cfg.n_threshold)
    cfg.r_max = pop_num("r_max", int, cfg.r_max)
    cfg.m_threshold = pop_num("m_threshold", int, cfg.m_threshold)
    cfg.t_u = pop_num("t_u", int, cfg.t_u)
    cfg.t_de = pop_num("t_de", int, cfg.t_de)
    cfg.t_dl = pop_num("t_dl", int, cfg.t_dl)
    cfg.s_max = pop_num("s_max", int, cfg.s_max)
    cfg.seed = pop_num("seed", int, cfg.seed)
    cfg.repeats = pop_num("repeats", int, cfg.repeats)
    cfg.max_sim_seconds = pop_num("max_sim_seconds", float, cfg.max_sim_seconds)
    cfg.write_fault_prob = pop_num("write_fault_prob", float, cfg.write_fault_prob)

    for flag in ("bootloader", "dump_fram"):
        if flag in values:
            raw = values.pop(flag).lower()
            if raw not in _BOOL:
                raise ScenarioError(f"{flag} must be a boolean, got {raw!r}")
            setattr(cfg, flag, _BOOL[raw])
    if values.get("brownout", "").lower() == "auto":
        del values["brownout"]
    cfg.brownout = pop_num("brownout", float, cfg.brownout)

    kind = values.pop("distance", "static").lower()
    default = DistanceProfile()
    if kind == "static":
        cfg.profile = DistanceProfile(d_cm=pop_num("d_cm", float, default.d_cm))
    elif kind == "oscillate":
        cfg.profile = DistanceProfile(
            kind="oscillate",
            min_cm=pop_num("d_min_cm", float, default.min_cm),
            max_cm=pop_num("d_max_cm", float, default.max_cm),
            speed_m_per_s=pop_num("speed_m_per_s", float, default.speed_m_per_s))
    else:
        raise ScenarioError(f"distance must be 'static' or 'oscillate', got {kind!r}")

    if values:
        raise ScenarioError(f"unknown config keys: {', '.join(sorted(values))}")
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> ScenarioConfig:
    return parse_config_text(Path(path).read_text())


@dataclass  # benchmarks/test_benchmark.py copies it with dataclasses.replace
class RunOutcome:
    run: int
    result: SessionResult
    metrics: SessionMetrics
    tag: Tag


class ScenarioOutcome(NamedTuple):
    runs: list[RunOutcome]

    @property
    def completed_runs(self) -> int:
        return sum(1 for r in self.runs if r.result.completed)

    @property
    def all_completed(self) -> bool:
        return self.completed_runs == len(self.runs)


def run_single(config: ScenarioConfig, matrix: RecordMatrix, run_index: int) -> RunOutcome:
    """Execute one seeded repetition of the scenario."""
    base = config.seed * 1_000_003 + run_index * 7919
    tag = Tag(
        write_fault_prob=config.write_fault_prob,
        fault_seed=base + 3,
        start_in_bootloader=config.bootloader,
        energy_seed=base + 4,
    )
    session = HostSession(config, matrix)
    result = session.run(tag, ChannelModel(seed=base + 1), PowerModel(seed=base + 2))
    return RunOutcome(run_index, result, compute_metrics(result), tag)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_repeats(config: ScenarioConfig, matrix: RecordMatrix) -> list[RunOutcome]:
    """Every repeat in run order, in W = min(repeats, usable CPUs) shares at once.

    ``shares.run_shares`` forks a child for each share after the first; a run
    derives all of its seeds from its index, so the split moves no output.
    W is 1, and every run is made here, for one repeat, one usable CPU, no
    ``os.fork``, or other threads running, since a fork copies only the
    calling thread.
    """
    def run_share(indices: range) -> list[RunOutcome]:
        return [run_single(config, matrix, i) for i in indices]

    threading = sys.modules.get("threading")
    forks = hasattr(os, "fork") and not (threading and threading.active_count() > 1)
    shares = min(config.repeats, _usable_cpus()) if forks else 1
    if shares == 1:
        return run_share(range(config.repeats))
    from .shares import run_shares  # compiled and imported by a forked run only

    return run_shares(run_share, config.repeats, shares)


def run_scenario(config: ScenarioConfig, out_dir: str | Path | None = None,
                 matrix: RecordMatrix | None = None) -> ScenarioOutcome:
    """Run all repeats and optionally write the CSV artifacts."""
    config.validate()
    try:
        if matrix is None:
            if not config.hex_file:
                raise ScenarioError("config does not name a hex_file")
            matrix = parse_file(Path(config.hex_file).read_text())
        if not matrix.total_bytes():
            raise ScenarioError(f"hex_file {config.hex_file!r} holds no data bytes")
    except (OSError, HexFileError) as exc:  # an unreadable image or a bad record
        raise ScenarioError(f"hex_file {config.hex_file!r}: {exc}") from exc
    try:
        runs = _run_repeats(config, matrix)
    except RowTooLong as exc:
        # A row the basic flavour cannot address, raised as the host builds its messages.
        raise ScenarioError(f"hex_file {config.hex_file!r}: {exc}") from exc
    outcome = ScenarioOutcome(runs)
    if out_dir is not None:
        write_artifacts(config, outcome, Path(out_dir))
    return outcome


def _fmt(x: float) -> str:
    return f"{x:.6f}"


LOG_CHUNK_ROWS = 2048  # log rows rendered and written at a time: about 100 KB of text


def _kind_texts(kinds: list[tuple]) -> list[str]:
    """Each log kind as CSV text after the round, each distinct S_p and EPC rendered once.

    No field needs quoting: event names, results, numbers and hex EPCs hold
    no comma, quote or line break.
    """
    s_p_text = {s_p: _fmt(s_p) for s_p in {kind[3] for kind in kinds}}
    epc_text = {epc: epc.hex().upper() for epc in {kind[5] for kind in kinds}}
    return [f"{event},{row},{chunk},{s_p_text[s_p]},{result},{epc_text[epc]}\n"
            for event, row, chunk, s_p, result, epc in kinds]


def _log_lines(log: TransferLog) -> Iterator[str]:
    """The log rows as CSV text, ``LOG_CHUNK_ROWS`` lines at a time."""
    texts = _kind_texts(log.kinds)  # its dicts of S_p and EPC texts are freed here
    rounds, kind_ids = log.rounds, log.kind_ids
    for start in range(0, len(rounds), LOG_CHUNK_ROWS):
        end = start + LOG_CHUNK_ROWS
        yield "".join([f"{r},{texts[k]}" for r, k in zip(rounds[start:end], kind_ids[start:end])])


def write_artifacts(config: ScenarioConfig, outcome: ScenarioOutcome, out: Path) -> None:
    """Write ``summary.csv``, each run's log and the distance trace as plain CSV lines."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "summary.csv", "w", newline="") as fh:
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for r in sorted(outcome.runs, key=lambda r: r.run):
            m = r.metrics
            fh.write(f"{r.run},{int(r.result.completed)},{_fmt(m.t)},{m.m_t},{m.m_r},"
                     f"{_fmt(m.p_r)},{_fmt(m.mean_s_p)},{_fmt(m.theta)}\n")
    for r in outcome.runs:
        with open(out / f"run_{r.run:02d}_log.csv", "w", newline="") as fh:
            fh.write(",".join(LOG_COLUMNS) + "\n")
            fh.writelines(_log_lines(r.result.log))
        if config.dump_fram:
            r.tag.fram.dump(out / f"run_{r.run:02d}_fram.bin")
    longest = max(outcome.runs, key=lambda r: r.result.rounds)
    with open(out / "distance_trace.csv", "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for round_no in range(0, longest.result.rounds + 1, ROUNDS_PER_SEC // 4):
            fh.write(f"{round_no},{_fmt(config.profile.at(round_no))}\n")
