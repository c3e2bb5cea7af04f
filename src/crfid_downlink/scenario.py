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
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .channel import ChannelModel
from .host import HostSession, SessionResult, TransferLog, Variant
from .ihex import HexFileError, RecordMatrix, parse_file
from .metrics import SessionMetrics, compute_metrics
from .protocol import RowTooLong
from .reader import MAX_WORD_COUNT, ROUNDS_PER_SEC, Reader
from .tag import PowerModel, Tag

SUMMARY_COLUMNS = ["run", "completed", "t", "m_t", "m_r", "p_r", "mean_S_p", "theta"]
LOG_COLUMNS = ["round", "event", "i", "j", "S_p", "result", "epc"]
TRACE_COLUMNS = ["round", "d_cm"]


class ScenarioError(ValueError):
    pass


def _require(ok: bool, key: str, rule: str, value) -> None:
    if not ok:
        raise ScenarioError(f"{key} must be {rule}, got {value}")


_BOOL = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_KINDS = {"static": "static", "oscillate": "oscillate"}

# A value type: what config text must be, how it parses (a ValueError or
# KeyError if it cannot), whether a value set in code is one, and what that must be.
INT = ("an integer", int, lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
# An int past the float range is not finite, and a bool is never a number.
NUMBER = ("a finite number", float, lambda v: INT[2](v) and abs(v) <= sys.float_info.max
          or isinstance(v, float) and math.isfinite(v), "a finite number")
BOOL = ("a boolean", lambda text: _BOOL[text.lower()], lambda v: type(v) is bool, "a boolean")
PATH = ("a path", str, lambda v: isinstance(v, (str, os.PathLike)), "a path")
PROTOCOL = ("'ex' or 'basic'", lambda text: Variant(text.lower()),
            lambda v: isinstance(v, Variant), "a Variant")
KIND = ("'static' or 'oscillate'", lambda text: _KINDS[text.lower()],
        lambda v: isinstance(v, str) and v in _KINDS, "'static' or 'oscillate'")


class Key:
    """One config key: its type, its default and its rule on the value alone (a rule
    tying keys together is in ``ScenarioConfig.validate``).  ``field`` is the attribute
    it sets, ``none`` a file's word for None, ``kind`` a profile key's distance kind."""

    def __init__(self, name: str, type_: tuple, default, rule: Callable | None = None,
                 rule_text: str = "", *, field: str = "", none: str = "", kind: str = ""):
        self.name, (self.text, self.parse, self.accepts, self.code) = name, type_
        if none:
            self.text, self.code = f"{self.text} or {none!r}", f"{self.code}, or None for {none!r}"
        self.default, self.rule, self.rule_text = default, rule, rule_text
        self.field, self.none, self.kind = field or name, none, kind

    def read(self, text: str):
        """The value a config file's ``text`` gives the key."""
        if self.none and text.lower() == self.none:
            return None
        try:
            return self.parse(text)
        except (KeyError, ValueError):
            raise ScenarioError(f"{self.name} must be {self.text}, got {text!r}") from None

    def check(self, value, kind: str) -> None:
        """Check a value set in code: its type, then its rule if the key applies to ``kind``."""
        if value is not None or not self.none:
            _require(self.accepts(value), self.name, self.code, repr(value))
            if self.rule and self.kind in ("", kind):
                _require(self.rule(value), self.name, self.rule_text, value)


# ``ScenarioConfig``'s fields; README's key table shows each row.
CONFIG_KEYS = (
    Key("hex_file", PATH, ""),  # read and checked as the run starts
    Key("protocol", PROTOCOL, Variant.EX),
    Key("s_p", INT, None, none="throttle"),
    Key("ocv", INT, 15, lambda v: v >= 1, "at least 1"),
    Key("n_threshold", INT, 20, lambda v: v >= 1, "at least 1"),
    Key("r_max", INT, 3, lambda v: v >= 1, "at least 1"),
    Key("m_threshold", INT, 10, lambda v: v >= 0, "at least 0"),
    Key("t_u", INT, 1),
    Key("t_de", INT, -2),
    Key("t_dl", INT, -3),
    # An extended message is two header words plus S_p payload words.
    Key("s_max", INT, 16, lambda v: 1 <= v <= MAX_WORD_COUNT - 2, f"in 1..{MAX_WORD_COUNT - 2}"),
    Key("seed", INT, 1),  # the share split and every run's seeds compute with it
    Key("repeats", INT, 1, lambda v: v >= 1, "at least 1"),
    Key("bootloader", BOOL, False),
    Key("brownout", NUMBER, None, lambda v: 0 <= v <= 1, "in [0, 1]", none="auto"),
    Key("write_fault_prob", NUMBER, 0.0, lambda v: 0 <= v <= 1, "in [0, 1]"),
    Key("dump_fram", BOOL, False),  # write each run's memory image next to its log
    # A run takes int(max_sim_seconds * ROUNDS_PER_SEC) as its round budget.
    Key("max_sim_seconds", NUMBER, 3600.0, lambda v: 1 <= v * ROUNDS_PER_SEC < math.inf,
        f"between one round and {sys.float_info.max / ROUNDS_PER_SEC:g} s at "
        f"{ROUNDS_PER_SEC} rounds/s"),
)
# ``DistanceProfile``'s fields; ``distance`` picks the kind.
PROFILE_KEYS = (
    Key("distance", KIND, "static", field="kind"),
    Key("d_cm", NUMBER, 20.0, lambda v: v > 0, "greater than 0", kind="static"),
    Key("d_min_cm", NUMBER, 20.0, lambda v: v > 0, "greater than 0", field="min_cm",
        kind="oscillate"),
    Key("d_max_cm", NUMBER, 90.0, field="max_cm", kind="oscillate"),
    Key("speed_m_per_s", NUMBER, 0.1, lambda v: v >= 0, "at least 0", kind="oscillate"),
)


def _set_fields(obj, keys: tuple[Key, ...], fields: dict) -> None:
    """Set each key's field on ``obj`` from ``fields``, or to the key's default."""
    for key in keys:
        setattr(obj, key.field, fields.pop(key.field, key.default))
    if fields:
        raise TypeError(f"{type(obj).__name__} has no field {', '.join(fields)}")


class DistanceProfile:
    """Static position or a triangle-wave oscillation between two bounds.

    Its fields are those of ``PROFILE_KEYS``, fixed once the profile is
    built: ``__init__`` derives ``period`` from them, the rounds after which
    ``at`` repeats bit for bit.  It is 1 for one distance (a static profile,
    a speed of 0), the up-and-down cycle when that is a whole number of
    rounds, and 0 otherwise.
    """

    __slots__ = (*(key.field for key in PROFILE_KEYS), "period")

    def __init__(self, **fields):
        _set_fields(self, PROFILE_KEYS, fields)
        # ``at`` reduces the round number by the period, so every cycle
        # repeats the first one's distances bit for bit instead of drifting
        # in the last bits as the float position grows.
        self.period = 0
        try:
            span, rate = self.max_cm - self.min_cm, self.speed_m_per_s * 100.0
            if self.kind == "static" or span <= 0 or rate == 0:
                self.period = 1
            elif rate > 0:
                n = 2 * span * ROUNDS_PER_SEC / rate
                if math.isfinite(n) and abs(n - round(n)) <= 1e-9 * n:
                    self.period = round(n)
        except (TypeError, OverflowError):  # a wrong type, or an int no float holds:
            pass  # ``validate`` names the field

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


class ScenarioConfig:
    """A scenario's settings: a field for each of ``CONFIG_KEYS``, and ``profile``."""

    __slots__ = (*(key.field for key in CONFIG_KEYS), "profile")

    def __init__(self, profile: DistanceProfile | None = None, **fields):
        _set_fields(self, CONFIG_KEYS, fields)
        self.profile = DistanceProfile() if profile is None else profile

    def validate(self) -> None:
        """Check every setting before a run; a ScenarioError names the key."""
        prof = self.profile
        # A config built in code skips the parser: a wrong type would run as something else.
        for key in CONFIG_KEYS:
            key.check(getattr(self, key.field), "")
        for key in PROFILE_KEYS:
            key.check(getattr(prof, key.field), prof.kind)
        # Every stale echo of the old operation frame counts as a NACK, so a
        # frame longer than the NACK window times out the message it floods.
        _require(self.ocv <= self.n_threshold, "ocv",
                 f"at most n_threshold = {self.n_threshold}", self.ocv)
        if prof.kind == "oscillate":
            _require(prof.min_cm < prof.max_cm, "d_max_cm",
                     f"greater than d_min_cm = {prof.min_cm}", prof.max_cm)
            # ``at`` walks the tag speed * 100 cm/s times the elapsed seconds.
            _require(math.isfinite(prof.speed_m_per_s * 100.0 * self.max_sim_seconds),
                     "speed_m_per_s", f"small enough that the path walked in max_sim_seconds = "
                     f"{self.max_sim_seconds:g} s is finite", prof.speed_m_per_s)
        if self.s_p is not None:
            _require(self.protocol is Variant.EX, "s_p",
                     "'throttle' for protocol = basic, which sends one word", self.s_p)
            _require(1 <= self.s_p <= self.s_max, "s_p",
                     f"in 1..s_max = {self.s_max}, or 'throttle'", self.s_p)
        elif self.protocol is Variant.EX:
            _require(1 <= self.t_u < -self.t_de <= -self.t_dl, "t_u, t_de, t_dl",
                     "steps with 1 <= t_u < -t_de <= -t_dl",
                     f"{self.t_u}, {self.t_de}, {self.t_dl}")


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

    # Each key reads as its ``Key`` says; those of the other distance kind are unknown.
    kind = PROFILE_KEYS[0].read(values.get("distance", "static"))

    def read(keys: tuple[Key, ...]) -> dict:
        return {key.field: key.read(values.pop(key.name)) for key in keys
                if key.name in values and key.kind in ("", kind)}

    cfg = ScenarioConfig(**read(CONFIG_KEYS), profile=DistanceProfile(**read(PROFILE_KEYS)))
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
    tag = Tag(write_fault_prob=config.write_fault_prob, fault_seed=base + 3,
              start_in_bootloader=config.bootloader, energy_seed=base + 4)
    reader = Reader(tag, ChannelModel(seed=base + 1), PowerModel(seed=base + 2), config.profile,
                    config.brownout, int(config.max_sim_seconds * ROUNDS_PER_SEC))
    result = HostSession(config, matrix).run(reader)
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


def _log_lines(log: TransferLog) -> Iterator[str]:
    """The log rows as CSV text, ``LOG_CHUNK_ROWS`` lines at a time.

    No field needs quoting: event names, results, numbers and hex EPCs hold
    no comma, quote or line break.
    """
    texts = [f"{event},{row},{chunk},{_fmt(s_p)},{result},{epc.hex().upper()}\n"
             for event, row, chunk, s_p, result, epc in log.kinds]  # each kind, after the round
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
