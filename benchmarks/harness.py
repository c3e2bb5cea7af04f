"""Workload set-up, execution and correctness checks for the transfer benchmark.

Each workload is a ``key = value`` scenario config in ``workloads/``.  The
benchmark generates the firmware image from the workload seed, writes it as
Intel Hex beside a copy of the config that names it, loads that copy with
``load_config`` and runs the transfer with ``run_scenario(out_dir=...)``, the
calls ``crfid-downlink simulate`` makes.  Nothing here imports the simulator
at module level, so a checkout without it fails before any work starts.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_DIR = BENCH_DIR / "workloads"
WORKLOADS = ("static_sp16", "mobility_throttle", "basic_write")

FIRMWARE_BYTES = 5387
RECORD_WIDTH = 26
IMAGE_BASE = 0x4400
# Seed 0 reproduces the test suite's firmware fixture: payload drawn from
# Random(99), master seed 1.
FIXTURE_PAYLOAD_SEED = 99
FIXTURE_MASTER_SEED = 1

MODULES = ("ihex", "protocol", "channel", "reader", "tag", "host", "metrics", "scenario")


class MissingPackage(RuntimeError):
    """The checkout holds no simulator sources to benchmark."""


def import_package() -> SimpleNamespace:
    """Import the simulator from this checkout's ``src``, never from elsewhere."""
    package_dir = SRC / "crfid_downlink"
    if not (package_dir / "__init__.py").is_file():
        raise MissingPackage(f"no simulator sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("crfid_downlink")
    if Path(pkg.__file__).resolve().parent != package_dir:
        raise MissingPackage(f"crfid_downlink imported from {pkg.__file__}, not {package_dir}")
    return SimpleNamespace(**{m: importlib.import_module(f"crfid_downlink.{m}") for m in MODULES})


def image_payload(seed: int, size: int = FIRMWARE_BYTES) -> bytes:
    rng = random.Random(FIXTURE_PAYLOAD_SEED + seed)
    return bytes(rng.randrange(256) for _ in range(size))


@dataclass
class Prepared:
    """Everything a workload needs before its first round."""

    pkg: SimpleNamespace
    workload: str
    payload: bytes
    config: object  # scenario.ScenarioConfig
    matrix: object  # ihex.RecordMatrix


def prepare(workload: str, seed: int, work_dir: Path,
            image_bytes: int = FIRMWARE_BYTES) -> Prepared:
    """Set-up as a user pays it: import, image generation and parse, config load."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    pkg = import_package()
    work_dir.mkdir(parents=True, exist_ok=True)
    payload = image_payload(seed, image_bytes)
    text = pkg.ihex.generate_fixture(payload, record_width=RECORD_WIDTH, base_address=IMAGE_BASE)
    hex_path = work_dir / "image.hex"
    hex_path.write_text(text)
    matrix = pkg.ihex.parse_file(hex_path.read_text())
    cfg_path = work_dir / f"{workload}.cfg"
    cfg_path.write_text(
        (WORKLOAD_DIR / f"{workload}.cfg").read_text()
        + f"\nhex_file = {hex_path}\nseed = {FIXTURE_MASTER_SEED + seed}\n"
    )
    config = pkg.scenario.load_config(cfg_path)
    return Prepared(pkg, workload, payload, config, matrix)


def transfer_failure(run, payload: bytes, bootloader: bool) -> str:
    """Why one transfer fails the benchmark's check, or '' when it passes.

    A transfer passes only if it completed, the tag's memory holds the
    generated image at every image address, and, with the bootloader on,
    the tag reached the application.
    """
    result = run.result
    if not result.completed:
        return f"not completed ({result.failure_reason})"
    stored = run.tag.fram.read(IMAGE_BASE, len(payload))
    bad = [i for i, (got, want) in enumerate(zip(stored, payload)) if got != want]
    if bad:
        return f"{len(bad)} image bytes differ in tag memory, first at {IMAGE_BASE + bad[0]:#06x}"
    if bootloader and not result.reached_application:
        return "bootloader never reached the application"
    return ""


def artifact_digest(out_dir: Path) -> tuple[str, int]:
    """SHA-256 over every CSV artifact (name and content), and their total size."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(out_dir.glob("*.csv")):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        total += len(data)
    return h.hexdigest(), total


def sim_stats(outcome) -> dict[str, float]:
    """Simulated statistics of one pass; a speed-only change leaves them identical."""
    runs = outcome.runs
    return {
        "sim.rounds": sum(r.result.rounds for r in runs),
        "sim.t_s": sum(r.metrics.t for r in runs),
        "sim.theta_Bps": sum(r.metrics.theta for r in runs) / len(runs),
        "sim.messages": sum(r.metrics.m_t for r in runs),
    }


@dataclass
class Pass:
    """One execution of a workload: every repeat simulated, every CSV written.

    ``wall_s`` and ``write_s`` are raw wall times; ``speed`` is the machine's
    speed over the pass relative to the reference (see speed.py).
    """

    wall_s: float
    write_s: float
    speed: float
    attempted: int
    failures: list[str]
    digest: str
    csv_bytes: int
    sim: dict[str, float]
    outcome: object = field(repr=False, default=None)

    @property
    def corrected_s(self) -> float:
        return self.wall_s * self.speed

    @property
    def rounds_per_s(self) -> float:
        """Simulated rounds per corrected host second, the CSV write excluded."""
        return self.sim["sim.rounds"] / ((self.wall_s - self.write_s) * self.speed)


@contextmanager
def _timed(module, name: str, times: list[float]):
    original = getattr(module, name)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - t0)

    setattr(module, name, timed)
    try:
        yield
    finally:
        setattr(module, name, original)


def run_pass(prep: Prepared, out_dir: Path, sampler, keep_outcome: bool = False) -> Pass:
    """Run the workload once and check it; the CSVs are removed afterwards.

    ``sampler`` is the active ``speed.SpeedSampler``.
    """
    scenario = prep.pkg.scenario
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.glob("*.csv"):
        stale.unlink()
    write_times: list[float] = []
    gc.collect()
    with _timed(scenario, "write_artifacts", write_times):
        mark = sampler.mark()
        t0 = time.perf_counter()
        outcome = scenario.run_scenario(prep.config, out_dir=out_dir, matrix=prep.matrix)
        wall = time.perf_counter() - t0
        speed = sampler.factor(mark)
    failures = [
        reason
        for run in outcome.runs
        if (reason := transfer_failure(run, prep.payload, prep.config.bootloader))
    ]
    digest, csv_bytes = artifact_digest(out_dir)
    for path in out_dir.glob("*.csv"):
        path.unlink()
    return Pass(
        wall_s=wall,
        write_s=sum(write_times),
        speed=speed,
        attempted=len(outcome.runs),
        failures=failures,
        digest=digest,
        csv_bytes=csv_bytes,
        sim=sim_stats(outcome),
        outcome=outcome if keep_outcome else None,
    )
