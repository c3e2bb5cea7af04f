"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the assertions themselves gate the suite either way.
"""

import filecmp
import math
import random
import statistics
from pathlib import Path

import pytest

from crfid_downlink.channel import blockwrite_throughput
from crfid_downlink.host import Variant, matrix_crc
from crfid_downlink.ihex import generate_fixture, parse_file
from crfid_downlink.metrics import MODEL_PARAMS, compute_metrics, model_curves
from crfid_downlink.protocol import build_ladder, derive_r_max, throttle
from crfid_downlink.scenario import DistanceProfile, ScenarioConfig, load_config, run_scenario
from crfid_downlink.tag import Tag, TagMode


def report(name: str, detail: str) -> None:
    print(f"{name} PASS — {detail}", flush=True)


REPO = Path(__file__).resolve().parents[1]
MOBILITY = DistanceProfile(kind="oscillate", min_cm=20, max_cm=90, speed_m_per_s=0.1)


@pytest.fixture(scope="module")
def mobility_outcomes(firmware_matrix):
    """The three mobility configurations of the transfer comparison."""
    outcomes = {}
    for label, s_p in (("throttle", None), ("fixed-1", 1), ("fixed-6", 6), ("fixed-16", 16)):
        cfg = ScenarioConfig(s_p=s_p, seed=1, repeats=5, profile=MOBILITY)
        outcomes[label] = run_scenario(cfg, matrix=firmware_matrix)
    return outcomes


def test_a1_blockwrite_throughput_crossover():
    h = 51

    def direct(length, d):
        return (length / (length + h)) * (1.0 - math.erfc(1.0 / d)) ** (length + h)

    near_short = blockwrite_throughput(128, 0.2)
    near_long = blockwrite_throughput(256, 0.2)
    far_short = blockwrite_throughput(128, 0.5)
    far_long = blockwrite_throughput(256, 0.5)
    assert abs(near_short - direct(128, 0.2)) < 1e-6
    assert abs(near_long - direct(256, 0.2)) < 1e-6
    assert abs(far_short - direct(128, 0.5)) < 1e-6
    assert abs(far_long - direct(256, 0.5)) < 1e-6
    assert near_short == pytest.approx(0.7151, abs=1e-4)
    assert near_long == pytest.approx(0.8339, abs=1e-4)
    assert far_short == pytest.approx(0.309, abs=5e-4)
    assert far_long == pytest.approx(0.198, abs=5e-4)
    assert near_short < near_long
    assert far_short > far_long
    report("A1", f"T(128,0.2)={near_short:.4f} < T(256,0.2)={near_long:.4f}; "
                 f"T(128,0.5)={far_short:.4f} > T(256,0.5)={far_long:.4f}")


def test_a2_golden_message_sequence(clean_run):
    matrix = parse_file(":02AADD00BBCCF0\n:00000001FF\n")
    result, tag = clean_run(ScenarioConfig(protocol=Variant.BASIC), matrix)
    sends = [e.epc[:2].hex().upper() for e in result.log.events if e.event == "send"]
    acks = [e.epc[:2].hex().upper() for e in result.log.events if e.event == "ack"]
    assert result.completed
    assert sends == ["FDAA", "FEDD", "00BB", "01CC"]
    assert acks == ["FDAA", "FEDD", "00BB", "01CC"]
    assert tag.fram.read(0xAADD, 2) == bytes([0xBB, 0xCC])
    report("A2", "sequence FDAA FEDD 00BB 01CC echoed and stored at 0xAADD")


def test_a3_ladder_and_throttle_parameters():
    ladder = build_ladder(16, 16)
    assert ladder == (1, 2, 3, 4, 6, 8, 16)
    assert derive_r_max(7, -2) == 3
    assert throttle(4, ladder, 1) == 6  # T_U = 1
    assert throttle(6, ladder, -2) == 3  # T_DE = -2
    assert throttle(1, ladder, -3) == 1  # T_DL = -3
    report("A3", "ladder {1,2,3,4,6,8,16}, R_max(7,-2)=3, index walks 4->6, 6->3, 1->1")


def test_a4_fitted_model_values():
    p1 = model_curves(20, 1)
    assert p1.eta == pytest.approx(0.9310, abs=1e-4)
    assert p1.psi_t == pytest.approx(148.2112, abs=1e-3)
    for d_cm in MODEL_PARAMS:
        etas = [model_curves(d_cm, x).eta for x in range(1, 33)]
        assert all(a > b for a, b in zip(etas, etas[1:]))
    report("A4", "eta(1,20cm)=0.9310, psi_t(1,20cm)=148.2112, eta strictly decreasing")


def test_a5_mobility_comparison(mobility_outcomes):
    throttle_runs = mobility_outcomes["throttle"]
    fixed_1 = mobility_outcomes["fixed-1"]
    fixed_6 = mobility_outcomes["fixed-6"]
    fixed_16 = mobility_outcomes["fixed-16"]

    assert throttle_runs.completed_runs == 5
    assert fixed_1.completed_runs == 5
    assert fixed_6.completed_runs == 0
    assert fixed_16.completed_runs == 0

    t_throttle = sum(r.metrics.t for r in throttle_runs.runs)
    t_fixed_1 = sum(r.metrics.t for r in fixed_1.runs)
    assert t_fixed_1 > t_throttle
    report(
        "A5",
        f"throttle 5/5 ({t_throttle:.0f}s total) vs fixed S_p=1 5/5 "
        f"({t_fixed_1:.0f}s total, slower) vs fixed S_p=6 0/5 and S_p=16 0/5",
    )


def test_a6_calibration(firmware_matrix, clean_run):
    result, _ = clean_run(ScenarioConfig(protocol=Variant.EX, s_p=16), firmware_matrix, seed=5)
    metrics = compute_metrics(result)
    assert result.completed
    assert metrics.v == pytest.approx(3.8, abs=0.4)
    assert metrics.t == pytest.approx(54.5, abs=6.0)
    report("A6", f"clean at 20 cm: v={metrics.v:.2f} msg/s, 5387-byte transfer in {metrics.t:.1f}s")


def test_a7_flood_stays_below_threshold(clean_run):
    rng = random.Random(7)
    payload = bytes(rng.randrange(256) for _ in range(2080))  # 1040 messages at S_p=1
    matrix = parse_file(generate_fixture(payload, record_width=26))

    safe, _ = clean_run(
        ScenarioConfig(protocol=Variant.EX, s_p=1, ocv=15, n_threshold=20), matrix, seed=3
    )
    assert safe.completed
    assert safe.messages_sent >= 1000
    assert safe.log.count("timeout") == 0

    # HostSession reads the config unchecked, so the OCV > n_threshold that
    # validate() rejects still runs here.
    unsafe, _ = clean_run(
        ScenarioConfig(protocol=Variant.EX, s_p=1, ocv=25, n_threshold=20), matrix, seed=3
    )
    assert unsafe.log.count("timeout") > 0
    report("A7", f"OCV=15: 0 timeouts over {safe.messages_sent} messages; "
                 f"OCV=25: {unsafe.log.count('timeout')} timeouts")


def test_a8_power_failure_fuzz(small_matrix, clean_run):
    image = small_matrix.flat_image()
    crc = matrix_crc(small_matrix)
    completed = 0
    for i in range(100):
        brownout = (i % 31) / 100.0  # 0.00 .. 0.30
        cfg = ScenarioConfig(s_p=None, seed=1000 + i, repeats=1,
                             bootloader=True, brownout=brownout)
        outcome = run_scenario(cfg, matrix=small_matrix)
        run = outcome.runs[0]
        if not run.result.completed:
            continue
        completed += 1
        for address, value in image.items():
            assert run.tag.fram.read(address, 1)[0] == value
        assert run.result.reached_application
        assert run.tag.application_crc() == crc

    # The only-if direction: a corrupted image keeps the bootloader out of
    # application mode.
    tag = Tag(start_in_bootloader=True)
    tag.handle_basic_write(b"\xFF\x00")  # enter reprogram mode
    clean_run(ScenarioConfig(protocol=Variant.EX, bootloader=False), small_matrix,
              seed=77, tag=tag)
    first_row = small_matrix.rows[0]
    tag.fram.write(first_row.address, bytes([tag.fram.read(first_row.address, 1)[0] ^ 0xFF]))
    tag.transfer_complete(crc)
    assert tag.mode is not TagMode.APPLICATION
    report("A8", f"{completed}/100 fuzzed runs completed, every image byte-identical; "
                 "mismatched CRC kept the bootloader out of application mode")


def test_a9_determinism(tmp_path, small_matrix):
    from crfid_downlink.ihex import encode

    hex_path = tmp_path / "image.hex"
    hex_path.write_text(encode(small_matrix))
    cfg = ScenarioConfig(hex_file=str(hex_path), s_p=None, seed=42, repeats=2,
                         profile=DistanceProfile(kind="oscillate", min_cm=20,
                                                 max_cm=90, speed_m_per_s=0.1))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, out_dir=out_a)
    run_scenario(cfg, out_dir=out_b)
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name
    report("A9", f"two invocations produced byte-identical CSVs: {', '.join(names)}")


def test_a10_wireless_reprogramming():
    # The case study: the bootloader takes configs/demo.hex while the tag
    # sweeps 20-90 cm, through distance-derived brown-outs and write faults.
    cfg = load_config(REPO / "configs/reprogram.cfg")
    matrix = parse_file((REPO / cfg.hex_file).read_text())
    assert cfg.bootloader and cfg.repeats == 10
    runs = run_scenario(cfg, matrix=matrix).runs
    for run in runs:
        if run.result.completed:
            assert run.result.reached_application
            assert run.tag.mode is TagMode.APPLICATION
            assert run.tag.application_crc() == matrix_crc(matrix)
    times = sorted(r.metrics.t for r in runs if r.result.reached_application)
    assert len(times) >= 9
    report("A10", f"{len(times)}/10 runs reached the application, in {times[0]:.1f}-"
                  f"{times[-1]:.1f}s, median {statistics.median(times):.1f}s")
