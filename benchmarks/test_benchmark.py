"""Tests of the benchmark itself: the transfer check, the metric names, the tracer.

Run with ``python -m pytest benchmarks``.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import harness
import run
import tracing

TINY_IMAGE = 3 * harness.RECORD_WIDTH
BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def _outcome(workload, tmp_path, **overrides):
    prep = harness.prepare(workload, 0, tmp_path / "input", TINY_IMAGE)
    for key, value in overrides.items():
        setattr(prep.config, key, value)
    outcome = prep.pkg.scenario.run_scenario(prep.config, matrix=prep.matrix)
    return prep, outcome


def test_check_flags_a_corrupted_byte_in_tag_memory(tmp_path):
    prep, outcome = _outcome("static_sp16", tmp_path)
    first = outcome.runs[0]
    assert harness.transfer_failure(first, prep.payload, bootloader=False) == ""

    address = harness.IMAGE_BASE + 40
    first.tag.fram.write(address, bytes([first.tag.fram.read(address)[0] ^ 0x01]))
    reason = harness.transfer_failure(first, prep.payload, bootloader=False)
    assert reason == f"1 image bytes differ in tag memory, first at {address:#06x}"


def test_check_flags_a_bootloader_run_that_never_reached_the_application(tmp_path):
    prep, outcome = _outcome("basic_write", tmp_path, write_fault_prob=0.0)
    run_ = outcome.runs[0]
    assert run_.result.reached_application
    assert harness.transfer_failure(run_, prep.payload, bootloader=True) == ""

    stuck = dataclasses.replace(
        run_, result=dataclasses.replace(run_.result, reached_application=False)
    )
    assert harness.transfer_failure(stuck, prep.payload, bootloader=True) == (
        "bootloader never reached the application"
    )
    assert harness.transfer_failure(stuck, prep.payload, bootloader=False) == ""


def test_check_flags_an_incomplete_transfer(tmp_path):
    prep, outcome = _outcome("static_sp16", tmp_path)
    run_ = outcome.runs[0]
    aborted = dataclasses.replace(
        run_, result=dataclasses.replace(run_.result, completed=False,
                                         failure_reason="resend budget exhausted")
    )
    assert harness.transfer_failure(aborted, prep.payload, bootloader=False) == (
        "not completed (resend budget exhausted)"
    )


def test_seed_zero_reproduces_the_test_fixture():
    import random

    rng = random.Random(99)
    assert harness.image_payload(0) == bytes(rng.randrange(256) for _ in range(5387))
    assert harness.FIXTURE_MASTER_SEED == 1


@pytest.mark.parametrize("workload", harness.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_image_run_reports_the_declared_metrics(workload, trace, tmp_path):
    result, lines = run.run(workload, seed=0, seconds=0.01, trace=trace,
                            image_bytes=TINY_IMAGE, out_root=tmp_path)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert json.loads(json.dumps(result)) == result
    assert any(line.startswith("fail_ratio") for line in lines)

    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        layer_self = ("protocol.s", "channel.s", "reader.self_s", "tag.self_s",
                      "host.self_s", "scenario.self_s", "metrics.s")
        assert sum(metrics[k] for k in layer_self) + metrics["trace.remainder_s"] == (
            pytest.approx(metrics["trace.wall_s"], rel=1e-9)
        )
        assert metrics["reader.ticks"] > 0
        assert metrics["ihex.records"] == 3
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_transfer_counts_do_not_depend_on_the_number_of_passes(tmp_path):
    short, _ = run.run("basic_write", seed=0, seconds=0.01, trace=False,
                       image_bytes=TINY_IMAGE, out_root=tmp_path)
    long, lines = run.run("basic_write", seed=0, seconds=1.0, trace=False,
                          image_bytes=TINY_IMAGE, out_root=tmp_path)
    assert "over 1 passes" not in lines[-1]
    assert (long["attempted"], long["failed"]) == (short["attempted"], short["failed"])
    assert long["attempted"] == 1


def test_benchmark_json_lists_the_reported_metrics():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    assert all((harness.WORKLOAD_DIR / f"{w}.cfg").is_file() for w in harness.WORKLOADS)


def test_fails_without_a_result_when_the_simulator_is_missing(tmp_path):
    shutil.copytree(harness.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"], "--workload", "static_sp16",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_self_times_subtract_child_spans():
    log = tracing.SpanLog()

    def inner(x):
        return x + 1

    traced_inner = log.wrap("b.inner", inner, keep="result")

    def outer(x):
        return traced_inner(x) + traced_inner(x)

    traced_outer = log.wrap("a.outer", outer, keep="args")
    assert traced_outer(1) == 4
    assert list(log.parent) == [tracing.NO_PARENT, 0, 0]
    assert log.kept == {"b.inner": [2, 2], "a.outer": [(1,)]}

    totals = tracing.span_totals(log, tracing.WrapperCost(0.0, 0.0, 0.0))
    assert totals.calls == {"a.outer": 1, "b.inner": 2}
    assert totals.self_s["a.outer"] + totals.self_s["b.inner"] == pytest.approx(
        totals.total_s["a.outer"], abs=1e-12
    )
    assert totals.self_s["b.inner"] == pytest.approx(totals.total_s["b.inner"], abs=1e-12)


def test_instrument_restores_every_callable(tmp_path):
    pkg = harness.import_package()
    owners = [pkg.channel.ChannelModel, pkg.reader.Reader, pkg.tag.Tag, pkg.host.HostSession,
              pkg.host, pkg.scenario, pkg.ihex]
    before = [dict(vars(owner)) for owner in owners]
    with tracing.instrument(pkg, tracing.SpanLog()):
        assert vars(pkg.scenario)["run_scenario"] is not before[5]["run_scenario"]
    assert [dict(vars(owner)) for owner in owners] == before
