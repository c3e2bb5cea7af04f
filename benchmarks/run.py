"""Transfer benchmark for the simulator: one seeded workload per invocation.

    python3 benchmarks/run.py --workload static_sp16 --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the workload runs untraced, pass after pass, for about
``--seconds`` seconds and the end-to-end metrics are reported: medians over
the passes, and over cold set-ups made in fresh interpreters.  With
``--trace 1`` half the time goes to untraced passes, then one pass runs with
every layer's public callables wrapped and the per-layer metrics are
reported.  Every transfer is checked against the generated image.  The last
line of standard output is one JSON object; README.md defines the metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import harness
import speed
import tracing

OUT_ROOT = harness.ROOT / ".bench_out"
SETUP_SAMPLES = 15

END_TO_END = {
    "wall_s": "s",
    "rounds_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Layers whose self time the traced pass splits the wall time into.
LAYERS = ("host", "reader", "tag", "channel", "protocol", "scenario", "metrics")

PER_LAYER = {
    "ihex.parse_s": "s",
    "ihex.records": "count",
    "protocol.s": "s",
    "protocol.calls": "count",
    "protocol.share": "ratio",
    "channel.s": "s",
    "channel.words": "count",
    "channel.lost_ratio": "ratio",
    "channel.corrupted_ratio": "ratio",
    "channel.distance_changes": "count",
    "channel.share": "ratio",
    "reader.self_s": "s",
    "reader.ticks": "count",
    "reader.specs_staged": "count",
    "reader.op_success_ratio": "ratio",
    "reader.share": "ratio",
    "tag.self_s": "s",
    "tag.power_s": "s",
    "tag.series_words": "count",
    "tag.series_accept_ratio": "ratio",
    "tag.slot_drain_ratio": "ratio",
    "tag.fram_writes": "count",
    "tag.fram_writes_per_ack": "ratio",
    "tag.share": "ratio",
    "host.self_s": "s",
    "host.messages": "count",
    "host.resend_ratio": "ratio",
    "host.ack_ratio": "ratio",
    "host.log_events": "count",
    "host.share": "ratio",
    "scenario.self_s": "s",
    "scenario.profile_s": "s",
    "scenario.write_s": "s",
    "scenario.csv_bytes": "B",
    "scenario.share": "ratio",
    "metrics.s": "s",
    "sim.rounds": "count",
    "sim.t_s": "s",
    "sim.theta_Bps": "B/s",
    "sim.messages": "count",
    "trace.wall_s": "s",
    "trace.remainder_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def setup_times(workload: str, seed: int, work_dir: Path,
                image_bytes: int) -> list[tuple[float, float]]:
    """Cold set-up times (corrected, raw), each measured in a fresh interpreter."""
    probe = harness.BENCH_DIR / "setup_probe.py"
    argv = [sys.executable, str(probe), workload, str(seed), str(work_dir), str(image_bytes)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=30, check=True)
        corrected, raw = done.stdout.split()[-2:]
        samples.append((float(corrected), float(raw)))
    return samples


def measure(prep: harness.Prepared, seconds: float, out_dir: Path,
            sampler: speed.SpeedSampler) -> list[harness.Pass]:
    """Untraced passes until the next one would end past ``seconds`` (at least one)."""
    passes: list[harness.Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(harness.run_pass(prep, out_dir, sampler))
        typical = statistics.median(p.wall_s for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


def supported_percentile(samples: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it, if any."""
    return int(100 * (1 - 10 / samples)) if samples > 10 else None


def end_to_end_metrics(passes: list[harness.Pass],
                       setups: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    walls = sorted(p.corrected_s for p in passes)
    values = {
        "wall_s": statistics.median(walls),
        "rounds_per_s": statistics.median(p.rounds_per_s for p in passes),
        "setup_s": statistics.median(corrected for corrected, _ in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    pct = supported_percentile(len(walls))
    tail = (f"p{pct} {statistics.quantiles(walls, n=100)[pct - 1]:.4f} s" if pct
            else "no percentile above p0 has ten samples beyond it")
    raw_wall = statistics.median(p.wall_s for p in passes)
    raw_setup = statistics.median(raw for _, raw in setups)
    lines = [
        f"wall_s        {values['wall_s']:.4f} s      median of {len(walls)} passes; {tail}",
        f"rounds_per_s  {values['rounds_per_s']:.1f} 1/s   median of {len(passes)} passes, "
        "simulated rounds per host second before the CSV write",
        f"setup_s       {values['setup_s']:.4f} s      median of {len(setups)} cold set-ups",
        f"peak_rss_mb   {values['peak_rss_mb']:.1f} MB     peak resident memory of this process",
        f"(uncorrected wall times: pass median {raw_wall:.4f} s, set-up median {raw_setup:.4f} s; "
        f"machine speed {statistics.median(p.speed for p in passes):.3f} of the reference)",
    ]
    return values, lines


def layer_metrics(prep: harness.Prepared, setup_log: tracing.SpanLog,
                  transfer_log: tracing.SpanLog, traced: harness.Pass,
                  untraced: list[harness.Pass], sampler: speed.SpeedSampler) -> tuple[dict, list[str]]:
    mark = sampler.mark()
    cost = tracing.calibrate()
    # Express the wrapper cost at the machine speed of the traced pass.
    cost = cost.scaled(sampler.factor(mark) / traced.speed)
    setup = tracing.span_totals(setup_log, cost)
    spans = tracing.span_totals(transfer_log, cost)
    kept = transfer_log.kept
    delivery = prep.pkg.channel.Delivery
    calls, total, self_s = spans.calls, spans.total_s, spans.self_s

    layer_self: Counter = Counter()
    layer_calls: Counter = Counter()
    for name in transfer_log.names:
        layer_self[tracing.layer_of(name)] += self_s[name]
        layer_calls[tracing.layer_of(name)] += calls[name]
    wall = total["scenario.run_scenario"]

    runs = traced.outcome.runs
    acks = sum(r.result.log.count("ack") for r in runs)
    messages = sum(r.result.messages_sent for r in runs)
    reports = Counter(r.result.value for r in kept["reader.Reader.tick"] if r is not None)
    operations = reports["success"] + reports["error"] + reports["no-tag-seen"]
    outcomes = Counter(kept["channel.ChannelModel.deliver_word"])
    words = calls["channel.ChannelModel.deliver_word"]
    fram_writes = calls["tag.FramImage.write"]
    slots = Counter(kept["tag.Tag.series_slot_alive"])
    series = Counter(kept["tag.Tag.series_complete"])
    parsed = setup_log.kept["ihex.parse_file"]
    # A distance change is a call whose argument differs from the previous
    # call's on the same channel; each channel's first call counts as one.
    last_cm: dict[int, float] = {}
    changes = 0
    for channel, cm in kept["channel.ChannelModel.set_distance_cm"]:
        changes += last_cm.get(id(channel)) != cm
        last_cm[id(channel)] = cm

    values = {
        "ihex.parse_s": _ratio(setup.total_s["ihex.parse_file"], len(parsed)),
        "ihex.records": _ratio(sum(len(m) for m in parsed), len(parsed)),
        "protocol.s": layer_self["protocol"],
        "protocol.calls": layer_calls["protocol"],
        "channel.s": layer_self["channel"],
        "channel.words": words,
        "channel.lost_ratio": _ratio(outcomes[delivery.LOST], words),
        "channel.corrupted_ratio": _ratio(outcomes[delivery.CORRUPTED], words),
        "channel.distance_changes": changes,
        "reader.self_s": layer_self["reader"],
        "reader.ticks": calls["reader.Reader.tick"],
        "reader.specs_staged": calls["reader.Reader.stage"],
        "reader.op_success_ratio": _ratio(reports["success"], operations),
        "tag.self_s": layer_self["tag"],
        "tag.power_s": self_s["tag.PowerModel.step"],
        "tag.series_words": calls["tag.Tag.series_word"],
        "tag.series_accept_ratio": _ratio(series[True], series.total()),
        "tag.slot_drain_ratio": _ratio(slots[False], slots.total()),
        "tag.fram_writes": fram_writes,
        "tag.fram_writes_per_ack": _ratio(fram_writes, acks),
        "host.self_s": layer_self["host"],
        "host.messages": messages,
        "host.resend_ratio": _ratio(sum(r.result.resends for r in runs), messages),
        "host.ack_ratio": _ratio(acks, reports.total()),
        "host.log_events": sum(len(r.result.log.events) for r in runs),
        "scenario.self_s": layer_self["scenario"],
        "scenario.profile_s": total["scenario.DistanceProfile.at"],
        "scenario.write_s": total["scenario.write_artifacts"],
        "scenario.csv_bytes": traced.csv_bytes,
        "metrics.s": layer_self["metrics"],
        **traced.sim,
        "trace.wall_s": wall,
        "trace.remainder_s": wall - sum(layer_self[layer] for layer in LAYERS),
        "trace.overhead_ratio": traced.corrected_s / statistics.median(p.corrected_s for p in untraced),
        "trace.spans": len(transfer_log),
    }
    for layer in LAYERS:
        if f"{layer}.share" in PER_LAYER:
            values[f"{layer}.share"] = layer_self[layer] / wall
    lines = [f"traced pass {wall:.3f} s ({values['trace.overhead_ratio']:.2f}x untraced), "
             f"{len(transfer_log)} spans, wrapper cost {cost.inside:.0f}+{cost.outside:.0f} ns/span"]
    for layer in LAYERS:
        lines.append(f"  {layer:<9} self {layer_self[layer]:8.4f} s  {layer_self[layer] / wall:6.1%}"
                     f"  {layer_calls[layer]:>9} calls")
    lines.append(f"  {'remainder':<9} self {values['trace.remainder_s']:8.4f} s  "
                 f"{values['trace.remainder_s'] / wall:6.1%}  (wrapper overhead and untraced glue)")
    return values, lines


def run(workload: str, seed: int, seconds: float, trace: bool,
        image_bytes: int = harness.FIRMWARE_BYTES, out_root: Path = OUT_ROOT) -> tuple[dict, list[str]]:
    """Run one benchmark invocation; returns the result object and report lines."""
    work = out_root / workload
    setups = [] if trace else setup_times(workload, seed, work / "setup", image_bytes)
    prep = harness.prepare(workload, seed, work / "input", image_bytes)
    lines = [f"workload {workload}  seed {seed}  image {len(prep.payload)} B in "
             f"{len(prep.matrix)} records  repeats {prep.config.repeats}  trace {int(trace)}"]
    with speed.SpeedSampler() as sampler:
        passes = measure(prep, seconds / 2 if trace else seconds, work / "csv", sampler)
        if trace:
            setup_log, transfer_log = tracing.SpanLog(), tracing.SpanLog()
            with tracing.instrument(prep.pkg, setup_log):
                for _ in range(5):
                    harness.prepare(workload, seed, work / "setup", image_bytes)
            with tracing.instrument(prep.pkg, transfer_log):
                traced = harness.run_pass(prep, work / "csv", sampler, keep_outcome=True)
            values, report = layer_metrics(prep, setup_log, transfer_log, traced, passes, sampler)
            passes.append(traced)
        else:
            values, report = end_to_end_metrics(passes, setups)
    if trace:
        setup_log.dump(work / "spans_setup")
        transfer_log.dump(work / "spans_transfer")
    units = PER_LAYER if trace else END_TO_END
    lines += report
    reference = passes[0]

    # Every pass replays the same seeded transfers, so an invocation attempts
    # the transfers of one pass however many passes fit in its time, and
    # every other pass must reproduce that pass's CSVs, statistics and
    # failures.
    attempted = reference.attempted
    failures = reference.failures
    identical = all(p.digest == reference.digest and p.sim == reference.sim
                    and p.failures == failures for p in passes)
    correct = identical and reference.csv_bytes > 0 and attempted == prep.config.repeats
    lines.append(f"fail_ratio    {_ratio(len(failures), attempted):.4f}        "
                 f"{len(failures)} of {attempted} transfers failed the check")
    for reason, n in Counter(failures).most_common(3):
        lines.append(f"  {n} x {reason}")
    lines.append(f"csv_sha256    {reference.digest}  "
                 f"(CSVs, statistics and failures {'identical' if identical else 'DIFFERENT'} "
                 f"over {len(passes)} passes)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 reproduces the test suite's firmware fixture")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.import_package()
    except harness.MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
