"""Span tracing of the simulator's layers, from outside the package.

``instrument`` replaces public callables of the simulator modules with
wrappers that record one span per call: name, parent, start and end.  The
spans stay in compact arrays in memory and are written out once the traced
pass ends.  A span's self time is its duration minus the time its child
spans cover; a layer's self time is the sum over its spans.

Each wrapper costs time of its own.  The part spent inside a span's
interval inflates that span, the part outside inflates its parent.
``calibrate`` measures both on a no-op, and ``span_totals`` moves them out
of the layers into a separate overhead figure.
"""

from __future__ import annotations

import json
import sys
import time
import types
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

NO_PARENT = -1


class SpanLog:
    """In-memory span store: one entry per traced call, in start order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [NO_PARENT]
        # Per span name, the results or argument tuples its wrapper kept, so
        # outcomes are counted after the pass instead of inside it.
        self.kept: dict[str, list] = {}

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, keep: str | None = None):
        """Return ``fn`` recording a span per call.

        ``keep`` is ``"result"`` or ``"args"`` to also append each call's
        return value or argument tuple to ``kept[name]``.
        """
        if keep not in (None, "result", "args"):
            raise ValueError(f"keep must be 'result' or 'args', got {keep!r}")
        nid = self.name_id(name)
        sink = self.kept.setdefault(name, []).append if keep else None
        keep_args = keep == "args"
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if sink is not None:
                sink(args if keep_args else result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def dump(self, prefix: Path) -> None:
        """Write the spans as ``<prefix>.bin`` (the four arrays in order) and ``.json``."""
        prefix.parent.mkdir(parents=True, exist_ok=True)
        columns = ("name", "parent", "start", "end")
        with open(f"{prefix}.bin", "wb") as fh:
            for column in columns:
                getattr(self, column).tofile(fh)
        header = {
            "spans": len(self),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "byteorder": sys.byteorder,
            "clock": "time.perf_counter_ns",
            "names": self.names,
        }
        Path(f"{prefix}.json").write_text(json.dumps(header, indent=1) + "\n")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


# -- instrumentation ----------------------------------------------------------


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def _public_methods(cls) -> list[str]:
    return [
        name for name, value in vars(cls).items()
        if not name.startswith("_") and isinstance(value, types.FunctionType)
    ]


@contextmanager
def instrument(pkg, log: SpanLog):
    """Wrap the simulator's public callables for the duration of the block."""
    patched: list[tuple[object, str, object]] = []

    def patch(owner, attr, keep=None):
        original = vars(owner)[attr]
        patched.append((owner, attr, original))
        setattr(owner, attr, log.wrap(_span_name(original), original, keep))

    patch(pkg.channel.ChannelModel, "deliver_word", keep="result")
    patch(pkg.channel.ChannelModel, "set_distance_cm", keep="args")
    patch(pkg.reader.Reader, "tick", keep="result")
    patch(pkg.reader.Reader, "stage")
    patch(pkg.reader.Reader, "request_delete")
    for method in _public_methods(pkg.tag.Tag):
        keep = "result" if method in ("series_complete", "series_slot_alive") else None
        patch(pkg.tag.Tag, method, keep)
    patch(pkg.tag.FramImage, "write")
    patch(pkg.tag.PowerModel, "step")
    patch(pkg.scenario.DistanceProfile, "at")
    # The protocol functions the host loop calls through its own imports,
    # and the message methods it calls on their results.
    for attr, value in list(vars(pkg.host).items()):
        if isinstance(value, types.FunctionType) and value.__module__ == pkg.protocol.__name__:
            patch(pkg.host, attr)
    patch(pkg.protocol.ExMessage, "expected_epc")
    patch(pkg.protocol.ExMessage, "to_words")
    patch(pkg.protocol.BasicMessage, "expected_epc")
    patch(pkg.ihex, "parse_file", keep="result")
    patch(pkg.scenario, "parse_file", keep="result")
    patch(pkg.scenario, "compute_metrics")
    patch(pkg.scenario, "write_artifacts")
    patch(pkg.scenario, "run_single")
    patch(pkg.scenario, "run_scenario")

    # The host loop receives the scenario's per-round callables (power and
    # distance) as arguments; wrap those so their glue counts as scenario time.
    host_run = vars(pkg.host.HostSession)["run"]

    def run_with_traced_callbacks(self, *args, **kwargs):
        args = tuple(
            log.wrap(_span_name(a), a) if isinstance(a, types.FunctionType) else a
            for a in args
        )
        return host_run(self, *args, **kwargs)

    patched.append((pkg.host.HostSession, "run", host_run))
    pkg.host.HostSession.run = log.wrap(_span_name(host_run), run_with_traced_callbacks)
    try:
        yield log
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# -- analysis -----------------------------------------------------------------


@dataclass(frozen=True)
class WrapperCost:
    """Wrapper time per span in ns: inside its interval, and outside it."""

    inside: float
    outside: float
    outside_kept: float  # outside, for a wrapper that keeps the result

    def scaled(self, factor: float) -> "WrapperCost":
        return WrapperCost(self.inside * factor, self.outside * factor, self.outside_kept * factor)


class _Probe:
    def noop(self, x):
        return x


def calibrate(calls: int = 20000, trials: int = 5) -> WrapperCost:
    """Measure the wrapper's own cost on a one-argument method (best of ``trials``)."""
    clock = time.perf_counter_ns
    probe = _Probe()
    plain = probe.noop
    loop, direct, inside, outside, outside_kept = [], [], [], [], []
    for _ in range(trials):
        t0 = clock()
        for _ in range(calls):
            pass
        loop.append((clock() - t0) / calls)
        t0 = clock()
        for _ in range(calls):
            plain(1)
        direct.append((clock() - t0) / calls)
        for keep, sink in ((None, outside), ("result", outside_kept)):
            log = SpanLog()
            traced = log.wrap("cal.noop", _Probe.noop, keep)
            t0 = clock()
            for _ in range(calls):
                traced(probe, 1)
            total = (clock() - t0) / calls
            recorded = sum(e - s for s, e in zip(log.start, log.end)) / calls
            if keep is None:
                inside.append(recorded)
            sink.append(total - recorded - min(loop))
    call_cost = max(0.0, min(direct) - min(loop))
    return WrapperCost(
        inside=max(0.0, min(inside) - call_cost),
        outside=max(0.0, min(outside)),
        outside_kept=max(0.0, min(outside_kept)),
    )


@dataclass
class SpanTotals:
    """Per-name aggregates of one span log, in seconds."""

    calls: Counter = field(default_factory=Counter)
    total_s: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    overhead_s: float = 0.0


def span_totals(log: SpanLog, cost: WrapperCost) -> SpanTotals:
    """Calls, inclusive time and overhead-corrected self time per span name.

    Children start after their parent, so one pass from the last span to the
    first sees every span's children before the span itself.
    """
    n = len(log)
    names, parents, starts, ends = log.name, log.parent, log.start, log.end
    outside = [cost.outside_kept if name in log.kept else cost.outside
               for name in log.names]
    inside = cost.inside
    child = array("d", bytes(8 * n))
    calls = [0] * len(log.names)
    total = [0.0] * len(log.names)
    selfs = [0.0] * len(log.names)
    overhead = 0.0
    for i in range(n - 1, -1, -1):
        nid = names[i]
        dur = ends[i] - starts[i]
        calls[nid] += 1
        total[nid] += dur
        selfs[nid] += dur - child[i] - inside
        overhead += inside
        p = parents[i]
        if p != NO_PARENT:
            child[p] += dur + outside[nid]
            overhead += outside[nid]
    out = SpanTotals(overhead_s=overhead / 1e9)
    for nid, name in enumerate(log.names):
        out.calls[name] = calls[nid]
        out.total_s[name] = total[nid] / 1e9
        out.self_s[name] = selfs[nid] / 1e9
    return out
