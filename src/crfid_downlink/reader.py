"""Reader emulation: AccessSpec lifecycle, per-round command issuance, reports.

One simulation tick is one inventory round.  The reader executes the
active AccessSpec's command once per round and emits a report whose EPC
field is whatever the tag backscattered at the start of the round, i.e.
the echo of the previously handled message.  Multi-word BlockWrites go
out as a series of single-word sub-commands at sequential addresses, and
the round only counts as successful if the tag replied to every one.

Deleting an active spec is lazy: the reader finishes the operation frame
first (the stop trigger at OCV successful operations usually ends it), so
the tail of the old frame floods the next message frame with stale
reports.  A grace bound keeps blocked frames from running forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .channel import SERIES_SLOTS, ChannelModel, Delivery
from .protocol import EPC_LENGTH
from .tag import Tag

MAX_WORD_COUNT = SERIES_SLOTS  # reader hardware ceiling, which the channel's odds cover

NO_TAG_EPC = bytes(EPC_LENGTH)

ROUNDS_PER_SEC = 60  # inventory rounds per simulated second
LLRP_LATENCY_TICKS = 3  # delete+add+enable pipeline before first start
SWITCH_TICKS = 2  # gap between spec removal and successor's first round
DELETE_GRACE = 30  # hard bound on delete-pending operation frames
FRAME_SLACK_ROUNDS = 2  # rounds past OCV before the reader drops the frame


class ReportResult(Enum):
    SUCCESS = "success"
    ERROR = "error"
    NO_TAG_SEEN = "no-tag-seen"
    INVENTORY = "inventory"  # idle round, no access operation attached


# The members a round tests, as module names: an enum-class lookup costs each round.
_SUCCESS, _ERROR, _NO_TAG_SEEN, _INVENTORY = ReportResult
_LOST, _CORRUPTED = Delivery.LOST, Delivery.CORRUPTED


@dataclass(slots=True)
class OperationReport:
    """One round's report.  Never mutated once returned: ``Reader.tick``
    returns the same object again for an access round that repeats it."""

    spec_id: int
    result: ReportResult
    epc: bytes


@dataclass
class AccessSpec:
    """A Write (single word, CRC-protected) or BlockWrite (word series).

    ``raw`` is the wire image: the words as big-endian bytes, as the tag
    receives them.  One word makes the command a Write, more a BlockWrite.
    """

    spec_id: int
    raw: bytes
    ocv: int

    def __post_init__(self):
        if not isinstance(self.raw, bytes):
            raise TypeError(f"raw must be bytes, not {type(self.raw).__name__}")
        size = len(self.raw)
        if size & 1:
            raise ValueError(f"raw has an odd byte count, {size}: not a whole number of words")
        if not 1 <= size >> 1 <= MAX_WORD_COUNT:
            raise ValueError(f"word count {size >> 1} outside 1..{MAX_WORD_COUNT}")


@dataclass(slots=True)
class _RunningSpec:
    spec: AccessSpec
    success_count: int = 0
    total_rounds: int = 0
    delete_requested_at: int | None = None


class Reader:
    """Single-spec reader driven one round per tick.

    A spec is staged, becomes active once the LLRP pipeline (and the gap
    after its predecessor's removal) has passed, and is removed at its stop
    trigger or at the delete grace bound.
    """

    def __init__(self) -> None:
        self.active: _RunningSpec | None = None
        self.staged: tuple[AccessSpec, int] | None = None  # (spec, earliest start tick)
        self._removal_tick: int | None = None
        # The last access-round report; the first, with an empty EPC, matches no round.
        self._last = OperationReport(-1, _INVENTORY, b"")

    def stage(self, spec: AccessSpec, now: int) -> None:
        """Queue the delete-add-enable train for ``spec``.

        A later stage before activation replaces the pending spec, the way
        a host rebuilds its command train on resend.
        """
        self.staged = (spec, now + LLRP_LATENCY_TICKS)

    def request_delete(self, now: int) -> None:
        if self.active is not None and self.active.delete_requested_at is None:
            self.active.delete_requested_at = now

    def tick(self, now: int, tag: Tag, channel: ChannelModel) -> OperationReport | None:
        """Advance one inventory round; returns the round's report, if any.

        An access round whose spec id, result and EPC equal the last access
        round's returns that round's report object again.
        """
        run = self.active
        if run is None and self.staged is not None:
            spec, ready = self.staged
            if self._removal_tick is not None:
                ready = max(ready, self._removal_tick + SWITCH_TICKS)
            if now >= ready:  # past the LLRP pipeline and the switch gap
                run = self.active = _RunningSpec(spec)
                self.staged = None
        if run is None:
            # With no access spec the reader still inventories; a visible tag
            # yields a bare EPC report, an invisible one yields nothing.
            if not tag.powered or channel.rng.random() < channel.miss:
                return None
            return OperationReport(0, _INVENTORY, tag.epc)
        run.total_rounds += 1
        spec = run.spec
        raw = spec.raw
        result, epc = _NO_TAG_SEEN, NO_TAG_EPC  # unpowered, or nothing decoded
        if tag.powered and len(raw) == 2:
            # Per-command CRC16 catches a corrupted word; the tag stays silent.
            outcome = channel.deliver_word()
            if outcome is not _LOST:
                epc = tag.epc  # the echo the tag backscatters at the round's start
                if outcome is _CORRUPTED:
                    result = _ERROR
                else:
                    tag.handle_basic_write(raw)
                    run.success_count += 1
                    result = _SUCCESS
        elif tag.powered:
            # BlockWrite: no per-word CRC16, so a corrupted word is written and
            # replied to; only a lost word (missed preamble, drained slot) ends it.
            n = len(raw) >> 1
            replied, corrupted = channel.deliver_series(n)
            if replied:
                epc = tag.epc
                if replied < n:
                    result = _ERROR
                else:
                    tag.series_complete(raw, corrupted)
                    run.success_count += 1
                    result = _SUCCESS
        # The operation frame ends at OCV successful operations; a slightly
        # larger bound on total rounds keeps frames from dragging on when
        # operations keep failing mid-series, and a pending delete ends it
        # at the grace bound.
        ocv = spec.ocv
        if (run.success_count >= ocv or run.total_rounds >= ocv + FRAME_SLACK_ROUNDS
                or (run.delete_requested_at is not None
                    and now - run.delete_requested_at >= DELETE_GRACE)):
            self.active = None
            self._removal_tick = now
        last = self._last
        if last.epc == epc and last.result is result and last.spec_id == spec.spec_id:
            return last
        self._last = last = OperationReport(spec.spec_id, result, epc)
        return last
