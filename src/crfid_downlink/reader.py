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
Those stale rounds, Writes or series, change nothing on the tag, so while its
distance holds still, ``Reader.repeat`` runs a string of them in one call.
"""

from __future__ import annotations

from enum import Enum

from .channel import SERIES_SLOTS, ChannelModel, Delivery
from .protocol import EPC_LENGTH
from .tag import PowerModel, Tag

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


class OperationReport:
    """One round's report.  Never mutated once returned: ``Reader.tick``
    returns the same object again for an access round that repeats it."""

    __slots__ = ("spec_id", "result", "epc")

    def __init__(self, spec_id: int, result: ReportResult, epc: bytes):
        self.spec_id, self.result, self.epc = spec_id, result, epc

    def __eq__(self, other):  # by the fields
        return type(other) is type(self) and (self.spec_id, self.result, self.epc) == (
            other.spec_id, other.result, other.epc)


class AccessSpec:
    """A Write (single word, CRC-protected) or BlockWrite (word series).

    ``raw`` is the wire image: the words as big-endian bytes, as the tag
    receives them.  One word makes the command a Write, more a BlockWrite.
    """

    __slots__ = ("spec_id", "raw", "ocv")

    def __init__(self, spec_id: int, raw: bytes, ocv: int):
        if not isinstance(raw, bytes):
            raise TypeError(f"raw must be bytes, not {type(raw).__name__}")
        size = len(raw)
        if size & 1:
            raise ValueError(f"raw has an odd byte count, {size}: not a whole number of words")
        if not 1 <= size >> 1 <= MAX_WORD_COUNT:
            raise ValueError(f"word count {size >> 1} outside 1..{MAX_WORD_COUNT}")
        self.spec_id, self.raw, self.ocv = spec_id, raw, ocv


class _Drawn:
    """A channel whose one command takes an outcome ``ChannelModel.deliver_repeats`` drew."""

    __slots__ = ("outcome",)

    def __init__(self, outcome):
        self.outcome = outcome

    def deliver_word(self, *_):
        return self.outcome

    deliver_series = deliver_word


class _RunningSpec:
    """An active spec's operation frame, started in round ``now``.

    The frame ends once ``successes_left`` reaches 0 (the stop trigger at
    OCV successful operations) or in round ``last_round``: OCV plus
    ``FRAME_SLACK_ROUNDS`` rounds after its start, a bound that keeps frames
    from dragging on when operations keep failing mid-series, lowered to
    ``DELETE_GRACE`` rounds after the first delete request.  Counting rounds
    by the round number is exact because the reader is ticked or batched in
    every round while a spec is active, which the host does.
    """

    __slots__ = ("spec", "successes_left", "last_round")

    def __init__(self, spec: AccessSpec, now: int):
        self.spec, self.successes_left = spec, spec.ocv
        self.last_round = now + spec.ocv + FRAME_SLACK_ROUNDS - 1


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
        # ``now`` never falls, so the first request sets the bound.
        if self.active is not None:
            self.active.last_round = min(self.active.last_round, now + DELETE_GRACE)

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
                run = self.active = _RunningSpec(spec, now)
                self.staged = None
        if run is None:
            # With no access spec the reader still inventories; a visible tag
            # yields a bare EPC report, an invisible one yields nothing.
            if not tag.powered or channel.rng.random() < channel.miss:
                return None
            return OperationReport(0, _INVENTORY, tag.epc)
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
                    run.successes_left -= 1
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
                    run.successes_left -= 1
                    result = _SUCCESS
        if run.successes_left <= 0 or now >= run.last_round:  # the frame ends
            self.active = None
            self._removal_tick = now
        last = self._last
        if last.epc == epc and last.result is result and last.spec_id == spec.spec_id:
            return last
        self._last = last = OperationReport(spec.spec_id, result, epc)
        return last

    def repeat(self, now: int, cap: int, tag: Tag, channel: ChannelModel, power: PowerModel,
               brownout: float) -> tuple[int, OperationReport | None]:
        """Run the rounds from ``now`` on that repeat the last report, at most ``cap``.

        Only a success of the active spec that a powered tag takes as a stale
        repeat (``Tag.echoes``) repeats.  The channel samples the rounds in one
        call, each after its step of ``power`` at ``brownout``, never past the
        round whose frame-end test holds.  A round with a full reply, Write or
        series, only takes one of the frame's successes left, as ``tick`` would;
        a last round lost, corrupted or cut short runs through ``tick``.
        Returns the rounds run and the last one's report, or ``(0, None)``.
        """
        run, last = self.active, self._last
        if (run is None or last.result is not _SUCCESS or not tag.powered
                or last.spec_id != run.spec.spec_id or last.epc != tag.epc
                or not tag.echoes(run.spec.raw)):
            return 0, None
        # ``tick``'s frame-end test first holds in the round that takes the last success
        # left or reaches the frame's last round: ``rounds`` from now at the latest.
        rounds = min(cap, run.successes_left, run.last_round - now + 1)
        if rounds < 1:
            return 0, None
        k, outcome = channel.deliver_repeats(rounds, len(run.spec.raw) >> 1, power, brownout)
        now += k - 1  # the last round run
        if outcome is not None:
            run.successes_left -= k - 1
            return k, self.tick(now, tag, _Drawn(outcome))
        run.successes_left -= k
        if run.successes_left <= 0 or now >= run.last_round:  # ``tick``'s frame end
            self.active = None
            self._removal_tick = now
        return k, last
