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
Those stale rounds, Writes or series, change nothing on the tag: ``tick`` hands
a full reply the tag's EPC still echoes (``Tag.echoes``) to no handler, and
while the tag's distance holds still, ``Reader.repeat`` runs a string of them,
lost and corrupted rounds included, in one call.

The reader also holds the tag's world: after each round within the budget it
places the tag at the profile's distance (``Reader._placement``) and powers it
by the configured brown-out probability, or for ``auto`` by that distance's.
A tag that moves in a cycle is placed through the profile in its first cycle
only; ``tick`` then puts back each round's placement from the cycle's table.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Sequence
from enum import Enum
from typing import TYPE_CHECKING

from .channel import ODDS_MEMO_SIZE, SERIES_OUTCOMES, SERIES_SLOTS, ChannelModel, Delivery
from .protocol import EPC_LENGTH
from .tag import PowerModel, Tag

if TYPE_CHECKING:  # scenario imports this module
    from .scenario import DistanceProfile

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

    __slots__ = ("spec_id", "raw", "ocv", "words")

    def __init__(self, spec_id: int, raw: bytes, ocv: int):
        if not isinstance(raw, bytes):
            raise TypeError(f"raw must be bytes, not {type(raw).__name__}")
        size = len(raw)
        if size & 1:
            raise ValueError(f"raw has an odd byte count, {size}: not a whole number of words")
        if not 1 <= (words := size >> 1) <= MAX_WORD_COUNT:
            raise ValueError(f"word count {words} outside 1..{MAX_WORD_COUNT}")
        self.spec_id, self.raw, self.ocv, self.words = spec_id, raw, ocv, words


class _RunningSpec:
    """An active spec's operation frame, started in round ``now``.

    The frame ends once ``successes_left`` reaches 0 (the stop trigger at OCV
    successful operations) or in round ``last_round``: OCV plus ``FRAME_SLACK_ROUNDS``
    rounds after its start, a bound that keeps frames from dragging on when operations
    keep failing mid-series, lowered to ``DELETE_GRACE`` rounds after the first delete
    request.  Counting rounds by the round number is exact because the host ticks or
    batches the reader in every round while a spec is active.
    """

    __slots__ = ("spec", "successes_left", "last_round")

    def __init__(self, spec: AccessSpec, now: int):
        self.spec, self.successes_left = spec, spec.ocv
        self.last_round = now + spec.ocv + FRAME_SLACK_ROUNDS - 1


class Reader:
    """Single-spec reader driven one round per tick, over one tag in its world.

    A spec is staged, becomes active once the LLRP pipeline (and the gap after its
    predecessor's removal) has passed, and is removed at its stop trigger or at the
    delete grace bound.  Built, the reader has entered round 1: it has placed the tag
    (a static one once, for good) and powered it; no tick runs round 0.  ``brownout``
    None is ``auto``; ``max_rounds`` ends the budget.
    """

    def __init__(self, tag: Tag, channel: ChannelModel, power: PowerModel,
                 profile: DistanceProfile, brownout: float | None, max_rounds: int) -> None:
        self.tag, self.channel, self.power = tag, channel, power
        self.brownout, self.max_rounds = brownout, max_rounds
        self.active: _RunningSpec | None = None
        self.staged: tuple[AccessSpec, int] | None = None  # (spec, earliest start tick)
        self._removal_tick: int | None = None
        # The last access-round report; the first, with an empty EPC, matches no round.
        self._last = OperationReport(-1, _INVENTORY, b"")
        self._cycle: list | None = None  # a moving tag's placements by cycle position
        self._period = 0  # the cycle's length, with ``_cycle``
        self.place_round = self._placement(channel, profile, max_rounds)  # None: the tag stays
        self._powered = True  # the tag's power as the reader last set it
        tag.set_powered(True)
        self._enter(1)

    def _placement(self, channel: ChannelModel, profile: DistanceProfile,
                   max_rounds: int) -> Callable[[int], None] | None:
        """Returns what places the tag in round k >= 1, or None for a tag that stays.

        A profile with one distance is placed here, once: None.  A profile that repeats
        every ``period`` rounds goes through ``at`` and ``set_distance_cm`` in its first
        cycle only, filling ``_cycle``, the placements by cycle position, from which
        ``tick`` puts back every later round's.  A cycle longer than the round budget, or
        than the odds memo (the table would keep its distances alive), is placed every
        round.
        """
        at, place, period = profile.at, channel.set_distance_cm, profile.period
        if period == 1:
            place(at(0))
            return None
        if not period or period > min(max_rounds, ODDS_MEMO_SIZE):
            return lambda now: place(at(now))
        placed: list = [None] * period  # by cycle position, filled in the first cycle
        snapshot = channel.placement
        self._cycle, self._period = placed, period

        def place_round(now: int) -> None:
            place(at(now))
            placed[now % period] = snapshot()

        return place_round

    def _enter(self, now: int) -> None:
        """Place the tag and step its power for round ``now``, unless it is past the budget."""
        if now <= self.max_rounds:
            if self.place_round is not None:
                self.place_round(now)
            p = self.channel.brownout if self.brownout is None else self.brownout
            if (on := self.power.step(p)) is not self._powered:  # a flip changes the tag
                self._powered = on
                self.tag.set_powered(on)

    def stage(self, spec: AccessSpec, now: int) -> None:
        """Queue the delete-add-enable train for ``spec``.  A later stage before activation
        replaces the pending spec, the way a host rebuilds its command train on resend."""
        self.staged = (spec, now + LLRP_LATENCY_TICKS)

    def request_delete(self, now: int) -> None:
        # ``now`` never falls, so the first request sets the bound.
        if self.active is not None:
            self.active.last_round = min(self.active.last_round, now + DELETE_GRACE)

    def tick(self, now: int) -> OperationReport | None:
        """Run inventory round ``now``, then ``_enter`` the next; returns the round's report.

        An access round whose spec id, result and EPC equal the last access
        round's returns that round's report object again.  Past a cycle's first
        placements the next round's comes from ``_cycle``, and a full reply the tag
        takes as a stale repeat (``Tag.echoes``) reaches no handler: such a round of a
        series calls nothing but the power step.
        """
        tag, channel = self.tag, self.channel
        run = self.active
        if run is None and self.staged is not None:
            spec, ready = self.staged
            if self._removal_tick is not None:
                ready = max(ready, self._removal_tick + SWITCH_TICKS)
            if now >= ready:  # past the LLRP pipeline and the switch gap
                run = self.active = _RunningSpec(spec, now)
                self.staged = None
        if run is None:
            # With no access spec the reader still inventories: a visible tag's bare EPC.
            report = None
            if tag.powered and not channel.rng.random() < channel.miss:
                report = OperationReport(0, _INVENTORY, tag.epc)
        else:
            spec = run.spec
            raw, n = spec.raw, spec.words
            result, epc = _NO_TAG_SEEN, NO_TAG_EPC  # unpowered, or nothing decoded
            if tag.powered and n == 1:
                # Per-command CRC16 catches a corrupted word; the tag stays silent.
                outcome = channel.deliver_word()
                if outcome is not _LOST:
                    epc = tag.epc  # the echo the tag backscatters at the round's start
                    if outcome is _CORRUPTED:
                        result = _ERROR
                    else:
                        echoed = tag._echoed  # ``Tag.echoes``, inline
                        if raw is not echoed[0] or epc is not echoed[1]:
                            tag.handle_basic_write(raw)
                        run.successes_left -= 1
                        result = _SUCCESS
            elif tag.powered:
                # BlockWrite: no per-word CRC16, so a corrupted word is written and
                # replied to; only a lost word (missed preamble, drained slot) ends it.
                try:  # ``ChannelModel.deliver_series``, inline; a missing table draws nothing
                    replied, corrupted = SERIES_OUTCOMES[n][bisect_right(channel._tables[n],
                                                                         channel.rng.random())]
                except KeyError:  # the first series of its length at this distance
                    replied, corrupted = channel.deliver_series(n)
                if replied:
                    epc = tag.epc
                    if replied < n:
                        result = _ERROR
                    else:
                        echoed = tag._echoed  # ``Tag.echoes``, inline
                        if raw is not echoed[0] or epc is not echoed[1]:
                            tag.series_complete(raw, corrupted)
                        run.successes_left -= 1
                        result = _SUCCESS
            if run.successes_left <= 0 or now >= run.last_round:  # the frame ends
                self.active = None
                self._removal_tick = now
            report = self._last
            if report.epc != epc or report.result is not result or report.spec_id != spec.spec_id:
                self._last = report = OperationReport(spec.spec_id, result, epc)
        if now < self.max_rounds:  # ``_enter``, inline: a call would cost each round
            if self.place_round is not None:
                cycle = self._cycle
                if cycle is not None and now >= self._period:  # ``ChannelModel.restore``, inline
                    channel.d, (channel.miss, channel.flip, channel.survival, channel.brownout,
                                channel._tables) = cycle[(now + 1) % self._period]
                else:
                    place = self.place_round  # called through a local: measured cheaper
                    place(now + 1)
            p = self.brownout
            if self.power.step(channel.brownout if p is None else p) is not self._powered:
                self._powered = powered = not self._powered
                tag.set_powered(powered)
        return report

    def repeat(self, now: int, cap: int) -> tuple[int, OperationReport | None, Sequence]:
        """Run the rounds from ``now`` (entered) on that repeat the last report's command,
        at most ``cap``, then ``_enter`` the next.  Returns their number, the last one's
        report and, in round order, ``(round, result, epc)`` for each earlier one that got
        no full reply.

        Only a success (of the active spec: ``tick`` replaces the last report in a spec's
        first round) that a powered tag takes as a stale repeat (``Tag.echoes``) repeats,
        and only while the tag stays put.  The channel samples the rounds in one call,
        each after its power step, up to the round whose frame-end test holds or the last
        before a brown-out.  A round lost, corrupted or cut short changes nothing on the
        tag and takes no success; a full reply only takes one of the frame's successes
        left, as ``tick`` would.  A batch that ends the frame short of ``cap`` also runs
        the switch gap's round, through ``tick``; its report (or None) is the last one.
        Otherwise only a last round with no full reply gets a new report.  No round
        repeats: ``(0, None, ())``.
        """
        run, last, tag, channel = self.active, self._last, self.tag, self.channel
        if (self.place_round is not None or run is None or last.result is not _SUCCESS
                or not tag.powered or last.epc != tag.epc or run.spec.raw is not tag._echoed[0]
                or tag.epc is not tag._echoed[1]):
            return 0, None, ()  # the last two: ``Tag.echoes``, inline
        rounds = run.last_round - now + 1  # the frame's last round at the latest; no ``min``
        if cap < rounds:
            if cap < 1:
                return 0, None, ()
            rounds = cap
        p = channel.brownout if self.brownout is None else self.brownout
        k, missed = channel.deliver_repeats(rounds, run.successes_left, run.spec.words,
                                            self.power, p)
        run.successes_left -= k
        now += k - 1  # the last round run
        if missed:
            run.successes_left += len(missed)  # rounds with no full reply took no success
            first = now - k  # the batch's round j is round ``first + j``
            missed = [(first + j, _ERROR, last.epc) if seen  # a lost round has no EPC
                      else (first + j, _NO_TAG_SEEN, NO_TAG_EPC) for j, seen in missed]
        if run.successes_left <= 0 or now >= run.last_round:  # ``tick``'s frame end
            self.active = None
            self._removal_tick = now
            if k < cap:  # the switch gap's round, which enters the one after it
                self._enter(now + 1)
                return k + 1, self.tick(now + 1), missed
        if missed and missed[-1][0] == now:  # a last round with no full reply gets a new report
            _, result, epc = missed.pop()
            last = self._last = OperationReport(last.spec_id, result, epc)
        self._enter(now + 1)
        return k, last, missed
