"""Host engine: message dispatch, ACK/NACK classification, resend, throttling.

The host walks the record matrix one message at a time, in the order
``HostSession._flights`` yields them.  After sending it watches the report
stream: a report whose EPC prefix matches the expected verification data
acknowledges the in-flight message, and everything else counts toward the
NACK timeout, including the stale echoes that the old operation frame floods
into the new message frame.  A timeout resends the current chunk (re-cut at
the throttled payload size for the extended variant; a basic data byte after
its row's address pair, which a brown-out may have cleared) until the resend
budget is exhausted and the transfer aborts.  Both go through one transmit
point, and the transfer completes there once the cursor has nothing left to
send.

Each inventory round the session also places the tag at the profile's
distance and powers it by the configured brown-out probability, or for
``auto`` by the one that distance implies (see ``HostSession._placement``).
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Callable, Generator, Iterable
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .channel import ODDS_MEMO_SIZE, ChannelModel
from .crc import crc16_ccitt
from .ihex import RecordMatrix
from .protocol import (HDR_REPROGRAM_INIT, WRITE_ECHO_MARK, BasicMessage, build_basic_messages,
                       build_ex_message, build_ladder, snap_to_ladder, throttle)
from .reader import ROUNDS_PER_SEC, AccessSpec, OperationReport, Reader, ReportResult
from .tag import PowerModel, Tag, TagMode

if TYPE_CHECKING:  # scenario imports this module
    from .scenario import ScenarioConfig

STALL_TICKS = 120  # reportless in-flight ticks treated as one timeout
_ADDRESS_PAIR = 2  # a basic row's first two messages, which set the tag's base address


class Variant(Enum):
    BASIC = "basic"
    EX = "ex"


@dataclass(slots=True)
class LogEvent:
    round_no: int
    event: str
    row: int
    chunk: int
    s_p: float
    result: str
    epc: bytes


class TransferLog:
    """A run's log rows in two typed columns: the round, and an index into ``kinds``.

    A kind is one distinct ``(event, row, chunk, s_p, result, epc)`` tuple.
    Stale-echo rounds repeat a handful of kinds per message, so a row costs
    twelve bytes instead of an object; ``events`` rebuilds the rows on demand.
    """

    __slots__ = ("rounds", "kind_ids", "kinds")

    def __init__(self, events: Iterable[LogEvent] = ()):
        self.rounds = array("q")
        self.kind_ids = array("I")
        self.kinds: list[tuple] = []
        append = self._appender()
        for e in events:
            append(e.round_no, (e.event, e.row, e.chunk, e.s_p, e.result, e.epc))

    def _appender(self) -> Callable[[int, tuple], int]:
        """A function appending one row, round and kind, that returns the kind's id.

        It interns the kinds; its intern dict lives as long as the function,
        not as long as the log.  A caller that knows a row repeats a kind can
        append the round and that id to the two columns itself.
        """
        rounds, kind_ids, kinds = self.rounds.append, self.kind_ids.append, self.kinds
        ids = {kind: k for k, kind in enumerate(kinds)}

        def append(round_no: int, kind: tuple) -> int:
            k = ids.get(kind)
            if k is None:
                k = ids[kind] = len(kinds)
                kinds.append(kind)
            rounds(round_no)
            kind_ids(k)
            return k

        return append

    @property
    def events(self) -> list[LogEvent]:
        kinds = self.kinds
        return [LogEvent(r, *kinds[k]) for r, k in zip(self.rounds, self.kind_ids)]

    def count(self, event: str) -> int:
        per_kind = Counter(self.kind_ids)
        return sum(n for k, n in per_kind.items() if self.kinds[k][0] == event)


@dataclass
class SessionResult:
    completed: bool
    rounds: int
    log: TransferLog
    messages_sent: int  # m_t: every transmission, first sends plus resends
    resends: int  # m_r
    sum_s_p: float  # over all transmissions, for the mean payload size
    op_success: int  # n_s
    op_total: int  # n_t
    reached_application: bool = False
    failure_reason: str = ""


def matrix_crc(matrix: RecordMatrix) -> int:
    """CRC16 over the file content in address order, as the tag computes it."""
    image = matrix.flat_image()
    return crc16_ccitt(bytes(image[a] for a in sorted(image)))


def classify_report(expected_epc: bytes, report: OperationReport) -> bool:
    """True (ACK) iff the report's EPC prefix matches the verification data.

    Stale echoes of the previous message and no-tag reports both come back
    as NACKs; the operation result itself is irrelevant, so a report of an
    erroneous operation can still embed an ACK.
    """
    return report.epc.startswith(expected_epc)


_INIT = BasicMessage(HDR_REPROGRAM_INIT, 0x00).raw


class HostSession:
    """One transfer attempt over a reader, tag and channel.

    ``config`` is read as given; ``ScenarioConfig.validate`` checks it.  The
    transfer order lives in ``_flights``, the counts of a run in ``run``.
    """

    def __init__(self, config: ScenarioConfig, matrix: RecordMatrix):
        self.config = config
        self.matrix = matrix
        self.log = TransferLog()
        self._basic = config.protocol is Variant.BASIC
        self._s_p = config.s_p if config.s_p is not None else config.s_max
        self._ladder = (1,)  # the current extended row's S_p ladder

    # ------------------------------------------------------------------
    # message cursor

    def _flights(self) -> Generator[tuple[bytes, int, int, float, bool], bool, None]:
        """Every transmission in send order, as ``(raw, row, chunk, S_p, fresh)``.

        ``run`` sends back True after an ACK and False after a timeout; a
        message goes out again until it is ACKed.  ``fresh`` is False only for
        a basic row's address pair put back after a data byte's timeout: a
        brown-out clears the tag's address registers, and the tag then ignores
        every data byte until the pair comes again.  A reset tag still answers
        with its all-zero EPC, so the host cannot tell a brown-out from other
        failures and readdresses on every data-byte timeout.

        An extended row sets the S_p ladder, rebuilt only when the row's word
        count differs from the last one, and snaps S_p onto it; each chunk is
        cut at S_p as it is sent, so a resend is re-cut at the throttled size.
        """
        cfg, rows = self.config, self.matrix.rows
        if self._basic:  # built up front, so RowTooLong surfaces before the first send
            writes = [[m.raw for m in build_basic_messages(row)] for row in rows]
        if cfg.bootloader:
            while not (yield _INIT, -1, 0, 0.5, True):
                pass
        if self._basic:
            for r, row_writes in enumerate(writes):
                k = 0
                while k < len(row_writes):
                    if (yield row_writes[k], r, k + 1, 0.5, True):
                        k += 1
                    elif k >= _ADDRESS_PAIR:
                        for a in range(_ADDRESS_PAIR):
                            while not (yield row_writes[a], r, a + 1, 0.5, False):
                                pass
            return
        ladder_words = 0
        for r, row in enumerate(rows):
            if not row.data:
                continue
            if (words := row.word_count()) != ladder_words:
                self._ladder, ladder_words = build_ladder(words, cfg.s_max), words
            start = cfg.s_p if cfg.s_p is not None else self._s_p
            self._s_p = snap_to_ladder(start, self._ladder)
            pos, chunk = 0, 1
            while pos < len(row.data):
                data = row.data[pos : pos + 2 * self._s_p]
                raw = build_ex_message(data, row.address + pos, cfg.s_max).raw
                if (yield raw, r, chunk, self._s_p, True):
                    pos, chunk = pos + len(data), chunk + 1

    def _throttle(self, step: int) -> str:
        """Step S_p along the ladder; returns the ``old->new`` text, or "" if it stayed."""
        old = self._s_p
        self._s_p = throttle(old, self._ladder, step)
        return f"{old}->{self._s_p}" if self._s_p != old else ""

    # ------------------------------------------------------------------
    # main loop

    def _placement(self, channel: ChannelModel,
                   max_rounds: int) -> Callable[[int], None] | None:
        """Place the tag for round 0; returns what places it in round k >= 1.

        None means the tag stays: the profile has one distance.  A profile
        that repeats every ``period`` rounds goes through ``at`` and
        ``set_distance_cm`` in its first cycle only; each later round puts
        back the placement its cycle position had.  A cycle longer than the
        round budget, or than the odds memo (the table would keep its
        distances alive), is placed every round.
        """
        profile = self.config.profile
        at, place = profile.at, channel.set_distance_cm
        period = profile.period
        if period == 1:
            place(at(0))
            return None
        if not period or period > min(max_rounds, ODDS_MEMO_SIZE):
            return lambda now: place(at(now))
        placed: list = [None] * period  # by cycle position, filled in the first cycle
        snapshot, restore = channel.placement, channel.restore

        def place_round(now: int) -> None:
            if now > period:
                restore(placed[now % period])
            else:
                place(at(now))
                placed[now % period] = snapshot()

        return place_round

    def run(self, tag: Tag, channel: ChannelModel, power: PowerModel) -> SessionResult:
        """Drive the transfer to completion, failure, or the round budget.

        Round k places the tag (one with a single distance stays where it was
        placed before round 0) and powers it, consumes the report of round
        k - 1, puts any message on air, then ticks the reader; round 0 only
        sends.
        """
        cfg = self.config
        max_rounds = int(cfg.max_sim_seconds * ROUNDS_PER_SEC)
        throttled = not self._basic and cfg.s_p is None
        reader = Reader()
        tick = reader.tick
        log = self.log._appender()
        log_round, log_kind = self.log.rounds.append, self.log.kind_ids.append
        place_round = self._placement(channel, max_rounds)
        step = power.step
        set_powered = tag.set_powered
        p = cfg.brownout
        # The results a round tests, as locals: an enum-class lookup costs each round.
        success, _, no_tag, inventory = ReportResult

        sent = resent = m_count = r_count = n_success = n_total = 0
        sum_s_p = 0.0
        completed = False
        failure = ""
        now = 0
        action = "send"  # what the transmit point puts on air: "send", "resend" or nothing
        report: OperationReport | None = None
        flights = self._flights()

        while True:
            if action:
                # The one transmit point: it tells the cursor whether the last
                # message was ACKed, and a cursor with nothing left completes.
                try:
                    raw, row, chunk, s_p, fresh = flights.send(action == "send" if sent else None)
                except StopIteration:
                    completed = True
                    break
                sent += 1
                if action == "resend":
                    resent += 1
                sum_s_p += s_p
                expected = raw + WRITE_ECHO_MARK if len(raw) == 2 else raw[:4]
                reader.request_delete(now)
                reader.stage(AccessSpec(sent, raw, cfg.ocv), now)
                log(now, (action, row, chunk, s_p, "", expected))
                nacks = no_tags = silent = 0  # since the last transmission
                nack_result = None  # the result, EPC and kind id of its last NACK row
                action = ""
            if now:  # round 0 only stages the first message
                report = tick(now, tag, channel)
            if now >= max_rounds:
                failure = "round budget exhausted"
                break
            now += 1  # the next round places the tag, then powers it
            if place_round:
                place_round(now)
            powered = step(channel.brownout if p is None else p)
            if powered is not tag.powered:  # only a flip changes the tag
                set_powered(powered)

            # Consume the report produced by the previous round.
            timeout = False
            if report is not None:
                silent = 0
                # The log takes ``result._value_``, the member's value read
                # without the Python-level property call ``.value`` makes.
                result = report.result
                if result is not inventory:
                    n_total += 1
                    if result is success:
                        n_success += 1
                if classify_report(expected, report):
                    log(now, ("ack", row, chunk, s_p, result._value_, report.epc))
                    if fresh:  # an address pair put back spends the byte's budget
                        r_count = 0
                    if throttled and row >= 0:
                        if m_count > cfg.m_threshold:
                            if step_text := self._throttle(cfg.t_u):
                                log(now, ("throttle", row, chunk, self._s_p, step_text, b""))
                            m_count = 0
                        else:
                            m_count += 1
                    action = "send"
                else:
                    nacks += 1
                    if result is no_tag:
                        no_tags += 1
                    epc = report.epc
                    if result is nack_result and epc == nack_epc:
                        # The same kind as the flight's last NACK row, by its id.
                        log_round(now)
                        log_kind(nack_kind)
                    else:
                        nack_result, nack_epc = result, epc
                        nack_kind = log(now, ("nack", row, chunk, s_p, result._value_, epc))
                    timeout = nacks >= cfg.n_threshold
            else:
                silent += 1
                timeout = silent >= STALL_TICKS

            if timeout:
                lost_type = silent >= STALL_TICKS or 2 * no_tags > nacks
                log(now, ("timeout", row, chunk, s_p, "lost" if lost_type else "error", b""))
                if r_count >= cfg.r_max:
                    failure = "resend budget exhausted"
                    log(now, ("abort", row, chunk, s_p, failure, b""))
                    break
                r_count += 1
                m_count = 0
                if throttled and row >= 0:
                    if step_text := self._throttle(cfg.t_dl if lost_type else cfg.t_de):
                        log(now, ("throttle", row, chunk, self._s_p, step_text, b""))
                action = "resend"

        reached_app = False
        if completed and cfg.bootloader:
            # Deliver the whole-application checksum once the tag has power,
            # within the round budget.
            while not tag.powered and now < max_rounds:
                now += 1
                if place_round:
                    place_round(now)
                powered = step(channel.brownout if p is None else p)
                if powered is not tag.powered:
                    set_powered(powered)
            if not tag.powered:
                completed, failure = False, "round budget exhausted"
            elif tag.transfer_complete(matrix_crc(self.matrix)) is TagMode.APPLICATION:
                reached_app = True
            else:
                # Every message was ACKed, but the tag does not hold the image.
                completed, failure = False, "application CRC mismatch"
        if completed:
            log(now, ("complete", -1, 0, 0.0, "", b""))

        return SessionResult(completed, now, self.log, messages_sent=sent, resends=resent,
                             sum_s_p=sum_s_p, op_success=n_success, op_total=n_total,
                             reached_application=reached_app, failure_reason=failure)
