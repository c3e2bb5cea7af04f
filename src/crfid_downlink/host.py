"""Host engine: message dispatch, ACK/NACK classification, resend, throttling.

The host walks the record matrix one message at a time.  After sending it
watches the report stream: a report whose EPC prefix matches the expected
verification data acknowledges the in-flight message, and everything else
counts toward the NACK timeout, including the stale echoes that the old
operation frame floods into the new message frame.  A timeout resends the
current chunk (re-cut at the throttled payload size for the extended
variant) until the resend budget is exhausted and the transfer aborts.

Each inventory round the session also places the tag at the profile's
distance and powers it by the configured brown-out probability, or for
``auto`` by the one that distance implies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from .channel import ChannelModel
from .crc import crc16_ccitt
from .ihex import RecordMatrix
from .protocol import (
    BasicMessage,
    HDR_REPROGRAM_INIT,
    build_basic_messages,
    build_ex_message,
    build_ladder,
    snap_to_ladder,
    throttle,
)
from .reader import ROUNDS_PER_SEC, AccessSpec, OperationReport, Reader, ReportResult
from .tag import PowerModel, Tag, TagMode

if TYPE_CHECKING:  # scenario imports this module
    from .scenario import ScenarioConfig

STALL_TICKS = 120  # reportless in-flight ticks treated as one timeout


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


@dataclass
class TransferLog:
    events: list[LogEvent] = field(default_factory=list)

    def add(self, round_no: int, event: str, row: int = -1, chunk: int = 0,
            s_p: float = 0.0, result: str = "", epc: bytes = b"") -> None:
        self.events.append(LogEvent(round_no, event, row, chunk, s_p, result, epc))

    def count(self, event: str) -> int:
        return sum(1 for e in self.events if e.event == event)


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
    n = len(expected_epc)
    return report.epc[:n] == expected_epc[:n]


@dataclass
class _InFlight:
    expected_epc: bytes
    words: tuple[int, ...]
    is_blockwrite: bool
    row: int
    chunk: int
    s_p: float
    step: int  # cursor advance on ACK: payload bytes (extended) or one message (basic)


_INIT = BasicMessage(HDR_REPROGRAM_INIT, 0x00)


class HostSession:
    """One transfer attempt over a reader, tag and channel.

    ``config`` is read as given; ``ScenarioConfig.validate`` checks it.
    """

    def __init__(self, config: ScenarioConfig, matrix: RecordMatrix):
        self.config = config
        self.matrix = matrix
        self.log = TransferLog()
        self._basic = config.protocol is Variant.BASIC
        # What the cursor walks in each row: the basic flavour's Write
        # messages (built up front so RowTooLong surfaces before the first
        # round) or the bytes the extended flavour cuts into chunks.
        if self._basic:
            self._units = [build_basic_messages(row) for row in matrix.rows]
        else:
            self._units = [row.data for row in matrix.rows]
        self._throttled = not self._basic and config.s_p is None
        self._s_p = config.s_p if config.s_p is not None else config.s_max
        self._m_count = 0
        self._r_count = 0
        self._ladder = (1,)
        # Cursor at the un-acked message: the bootloader init message, then
        # row plus position (message index or byte offset).  It only moves
        # on ACK, so a resend rebuilds the message at the same position.
        self._init_pending = config.bootloader
        self._enter_row(0)

    # ------------------------------------------------------------------
    # cursor

    def _enter_row(self, row: int) -> None:
        """Start of the first row from ``row`` on that has anything to send."""
        while row < len(self._units) and not self._units[row]:
            row += 1
        self._row, self._pos, self._chunk = row, 0, 1
        if row < len(self.matrix) and self.matrix.rows[row].data:
            self._ladder = build_ladder(self.matrix.rows[row].word_count(), self.config.s_max)
            start = self.config.s_p if self.config.s_p is not None else self._s_p
            self._s_p = snap_to_ladder(start, self._ladder)

    def _flight(self) -> _InFlight | None:
        """The message at the cursor, cut at the current S_p; None when done."""
        if self._init_pending:
            return _InFlight(_INIT.expected_epc()[:2], (_INIT.word,), False, -1, 0, 0.5, 0)
        if self._row >= len(self._units):
            return None
        if self._basic:
            msg = self._units[self._row][self._pos]
            return _InFlight(msg.expected_epc()[:2], (msg.word,), False,
                             self._row, self._chunk, 0.5, 1)
        row = self.matrix.rows[self._row]
        data = row.data[self._pos : self._pos + 2 * self._s_p]
        message = build_ex_message(data, row.address + self._pos, self.config.s_max)
        return _InFlight(message.expected_epc()[:4], tuple(message.to_words()), True,
                         self._row, self._chunk, self._s_p, len(data))

    def _advance(self, flight: _InFlight) -> None:
        """Move the cursor past the acknowledged message."""
        if self._init_pending:
            self._init_pending = False
            return
        self._pos += flight.step
        if self._pos >= len(self._units[self._row]):
            self._enter_row(self._row + 1)
        else:
            self._chunk += 1

    def _apply_throttle(self, flight: _InFlight, step: int) -> None:
        old = self._s_p
        self._s_p = throttle(old, self._ladder, step)
        if self._s_p != old:
            self.log.add(self._now, "throttle", flight.row, flight.chunk,
                         self._s_p, result=f"{old}->{self._s_p}")

    # ------------------------------------------------------------------
    # transmission

    def _transmit(self, flight: _InFlight, resend: bool) -> None:
        self._m_sent += 1
        spec = AccessSpec(
            spec_id=self._m_sent,
            words=flight.words,
            is_blockwrite=flight.is_blockwrite,
            ocv=self.config.ocv,
        )
        self._reader.request_delete(self._now)
        self._reader.stage(spec, self._now)
        self._in_flight = flight
        self._nack_count = 0
        self._no_tag_count = 0
        self._silent_ticks = 0
        self._sum_s_p += flight.s_p
        if resend:
            self._m_resent += 1
        self.log.add(self._now, "resend" if resend else "send",
                     flight.row, flight.chunk, flight.s_p, epc=flight.expected_epc)

    # ------------------------------------------------------------------
    # main loop

    def _next_round(self, tag: Tag, channel: ChannelModel, power: PowerModel) -> None:
        """Advance one round: place the tag at the profile's distance, then power it."""
        self._now += 1
        channel.set_distance_cm(self.config.profile.at(self._now))
        p = self.config.brownout
        tag.set_powered(power.step(channel.brownout if p is None else p))

    def run(self, tag: Tag, channel: ChannelModel, power: PowerModel) -> SessionResult:
        """Drive the transfer to completion, failure, or the round budget."""
        cfg = self.config
        max_rounds = int(cfg.max_sim_seconds * ROUNDS_PER_SEC)
        reader = self._reader = Reader()
        self._m_sent = 0
        self._m_resent = 0
        self._sum_s_p = 0.0
        self._now = 0
        n_success = 0
        n_total = 0
        completed = False
        failure = ""

        first = self._flight()
        if first is None:
            self.log.add(0, "complete")
            return SessionResult(True, 0, self.log, 0, 0, 0.0, 0, 0)
        self._transmit(first, resend=False)
        report: OperationReport | None = None

        while self._now < max_rounds:
            self._next_round(tag, channel, power)

            # 1. Consume the report produced by the previous round.
            timeout = False
            stall_timeout = False
            flight = self._in_flight
            throttles = self._throttled and flight.row >= 0
            if report is not None:
                self._silent_ticks = 0
                if report.result is not ReportResult.INVENTORY:
                    n_total += 1
                    if report.result is ReportResult.SUCCESS:
                        n_success += 1
                if classify_report(flight.expected_epc, report):
                    self.log.add(self._now, "ack", flight.row, flight.chunk,
                                 flight.s_p, report.result.value, report.epc)
                    self._r_count = 0
                    if throttles:
                        if self._m_count > cfg.m_threshold:
                            self._apply_throttle(flight, cfg.t_u)
                            self._m_count = 0
                        else:
                            self._m_count += 1
                    self._advance(flight)
                    following = self._flight()
                    if following is None:
                        completed = True
                        break
                    self._transmit(following, resend=False)
                else:
                    self._nack_count += 1
                    if report.result is ReportResult.NO_TAG_SEEN:
                        self._no_tag_count += 1
                    self.log.add(self._now, "nack", flight.row, flight.chunk,
                                 flight.s_p, report.result.value, report.epc)
                    if self._nack_count >= cfg.n_threshold:
                        timeout = True
            else:
                self._silent_ticks += 1
                if self._silent_ticks >= STALL_TICKS:
                    timeout = True
                    stall_timeout = True

            if timeout:
                lost_type = stall_timeout or 2 * self._no_tag_count > self._nack_count
                self.log.add(self._now, "timeout", flight.row, flight.chunk,
                             flight.s_p, "lost" if lost_type else "error")
                if self._r_count >= cfg.r_max:
                    failure = "resend budget exhausted"
                    self.log.add(self._now, "abort", flight.row, flight.chunk,
                                 flight.s_p, failure)
                    break
                self._r_count += 1
                self._m_count = 0
                if throttles:
                    self._apply_throttle(flight, cfg.t_dl if lost_type else cfg.t_de)
                # Basic and init messages come back identical; an extended
                # chunk is re-cut at the throttled S_p.
                self._transmit(self._flight(), resend=True)

            # 2. Reader advances one inventory round.
            report = reader.tick(self._now, tag, channel)

        if not completed and not failure:
            failure = "round budget exhausted"

        reached_app = False
        if completed and cfg.bootloader:
            reached_app = self._finalize(tag, channel, power)
        if completed:
            self.log.add(self._now, "complete")

        return SessionResult(
            completed=completed,
            rounds=self._now,
            log=self.log,
            messages_sent=self._m_sent,
            resends=self._m_resent,
            sum_s_p=self._sum_s_p,
            op_success=n_success,
            op_total=n_total,
            reached_application=reached_app,
            failure_reason=failure,
        )

    def _finalize(self, tag: Tag, channel: ChannelModel, power: PowerModel) -> bool:
        """Deliver the whole-application checksum once the tag has power."""
        crc = matrix_crc(self.matrix)
        waited = 0
        while not tag.powered and waited < 10_000:
            self._next_round(tag, channel, power)
            waited += 1
        if not tag.powered:
            return False
        return tag.transfer_complete(crc) is TagMode.APPLICATION
