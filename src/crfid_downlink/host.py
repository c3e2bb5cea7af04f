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

from collections.abc import Callable
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

    def _apply_throttle(self, flight: _InFlight, step: int, now: int) -> None:
        old = self._s_p
        self._s_p = throttle(old, self._ladder, step)
        if self._s_p != old:
            self.log.add(now, "throttle", flight.row, flight.chunk,
                         self._s_p, result=f"{old}->{self._s_p}")

    # ------------------------------------------------------------------
    # transmission

    def _transmit(self, flight: _InFlight, resend: bool, now: int) -> None:
        self._m_sent += 1
        spec = AccessSpec(
            spec_id=self._m_sent,
            words=flight.words,
            is_blockwrite=flight.is_blockwrite,
            ocv=self.config.ocv,
        )
        self._reader.request_delete(now)
        self._reader.stage(spec, now)
        self._sum_s_p += flight.s_p
        if resend:
            self._m_resent += 1
        self.log.add(now, "resend" if resend else "send",
                     flight.row, flight.chunk, flight.s_p, epc=flight.expected_epc)

    # ------------------------------------------------------------------
    # main loop

    def _round_stepper(self, tag: Tag, channel: ChannelModel,
                       power: PowerModel) -> Callable[[int], None]:
        """The per-round step: place the tag at the profile's distance, then power it."""
        at = self.config.profile.at
        place = channel.set_distance_cm
        step = power.step
        set_powered = tag.set_powered
        p = self.config.brownout

        def next_round(now: int) -> None:
            place(at(now))
            set_powered(step(channel.brownout if p is None else p))

        return next_round

    def run(self, tag: Tag, channel: ChannelModel, power: PowerModel) -> SessionResult:
        """Drive the transfer to completion, failure, or the round budget."""
        cfg = self.config
        max_rounds = int(cfg.max_sim_seconds * ROUNDS_PER_SEC)
        reader = self._reader = Reader()
        self._m_sent = 0
        self._m_resent = 0
        self._sum_s_p = 0.0
        n_success = 0
        n_total = 0
        completed = False
        failure = ""

        flight = self._flight()
        if flight is None:
            self.log.add(0, "complete")
            return SessionResult(True, 0, self.log, 0, 0, 0.0, 0, 0)
        next_round = self._round_stepper(tag, channel, power)
        tick = reader.tick
        log = self.log.events.append
        now = 0
        self._transmit(flight, False, now)
        nacks = no_tags = silent = 0  # since the last transmission
        report: OperationReport | None = None

        while now < max_rounds:
            now += 1
            next_round(now)

            # 1. Consume the report produced by the previous round.
            timeout = False
            if report is not None:
                silent = 0
                # The log takes ``result._value_``, the member's value read
                # without the Python-level property call ``.value`` makes.
                result = report.result
                if result is not ReportResult.INVENTORY:
                    n_total += 1
                    if result is ReportResult.SUCCESS:
                        n_success += 1
                if classify_report(flight.expected_epc, report):
                    log(LogEvent(now, "ack", flight.row, flight.chunk,
                                 flight.s_p, result._value_, report.epc))
                    self._r_count = 0
                    if self._throttled and flight.row >= 0:
                        if self._m_count > cfg.m_threshold:
                            self._apply_throttle(flight, cfg.t_u, now)
                            self._m_count = 0
                        else:
                            self._m_count += 1
                    self._advance(flight)
                    flight = self._flight()
                    if flight is None:
                        completed = True
                        break
                    self._transmit(flight, False, now)
                    nacks = no_tags = 0
                else:
                    nacks += 1
                    if result is ReportResult.NO_TAG_SEEN:
                        no_tags += 1
                    log(LogEvent(now, "nack", flight.row, flight.chunk,
                                 flight.s_p, result._value_, report.epc))
                    if nacks >= cfg.n_threshold:
                        timeout = True
            else:
                silent += 1
                timeout = silent >= STALL_TICKS

            if timeout:
                lost_type = silent >= STALL_TICKS or 2 * no_tags > nacks
                self.log.add(now, "timeout", flight.row, flight.chunk,
                             flight.s_p, "lost" if lost_type else "error")
                if self._r_count >= cfg.r_max:
                    failure = "resend budget exhausted"
                    self.log.add(now, "abort", flight.row, flight.chunk,
                                 flight.s_p, failure)
                    break
                self._r_count += 1
                self._m_count = 0
                if self._throttled and flight.row >= 0:
                    self._apply_throttle(flight, cfg.t_dl if lost_type else cfg.t_de, now)
                # Basic and init messages come back identical; an extended
                # chunk is re-cut at the throttled S_p.
                flight = self._flight()
                self._transmit(flight, True, now)
                nacks = no_tags = silent = 0

            # 2. Reader advances one inventory round.
            report = tick(now, tag, channel)

        if not completed and not failure:
            failure = "round budget exhausted"

        reached_app = False
        if completed and cfg.bootloader:
            reached_app, now = self._finalize(tag, next_round, now)
        if completed:
            self.log.add(now, "complete")

        return SessionResult(
            completed=completed,
            rounds=now,
            log=self.log,
            messages_sent=self._m_sent,
            resends=self._m_resent,
            sum_s_p=self._sum_s_p,
            op_success=n_success,
            op_total=n_total,
            reached_application=reached_app,
            failure_reason=failure,
        )

    def _finalize(self, tag: Tag, next_round: Callable[[int], None],
                  now: int) -> tuple[bool, int]:
        """Deliver the whole-application checksum once the tag has power.

        Returns whether the application started, and the round count then.
        """
        crc = matrix_crc(self.matrix)
        waited = 0
        while not tag.powered and waited < 10_000:
            now += 1
            next_round(now)
            waited += 1
        if not tag.powered:
            return False, now
        return tag.transfer_complete(crc) is TagMode.APPLICATION, now
