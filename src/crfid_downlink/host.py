"""Host engine: message dispatch, ACK/NACK classification, resend, throttling.

The host walks the record matrix one message at a time, in the order
``HostSession._flights`` yields them; that cursor also owns the throttled S_p.
``run`` watches the report stream: a report whose EPC prefix matches the
expected verification data acknowledges the in-flight message, and everything
else, the stale echoes the old operation frame floods into the new message
frame included, counts toward the NACK timeout.  A timeout resends the current
chunk (re-cut at the throttled S_p; a basic data byte after its row's address
pair, which a brown-out may have cleared) until the resend budget is exhausted
and the transfer aborts.  Both go through one transmit point, which completes
the transfer once the cursor has nothing left to send; with the bootloader on,
its last flight is the application CRC, which only a tag holding the image
echoes.  ``run`` keeps only the rounds, reports, timeouts and resend budget, and
sees the tag only through the reports of the reader, which holds the tag, its
channel and its power (see ``reader``).  A run's counts come from its log.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Generator, Iterable
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .crc import crc16_ccitt
from .ihex import RecordMatrix
from .protocol import (HDR_CRC_HIGH, HDR_CRC_LOW, HDR_REPROGRAM_INIT, build_basic_messages,
                       build_ex_message, build_ladder, echo, snap_to_ladder, throttle)
from .reader import AccessSpec, OperationReport, Reader, ReportResult

if TYPE_CHECKING:  # scenario imports this module
    from .scenario import ScenarioConfig

STALL_TICKS = 120  # reportless in-flight ticks treated as one timeout
_ADDRESS_PAIR = 2  # a basic row's first two messages, which set the tag's base address


class Variant(Enum):
    BASIC = "basic"
    EX = "ex"


class LogEvent(NamedTuple):
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
        self.rounds = array("Q")  # unsigned: the array converts each row's round faster
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

    def _per_kind(self) -> list[int]:  # the number of rows of each kind, by kind id
        per_kind = [0] * len(self.kinds)
        for k in self.kind_ids:
            per_kind[k] += 1
        return per_kind

    def count(self, event: str) -> int:
        return sum(n for kind, n in zip(self.kinds, self._per_kind()) if kind[0] == event)

    def totals(self) -> tuple[int, int, float, int, int]:
        """``(messages_sent, resends, sum_s_p, op_success, op_total)``, folded kind by kind.

        A ``send`` or ``resend`` row is a transmission at its S_p, an integer or
        0.5, so the sum is exact in any order; an ``ack`` or ``nack`` row is a
        consumed report, an access operation unless its result is ``inventory``.
        """
        sent = resends = successes = operations = 0
        sum_s_p = 0.0
        for (event, _, _, s_p, result, _), n in zip(self.kinds, self._per_kind()):
            if event == "send" or event == "resend":
                sent += n
                resends += n if event == "resend" else 0
                sum_s_p += n * s_p
            elif (event == "ack" or event == "nack") and result != "inventory":
                operations += n
                successes += n if result == "success" else 0
        return sent, resends, sum_s_p, successes, operations


@dataclass  # benchmarks/test_benchmark.py copies it with dataclasses.replace
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

    Stale echoes of the previous message and no-tag reports both come back as NACKs;
    the operation result itself is irrelevant, so an erroneous operation can still ACK.
    """
    return report.epc.startswith(expected_epc)


_INIT = bytes((HDR_REPROGRAM_INIT, 0x00))


class HostSession:
    """One transfer attempt through a reader.

    ``config`` is read as given; ``ScenarioConfig.validate`` checks it.  The
    transfer order lives in ``_flights``, a run's counts in ``TransferLog.totals``.
    """

    def __init__(self, config: ScenarioConfig, matrix: RecordMatrix):
        self.config, self.matrix = config, matrix

    def _flights(self, log: Callable) -> Generator[tuple, tuple[str, int], None]:
        """Every transmission in send order, as ``(raw, row, chunk, S_p, fresh)``.

        ``run`` sends back ``(outcome, now)`` after each one: ``"ack"``, or the
        timeout's ``"lost"`` or ``"error"``, and the round it came in.  A
        message goes out again until it is ACKed.  With the bootloader on, the
        INIT Write comes first, as row -1, chunk 0, and the application CRC's
        high and low bytes last, as chunks 1 and 2.  ``fresh`` is False only for
        a basic row's address pair put back after a data byte's timeout: a
        brown-out clears the tag's address registers, and the tag then ignores
        every data byte until the pair comes again.  A reset tag still answers
        with its all-zero EPC, so the host cannot tell a brown-out from other
        failures and readdresses on every data-byte timeout.

        An extended row sets the S_p ladder, rebuilt only when the row's word
        count differs from the last one, and snaps S_p onto it; each chunk is
        cut at S_p as it is sent.  A throttled S_p steps ``t_dl`` or ``t_de``
        on a lost or error timeout, which ends the ACK streak, and ``t_u`` on an
        ACK after a streak longer than ``m_threshold``; each step that moves it
        is logged through ``log`` as a ``throttle`` row.
        """
        def until_acked(raw: bytes, row: int, chunk: int, fresh: bool = True) -> Generator:
            while (yield raw, row, chunk, 0.5, fresh)[0] != "ack":
                pass

        cfg, rows = self.config, self.matrix.rows
        basic = cfg.protocol is Variant.BASIC
        if basic:  # built up front, so RowTooLong surfaces before the first send
            writes = [build_basic_messages(row) for row in rows]
        if cfg.bootloader:
            yield from until_acked(_INIT, -1, 0)
        if basic:
            for r, row_writes in enumerate(writes):
                k = 0
                while k < len(row_writes):
                    if (yield row_writes[k], r, k + 1, 0.5, True)[0] == "ack":
                        k += 1
                    elif k >= _ADDRESS_PAIR:
                        for a in range(_ADDRESS_PAIR):
                            yield from until_acked(row_writes[a], r, a + 1, False)
        else:
            throttled, s_p = cfg.s_p is None, cfg.s_p or cfg.s_max
            streak = ladder_words = 0
            for r, row in enumerate(rows):
                if not row.data:
                    continue
                if (words := row.word_count()) != ladder_words:
                    ladder, ladder_words = build_ladder(words, cfg.s_max), words
                s_p = snap_to_ladder(s_p if throttled else cfg.s_p, ladder)
                pos, chunk = 0, 1
                while pos < len(row.data):
                    data = row.data[pos : pos + 2 * s_p]
                    raw = build_ex_message(data, row.address + pos, cfg.s_max).raw
                    outcome, now = yield raw, r, chunk, s_p, True
                    if outcome != "ack":
                        step, streak = cfg.t_dl if outcome == "lost" else cfg.t_de, 0
                    elif streak > cfg.m_threshold:
                        step, streak = cfg.t_u, 0
                    else:
                        step, streak = 0, streak + 1
                    if throttled and step and (stepped := throttle(s_p, ladder, step)) != s_p:
                        log(now, ("throttle", r, chunk, stepped, f"{s_p}->{stepped}", b""))
                        s_p = stepped
                    if outcome == "ack":
                        pos, chunk = pos + len(data), chunk + 1
        if cfg.bootloader:
            crc = matrix_crc(self.matrix)
            yield from until_acked(bytes((HDR_CRC_HIGH, crc >> 8)), -1, 1)
            yield from until_acked(bytes((HDR_CRC_LOW, crc & 0xFF)), -1, 2)

    def run(self, reader: Reader) -> SessionResult:
        """Drive the transfer through ``reader`` to completion, failure, or the round budget.

        Round k consumes the report of round k - 1, puts any message on air, then ticks
        the reader, which runs the round and readies round k + 1; round 0 only sends.
        For a tag that stays put, the reader runs the rounds that repeat a stale success,
        Write or series, in one batch, lost and corrupted rounds included, and the log
        takes their rows at once: each row, kind id and count comes out as ticking them
        one by one would.
        """
        cfg = self.config
        max_rounds, n_threshold = reader.max_rounds, cfg.n_threshold
        tick, repeat = reader.tick, reader.repeat
        transfer_log = TransferLog()  # this run's rows only: its counts are folded from them
        log = transfer_log._appender()
        log_round, log_kind = transfer_log.rounds.append, transfer_log.kind_ids.append
        log_rounds, log_kinds = transfer_log.rounds.extend, transfer_log.kind_ids.extend
        batching = reader.place_round is None  # the reader batches only a tag that stays put
        # Locals: an enum-class lookup costs each NACK.
        no_tag, success = ReportResult.NO_TAG_SEEN, ReportResult.SUCCESS

        sent = r_count = now = 0  # ``sent`` numbers the access specs
        ticked = 0  # the last round the reader has run
        completed, failure = False, ""
        outcome = "ack"  # the last message's: "" waits, "ack" sends the next, a timeout resends
        report: OperationReport | None = None
        flights = self._flights(log)

        while True:
            if outcome:
                # The one transmit point: it tells the cursor the outcome; an empty one completes.
                try:
                    raw, row, chunk, s_p, fresh = flights.send((outcome, now) if sent else None)
                except StopIteration:
                    completed = True
                    break
                sent += 1
                expected = echo(raw)
                reader.request_delete(now)
                reader.stage(AccessSpec(sent, raw, cfg.ocv), now)
                log(now, ("send" if outcome == "ack" else "resend", row, chunk, s_p, "", expected))
                nacks = no_tags = silent = 0  # since the last transmission
                nack_report = None  # the report its last NACK row consumed
                outcome = ""
            if now > ticked:  # round 0 only stages the first message; a batch ticks its own
                report = tick(now)
            if now >= max_rounds:
                failure = "round budget exhausted"
                break
            now += 1

            # Consume the previous round's report; a round without a timeout ends in ``continue``.
            if report is None:
                silent += 1
                if silent < STALL_TICKS:
                    continue
            else:
                silent = 0
                if report is nack_report:  # the last NACKed report again: the same kind
                    log_round(now)
                    log_kind(nack_kind)
                # A result is logged as ``_value_``: ``.value`` is a Python-level call.
                elif classify_report(expected, report):
                    log(now, ("ack", row, chunk, s_p, report.result._value_, report.epc))
                    if fresh:  # an address pair put back spends the byte's budget
                        r_count = 0
                    outcome = "ack"
                    continue
                else:
                    result = report.result
                    nack_report, nack_lost = report, result is no_tag
                    nack_kind = log(now, ("nack", row, chunk, s_p, result._value_, report.epc))
                    if batching and result is success and report.spec_id != sent:
                        # The reader runs the rounds from this one on that repeat the
                        # report's command, short of the timeout's and the budget's rounds;
                        # all but the last are NACK rows, and the next round consumes the
                        # last one's report.  A success of the spec on air never repeats:
                        # its EPC would be the echo of the spec, an ACK.  Neither does a
                        # report of a round with no full reply ACK: its EPC is the stale
                        # echo or all zeros, which no echo starts (a Write's ends in its
                        # mark, a BlockWrite's holds its nonzero length).
                        cap = n_threshold - 1 - nacks  # no ``min``: a call costs each batch
                        k, last, missed = repeat(now, cap if cap < max_rounds - now
                                                 else max_rounds - now)
                        if k:
                            first = now + 1  # the first row of the batch
                            for r, result, epc in missed:  # in row order, as kinds intern
                                log_rounds(range(first, r + 1))
                                log_kinds(array("I", (nack_kind,)) * (r + 1 - first))
                                log(r + 1, ("nack", row, chunk, s_p, result._value_, epc))
                                no_tags += result is no_tag
                                first = r + 2
                            end = now + k  # the round that consumes the last one's report
                            log_rounds(range(first, end))
                            log_kinds(array("I", (nack_kind,)) * (end - first))
                            nacks += k - 1
                            now = ticked = end - 1
                            report = last
                no_tags += nack_lost
                nacks += 1
                if nacks < n_threshold:
                    continue
            outcome = "lost" if silent >= STALL_TICKS or 2 * no_tags > nacks else "error"
            log(now, ("timeout", row, chunk, s_p, outcome, b""))
            if r_count >= cfg.r_max:  # only a tag holding the image echoes the CRC's low byte
                failure = ("application CRC mismatch" if (row, chunk) == (-1, 2)
                           else "resend budget exhausted")
                log(now, ("abort", row, chunk, s_p, failure, b""))
                break
            r_count += 1

        if completed:
            log(now, ("complete", -1, 0, 0.0, "", b""))
        return SessionResult(completed, now, transfer_log, *transfer_log.totals(),
                             reached_application=completed and cfg.bootloader,
                             failure_reason=failure)
