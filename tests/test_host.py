import ast
import gc
import inspect
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings, strategies as st

from crfid_downlink import host, scenario
from crfid_downlink.channel import ODDS_MEMO_SIZE, ChannelModel
from crfid_downlink.cli import main
from crfid_downlink.host import HostSession, TransferLog, Variant, classify_report, matrix_crc
from crfid_downlink.ihex import RecordMatrix, Row, generate_fixture, parse_file
from crfid_downlink.crc import crc16_ccitt
from crfid_downlink.protocol import (HDR_CRC_HIGH, HDR_CRC_LOW, HDR_REPROGRAM_INIT, build_ladder,
                                     snap_to_ladder, throttle)
from crfid_downlink.reader import ROUNDS_PER_SEC, OperationReport, Reader, ReportResult
from crfid_downlink.scenario import (DistanceProfile, ScenarioConfig, ScenarioError,
                                     parse_config_text, run_scenario)
from crfid_downlink.tag import FRAM_SIZE, PowerModel, Tag, TagMode
from conftest import PlainReader, run_session, small_image
from test_pins import GOLDEN_CONFIGS, session_counts
from test_scenario import HOST_EVENTS, REPEAT_NACK_CONFIGS, log_events

GOLDEN_FILE = ":02AADD00BBCCF0\n:00000001FF\n"


# -- the boundary with the reader -------------------------------------------------


def test_the_host_sees_the_tag_only_through_the_reader():
    # The host protocol imports neither the tag nor the channel, and a run takes the reader alone.
    imported = set()
    for node in ast.walk(ast.parse(Path(host.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "crfid_downlink" + (f".{module}" if module else "")
            imported.update({module, *(f"{module}.{alias.name}" for alias in node.names)})
    world = {"crfid_downlink.tag", "crfid_downlink.channel"}  # a module, or a name from it
    assert "crfid_downlink.reader" in imported
    assert not {name for name in imported if name in world or name.rpartition(".")[0] in world}
    assert list(inspect.signature(HostSession.run).parameters) == ["self", "reader"]


# -- classification -----------------------------------------------------------


def report(epc, result=ReportResult.SUCCESS):
    return OperationReport(1, result, bytes(epc).ljust(12, b"\x00"))


def test_classify_direct_match_is_ack():
    assert classify_report(bytes([0xC0, 0x04]), report([0xC0, 0x04])) is True


def test_classify_previous_echo_is_nack():
    assert classify_report(bytes([0x01, 0xCC]), report([0x00, 0xBB])) is False


def test_classify_error_report_can_ack():
    r = report([0xFD, 0xAA], ReportResult.ERROR)
    assert classify_report(bytes([0xFD, 0xAA]), r) is True


def test_no_ack_carries_the_all_zero_epc(small_matrix):
    # Each row starts with data byte 0x00, so its first data Write is 00 00.
    # A reset tag and a round that saw no tag both report the all-zero EPC;
    # the Write echo mark keeps that EPC from acknowledging the Write.
    matrix = RecordMatrix([Row(r.address, b"\x00" + r.data[1:]) for r in small_matrix.rows])
    for seed in range(40):
        cfg = ScenarioConfig(protocol=Variant.BASIC, profile=DistanceProfile(d_cm=40.0),
                             seed=seed)
        log = run_scenario(cfg, matrix=matrix).runs[0].result.log
        assert all(e.epc != bytes(12) for e in log.events if e.event == "ack"), seed


# -- log storage ------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(log_events, max_size=60))
def test_log_rebuilds_the_events_it_was_built_from(events):
    log = TransferLog(events)
    assert log.events == events
    assert len(log.kinds) == len({(e.event, e.row, e.chunk, e.s_p, e.result, e.epc)
                                  for e in events})
    for event in HOST_EVENTS:
        assert log.count(event) == sum(e.event == event for e in events)


@settings(max_examples=200, deadline=None)
@given(st.lists(log_events, max_size=60))
def test_log_totals_count_transmissions_and_operations_row_by_row(events):
    sent = [e for e in events if e.event in ("send", "resend")]
    reports = [e.result for e in events if e.event in ("ack", "nack")]
    assert TransferLog(events).totals() == (
        len(sent), sum(e.event == "resend" for e in sent), sum(e.s_p for e in sent),
        reports.count("success"), len(reports) - reports.count("inventory"))


def test_log_row_costs_a_fraction_of_an_object(firmware_matrix, clean_run):
    # A row is a round and a kind id; a kind is shared by the stale-echo rows
    # of one message.  One LogEvent per row retained about 130 B here.
    cfg = ScenarioConfig(protocol=Variant.EX, s_p=16)
    tracemalloc.start()
    try:
        log = clean_run(cfg, firmware_matrix)[0].log
        gc.collect()
        with_log = tracemalloc.get_traced_memory()[0]
        rows = len(log.rounds)
        del log
        gc.collect()
        without_log = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rows > 3000
    assert (with_log - without_log) / rows < 48


# -- config guard rails ---------------------------------------------------------
#
# HostSession reads its ScenarioConfig unchecked; run_scenario validates a
# config built in code before the host sees it.


def test_ocv_above_threshold_rejected(small_matrix):
    with pytest.raises(ScenarioError, match="ocv"):
        run_scenario(ScenarioConfig(ocv=25, n_threshold=20), matrix=small_matrix)


def test_bad_throttle_steps_rejected(small_matrix):
    with pytest.raises(ScenarioError, match="t_u"):
        run_scenario(ScenarioConfig(t_u=5, t_de=-2, t_dl=-3), matrix=small_matrix)


# -- golden basic session --------------------------------------------------------


def test_basic_golden_sequence(clean_run):
    matrix = parse_file(GOLDEN_FILE)
    result, tag = clean_run(ScenarioConfig(protocol=Variant.BASIC), matrix)
    assert result.completed
    sends = [e.epc[:2].hex().upper() for e in result.log.events if e.event == "send"]
    acks = [e.epc[:2].hex().upper() for e in result.log.events if e.event == "ack"]
    assert sends == ["FDAA", "FEDD", "00BB", "01CC"]
    assert acks == ["FDAA", "FEDD", "00BB", "01CC"]
    assert result.messages_sent == 4
    assert result.resends == 0
    assert tag.fram.read(0xAADD, 2) == bytes([0xBB, 0xCC])


def test_ex_single_record_clean(clean_run):
    matrix = parse_file(GOLDEN_FILE)
    result, tag = clean_run(ScenarioConfig(protocol=Variant.EX), matrix)
    assert result.completed
    assert result.messages_sent == 1  # one chunk carries the whole row
    assert tag.fram.read(0xAADD, 2) == bytes([0xBB, 0xCC])


# -- progress and resend bounds ---------------------------------------------------


def test_cursor_advances_exactly_on_ack(small_matrix, clean_run):
    result, _ = clean_run(ScenarioConfig(protocol=Variant.EX, s_p=4), small_matrix)
    assert result.completed
    positions = [
        (e.event, (e.row, e.chunk))
        for e in result.log.events
        if e.event in ("send", "resend", "ack")
    ]
    last_sent = None
    prev_ack = None
    for event, pos in positions:
        if event in ("send", "resend"):
            assert last_sent is None or pos >= last_sent or event == "resend"
            if prev_ack is not None:
                assert pos > prev_ack or event == "resend"
            last_sent = pos
        else:
            assert pos == last_sent
            prev_ack = pos


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.binary(min_size=0, max_size=32), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=12),
    st.booleans(),
)
def test_cursor_tiles_rows_at_fixed_s_p(clean_run, raw_rows, s_p, bootloader):
    # Rows 64 bytes apart never overlap, so the image is their plain union.
    matrix = RecordMatrix([Row(0x1000 + 64 * i, d) for i, d in enumerate(raw_rows)])
    cfg = ScenarioConfig(protocol=Variant.EX, s_p=s_p, bootloader=bootloader)
    result, tag = clean_run(cfg, matrix, tag=Tag(start_in_bootloader=bootloader))
    assert result.completed
    assert result.reached_application == bootloader

    sends = [e for e in result.log.events if e.event == "send" and e.row >= 0]
    for i, row in enumerate(matrix.rows):
        chunks = [e.epc for e in sends if e.row == i]
        if not row.data:
            assert chunks == []  # an empty row costs no extended send
            continue
        logged_s_p = {e.s_p for e in sends if e.row == i}
        assert len(logged_s_p) == 1  # a fixed S_p snaps once per row
        words = int(logged_s_p.pop())
        # Header (checksum, length, address): consecutive, gap-free, in order.
        address = row.address
        for k, epc in enumerate(chunks):
            length = epc[1]
            assert (epc[2] << 8) | epc[3] == address
            if k < len(chunks) - 1:
                assert length == 2 * words
            address += length
        assert address == row.address + len(row.data)
        assert [e.chunk for e in sends if e.row == i] == list(range(1, len(chunks) + 1))
    assert [e.row for e in sends] == sorted(e.row for e in sends)
    for address, value in matrix.flat_image().items():
        assert tag.fram.read(address, 1)[0] == value


@pytest.mark.parametrize("s_p", [None, 5, 16])  # throttled, and two fixed sizes
def test_each_row_gets_its_own_ladder(s_p):
    # Widths 26, 26, 7, 26 and 1 bytes: a repeat, a short odd row, a return to
    # full width and a one-word row.  A session keeps its ladder only while
    # the row's word count repeats.
    widths = (26, 26, 7, 26, 1)
    matrix = RecordMatrix([Row(0x1000 + 32 * i, bytes(range(n))) for i, n in enumerate(widths)])
    cfg = ScenarioConfig(protocol=Variant.EX, s_max=16, s_p=s_p)
    log = TransferLog()
    flights = HostSession(cfg, matrix)._flights(log._appender())
    start = 16 if s_p is None else s_p  # a throttled session starts at S_max
    rows, steps = [], 0
    try:
        flight = next(flights)
        while True:
            _, row, chunk, sent_s_p, _ = flight
            ladder = build_ladder(matrix.rows[row].word_count(), 16)
            if chunk == 1:  # a row's first chunk goes out on that row's ladder
                assert sent_s_p == snap_to_ladder(start, ladder)
                rows.append(row)
            # An error timeout steps a throttled S_p down the row's ladder
            # while the row is sent, and the chunk goes out again at it.
            _, again_row, again_chunk, stepped, _ = flights.send(("error", 0))
            assert (again_row, again_chunk) == (row, chunk)
            if s_p is None:
                assert stepped == throttle(sent_s_p, ladder, cfg.t_de)
                start, steps = stepped, steps + (stepped != sent_s_p)
            else:
                assert stepped == sent_s_p
            flight = flights.send(("ack", 0))
    except StopIteration:
        pass
    assert rows == list(range(len(widths)))
    assert log.count("throttle") == steps and (steps > 0) == (s_p is None)


def test_unreachable_tag_aborts_after_r_max_resends(clean_run):
    matrix = parse_file(GOLDEN_FILE)
    cfg = ScenarioConfig(protocol=Variant.EX, r_max=3)
    result, _ = clean_run(cfg, matrix, seed=2, cm=400.0)
    assert not result.completed
    assert result.failure_reason == "resend budget exhausted"
    transmissions = [e for e in result.log.events if e.event in ("send", "resend")]
    assert len(transmissions) == cfg.r_max + 1  # initial send plus R_max resends
    assert len({(e.row, e.chunk) for e in transmissions}) == 1  # all the same chunk
    assert result.log.count("abort") == 1


def test_round_budget_ends_the_run(small_matrix, clean_run):
    # The host turns max_sim_seconds into rounds: 0.5 s at 60 rounds/s.
    cfg = ScenarioConfig(protocol=Variant.EX, max_sim_seconds=0.5)
    result, _ = clean_run(cfg, small_matrix)
    assert not result.completed
    assert result.rounds == 30
    assert result.failure_reason == "round budget exhausted"


def test_no_message_sent_more_than_r_max_plus_one_times(small_matrix, clean_run):
    cfg = ScenarioConfig(protocol=Variant.EX)
    result, _ = clean_run(cfg, small_matrix, seed=9, cm=85.0)
    counts = {}
    for e in result.log.events:
        if e.event in ("send", "resend"):
            counts[(e.row, e.chunk)] = counts.get((e.row, e.chunk), 0) + 1
    assert max(counts.values()) <= cfg.r_max + 1


class ResetBeforeSecondByte(Tag):
    """A tag that loses its address registers, as a brown-out does, just
    before it first takes the data byte at offset 1."""

    reset = False

    def handle_basic_write(self, raw):
        if raw[0] == 0x01 and not self.reset:
            self.reset = True
            self.set_powered(False)
            self.set_powered(True)
        super().handle_basic_write(raw)


def transmissions(result):
    return [(e.event, e.chunk, e.epc[:2].hex().upper()) for e in result.log.events
            if e.event in ("send", "resend")]


def test_a_basic_data_byte_times_out_then_follows_its_address_pair(clean_run):
    # The reset tag ignores 01CC and answers with its all-zero EPC: an "error"
    # timeout.  The host puts the row's address pair on air again, then 01CC.
    result, tag = clean_run(ScenarioConfig(protocol=Variant.BASIC), parse_file(GOLDEN_FILE),
                            tag=ResetBeforeSecondByte())
    assert result.completed
    assert transmissions(result) == [
        ("send", 1, "FDAA"), ("send", 2, "FEDD"), ("send", 3, "00BB"), ("send", 4, "01CC"),
        ("resend", 1, "FDAA"), ("send", 2, "FEDD"), ("send", 4, "01CC")]
    assert [e.result for e in result.log.events if e.event == "timeout"] == ["error"]
    assert (result.messages_sent, result.resends) == (7, 1)
    assert tag.fram.read(0xAADD, 2) == bytes([0xBB, 0xCC])


def test_a_basic_data_byte_spends_one_resend_budget_through_its_address_pairs(clean_run):
    # Every write lands inverted, so 00BB never echoes back and times out
    # each time.  The address pairs between its resends are acknowledged, and
    # still the byte gets the initial send plus R_max resends, then the abort.
    cfg = ScenarioConfig(protocol=Variant.BASIC, r_max=3)
    result, _ = clean_run(cfg, parse_file(GOLDEN_FILE), tag=Tag(write_fault_prob=1.0))
    assert result.failure_reason == "resend budget exhausted"
    detour = [("resend", 1, "FDAA"), ("send", 2, "FEDD"), ("send", 3, "00BB")]
    assert transmissions(result) == [("send", 1, "FDAA"), ("send", 2, "FEDD"),
                                     ("send", 3, "00BB"), *detour * cfg.r_max]
    assert result.log.count("timeout") == cfg.r_max + 1
    assert result.log.count("abort") == 1


def test_the_cursor_readdresses_only_after_a_data_byte_times_out():
    # The cursor answers each (ACK or timeout) with the next transmission as
    # (header byte, chunk, fresh): the INIT until it is ACKed, a timed-out
    # address Write as it was, and a timed-out data byte after its row's
    # address pair, which goes out as many times as it times out.  The
    # application CRC's high and low bytes come last, each until it is ACKed.
    cfg = ScenarioConfig(protocol=Variant.BASIC, bootloader=True)
    flights = HostSession(cfg, parse_file(GOLDEN_FILE))._flights(TransferLog()._appender())
    outcomes = ["lost", "ack", "error", "ack", "ack", "lost", "error", "ack", "ack", "ack",
                "ack", "lost", "ack", "error"]
    replies = [None, *((outcome, now) for now, outcome in enumerate(outcomes, 1))]
    flown = list(map(flights.send, replies))
    assert [(raw[0], row, chunk, fresh) for raw, row, chunk, _, fresh in flown] == [
        (HDR_REPROGRAM_INIT, -1, 0, True), (HDR_REPROGRAM_INIT, -1, 0, True),
        (0xFD, 0, 1, True), (0xFD, 0, 1, True), (0xFE, 0, 2, True), (0x00, 0, 3, True),
        (0xFD, 0, 1, False), (0xFD, 0, 1, False), (0xFE, 0, 2, False), (0x00, 0, 3, True),
        (0x01, 0, 4, True), (HDR_CRC_HIGH, -1, 1, True), (HDR_CRC_HIGH, -1, 1, True),
        (HDR_CRC_LOW, -1, 2, True), (HDR_CRC_LOW, -1, 2, True)]
    crc = crc16_ccitt(b"\xBB\xCC")  # the image, in address order
    assert [raw[1] for raw, *_ in flown[-4:]] == [crc >> 8] * 2 + [crc & 0xFF] * 2
    with pytest.raises(StopIteration):
        flights.send(("ack", len(replies)))


# -- stale-echo flood bound --------------------------------------------------------


def test_no_timeouts_when_ocv_within_threshold(small_matrix, clean_run):
    result, _ = clean_run(
        ScenarioConfig(protocol=Variant.EX, s_p=2, ocv=15, n_threshold=20),
        small_matrix,
    )
    assert result.completed
    assert result.log.count("timeout") == 0


def test_flood_forces_timeouts_when_ocv_exceeds_threshold(small_matrix, clean_run):
    cfg = ScenarioConfig(protocol=Variant.EX, s_p=2, ocv=25, n_threshold=20)
    result, _ = clean_run(cfg, small_matrix)
    assert result.completed
    assert result.log.count("timeout") > 0


# -- variant comparison -------------------------------------------------------------


def test_basic_needs_twice_the_messages_of_single_word_ex(random_5120_matrix, clean_run):
    basic, _ = clean_run(ScenarioConfig(protocol=Variant.BASIC), random_5120_matrix)
    ex, _ = clean_run(ScenarioConfig(protocol=Variant.EX, s_p=1), random_5120_matrix)
    assert basic.completed and ex.completed
    assert ex.messages_sent < basic.messages_sent
    assert basic.messages_sent >= 2 * ex.messages_sent
    assert basic.rounds > 2 * ex.rounds  # runtime follows the message count


# -- image equality ------------------------------------------------------------------


def assert_image_matches(tag, matrix):
    for address, value in matrix.flat_image().items():
        assert tag.fram.read(address, 1)[0] == value


def test_image_equality_clean_ex(small_matrix, clean_run):
    result, tag = clean_run(ScenarioConfig(protocol=Variant.EX), small_matrix)
    assert result.completed
    assert_image_matches(tag, small_matrix)


def test_image_equality_over_noisy_channel(small_matrix, clean_run):
    # Degraded but workable distance: resends happen, content still lands.
    cfg = ScenarioConfig(protocol=Variant.EX)
    completions = 0
    for seed in (3, 4, 5):
        result, tag = clean_run(cfg, small_matrix, seed=seed, cm=75.0,
                                tag=Tag(energy_seed=seed))
        if result.completed:
            completions += 1
            assert result.resends > 0  # the channel did bite
            assert_image_matches(tag, small_matrix)
    assert completions >= 2


def test_empty_data_records_are_skipped(clean_run):
    text = (
        ":02AADD00BBCCF0\n"
        ":00400000C0\n"  # zero-length data record
        ":021000001122BB\n"
        ":00000001FF\n"
    )
    matrix = parse_file(text)
    assert len(matrix) == 3 and matrix.rows[1].data == b""
    result, tag = clean_run(ScenarioConfig(protocol=Variant.EX), matrix)
    assert result.completed
    assert result.messages_sent == 2  # the empty row costs nothing
    assert tag.fram.read(0xAADD, 2) == bytes([0xBB, 0xCC])
    assert tag.fram.read(0x1000, 2) == bytes([0x11, 0x22])


def test_all_empty_records_complete_immediately(clean_run):
    text = ":00400000C0\n:00000001FF\n"
    matrix = parse_file(text)
    result, _ = clean_run(ScenarioConfig(protocol=Variant.EX), matrix)
    assert result.completed
    assert result.messages_sent == 0
    assert result.rounds == 0
    assert [(e.round_no, e.event) for e in result.log.events] == [(0, "complete")]


def test_basic_sends_address_messages_for_empty_rows(clean_run):
    text = ":00400000C0\n:00000001FF\n"
    result, _ = clean_run(ScenarioConfig(protocol=Variant.BASIC), parse_file(text))
    assert result.completed
    assert result.messages_sent == 2  # the two address messages


def test_bootloader_transfer_reaches_application(small_matrix, clean_run):
    cfg = ScenarioConfig(protocol=Variant.EX, bootloader=True)
    result, tag = clean_run(cfg, small_matrix, seed=6, tag=Tag(start_in_bootloader=True))
    assert result.completed
    assert result.reached_application
    assert tag.application_crc() == matrix_crc(small_matrix)


# -- round stepping -----------------------------------------------------------------


class CountingProfile(DistanceProfile):
    """A profile that records the round number of every lookup."""

    def __init__(self, **fields):
        super().__init__(**fields)
        self.looked_up: list[int] = []

    @property
    def lookups(self) -> int:
        return len(self.looked_up)

    def at(self, round_no: int) -> float:
        self.looked_up.append(round_no)
        return super().at(round_no)


@pytest.mark.parametrize("speed_m_per_s,seed", [(0.1, 3682), (4.0, 1606)])
def test_a_distance_is_looked_up_at_most_once_per_cycle_position(speed_m_per_s, seed):
    # brownout = auto, so each round's power draw depends on its distance.  The
    # 480-round cycle outlasts the run (seed 3682: 62 rounds); the 12-round
    # one repeats ten times (seed 1606: 120 rounds, the last 34 of them the
    # application CRC's two Writes, one resent).
    profile = CountingProfile(kind="oscillate", min_cm=100, max_cm=140,
                              speed_m_per_s=speed_m_per_s)
    cfg = ScenarioConfig(seed=seed, bootloader=True, profile=profile)
    result = run_scenario(cfg, matrix=parse_file(GOLDEN_FILE)).runs[0].result
    assert cfg.brownout is None
    assert result.completed and result.reached_application
    positions = [round_no % profile.period for round_no in profile.looked_up]
    assert len(set(positions)) == len(positions)
    assert len(positions) <= result.rounds


@pytest.mark.usefixtures("one_worker")
def test_a_static_distance_is_looked_up_once_per_run():
    # At seed 2281 both runs complete at 100 cm.
    profile = CountingProfile(kind="static", d_cm=100)
    cfg = ScenarioConfig(seed=2281, bootloader=True, profile=profile, repeats=2)
    runs = run_scenario(cfg, matrix=parse_file(GOLDEN_FILE)).runs
    assert all(r.result.completed and r.result.reached_application for r in runs)
    assert profile.lookups == len(runs) == 2


def test_a_budget_ending_inside_the_checksum_flight_does_not_complete():
    # The lookup test's seed-3682 case sends the CRC's low byte in round 44 and
    # sees its ACK in round 62; a budget of 50 rounds ends between the two.
    profile = DistanceProfile(kind="oscillate", min_cm=100, max_cm=140)
    cfg = ScenarioConfig(seed=3682, bootloader=True, profile=profile,
                         max_sim_seconds=50.5 / ROUNDS_PER_SEC)
    result = run_scenario(cfg, matrix=parse_file(GOLDEN_FILE)).runs[0].result
    sends = [(e.round_no, e.row, e.chunk) for e in result.log.events if e.event == "send"]
    assert sends[-1] == (44, -1, 2)
    assert not result.completed and not result.reached_application
    assert result.failure_reason == "round budget exhausted"
    assert result.rounds == 50
    assert result.log.count("complete") == 0


class ByteLostBeforeChecksum(Tag):
    """A tag whose memory loses its first stored byte as it takes the CRC's high byte."""

    def handle_basic_write(self, raw):
        if raw[0] == HDR_CRC_HIGH and self._crc_high is None:
            address = self._written.index(1)
            self.fram.write(address, bytes([self.fram.read(address)[0] ^ 0xFF]))
        super().handle_basic_write(raw)


@pytest.mark.parametrize("protocol", list(Variant))
def test_a_run_whose_application_crc_fails_is_not_completed(clean_run, protocol):
    # Every message up to the CRC's low byte is ACKed.  The tag no longer holds
    # the image, so it never echoes that byte: its send and R_max resends time out.
    cfg = ScenarioConfig(protocol=protocol, bootloader=True)
    tag = ByteLostBeforeChecksum(start_in_bootloader=True)
    result, _ = clean_run(cfg, parse_file(GOLDEN_FILE), tag=tag)
    crc_low = [e.event for e in result.log.events if (e.row, e.chunk) == (-1, 2)]
    assert [e for e in crc_low if e != "nack"] == [
        "send", *["timeout", "resend"] * cfg.r_max, "timeout", "abort"]
    assert result.log.count("timeout") == cfg.r_max + 1  # all of them the CRC's
    assert not result.completed and not result.reached_application
    assert result.failure_reason == "application CRC mismatch"
    assert result.log.count("complete") == 0
    assert tag.mode is TagMode.REPROGRAM


def test_simulate_fails_a_run_whose_application_crc_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(scenario, "Tag", ByteLostBeforeChecksum)
    (tmp_path / "image.hex").write_text(GOLDEN_FILE)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"hex_file = {tmp_path / 'image.hex'}\nbootloader = true\nbrownout = 0\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert [row.split(",")[1] for row in summary] == ["completed", "0"]


# -- round budget edges ---------------------------------------------------------------
#
# Each case cuts the round budget at a round an unbudgeted run of the same
# seed reached, so the cut run replays it up to that round.

TWO_ROWS = parse_file(generate_fixture(bytes(range(1, 41)), record_width=20))
FLAVOURS = [(protocol, boot) for protocol in Variant for boot in (False, True)]


def budget_run(clean_run, protocol, bootloader, rounds=None, **kwargs):
    """``clean_run`` of the two-row image, cut after ``rounds`` rounds if given."""
    cfg = ScenarioConfig(protocol=protocol, bootloader=bootloader, r_max=kwargs.pop("r_max", 3))
    if rounds is not None:
        cfg.max_sim_seconds = (rounds + 0.5) / ROUNDS_PER_SEC
    result, _ = clean_run(cfg, TWO_ROWS, tag=Tag(start_in_bootloader=bootloader), **kwargs)
    return result


@pytest.mark.parametrize("protocol, bootloader", FLAVOURS)
def test_budget_ending_on_the_last_ack_completes(clean_run, protocol, bootloader):
    full = budget_run(clean_run, protocol, bootloader)
    assert full.completed
    last_ack = max(e.round_no for e in full.log.events if e.event == "ack")

    exact = budget_run(clean_run, protocol, bootloader, rounds=last_ack)
    assert exact.completed and exact.failure_reason == ""
    assert exact.rounds == last_ack
    assert exact.reached_application == bootloader
    assert exact.log.events == full.log.events

    short = budget_run(clean_run, protocol, bootloader, rounds=last_ack - 1)
    assert not short.completed
    assert short.failure_reason == "round budget exhausted"
    assert short.rounds == last_ack - 1
    assert short.log.events[-1].event == "nack"


# (messages_sent, resends, sum_s_p, op_success, op_total) of the run cut one round
# before its last ACK, then of the run whose budget ends on it.  The cut run
# never consumes the report of its last tick, so that report goes uncounted.
# With the bootloader on, the last ACK is that of the application CRC's low byte.
BUDGET_COUNTS = {
    (Variant.BASIC, False): [(44, 0, 22.0, 646, 646), (44, 0, 22.0, 647, 647)],
    (Variant.BASIC, True): [(47, 0, 23.5, 691, 691), (47, 0, 23.5, 692, 692)],
    (Variant.EX, False): [(2, 0, 20.0, 16, 17), (2, 0, 20.0, 16, 18)],
    (Variant.EX, True): [(5, 0, 21.5, 61, 62), (5, 0, 21.5, 62, 63)],
}


@pytest.mark.parametrize("protocol, bootloader", FLAVOURS)
def test_a_cut_run_leaves_its_last_report_uncounted(clean_run, protocol, bootloader):
    full = budget_run(clean_run, protocol, bootloader)
    last_ack = max(e.round_no for e in full.log.events if e.event == "ack")
    runs = [budget_run(clean_run, protocol, bootloader, rounds=n) for n in (last_ack - 1, last_ack)]
    assert [r.completed for r in runs] == [False, True]
    assert [session_counts(r) for r in runs] == BUDGET_COUNTS[protocol, bootloader]


@pytest.mark.parametrize("protocol, bootloader", FLAVOURS)
def test_budget_ending_on_a_timeout_still_resends(clean_run, protocol, bootloader):
    full = budget_run(clean_run, protocol, bootloader, r_max=1, cm=400.0)
    assert full.failure_reason == "resend budget exhausted"
    first_timeout = next(e.round_no for e in full.log.events if e.event == "timeout")

    cut = budget_run(clean_run, protocol, bootloader, rounds=first_timeout, r_max=1, cm=400.0)
    assert not cut.completed
    assert cut.failure_reason == "round budget exhausted"
    assert cut.rounds == first_timeout
    assert (cut.messages_sent, cut.resends) == (2, 1)
    # A throttled extended chunk logs its step down between the two.
    assert [e.event for e in cut.log.events if e.event != "throttle"][-2:] == ["timeout", "resend"]


# -- the round-path fast paths against the plain run -------------------------------
#
# The reader takes a static tag's stale repeats in batches, puts a moving
# tag's placements back from a per-cycle table and reuses a repeated report by
# identity.  A ``PlainReader`` does none of that, so each generated config must
# give the same run both ways.  Each run must also keep its claim: a completed
# run's tag holds the image and, with the bootloader, runs it.


# Oscillations between the default 20 and 90 cm: cycles of 840 and 20 rounds, a
# fractional one, none (speed 0) and one of 8400 rounds, past the odds memo.
SPEEDS = [0.1, 4.2, 0.13, 0.0, 0.01]


@st.composite
def round_path_configs(draw):
    """A small image, a config and a seed: either flavour, a fixed or throttled
    S_p, write faults, the bootloader, no brown-outs, a fixed brown-out
    probability up to 0.3 or the distance's own (``auto``), an OCV up to the
    NACK threshold (above 28 too, where the delete grace bound ends frames),
    budgets that may cut a run or a batch short, and a static tag or an
    oscillating one, on any branch of ``Reader._placement``."""
    payload = draw(st.binary(min_size=1, max_size=64))
    matrix = parse_file(generate_fixture(payload, record_width=draw(st.integers(1, 33))))
    protocol = draw(st.sampled_from(Variant))
    ocv = draw(st.integers(2, 40))
    cfg = ScenarioConfig(
        protocol=protocol,
        s_p=draw(st.none() | st.integers(1, 16)) if protocol is Variant.EX else None,
        ocv=ocv, n_threshold=draw(st.integers(ocv, 40)), r_max=draw(st.integers(1, 4)),
        bootloader=draw(st.booleans()),
        brownout=draw(st.sampled_from([0.0, 0.001, 0.05, None]) | st.floats(0, 0.3)),
        write_fault_prob=draw(st.sampled_from([0.0, 0.01, 0.3])),
        max_sim_seconds=draw(st.integers(60, 4000) | st.just(216_000)) / ROUNDS_PER_SEC,
        profile=draw(st.builds(DistanceProfile, d_cm=st.floats(20, 120))
                     | st.builds(DistanceProfile, kind=st.just("oscillate"),
                                 speed_m_per_s=st.sampled_from(SPEEDS) | st.floats(0, 5))))
    cfg.validate()
    return cfg, matrix, draw(st.integers(0, 2**16))


def placement_branch(cfg) -> str:
    """The branch of ``Reader._placement`` that ``cfg`` takes."""
    period = cfg.profile.period
    if period == 1:
        return "static"
    if not period:
        return "per-round: fractional cycle"
    if period > min(int(cfg.max_sim_seconds * ROUNDS_PER_SEC), ODDS_MEMO_SIZE):
        return "per-round: past the budget or the memo"
    return "table"


def transfer_run(cfg, matrix, seed, reader=Reader):
    """Run one seeded transfer through a ``reader`` class; returns its log, result,
    tag state and streams, and the tag."""
    tag = Tag(write_fault_prob=cfg.write_fault_prob, fault_seed=seed + 3,
              start_in_bootloader=cfg.bootloader)
    channel, power = ChannelModel(seed), PowerModel(seed + 2)
    result = run_session(cfg, matrix, tag, channel, power, reader)
    return ((result.log.rounds, result.log.kind_ids, result.log.kinds), replace(result, log=None),
            (tag.fram.read(0, FRAM_SIZE), bytes(tag._written), tag.epc, tag.mode, tag.powered,
             tag._addr_high, tag._addr_low, tag._crc_high, tag._fault_rng.getstate()),
            channel.rng.getstate(), (power.rng.getstate(), power._outage_left)), tag


def check_run_claim(matrix, result, tag, bootloader):
    """A completed run's tag holds every image byte; with the bootloader, its
    application CRC is the image's and it has left reprogram mode (it took the
    CRC's low byte), and the run says it reached the application."""
    event("completed" if result.completed else "failed")
    if not result.completed:
        return
    memory = tag.fram.read(0, FRAM_SIZE)
    assert all(memory[address] == byte for address, byte in matrix.flat_image().items())
    if bootloader:
        assert tag.application_crc() == matrix_crc(matrix)
        assert tag.mode is not TagMode.REPROGRAM
        assert result.reached_application


def example_config(text, seed, period=None):
    """An ``@example`` of a config file's text on the 520-byte image.  ``period``
    is the cycle its profile must have; a table one must be outlasted."""
    return example((parse_config_text(text), small_image(), seed), period)


def placement_example(speed, seconds, period, seed):
    return example_config(f"bootloader = true\ndistance = oscillate\nspeed_m_per_s = {speed}\n"
                          f"max_sim_seconds = {seconds}\n", seed, period)


@settings(max_examples=200, deadline=None)
@given(round_path_configs(), st.none())
# A moving tag at 20-90 cm: a whole cycle the run outlasts, a fractional one, a
# speed of 0, a cycle past a 600-round budget and one past the odds memo.
@placement_example(0.1, 3600, 840, seed=0)
@placement_example(0.13, 3600, 0, seed=0)
@placement_example(0.0, 3600, 1, seed=0)
@placement_example(0.1, 10, 840, seed=0)
@placement_example(0.01, 3600, 8400, seed=0)
# Repeated NACK rows: the golden basic and EX configs, and EX at 50 cm through
# brown-outs, where no-tag and success NACKs alternate.
@example_config(REPEAT_NACK_CONFIGS["basic"], seed=1)
@example_config(REPEAT_NACK_CONFIGS["ex"], seed=1)
@example_config(REPEAT_NACK_CONFIGS["ex_50cm_brownouts"], seed=1)
def test_the_round_path_fast_paths_match_the_plain_run(case, period):
    # Every stream draws, and every row, count and tag state comes out, as in
    # the plain run: the log, the result, the tag, the channel and fault
    # streams, and the power stream with its pending outage.
    batched, through = [], []  # per batch: its rounds, and its rounds with no full reply
    restored = []  # per tick: whether it put the next placement back from the cycle's table

    class CountingReader(Reader):
        def repeat(self, *args):
            k, last, missed = super().repeat(*args)
            batched.append(k)
            through.append(len(missed))
            return k, last, missed

        def tick(self, now):
            restored.append(self._cycle is not None and self._period <= now < self.max_rounds)
            return super().tick(now)

    fast, tag = transfer_run(*case, reader=CountingReader)
    plain, _ = transfer_run(*case, reader=PlainReader)
    cfg = case[0]
    branch = placement_branch(cfg)
    event(branch)
    event("a batch ran" if any(batched) else "no batch ran")
    if any(through):
        event("a batch ran through a lost or corrupted round")
    if any(restored):
        event("a tick restored a placement from the table")
    assert fast == plain
    check_run_claim(case[1], fast[1], tag, cfg.bootloader)
    if period is not None:
        assert cfg.profile.period == period
        assert branch != "table" or fast[1].rounds > period  # later cycles put placements back


@pytest.mark.usefixtures("one_worker")
def test_only_an_earlier_specs_report_is_offered_for_a_batch(monkeypatch, small_matrix):
    # A stale repeat of the spec on air would need its report's EPC to be the
    # tag's echo of that spec, which ACKs it; so the host offers the reader a
    # batch only for a report of an earlier spec.
    calls = []  # per repeat call: the spec ids of the report and of the spec on air

    class RecordingReader(Reader):
        def stage(self, spec, now):
            self.on_air = spec.spec_id
            super().stage(spec, now)

        def repeat(self, *args):
            calls.append((self._last.spec_id, self.on_air))
            return super().repeat(*args)

    monkeypatch.setattr(scenario, "Reader", RecordingReader)
    run_scenario(parse_config_text(GOLDEN_CONFIGS["batch_basic"] + "seed = 1\n"),
                 matrix=small_matrix)
    assert calls and all(report < on_air for report, on_air in calls)
