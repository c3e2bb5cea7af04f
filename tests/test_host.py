import gc
import tracemalloc
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings, strategies as st

from crfid_downlink import scenario
from crfid_downlink.cli import main
from crfid_downlink.host import HostSession, TransferLog, Variant, classify_report, matrix_crc
from crfid_downlink.ihex import RecordMatrix, Row, generate_fixture, parse_file
from crfid_downlink.protocol import HDR_REPROGRAM_INIT, build_ladder, snap_to_ladder
from crfid_downlink.reader import ROUNDS_PER_SEC, OperationReport, ReportResult
from crfid_downlink.scenario import DistanceProfile, ScenarioConfig, ScenarioError, run_scenario
from crfid_downlink.tag import Tag, TagMode
from test_scenario import HOST_EVENTS, log_events, tag_state_digest

GOLDEN_FILE = ":02AADD00BBCCF0\n:00000001FF\n"


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
    session = HostSession(ScenarioConfig(protocol=Variant.EX, s_max=16, s_p=s_p), matrix)
    flights = session._flights()
    start = 16 if s_p is None else s_p  # a throttled session starts at S_max
    rows = []
    try:
        flight = next(flights)
        while True:
            _, row, chunk, sent_s_p, _ = flight
            if chunk == 1:  # a row's first chunk goes out on that row's ladder
                ladder = build_ladder(matrix.rows[row].word_count(), 16)
                assert session._ladder == ladder
                assert sent_s_p == session._s_p == snap_to_ladder(start, ladder)
                rows.append(row)
            if s_p is None:
                session._throttle(-1)  # a throttled S_p moves while the row is sent
                start = session._s_p
            flight = flights.send(True)
    except StopIteration:
        pass
    assert rows == list(range(len(widths)))


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
    # address pair, which goes out as many times as it times out.
    cfg = ScenarioConfig(protocol=Variant.BASIC, bootloader=True)
    flights = HostSession(cfg, parse_file(GOLDEN_FILE))._flights()
    replies = [None, False, True, False, True, True, False, False, True, True, True]
    sent = [(raw[0], row, chunk, fresh)
            for raw, row, chunk, _, fresh in map(flights.send, replies)]
    assert sent == [
        (HDR_REPROGRAM_INIT, -1, 0, True), (HDR_REPROGRAM_INIT, -1, 0, True),
        (0xFD, 0, 1, True), (0xFD, 0, 1, True), (0xFE, 0, 2, True), (0x00, 0, 3, True),
        (0xFD, 0, 1, False), (0xFD, 0, 1, False), (0xFE, 0, 2, False), (0x00, 0, 3, True),
        (0x01, 0, 4, True)]
    with pytest.raises(StopIteration):
        flights.send(True)


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


@dataclass
class CountingProfile(DistanceProfile):
    """A profile that records the round number of every lookup."""

    looked_up: list[int] = field(default_factory=list)

    @property
    def lookups(self) -> int:
        return len(self.looked_up)

    def at(self, round_no: int) -> float:
        self.looked_up.append(round_no)
        return super().at(round_no)


@pytest.mark.parametrize("speed_m_per_s,seed", [(0.1, 3682), (4.0, 1606)])
def test_a_distance_is_looked_up_at_most_once_per_cycle_position(speed_m_per_s, seed):
    # brownout = auto, so each round's power draw depends on its distance.  At
    # these seeds the tag is browned out when the last message is acknowledged,
    # so the host steps further rounds until it can deliver the checksum.  The
    # 480-round cycle outlasts the run (seed 3682: last ACK in round 39, 41
    # rounds); the 12-round one repeats seven times, the wait for power
    # included (seed 1606: last ACK in round 86, 92 rounds).
    profile = CountingProfile(kind="oscillate", min_cm=100, max_cm=140,
                              speed_m_per_s=speed_m_per_s)
    cfg = ScenarioConfig(seed=seed, bootloader=True, profile=profile)
    result = run_scenario(cfg, matrix=parse_file(GOLDEN_FILE)).runs[0].result
    assert cfg.brownout is None
    assert result.completed and result.reached_application
    last_ack = max(e.round_no for e in result.log.events if e.event == "ack")
    assert result.rounds > last_ack
    positions = [round_no % profile.period for round_no in profile.looked_up]
    assert len(set(positions)) == len(positions)
    assert len(positions) <= result.rounds


def test_a_static_distance_is_looked_up_once_per_run():
    # At seed 2281 the tag is browned out when the last message is
    # acknowledged (round 34 of the first run's 37), so the wait for power
    # before the checksum steps rounds as well.
    profile = CountingProfile(kind="static", d_cm=100)
    cfg = ScenarioConfig(seed=2281, bootloader=True, profile=profile, repeats=2)
    runs = run_scenario(cfg, matrix=parse_file(GOLDEN_FILE)).runs
    result = runs[0].result
    assert result.completed and result.reached_application
    assert result.rounds > max(e.round_no for e in result.log.events if e.event == "ack")
    assert profile.lookups == len(runs) == 2


class PerRoundPlacementHost(HostSession):
    """The host that places a moving tag through the profile every round, as
    it did before it kept a per-cycle placement table."""

    def _placement(self, channel, max_rounds):
        at, place = self.config.profile.at, channel.set_distance_cm
        if self.config.profile.kind == "static":
            place(at(0))
            return None
        return lambda now: place(at(now))


# 20-90 cm oscillations: (speed, max_sim_seconds, the period the host sees).
PLACEMENT_CASES = {
    "whole-cycle": (0.1, 3600.0, 840),
    "fractional-cycle": (0.13, 3600.0, 0),
    "still": (0.0, 3600.0, 1),
    "cycle-past-the-budget": (0.1, 10.0, 840),  # a 600-round budget
    "cycle-past-the-memo": (0.01, 3600.0, 8400),
}


@pytest.mark.parametrize("brownout", [None, 0.05], ids=["auto", "fixed"])
@pytest.mark.parametrize("case", sorted(PLACEMENT_CASES))
def test_placement_table_matches_the_per_round_reference(tmp_path, monkeypatch, small_matrix,
                                                          case, brownout):
    speed, seconds, period = PLACEMENT_CASES[case]
    profile = DistanceProfile(kind="oscillate", min_cm=20, max_cm=90, speed_m_per_s=speed)
    assert profile.period == period
    longest = 0
    for seed in (0, 1, 2):
        cfg = ScenarioConfig(seed=seed, profile=profile, brownout=brownout, bootloader=True,
                             max_sim_seconds=seconds, repeats=2)
        table = run_scenario(cfg, tmp_path / f"table{seed}", matrix=small_matrix)
        with monkeypatch.context() as m:
            m.setattr(scenario, "HostSession", PerRoundPlacementHost)
            ref = run_scenario(cfg, tmp_path / f"ref{seed}", matrix=small_matrix)
        files = sorted(f.name for f in (tmp_path / f"ref{seed}").iterdir())
        assert "summary.csv" in files and "run_01_log.csv" in files
        for name in files:
            assert ((tmp_path / f"table{seed}" / name).read_bytes()
                    == (tmp_path / f"ref{seed}" / name).read_bytes()), (seed, name)
        assert tag_state_digest(table) == tag_state_digest(ref)
        assert [(r.tag.epc, r.tag.mode, r.tag.powered) for r in table.runs] == [
            (r.tag.epc, r.tag.mode, r.tag.powered) for r in ref.runs]
        longest = max(longest, *(r.result.rounds for r in table.runs))
    # The runs outlast the cycle, so later cycles put placements back.
    assert case != "whole-cycle" or longest > period


def test_waiting_for_power_to_finish_stays_within_the_round_budget():
    # The lookup test's seed-3682 case, cut at the round of the last ACK
    # (round 39): the tag is browned out then, and the budget ends before it can take the
    # application checksum.
    profile = DistanceProfile(kind="oscillate", min_cm=100, max_cm=140)
    cfg = ScenarioConfig(seed=3682, bootloader=True, profile=profile,
                         max_sim_seconds=39.5 / ROUNDS_PER_SEC)
    result = run_scenario(cfg, matrix=parse_file(GOLDEN_FILE)).runs[0].result
    assert max(e.round_no for e in result.log.events if e.event == "ack") == 39
    assert not result.completed and not result.reached_application
    assert result.failure_reason == "round budget exhausted"
    assert result.rounds == 39
    assert result.log.count("complete") == 0


class ByteLostBeforeChecksum(Tag):
    """A tag whose memory loses the first stored byte just before the application CRC."""

    def transfer_complete(self, crc):
        address = self._written.index(1)
        self.fram.write(address, bytes([self.fram.read(address)[0] ^ 0xFF]))
        return super().transfer_complete(crc)


@pytest.mark.parametrize("protocol", list(Variant))
def test_a_run_whose_application_crc_fails_is_not_completed(clean_run, protocol):
    cfg = ScenarioConfig(protocol=protocol, bootloader=True)
    tag = ByteLostBeforeChecksum(start_in_bootloader=True)
    result, _ = clean_run(cfg, parse_file(GOLDEN_FILE), tag=tag)
    assert result.log.count("ack") > 0 and result.log.count("abort") == 0
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
