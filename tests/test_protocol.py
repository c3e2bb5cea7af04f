import math

import pytest
from hypothesis import given, settings, strategies as st

from crfid_downlink.host import HostSession, TransferLog, Variant
from crfid_downlink.ihex import RecordMatrix, Row
from crfid_downlink.protocol import (
    HDR_ADDR_FIRST,
    HDR_ADDR_SECOND,
    HDR_CRC_HIGH,
    HDR_CRC_LOW,
    HDR_REPROGRAM_INIT,
    MAX_BASIC_OFFSET,
    BasicMessage,
    PayloadTooLarge,
    RowTooLong,
    build_basic_messages,
    build_ex_message,
    build_ladder,
    derive_r_max,
    echo,
    snap_to_ladder,
    throttle,
)
from crfid_downlink.reader import AccessSpec
from crfid_downlink.scenario import ScenarioConfig, ScenarioError
from test_tag import reference_crc16_ccitt

T_U, T_DE, T_DL = 1, -2, -3  # the default index steps


# -- basic messages -----------------------------------------------------------


def test_basic_messages_golden_row():
    msgs = build_basic_messages(Row(0xAADD, bytes([0xBB, 0xCC])))
    assert msgs == [b"\xFD\xAA", b"\xFE\xDD", b"\x00\xBB", b"\x01\xCC"]


def test_basic_messages_address_only():
    msgs = build_basic_messages(Row(0x0000, b""))
    assert msgs == [b"\xFD\x00", b"\xFE\x00"]


def test_basic_messages_single_byte():
    msgs = build_basic_messages(Row(0x1234, bytes([0xAA])))
    assert msgs == [b"\xFD\x12", b"\xFE\x34", b"\x00\xAA"]


def test_basic_messages_row_too_long():
    build_basic_messages(Row(0, bytes(33)))  # offsets 0x00..0x20 still fit
    with pytest.raises(RowTooLong):
        build_basic_messages(Row(0, bytes(34)))


def test_basic_message_header_validation():
    BasicMessage(0x20, 0)
    BasicMessage(0xFB, 0)
    BasicMessage(0xFD, 0)
    for header in (0x21, 0xFA):
        with pytest.raises(ValueError):
            BasicMessage(header, 0)


def test_basic_message_epc_echo_is_message_copy():
    # Header, payload, then the Write echo mark 0x01: never the all-zero EPC.
    msg = BasicMessage(0xFD, 0xAA)
    assert msg.expected_epc() == bytes([0xFD, 0xAA, 0x01]) + bytes(9)
    assert BasicMessage(0x00, 0x00).expected_epc() == bytes([0x00, 0x00, 0x01]) + bytes(9)


def test_echo_is_a_writes_bytes_and_mark_or_a_blockwrites_header():
    assert echo(b"\x00\x00") == b"\x00\x00\x01"
    ex = build_ex_message(bytes([0xBB, 0xCC, 0xDD]), 0xAADD)
    assert echo(ex.raw) == ex.raw[:4] and len(ex.raw) == 8


@given(
    st.integers(min_value=0, max_value=0xFFFF),
    st.binary(min_size=0, max_size=33),
)
def test_basic_messages_replay_reconstructs_row(address, data):
    # Decode the two-byte images with an independent statement of the header
    # rules and check the row comes back byte-exact.
    images = build_basic_messages(Row(address, data))
    # Each is a valid Write's wire image: BasicMessage checks the header.
    assert all(type(raw) is bytes and BasicMessage(*raw).raw == raw for raw in images)
    hi = lo = None
    rebuilt = {}
    for header, payload in images:
        if header == 0xFD:
            hi = payload
        elif header == 0xFE:
            lo = payload
        else:
            rebuilt[((hi << 8) | lo) + header] = payload
    assert ((hi << 8) | lo) == address
    assert rebuilt == {address + i: b for i, b in enumerate(data)}


# -- extended messages --------------------------------------------------------


def oracle_sum_complement(data: bytes) -> int:
    return (256 - (sum(data) % 256)) % 256


def test_ex_checksum_zeros():
    # Length, address and payload summing to 0 mod 256 give a zero checksum.
    msg = build_ex_message(bytes(2), 0xFE00)
    assert oracle_sum_complement(bytes([0x02, 0xFE, 0x00, 0x00, 0x00])) == 0x00
    assert msg.checksum == 0x00


def test_ex_checksum_single_ff():
    msg = build_ex_message(bytes([0xFF]), 0x0000)
    assert oracle_sum_complement(bytes([0x01, 0x00, 0x00, 0xFF])) == 0x00
    assert msg.checksum == 0x00
    assert build_ex_message(bytes([0xFF]), 0x00FF).checksum == 0x01


def test_ex_checksum_golden_fields():
    # The golden record's fields without the type byte; the type byte is
    # zero so the value matches the record checksum.
    data = bytes([0x02, 0xAA, 0xDD, 0xBB, 0xCC])
    assert oracle_sum_complement(data) == 0xF0
    assert build_ex_message(data[3:], 0xAADD).checksum == 0xF0


def test_ex_message_golden_chunk():
    msg = build_ex_message(bytes([0xBB, 0xCC]), 0xAADD)
    assert msg.length == 2
    assert msg.address == 0xAADD
    assert msg.data == bytes([0xBB, 0xCC])
    assert msg.checksum == oracle_sum_complement(bytes([0x02, 0xAA, 0xDD, 0xBB, 0xCC]))
    assert msg.raw[:4] == bytes([msg.checksum, 0x02, 0xAA, 0xDD])
    assert msg.expected_epc() == msg.raw[:4] + bytes(8)


def test_ex_message_minimal():
    msg = build_ex_message(bytes([0x00]), 0x0000)
    assert msg.length == 1
    assert msg.checksum == oracle_sum_complement(bytes([0x01, 0x00, 0x00, 0x00]))


def test_ex_message_full_width():
    msg = build_ex_message(bytes(range(32)), 0x4400, s_max=16)
    assert msg.length == 32
    assert len(msg.to_words()) == 2 + 16


def test_ex_message_payload_too_large():
    with pytest.raises(PayloadTooLarge):
        build_ex_message(bytes(33), 0x4400, s_max=16)


def test_ex_message_odd_payload_pads_last_word():
    msg = build_ex_message(bytes([0xAB]), 0x1000)
    words = msg.to_words()
    assert len(words) == 3  # two header words plus one padded payload word
    assert words[-1] == 0xAB00


def reference_to_words(msg) -> list[int]:
    """The per-byte word split the message once used, over its fields alone."""
    raw = bytes([msg.checksum, msg.length, (msg.address >> 8) & 0xFF, msg.address & 0xFF])
    raw += msg.data
    if len(raw) % 2:
        raw += b"\x00"
    return [(raw[i] << 8) | raw[i + 1] for i in range(0, len(raw), 2)]


def reference_spec_raw(words) -> bytes:
    """The per-byte big-endian packing the reader's spec once used."""
    return bytes(b for w in words for b in ((w >> 8) & 0xFF, w & 0xFF))


@st.composite
def ex_chunks(draw):
    s_max = draw(st.integers(min_value=1, max_value=30))
    chunk = draw(st.binary(min_size=1, max_size=2 * s_max))
    address = draw(st.integers(min_value=0, max_value=0x10000 - len(chunk)))
    return s_max, chunk, address


@settings(max_examples=300, deadline=None)
@given(ex_chunks())
def test_wire_image_matches_the_per_byte_reference(flight_walk, drawn):
    s_max, chunk, address = drawn
    msg = build_ex_message(chunk, address, s_max)
    words = reference_to_words(msg)
    raw = reference_spec_raw(words)
    header = bytes([msg.checksum, len(chunk), address >> 8, address & 0xFF])
    assert type(msg.to_words()) is list and msg.to_words() == words
    assert len(words) == (4 + len(chunk) + 1) // 2  # an odd chunk gets one pad byte
    assert msg.raw == raw
    assert AccessSpec(1, msg.raw, 15).raw == raw
    assert msg.expected_epc()[:4] == raw[:4] == header
    assert msg.expected_epc() == header + bytes(8)
    # The host puts the same image on air, between the INIT Write and the
    # application CRC's two Writes, and expects its first four bytes back.
    init = bytes([HDR_REPROGRAM_INIT, 0x00])
    config = ScenarioConfig(protocol=Variant.EX, s_max=s_max, s_p=s_max, bootloader=True)
    sent = sent_images(flight_walk, config, Row(address, chunk))
    assert sent[:2] == [init, raw] and sent[-2:] == crc_images(chunk)
    # A basic Write's image is its header byte then its payload byte.
    row = Row(address, chunk[: MAX_BASIC_OFFSET + 1])
    config = ScenarioConfig(protocol=Variant.BASIC, bootloader=True)
    basic = [init, bytes([HDR_ADDR_FIRST, address >> 8]), bytes([HDR_ADDR_SECOND, address & 0xFF])]
    basic += [bytes([offset, b]) for offset, b in enumerate(row.data)]
    basic += crc_images(row.data)
    assert sent_images(flight_walk, config, row) == basic
    assert BasicMessage(HDR_REPROGRAM_INIT, 0).raw == init
    assert all(BasicMessage(*r).raw == r for r in basic[-2:])
    assert build_basic_messages(row) == basic[1:-2]
    assert all(AccessSpec(1, r, 15).raw == r for r in basic)


def crc_images(image):
    """The application CRC's two Writes, for the image ``image``."""
    crc = reference_crc16_ccitt(image)
    return [bytes([HDR_CRC_HIGH, crc >> 8]), bytes([HDR_CRC_LOW, crc & 0xFF])]


def sent_images(flight_walk, config, row):
    """Every ``raw`` the host's cursor puts on air for one row, each one acknowledged."""
    session = HostSession(config, RecordMatrix([row]))
    sent, _ = flight_walk(session._flights(TransferLog()._appender()))
    return [raw for raw, *_ in sent]


# -- sequencing ---------------------------------------------------------------
# The host's message cursor walks the matrix one chunk at a time.


def three_row_matrix():
    return RecordMatrix(
        [
            Row(0x100, bytes(range(8))),  # 4 words
            Row(0x200, bytes(range(6))),  # 3 words
            Row(0x300, bytes(range(2))),  # 1 word
        ]
    )


def test_next_message_fresh_cursor_yields_first_chunk(chunk_walk):
    chunks, after = chunk_walk(three_row_matrix(), 2, steps=1)
    assert chunks == [(0x100, bytes(range(4)))]
    raw, row, chunk, s_p, fresh = after  # its ACK moves the cursor 4 bytes into row 0
    assert (row, chunk, s_p, fresh) == (0, 2, 2, True)
    assert (raw[2] << 8) | raw[3] == 0x104 and raw[4 : 4 + raw[1]] == bytes(range(4, 8))


def test_next_message_done_at_end(flight_walk):
    session = HostSession(ScenarioConfig(protocol=Variant.EX, s_p=2), three_row_matrix())
    flights = session._flights(TransferLog()._appender())
    sent, after = flight_walk(flights)
    assert [(row, chunk) for _, row, chunk, _, _ in sent] == [
        (0, 1), (0, 2), (1, 1), (1, 2), (2, 1)]
    assert after is None
    # Asking again, after an ACK or a timeout, leaves the cursor at the end.
    for outcome in ("ack", "error", "lost", "ack"):
        with pytest.raises(StopIteration):
            flights.send((outcome, len(sent)))


def test_next_message_walk_visits_every_chunk_in_order(chunk_walk):
    matrix = three_row_matrix()
    s_p = 2
    # Independent enumeration of the expected walk.
    expected = []
    for row in matrix.rows:
        for off in range(0, len(row.data), 2 * s_p):
            expected.append((row.address + off, row.data[off : off + 2 * s_p]))

    chunks, _ = chunk_walk(matrix, s_p)
    assert chunks == expected


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=0xF000),
                  st.binary(min_size=1, max_size=24)),
        min_size=1,
        max_size=8,
    ),
    st.integers(min_value=1, max_value=12),
)
def test_next_message_walk_property(chunk_walk, raw_rows, s_p):
    matrix = RecordMatrix([Row(a, d) for a, d in raw_rows])
    total = sum(len(d) for _, d in raw_rows)
    # One step more than there are bytes would show a walk that never ends.
    chunks, after = chunk_walk(matrix, s_p, steps=total + 1)
    assert len(chunks) <= total
    assert after is None
    assert b"".join(d for _, d in chunks) == b"".join(d for _, d in raw_rows)


# -- ladder -------------------------------------------------------------------


def oracle_ladder(s_r, s_max):
    values = sorted({math.ceil(s_r / n) for n in range(1, s_r + 1)})
    return tuple(v for v in values if v <= s_max)


def test_ladder_sixteen():
    assert build_ladder(16, 16) == (1, 2, 3, 4, 6, 8, 16)
    assert build_ladder(16, 16) == oracle_ladder(16, 16)


def test_ladder_single_word():
    assert build_ladder(1, 16) == (1,)


def test_ladder_truncated():
    assert build_ladder(16, 8) == (1, 2, 3, 4, 6, 8)
    assert build_ladder(16, 8) == oracle_ladder(16, 8)


def test_ladder_thirteen_words():
    assert build_ladder(13, 16) == oracle_ladder(13, 16) == (1, 2, 3, 4, 5, 7, 13)


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=32))
def test_ladder_matches_enumeration(s_r, s_max):
    assert build_ladder(s_r, s_max) == oracle_ladder(s_r, s_max)


# -- throttle -----------------------------------------------------------------

LADDER16 = (1, 2, 3, 4, 6, 8, 16)


def test_throttle_up_from_four():
    assert throttle(4, LADDER16, T_U) == 6


def test_throttle_down_error_from_six():
    assert throttle(6, LADDER16, T_DE) == 3


def test_throttle_down_lost_clamps_at_min():
    assert throttle(1, LADDER16, T_DL) == 1


def test_throttle_up_clamps_at_max():
    assert throttle(16, LADDER16, T_U) == 16


def test_throttle_rejects_foreign_value():
    with pytest.raises(ValueError):
        throttle(5, LADDER16, T_U)


@given(
    st.integers(min_value=2, max_value=64),
    st.integers(min_value=0, max_value=63),
    st.sampled_from([T_U, T_DE, T_DL]),
)
def test_throttle_stays_on_ladder_and_is_directional(s_r, idx, step):
    ladder = build_ladder(s_r, 32)
    s_p = ladder[idx % len(ladder)]
    new = throttle(s_p, ladder, step)
    assert new in ladder
    if step > 0:
        assert new > s_p or s_p == ladder[-1]
    else:
        assert new < s_p or s_p == ladder[0]


def test_repeated_down_error_reaches_min_within_r_max():
    for s_r in (4, 13, 16, 33):
        ladder = build_ladder(s_r, 16)
        budget = derive_r_max(len(ladder), T_DE)
        s_p = ladder[-1]
        for _ in range(budget):
            s_p = throttle(s_p, ladder, T_DE)
        assert s_p == ladder[0]


# -- resend budget ------------------------------------------------------------


def test_r_max_seven_ladder():
    assert derive_r_max(7, -2) == 3


def test_r_max_single_step_ladder():
    assert derive_r_max(1, -2) == 1


def test_r_max_larger_step():
    assert derive_r_max(7, -3) == 2


# -- parameter condition ------------------------------------------------------
#
# ScenarioConfig.validate checks the steps of a throttled extended config.


def test_throttle_params_accept_defaults():
    cfg = ScenarioConfig()
    assert (cfg.t_u, cfg.t_de, cfg.t_dl) == (T_U, T_DE, T_DL)
    cfg.validate()


@pytest.mark.parametrize(
    "t_u,t_de,t_dl",
    [
        (2, -2, -3),  # T_U not < |T_DE|
        (1, -3, -2),  # |T_DE| not <= |T_DL|
        (1, 2, -3),  # down step positive
        (0, -2, -3),  # zero up step
    ],
)
def test_throttle_params_reject_bad_steps(t_u, t_de, t_dl):
    with pytest.raises(ScenarioError, match="t_u, t_de, t_dl"):
        ScenarioConfig(t_u=t_u, t_de=t_de, t_dl=t_dl).validate()
    # Without the throttle the steps are unused, and so unchecked.
    ScenarioConfig(t_u=t_u, t_de=t_de, t_dl=t_dl, s_p=4).validate()
    ScenarioConfig(t_u=t_u, t_de=t_de, t_dl=t_dl, protocol=Variant.BASIC).validate()


def test_snap_to_ladder():
    assert snap_to_ladder(16, (1, 2, 3, 4, 5, 7, 13)) == 13
    assert snap_to_ladder(6, (1, 2, 3, 4, 5, 7, 13)) == 5
    assert snap_to_ladder(1, (2, 4)) == 2
