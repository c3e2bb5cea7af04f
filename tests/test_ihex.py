import pytest
from hypothesis import example, given, strategies as st

from crfid_downlink.ihex import (
    ChecksumMismatch,
    LengthMismatch,
    MalformedRecord,
    MissingEof,
    RecordMatrix,
    Row,
    UnsupportedRecordType,
    encode,
    generate_fixture,
    parse_file,
    parse_record,
    record_checksum,
)
from crfid_downlink.protocol import build_ladder, snap_to_ladder

GOLDEN_RECORD = ":02AADD00BBCCF0"


def oracle_checksum(data: bytes) -> int:
    # Independent statement of the rule: two's complement of the low byte
    # of the arithmetic sum.
    return (256 - (sum(data) % 256)) % 256


# -- record_checksum ----------------------------------------------------------


def test_checksum_golden_record_bytes():
    assert record_checksum(bytes([0x02, 0xAA, 0xDD, 0x00, 0xBB, 0xCC])) == 0xF0
    # The extended message header over the same fields: no type byte, and
    # since the type byte is zero the checksum is the same.
    assert record_checksum(bytes([0x02, 0xAA, 0xDD, 0xBB, 0xCC])) == 0xF0
    assert record_checksum(bytes([0xFF])) == oracle_checksum(bytes([0xFF])) == 0x01


def test_checksum_empty():
    assert record_checksum(b"") == 0x00
    assert record_checksum(bytes(8)) == 0x00


def test_checksum_wraps_to_zero():
    data = bytes([0x01, 0x00, 0x00, 0x00, 0xFF])
    assert oracle_checksum(data) == 0x00
    assert record_checksum(data) == 0x00


@given(st.binary(min_size=0, max_size=64))
def test_checksum_matches_oracle(data):
    assert record_checksum(data) == oracle_checksum(data)


@given(
    st.binary(min_size=1, max_size=64),
    st.data(),
)
def test_checksum_detects_single_byte_corruption(data, draw):
    # An additive checksum flags every single-byte change: the sum moves by
    # a nonzero amount mod 256.
    c = record_checksum(data)
    index = draw.draw(st.integers(min_value=0, max_value=len(data) - 1))
    replacement = draw.draw(
        st.integers(min_value=0, max_value=255).filter(lambda v: v != data[index])
    )
    corrupted = bytearray(data)
    corrupted[index] = replacement
    assert record_checksum(bytes(corrupted)) != c


# -- parse_record -------------------------------------------------------------


def test_parse_golden_record():
    rec = parse_record(GOLDEN_RECORD)
    assert rec.byte_count == 2
    assert rec.address == 0xAADD
    assert rec.record_type == 0x00
    assert rec.data == bytes([0xBB, 0xCC])
    assert rec.checksum == 0xF0


def test_parse_eof_record():
    rec = parse_record(":00000001FF")
    assert rec.record_type == 0x01
    assert rec.data == b""
    assert rec.byte_count == 0


def test_parse_rejects_flipped_checksum():
    assert oracle_checksum(bytes([0x02, 0xAA, 0xDD, 0x00, 0xBB, 0xCC])) == 0xF0
    with pytest.raises(ChecksumMismatch):
        parse_record(":02AADD00BBCCF1")


@pytest.mark.parametrize("position", [-2, -1])
def test_parse_rejects_any_checksum_digit_corruption(position):
    for digit in "0123456789ABCDEF":
        corrupted = list(GOLDEN_RECORD)
        if corrupted[position] == digit:
            continue
        corrupted[position] = digit
        with pytest.raises(ChecksumMismatch):
            parse_record("".join(corrupted))


def test_parse_lowercase_accepted():
    rec = parse_record(GOLDEN_RECORD.lower())
    assert rec.data == bytes([0xBB, 0xCC])


@pytest.mark.parametrize(
    "line,error",
    [
        ("02AADD00BBCCF0", MalformedRecord),  # missing start char
        (":02AADD00BBCCF", MalformedRecord),  # odd digit count
        (":02AADD00BBCG F0", MalformedRecord),  # non-hex
        (":02 AA DD00BBCCF0", MalformedRecord),  # whitespace inside the record
        (":02\tAA\tDD00BBCCF0", MalformedRecord),
        (":03AADD00BBCCEF", LengthMismatch),  # count says 3, data holds 2
        (":0200000400FFFB", UnsupportedRecordType),  # extended addressing
    ],
)
def test_parse_record_errors(line, error):
    with pytest.raises(error):
        parse_record(line)


def test_parse_odd_byte_count_permitted():
    data = bytes([0x01, 0x40, 0x00, 0x00, 0xAB])
    line = ":" + (data + bytes([oracle_checksum(data)])).hex().upper()
    rec = parse_record(line)
    assert rec.data == bytes([0xAB])


# -- parse_file ---------------------------------------------------------------


def test_parse_file_single_record():
    matrix = parse_file(GOLDEN_RECORD + "\n:00000001FF\n")
    assert len(matrix) == 1
    assert matrix.rows[0] == Row(0xAADD, bytes([0xBB, 0xCC]))


def test_parse_file_missing_eof():
    with pytest.raises(MissingEof):
        parse_file(GOLDEN_RECORD + "\n")


def test_parse_file_record_after_eof():
    with pytest.raises(MalformedRecord, match="line 3"):
        parse_file(GOLDEN_RECORD + "\n:00000001FF\n" + GOLDEN_RECORD + "\n")


def test_parse_file_error_carries_line_number():
    with pytest.raises(ChecksumMismatch, match="line 2"):
        parse_file(GOLDEN_RECORD + "\n:02AADD00BBCCF1\n:00000001FF\n")


def test_parse_file_rejects_a_data_record_past_0xffff():
    # 26 bytes from 0xFFF0 would end at 0x1000A; the tag's memory has no wrap-around.
    text = GOLDEN_RECORD + "\n" + generate_fixture(bytes(range(1, 27)), 26, 0xFFF0)
    with pytest.raises(MalformedRecord, match=r"line 2: 26 data bytes at 0xfff0 run past 0xFFFF"):
        parse_file(text)


def test_parse_file_accepts_a_data_record_ending_at_0xffff():
    matrix = parse_file(generate_fixture(bytes(range(1, 17)), 16, 0xFFF0))
    assert matrix.rows == [Row(0xFFF0, bytes(range(1, 17)))]


def test_fixture_5120_bytes_makes_320_rows():
    payload = bytes(range(256)) * 20  # 5120 bytes
    matrix = parse_file(generate_fixture(payload, record_width=16))
    assert len(matrix) == 320
    assert matrix.total_bytes() == 5120
    assert all(len(r.data) == 16 for r in matrix.rows)


# -- chunking -----------------------------------------------------------------
# The host's message cursor cuts each row into chunks of S_p words.


def oracle_chunks(row: Row, s_p: int):
    # Independent sequential slicing.
    out = []
    stride = 2 * s_p
    for start in range(0, len(row.data), stride):
        out.append((row.address + start, row.data[start : start + stride]))
    return out


def test_chunk_sixteen_words_by_six(chunk_walk):
    row = Row(0x1000, bytes(range(32)))  # 16 words
    chunks, _ = chunk_walk(RecordMatrix([row]), 6)
    assert [len(data) // 2 for _, data in chunks] == [6, 6, 4]
    assert chunks == oracle_chunks(row, 6)


def test_chunk_single_word_row(chunk_walk):
    row = Row(0x2000, bytes([0x11, 0x22]))
    chunks, _ = chunk_walk(RecordMatrix([row]), 16)
    assert chunks == [(0x2000, row.data)]


def test_chunk_golden_row(chunk_walk):
    chunks, _ = chunk_walk(parse_file(GOLDEN_RECORD + "\n:00000001FF\n"), 1)
    assert chunks == [(0xAADD, bytes([0xBB, 0xCC]))]


def test_chunk_empty_row_rejected(chunk_walk):
    # An empty row yields no chunk: the cursor steps over it.
    matrix = RecordMatrix([Row(0, b""), Row(0x40, bytes([0xAB])), Row(0x80, b"")])
    chunks, _ = chunk_walk(matrix, 4)
    assert chunks == [(0x40, bytes([0xAB]))]


@given(
    st.binary(min_size=1, max_size=48),
    st.integers(min_value=1, max_value=20),
)
def test_chunks_reassemble_row(chunk_walk, data, s_p):
    row = Row(0x4400, data)
    chunks, _ = chunk_walk(RecordMatrix([row]), s_p)
    assert b"".join(d for _, d in chunks) == data
    # The cursor first snaps S_p down onto the row's ladder; every chunk but
    # the last then carries that many words.
    width = snap_to_ladder(s_p, build_ladder(row.word_count()))
    assert width <= s_p
    assert all(a == 0x4400 + 2 * width * i for i, (a, _) in enumerate(chunks))
    assert all(len(d) == 2 * width for _, d in chunks[:-1])


# -- encode / roundtrip -------------------------------------------------------


def test_encode_golden_record():
    matrix = RecordMatrix([Row(0xAADD, bytes([0xBB, 0xCC]))])
    assert encode(matrix).splitlines()[0] == GOLDEN_RECORD


@given(st.binary(min_size=0, max_size=80), st.integers(min_value=1, max_value=32),
       st.integers(min_value=0, max_value=0x4000))
@example(bytes(range(45)), 20, 0x4400)  # two full records and a short one
def test_fixture_holds_the_data_at_consecutive_addresses(data, width, base):
    matrix = parse_file(generate_fixture(data, width, base))
    assert [r.address for r in matrix.rows] == list(range(base, base + len(data), width))
    assert b"".join(r.data for r in matrix.rows) == data
    assert all(0 < len(r.data) <= width for r in matrix.rows)


rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=0xFFDF),
        st.binary(min_size=1, max_size=32),
    ),
    min_size=0,
    max_size=12,
)


@given(rows_strategy)
def test_encode_parse_roundtrip(raw_rows):
    matrix = RecordMatrix([Row(a, d) for a, d in raw_rows])
    assert parse_file(encode(matrix)) == matrix
