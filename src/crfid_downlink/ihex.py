"""Intel Hex parsing and encoding.

Transfers present their payload as an Intel Hex file; each data record
becomes one row of a record matrix, which the host walks message by
message.
"""

from __future__ import annotations

import math
from binascii import unhexlify
from typing import NamedTuple

TYPE_DATA = 0x00
TYPE_EOF = 0x01


class HexFileError(ValueError):
    """Base class for Intel Hex parse errors."""


class MalformedRecord(HexFileError):
    pass


class ChecksumMismatch(HexFileError):
    pass


class LengthMismatch(HexFileError):
    pass


class UnsupportedRecordType(HexFileError):
    pass


class MissingEof(HexFileError):
    pass


def record_checksum(data: bytes) -> int:
    """Two's complement of the least-significant byte of the byte sum.

    The Intel Hex record rule; extended messages carry the same checksum.
    """
    return (-sum(data)) & 0xFF


class HexRecord(NamedTuple):
    byte_count: int
    address: int
    record_type: int
    data: bytes
    checksum: int


class Row(NamedTuple):
    """One data record: destination address plus raw bytes."""

    address: int
    data: bytes

    def word_count(self) -> int:
        """Row size in 16-bit words, odd byte counts round up."""
        return math.ceil(len(self.data) / 2)


class RecordMatrix:
    __slots__ = ("rows",)

    def __init__(self, rows: list[Row] | None = None):
        self.rows = [] if rows is None else rows

    def __eq__(self, other):
        return self.rows == other.rows if isinstance(other, RecordMatrix) else NotImplemented

    def __len__(self) -> int:
        return len(self.rows)

    def total_bytes(self) -> int:
        return sum(len(r.data) for r in self.rows)

    def flat_image(self) -> dict[int, int]:
        """Address -> byte mapping of the whole file (later rows win)."""
        image: dict[int, int] = {}
        for row in self.rows:
            for k, b in enumerate(row.data):
                image[row.address + k] = b
        return image


def parse_record(line: str) -> HexRecord:
    """Decode a single ':llaaaattdd..cc' record and verify its checksum."""
    line = line.strip()
    if not line.startswith(":"):
        raise MalformedRecord("record does not start with ':'")
    hexpart = line[1:]
    if len(hexpart) % 2 != 0:
        raise MalformedRecord("odd number of hex digits")
    try:
        raw = unhexlify(hexpart)  # unlike ``bytes.fromhex``, skips no whitespace
    except ValueError:
        raise MalformedRecord("non-hex characters in record") from None
    if len(raw) < 5:
        raise MalformedRecord("record shorter than minimal field layout")
    byte_count = raw[0]
    address = (raw[1] << 8) | raw[2]
    record_type = raw[3]
    data = raw[4:-1]
    checksum = raw[-1]
    if len(data) != byte_count:
        raise LengthMismatch(
            f"length field says {byte_count} data bytes, found {len(data)}"
        )
    if record_checksum(raw[:-1]) != checksum:
        raise ChecksumMismatch(
            f"checksum {checksum:#04x} != computed {record_checksum(raw[:-1]):#04x}"
        )
    if record_type not in (TYPE_DATA, TYPE_EOF):
        raise UnsupportedRecordType(f"record type {record_type:#04x} not supported")
    if record_type == TYPE_DATA and address + byte_count > 0x10000:  # no wrap-around
        raise MalformedRecord(f"{byte_count} data bytes at {address:#06x} run past 0xFFFF")
    return HexRecord(byte_count, address, record_type, data, checksum)


def parse_file(text: str) -> RecordMatrix:
    """Parse a whole Intel Hex file into an ordered RecordMatrix.

    Requires exactly one EOF record, in final position.  Parse errors are
    re-raised with the 1-based line number prepended.
    """
    rows: list[Row] = []
    saw_eof = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if saw_eof:
            raise MalformedRecord(f"line {lineno}: record after EOF record")
        try:
            rec = parse_record(line)
        except HexFileError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
        if rec.record_type == TYPE_EOF:
            saw_eof = True
        else:
            rows.append(Row(rec.address, rec.data))
    if not saw_eof:
        raise MissingEof("no EOF record found")
    return RecordMatrix(rows)


def encode_record(address: int, record_type: int, data: bytes) -> str:
    body = bytes([len(data), (address >> 8) & 0xFF, address & 0xFF, record_type])
    body += data
    return ":" + (body + bytes([record_checksum(body)])).hex().upper()


def encode(matrix: RecordMatrix) -> str:
    """Render a RecordMatrix back to Intel Hex text (uppercase, EOF last)."""
    lines = [encode_record(r.address, TYPE_DATA, r.data) for r in matrix.rows]
    lines.append(encode_record(0, TYPE_EOF, b""))
    return "\n".join(lines) + "\n"


def generate_fixture(data: bytes, record_width: int, base_address: int = 0x4400) -> str:
    """Emit an Intel Hex file holding ``data`` in fixed-width records.

    Mirrors how experiment files are produced: every record carries
    ``record_width`` bytes (the last one may be short), laid out
    contiguously from ``base_address``.
    """
    if record_width < 1:
        raise ValueError("record width must be positive")
    return encode(RecordMatrix([Row(base_address + off, data[off : off + record_width])
                                for off in range(0, len(data), record_width)]))
