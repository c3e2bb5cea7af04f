"""Message construction and frame-length throttling.

Two message flavors exist.  The single-word ("basic") flavor packs a one
byte header and one byte payload into each Write; the extended flavor
carries a four byte header (checksum, length, destination address) plus up
to 2*S_max payload bytes in one BlockWrite.  The throttle ladder holds the
admissible payload sizes for a row and the throttle walks it by index
steps.
"""

from __future__ import annotations

import math
import struct

from .ihex import Row, record_checksum

# Basic header bytes.  0x00-0x20 are data-byte offsets relative to the
# row base address; the application CRC's two bytes, the two address bytes
# and the reprogram-init marker live above the offset range.
HDR_CRC_HIGH = 0xFB
HDR_CRC_LOW = 0xFC
HDR_ADDR_FIRST = 0xFD
HDR_ADDR_SECOND = 0xFE
HDR_REPROGRAM_INIT = 0xFF
MAX_BASIC_OFFSET = 0x20

EPC_LENGTH = 12

# A Write's echo is its header, its payload (read back) and this mark, so no
# echo is all zero like the EPC of a reset tag or of a round that saw no tag.
# An extended echo needs none: its length byte is at least 1.
WRITE_ECHO_MARK = b"\x01"


def echo(raw: bytes) -> bytes:
    """The EPC prefix a tag that took the message ``raw`` (its wire image) sends back.

    A Write's two bytes and the mark; a BlockWrite's four header bytes.
    """
    return raw + WRITE_ECHO_MARK if len(raw) == 2 else raw[:4]


DEFAULT_S_MAX = 16


class RowTooLong(ValueError):
    pass


class PayloadTooLarge(ValueError):
    pass


class BasicMessage:
    """One Write: header byte plus payload byte, ``raw`` their two-byte wire image."""

    __slots__ = ("header", "payload", "raw")

    def __init__(self, header: int, payload: int):
        if not (header <= MAX_BASIC_OFFSET or header >= HDR_CRC_HIGH):
            raise ValueError(f"invalid basic header {header:#04x}")
        self.header, self.payload, self.raw = header, payload, bytes((header, payload))

    def __eq__(self, other):  # by the fields, ``raw`` aside, as the hash
        return type(other) is type(self) and self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def _fields(self) -> tuple:
        return self.header, self.payload

    def expected_epc(self) -> bytes:
        return echo(self.raw).ljust(EPC_LENGTH, b"\x00")


class ExMessage:
    """One BlockWrite: (checksum, length, address) header plus payload.

    ``raw`` is its wire image, built once: the four header bytes, the
    payload and, for an odd payload byte count, a zero pad byte that fills
    the final word's low byte (the length field tells the receiver how
    many bytes are valid).
    """

    __slots__ = ("checksum", "length", "address", "data", "raw")

    def __init__(self, checksum: int, length: int, address: int, data: bytes):
        self.checksum, self.length, self.address, self.data = checksum, length, address, data
        raw = struct.pack(">BBH", checksum, length, address & 0xFFFF) + data
        self.raw = raw + b"\x00" if len(raw) & 1 else raw

    def __eq__(self, other):  # by the fields, ``raw`` aside, as the hash
        return type(other) is type(self) and self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def _fields(self) -> tuple:
        return self.checksum, self.length, self.address, self.data

    def expected_epc(self) -> bytes:
        return echo(self.raw).ljust(EPC_LENGTH, b"\x00")

    def to_words(self) -> list[int]:
        """Word sequence as issued on air: header words then payload words."""
        return list(struct.unpack(f">{len(self.raw) >> 1}H", self.raw))


def build_basic_messages(row: Row) -> list[bytes]:
    """The Writes for one row as wire images: two address Writes, then one per data byte.

    Each image is two bytes, header then payload, as ``BasicMessage.raw``.
    The first Write carries the first printed address byte (high byte)
    under header 0xFD, the second carries the low byte under 0xFE, and
    each data byte follows under its offset header.
    """
    data = row.data
    if len(data) > MAX_BASIC_OFFSET + 1:
        raise RowTooLong(
            f"row has {len(data)} data bytes; offset headers stop at "
            f"{MAX_BASIC_OFFSET:#04x}"
        )
    return [bytes((HDR_ADDR_FIRST, (row.address >> 8) & 0xFF)),
            bytes((HDR_ADDR_SECOND, row.address & 0xFF)),
            *map(bytes, enumerate(data))]


def build_ex_message(chunk: bytes, address: int, s_max: int = DEFAULT_S_MAX) -> ExMessage:
    """Assemble an extended message around one chunk."""
    if not 1 <= len(chunk) <= 2 * s_max:
        raise PayloadTooLarge(
            f"chunk of {len(chunk)} bytes exceeds 2*S_max = {2 * s_max}"
        )
    body = bytes([len(chunk), (address >> 8) & 0xFF, address & 0xFF]) + chunk
    return ExMessage(record_checksum(body), len(chunk), address, bytes(chunk))


# ---------------------------------------------------------------------------
# Throttling


def build_ladder(s_r: int, s_max: int = DEFAULT_S_MAX) -> tuple[int, ...]:
    """Admissible payload sizes for a row of ``s_r`` words.

    The set {ceil(s_r/n) : n = 1..s_r}, deduplicated, ascending, and
    truncated to values <= s_max.
    """
    if s_r < 1 or s_max < 1:
        raise ValueError("row word count and S_max must be positive")
    values = {math.ceil(s_r / n) for n in range(1, s_r + 1)}
    return tuple(sorted(v for v in values if v <= s_max))


def throttle(s_p: int, ladder: tuple[int, ...], step: int) -> int:
    """Move the payload size ``step`` places along the ladder.

    The index is clamped at the ladder ends, so throttling up at the top or
    down at the bottom leaves the size unchanged.
    """
    if s_p not in ladder:
        raise ValueError(f"payload size {s_p} not in ladder {ladder}")
    new_idx = max(0, min(len(ladder) - 1, ladder.index(s_p) + step))
    return ladder[new_idx]


def derive_r_max(ladder_size: int, t_de: int) -> int:
    """Smallest resend budget that walks the ladder top to bottom.

    Solves |T_t| - |T_DE| * R <= 1 for the smallest integer R, floored at
    one resend so even a single-step ladder allows a retry.
    """
    if abs(t_de) < 1:
        raise ValueError("|T_DE| must be at least 1")
    return max(1, math.ceil((ladder_size - 1) / abs(t_de)))


def snap_to_ladder(s_p: int, ladder: tuple[int, ...]) -> int:
    """Largest ladder value <= s_p, or the ladder minimum."""
    candidates = [v for v in ladder if v <= s_p]
    return candidates[-1] if candidates else ladder[0]
