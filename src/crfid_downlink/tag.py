"""Tag-side emulation: non-volatile image, message handling, power, bootloader.

The tag's byte-addressable non-volatile memory survives power loss; its
EPC register and address-assembly registers do not.  Power changes only
between inventory rounds, so no multi-word series straddles a loss.  The
bootloader mode decides whether incoming messages are treated as
reprogramming data; it is kept in non-volatile memory too, so a reprogram
session resumes when power returns.
"""

from __future__ import annotations

import random
from enum import Enum
from itertools import compress
from pathlib import Path

from .channel import depletion_prob
from .crc import crc16_ccitt
from .ihex import record_checksum
from .protocol import (
    EPC_LENGTH,
    HDR_ADDR_FIRST,
    HDR_ADDR_SECOND,
    HDR_CRC_HIGH,
    HDR_CRC_LOW,
    HDR_REPROGRAM_INIT,
    MAX_BASIC_OFFSET,
    echo,
)


class TagMode(Enum):
    BOOTLOADER = "bootloader"
    REPROGRAM = "reprogram"
    APPLICATION = "application"


FRAM_SIZE = 64 * 1024

INITIAL_EPC = bytes(EPC_LENGTH)
_REPROGRAM, _APPLICATION = TagMode.REPROGRAM, TagMode.APPLICATION  # without an enum-class lookup


class FramImage:
    """Persistent byte array with optional write-fault injection."""

    def __init__(self):
        self._bytes = bytearray(FRAM_SIZE)

    def read(self, address: int, count: int = 1) -> bytes:
        return bytes(self._bytes[address : address + count])

    def write(self, address: int, data: bytes) -> None:
        end = address + len(data)
        if address < 0 or end > FRAM_SIZE:
            raise ValueError(f"write of {len(data)} bytes at {address:#06x} out of range")
        self._bytes[address:end] = data

    def dump(self, path: str | Path) -> None:
        Path(path).write_bytes(bytes(self._bytes))


MEAN_BURST_ROUNDS = 3.0


class PowerModel:
    """Two-state per-round power process.

    Each powered round browns out with the probability passed to ``step``;
    an outage then lasts a geometrically distributed number of rounds with
    mean ``MEAN_BURST_ROUNDS``.  Driven by its own RNG, so the schedule is a
    deterministic function of the seed and the probabilities.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._outage_left = 0

    def step(self, brownout_prob: float) -> bool:
        """Advance one round; returns True when the tag is powered."""
        if not self._outage_left:
            if not (brownout_prob > 0 and self.rng.random() < brownout_prob):
                return True
            self.brown_out()
        self._outage_left -= 1
        return False

    def brown_out(self) -> None:
        """Start an outage of 1, 2, ... rounds, geometric with mean MEAN_BURST_ROUNDS: the
        next ``step`` calls, one per round, return False without drawing."""
        u = self.rng.random()
        q = 1.0 - 1.0 / MEAN_BURST_ROUNDS
        length = 1
        while u < q and length < 10_000:
            u = self.rng.random()
            length += 1
        self._outage_left = length


class Tag:
    """CRFID tag state machine driven by the reader simulation."""

    def __init__(self, write_fault_prob: float = 0.0, fault_seed: int = 0,
                 start_in_bootloader: bool = False, energy_seed: int = 0):
        self.fram = FramImage()
        self.epc = INITIAL_EPC
        self.powered = True
        self.mode = TagMode.BOOTLOADER if start_in_bootloader else TagMode.REPROGRAM
        self.write_fault_prob = write_fault_prob
        self._fault_rng = random.Random(fault_seed)
        # Off the round path: the channel samples a series' drained slots in
        # its one draw.  Kept, with ``series_slot_alive``, for the benchmark
        # tracer, which wraps that method by name.
        self.energy_rng = random.Random(energy_seed)
        # The series whose payload the last commit read back intact; any commit
        # and any INIT clear it.
        self._stored: bytes | None = None
        # The last message whose EPC echoes it, and that EPC object; see handle_basic_write.
        self._echoed = (None, None)
        # Volatile reprogram state.
        self._addr_high: int | None = None
        self._addr_low: int | None = None
        # Persistent bootloader state: survives power loss like the image.
        self._written = bytearray(FRAM_SIZE)  # 1 at every address written this session
        self._crc_high: int | None = None  # the application CRC's high byte, once sent after INIT

    # -- power -------------------------------------------------------------

    def set_powered(self, powered: bool) -> None:
        """Switch power; a loss clears the volatile state and keeps the mode.

        A running application is the exception: the next boot lands in the
        bootloader.
        """
        if self.powered and not powered:
            self.epc = INITIAL_EPC
            self._addr_high = None
            self._addr_low = None
            if self.mode is TagMode.APPLICATION:
                self.mode = TagMode.BOOTLOADER
        self.powered = powered

    # -- basic (single-word Write) handling ---------------------------------

    def echoes(self, raw: bytes) -> bool:
        """True when ``raw`` is the message the EPC still echoes, with no commit and
        no EPC change since: both handlers then take it as a stale repeat, which
        changes nothing.  They, ``Reader.tick`` (which then calls neither) and
        ``Reader.repeat`` inline this test: they run on every delivered round,
        where a call costs."""
        return raw is self._echoed[0] and self.epc is self._echoed[1]

    def handle_basic_write(self, raw: bytes) -> None:
        """Process one intact Write, header and payload; the EPC echoes header, read-back and mark."""
        if raw is self._echoed[0] and self.epc is self._echoed[1] or not self.powered:
            return  # a stale repeat (``echoes``), or no power
        header = raw[0]
        if header <= MAX_BASIC_OFFSET:  # a data byte, the common case, is tested first
            if self.mode is not _REPROGRAM or self._addr_high is None or self._addr_low is None:
                return  # no valid base address since power-up; ignore
            address = ((self._addr_high << 8) | self._addr_low) + header
            # A repeat of a Write this session already stored reads, not
            # rewrites: no fault draw can corrupt a byte the host saw ACKed.
            if not (self._written[address] and self.fram._bytes[address] == raw[1]):
                if not self._commit(address, raw[1:]):  # a corrupt read-back is echoed, not remembered
                    read_back = bytes((header, self.fram._bytes[address]))
                    self.epc = echo(read_back).ljust(EPC_LENGTH, b"\x00")
                    return
        elif header == HDR_REPROGRAM_INIT:
            if self.mode is _APPLICATION:
                return
            # A new reprogram session forgets what the last one wrote.
            self.mode = TagMode.REPROGRAM
            self._written = bytearray(FRAM_SIZE)
            self._stored = None
            self._crc_high = None
        elif header == HDR_CRC_LOW and self._crc_high is not None and self.mode is not _APPLICATION:
            # The CRC's low byte after its high byte, in a reprogram session or in the
            # bootloader a verified application fell back to (no other bootloader holds
            # a high byte): a power loss before the host saw the echo costs a resend.
            if (self._crc_high << 8) | raw[1] != self.application_crc():
                return  # a mismatch stays silent
            self.mode = _APPLICATION
        elif self.mode is not _REPROGRAM:
            return
        elif header == HDR_ADDR_FIRST:
            self._addr_high = raw[1]
            self._addr_low = None
        elif header == HDR_ADDR_SECOND:
            self._addr_low = raw[1]
        elif header == HDR_CRC_HIGH:
            self._crc_high = raw[1]
        else:
            return  # no such header (0x21-0xFA), or a CRC low byte before its high byte; ignore
        self._echo(raw)

    # -- extended (BlockWrite series) handling -------------------------------

    def series_slot_alive(self, slot: int, d: float) -> bool:
        """Energy draw for one slot alone; off the round path, but ``benchmarks/tracing.py``
        wraps it by name."""
        return slot <= 1 or self.energy_rng.random() < (1.0 - depletion_prob(d)) ** (slot - 1)

    def series_complete(self, raw: bytes, corrupted: bool) -> bool:
        """Take a fully replied series, its words as big-endian ``raw`` bytes.

        A stale repeat of the series the EPC still echoes returns at once, as
        a Write's does.  Otherwise a series that is ``corrupted`` or fails its
        checksum is dropped before any memory write, and the memory must read
        the payload back (not merely its checksum, which two inverted bytes
        can keep) for the EPC to acknowledge it.  A repeat of the series whose
        last commit read back intact, with no commit and no INIT since, only
        sets the EPC: a rewrite could fault bytes the host saw acknowledged.
        Returns True when the EPC acknowledges the series.
        """
        if raw is self._echoed[0] and self.epc is self._echoed[1]:  # a stale repeat (``echoes``)
            return not corrupted
        if not self.powered or corrupted or self.mode is not _REPROGRAM or len(raw) < 4:
            return False
        length = raw[1]
        payload = raw[4 : 4 + length]
        if len(payload) != length or record_checksum(raw[1 : 4 + length]) != raw[0]:
            return False
        if raw != self._stored:
            if not self._commit((raw[2] << 8) | raw[3], payload):
                return False  # write fault surfaced by read-back
            self._stored = raw
        self._echo(raw)
        return True

    def _echo(self, raw: bytes) -> None:
        """Set the EPC to the echo of ``raw``, and remember both for the stale-repeat test."""
        self.epc = echo(raw).ljust(EPC_LENGTH, b"\x00")
        self._echoed = (raw, self.epc)

    def _commit(self, address: int, data: bytes) -> bool:
        """Write ``data``, with any write faults; True when the memory reads it back intact."""
        self._stored = None
        self._echoed = (None, None)  # a failed series commit writes memory, not the EPC
        written = data
        if self.write_fault_prob > 0:
            written = bytearray(data)
            for i in range(len(written)):
                if self._fault_rng.random() < self.write_fault_prob:
                    written[i] ^= 0xFF
        self.fram.write(address, written)
        end = address + len(data)
        self._written[address:end] = b"\x01" * len(data)
        return self.fram._bytes[address:end] == data

    # -- bootloader ----------------------------------------------------------

    def application_crc(self) -> int:
        """CRC16 over everything written during the reprogram session."""
        return crc16_ccitt(bytes(compress(self.fram.read(0, FRAM_SIZE), self._written)))
