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
    HDR_REPROGRAM_INIT,
    MAX_BASIC_OFFSET,
    WRITE_ECHO_MARK,
)


class TagMode(Enum):
    BOOTLOADER = "bootloader"
    REPROGRAM = "reprogram"
    APPLICATION = "application"


FRAM_SIZE = 64 * 1024

INITIAL_EPC = bytes(EPC_LENGTH)
_ECHO_PAD = WRITE_ECHO_MARK.ljust(EPC_LENGTH - 2, b"\x00")  # follows a Write's header and payload
_REPROGRAM = TagMode.REPROGRAM  # the round path's test, without an enum-class lookup


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
        self._rng = random.Random(seed)
        self._outage_left = 0

    def step(self, brownout_prob: float) -> bool:
        """Advance one round; returns True when the tag is powered."""
        if self._outage_left > 0:
            self._outage_left -= 1
            return False
        if brownout_prob > 0 and self._rng.random() < brownout_prob:
            # Geometric with mean MEAN_BURST_ROUNDS, support {1, 2, ...}.
            u = self._rng.random()
            q = 1.0 - 1.0 / MEAN_BURST_ROUNDS
            length = 1
            while u < q and length < 10_000:
                u = self._rng.random()
                length += 1
            self._outage_left = length - 1
            return False
        return True


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
        self._verified = (None, 0, b"", b"")  # last checksummed (raw, address, payload, EPC)
        # True while the memory holds that payload from the last commit, which
        # passed its read-back check; any commit and any INIT clear it.
        self._stored = False
        # The last Write whose EPC echoes it, and that EPC object; see handle_basic_write.
        self._echoed = (None, None)
        # Volatile reprogram state.
        self._addr_high: int | None = None
        self._addr_low: int | None = None
        # Persistent bootloader state: survives power loss like the image.
        self._written = bytearray(FRAM_SIZE)  # 1 at every address written this session

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

    def handle_basic_write(self, raw: bytes) -> None:
        """Process one intact Write, header and payload; the EPC echoes header, read-back and mark."""
        if not self.powered or (raw is self._echoed[0] and self.epc is self._echoed[1]):
            # A stale repeat of the Write the EPC still echoes: with no commit
            # and no EPC change since, running it again would change nothing.
            return
        header = raw[0]
        if header <= MAX_BASIC_OFFSET:  # a data byte, the common case, is tested first
            if self.mode is not _REPROGRAM or self._addr_high is None or self._addr_low is None:
                return  # no valid base address since power-up; ignore
            address = ((self._addr_high << 8) | self._addr_low) + header
            # A repeat of a Write this session already stored reads, not
            # rewrites: no fault draw can corrupt a byte the host saw ACKed.
            if not (self._written[address] and self.fram._bytes[address] == raw[1]):
                self._commit(address, raw[1:])
                if self.fram._bytes[address] != raw[1]:  # a corrupt read-back is echoed, not remembered
                    self.epc = bytes((header, self.fram._bytes[address])) + _ECHO_PAD
                    return
        elif header == HDR_REPROGRAM_INIT:
            if self.mode is TagMode.APPLICATION:
                return
            # A new reprogram session forgets what the last one wrote.
            self.mode = TagMode.REPROGRAM
            self._written = bytearray(FRAM_SIZE)
            self._stored = False
        elif self.mode is not _REPROGRAM:
            return
        elif header == HDR_ADDR_FIRST:
            self._addr_high = raw[1]
            self._addr_low = None
        elif header == HDR_ADDR_SECOND:
            self._addr_low = raw[1]
        else:
            return  # no such header (0x21-0xFC); ignore
        self.epc = raw + _ECHO_PAD
        self._echoed = (raw, self.epc)

    # -- extended (BlockWrite series) handling -------------------------------

    def series_slot_alive(self, slot: int, d: float) -> bool:
        """Energy draw for one slot alone; off the round path, but ``benchmarks/tracing.py``
        wraps it by name."""
        return slot <= 1 or self.energy_rng.random() < (1.0 - depletion_prob(d)) ** (slot - 1)

    def series_complete(self, raw: bytes, corrupted: bool) -> bool:
        """Take a fully replied series, its words as big-endian ``raw`` bytes.

        A ``corrupted`` series fails its checksum.  Otherwise the checksum is
        verified before any memory write (once per distinct ``raw``, which the
        reader repeats), and the memory read back after the write must equal
        the payload for the EPC to acknowledge the message.  A read-back, not
        a checksum over it: two inverted bytes can leave the checksum intact.
        A repeat of the series whose last commit passed that read-back (no
        commit and no INIT since) only sets the EPC: rewriting it would draw
        new write faults into bytes the host may already have seen
        acknowledged.  Returns True when the EPC was updated.
        """
        if not self.powered or corrupted:
            return False
        if raw != self._verified[0]:
            if len(raw) < 4:
                return False
            length = raw[1]
            payload = bytes(raw[4 : 4 + length])
            if len(payload) != length or record_checksum(raw[1 : 4 + length]) != raw[0]:
                return False
            epc = bytes(raw[:4]).ljust(EPC_LENGTH, b"\x00")
            self._verified = (bytes(raw), (raw[2] << 8) | raw[3], payload, epc)
            self._stored = False
        _, address, payload, epc = self._verified
        if self.mode is not _REPROGRAM:
            return False
        if not self._stored:
            self._commit(address, payload)
            if self.fram.read(address, len(payload)) != payload:
                return False  # write fault surfaced by read-back
            self._stored = True
        self.epc = epc
        return True

    def _commit(self, address: int, data: bytes) -> None:
        self._stored = False
        self._echoed = (None, None)  # a failed series commit writes memory, not the EPC
        if self.write_fault_prob > 0:
            data = bytearray(data)
            for i in range(len(data)):
                if self._fault_rng.random() < self.write_fault_prob:
                    data[i] ^= 0xFF
        self.fram.write(address, data)
        self._written[address : address + len(data)] = b"\x01" * len(data)

    # -- bootloader ----------------------------------------------------------

    def transfer_complete(self, crc: int) -> TagMode:
        """Deliver the whole-application CRC16 and return the new mode.

        In reprogram mode a CRC that matches ``application_crc`` starts the
        application; on a mismatch the tag stays in reprogram mode awaiting
        a retransfer.  Without power or outside reprogram mode nothing
        changes.
        """
        if self.powered and self.mode is TagMode.REPROGRAM and self.application_crc() == crc:
            self.mode = TagMode.APPLICATION
        return self.mode

    def application_crc(self) -> int:
        """CRC16 over everything written during the reprogram session."""
        return crc16_ccitt(bytes(compress(self.fram.read(0, FRAM_SIZE), self._written)))
