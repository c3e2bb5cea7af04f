import random

import pytest
from hypothesis import example, given, settings, strategies as st

from crfid_downlink.channel import (
    D_REF_CM,
    ChannelModel,
    depletion_prob,
    distance_brownout_prob,
    round_odds,
    series_table,
)
from crfid_downlink.crc import crc16_ccitt
from crfid_downlink.host import Variant
from crfid_downlink.ihex import record_checksum
from crfid_downlink.protocol import (
    EPC_LENGTH,
    HDR_ADDR_FIRST,
    HDR_ADDR_SECOND,
    HDR_REPROGRAM_INIT,
    MAX_BASIC_OFFSET,
    WRITE_ECHO_MARK,
    BasicMessage,
    build_ex_message,
)
from crfid_downlink.scenario import ScenarioConfig
from crfid_downlink.tag import (
    FRAM_SIZE,
    INITIAL_EPC,
    MEAN_BURST_ROUNDS,
    PowerModel,
    Tag,
    TagMode,
)


def raw_of(message):
    return b"".join(bytes([(w >> 8) & 0xFF, w & 0xFF]) for w in message.to_words())


def feed_series(tag, message, corrupt_index=None, drop_after=None):
    """Hand the tag ``message`` as a replied series of big-endian words.

    ``drop_after`` keeps only that many words; ``corrupt_index`` marks the
    series as holding a corrupted word when that word was sent.
    """
    words = message.to_words()[:drop_after]
    raw = raw_of(message)[: 2 * len(words)]
    return tag.series_complete(raw, corrupted=corrupt_index is not None and corrupt_index < len(words))


# -- CRC ------------------------------------------------------------------------


def test_crc16_ccitt_check_value():
    assert crc16_ccitt(b"123456789") == 0x29B1


def test_crc16_empty_is_init():
    assert crc16_ccitt(b"") == 0xFFFF


def reference_crc16_ccitt(data: bytes) -> int:
    """CRC16-CCITT one bit at a time: polynomial 0x1021, initial value 0xFFFF."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = (crc << 1) ^ 0x1021
            else:
                crc <<= 1
        crc &= 0xFFFF
    return crc


@given(st.binary(max_size=600))
def test_crc16_matches_the_bitwise_reference(data):
    assert crc16_ccitt(data) == reference_crc16_ccitt(data)


def test_crc16_matches_the_bitwise_reference_on_a_firmware_image():
    image = random.Random(99).randbytes(5387)
    assert crc16_ccitt(image) == reference_crc16_ccitt(image)
    assert reference_crc16_ccitt(b"123456789") == 0x29B1


# -- basic write handling --------------------------------------------------------


def test_address_first_byte_sets_register_and_epc():
    tag = Tag()
    tag.handle_basic_write(b"\xFD\xAA")
    assert tag.epc[:2] == bytes([0xFD, 0xAA])
    assert tag.epc[2:] == b"\x01" + bytes(9)  # the Write echo mark, then zeros


def test_golden_sequence_writes_and_echoes():
    tag = Tag()
    for raw in (b"\xFD\xAA", b"\xFE\xDD", b"\x00\xBB", b"\x01\xCC"):
        tag.handle_basic_write(raw)
    assert tag.fram.read(0xAADD, 2) == bytes([0xBB, 0xCC])
    assert tag.epc[:2] == bytes([0x01, 0xCC])


def test_data_byte_without_address_registers_is_ignored():
    tag = Tag()
    tag.handle_basic_write(b"\x00\xBB")  # no FD/FE since power-up
    assert tag.epc == bytes(12)
    assert tag.fram.read(0, 4) == bytes(4)


def test_epc_echoes_read_back_byte():
    tag = Tag(write_fault_prob=1.0, fault_seed=1)  # every write lands inverted
    for raw in (b"\xFD\x00", b"\xFE\x10", b"\x00\xAB"):
        tag.handle_basic_write(raw)
    assert tag.fram.read(0x0010, 1) == bytes([0xAB ^ 0xFF])
    assert tag.epc[:2] == bytes([0x00, 0xAB ^ 0xFF])  # echo carries the read-back


def test_most_single_word_rounds_repeat_the_write_the_epc_echoes(small_matrix, clean_run):
    # 13 of a message's 16 rounds replay a Write the tag already took; each
    # returns at once and leaves the EPC the very same object.
    tag, calls, kept = Tag(), 0, 0
    handle = tag.handle_basic_write

    def counting(raw):
        nonlocal calls, kept
        epc = tag.epc
        handle(raw)
        calls += 1
        kept += tag.epc is epc

    tag.handle_basic_write = counting
    result, _ = clean_run(ScenarioConfig(protocol=Variant.BASIC), small_matrix, tag=tag)
    assert result.completed
    assert calls > 0 and kept >= 0.9 * calls


# -- series handling --------------------------------------------------------------


def test_complete_series_commits_and_sets_header_epc():
    tag = Tag()
    msg = build_ex_message(bytes([0xBB, 0xCC]), 0xAADD)
    assert feed_series(tag, msg) is True
    assert tag.fram.read(0xAADD, 2) == bytes([0xBB, 0xCC])
    assert tag.epc == msg.raw[:4] + bytes(8)


def test_partial_series_commits_nothing():
    tag = Tag()
    msg = build_ex_message(bytes([0xBB, 0xCC]), 0xAADD)
    assert feed_series(tag, msg, drop_after=2) is False
    assert tag.fram.read(0xAADD, 2) == bytes(2)
    assert tag.epc == bytes(12)


def test_corrupted_series_is_discarded():
    tag = Tag()
    msg = build_ex_message(bytes([0xBB, 0xCC]), 0xAADD)
    assert feed_series(tag, msg, corrupt_index=2) is False
    assert tag.fram.read(0xAADD, 2) == bytes(2)
    assert tag.epc == bytes(12)


def test_series_is_idempotent():
    tag = Tag()
    msg = build_ex_message(bytes(range(12)), 0x2000)
    assert feed_series(tag, msg)
    epc_first = tag.epc
    assert feed_series(tag, msg)
    assert tag.epc == epc_first
    assert tag.fram.read(0x2000, 12) == bytes(range(12))


def test_series_checksum_recomputed_from_read_back():
    tag = Tag(write_fault_prob=1.0, fault_seed=2)
    msg = build_ex_message(bytes([0xBB, 0xCC]), 0xAADD)
    assert feed_series(tag, msg) is False  # write fault breaks the read-back check
    assert tag.epc == bytes(12)


def test_read_back_catches_faults_the_checksum_misses():
    # Both bytes land inverted: 0x00 + 0x7F and 0xFF + 0x80 share the low byte
    # of their sum, so a checksum over the read-back would pass.
    tag = Tag(write_fault_prob=1.0)
    msg = build_ex_message(bytes([0x00, 0x7F]), 0x2000)
    assert feed_series(tag, msg) is False
    assert tag.fram.read(0x2000, 2) == bytes([0xFF, 0x80])
    assert tag.epc == INITIAL_EPC


def recording_writes(tag):
    """Record every ``(address, data)`` the tag writes to its memory."""
    writes, write = [], tag.fram.write

    def record(address, data):
        writes.append((address, data))
        write(address, data)

    tag.fram.write = record
    return writes


def test_repeated_series_commits_and_draws_faults_on_every_call():
    # The reader replays one series until its stop trigger fires; verifying
    # its checksum once must not skip the write, the fault draws or the
    # read-back check of any replay.
    tag = Tag(write_fault_prob=1.0, fault_seed=4)
    writes = recording_writes(tag)
    msg = build_ex_message(bytes([0xBB, 0xCC]), 0xAADD)
    raw = raw_of(msg)
    assert [tag.series_complete(raw, False) for _ in range(15)] == [False] * 15
    assert tag.epc == INITIAL_EPC
    assert writes == [(0xAADD, bytes([0x44, 0x33]))] * 15  # each byte landed inverted
    reference = random.Random(4)
    for _ in range(15 * 2):
        reference.random()
    assert tag._fault_rng.getstate() == reference.getstate()


def test_repeat_of_the_stored_series_only_sets_the_epc():
    # Without write faults a repeat would store the same bytes again.
    tag = Tag()
    writes = recording_writes(tag)
    msg = build_ex_message(bytes([0xBB, 0xCC]), 0xAADD)
    raw = raw_of(msg)
    assert [tag.series_complete(raw, False) for _ in range(15)] == [True] * 15
    tag.set_powered(False)
    tag.set_powered(True)
    assert tag.epc == INITIAL_EPC
    assert tag.series_complete(raw, False) is True  # memory outlives the power loss
    assert tag.epc == msg.raw[:4] + bytes(8)
    assert writes == [(0xAADD, bytes([0xBB, 0xCC]))]
    tag.handle_basic_write(b"\xFF\x00")  # INIT forgets what the session wrote
    assert tag.series_complete(raw, False) is True
    assert len(writes) == 2
    assert tag.application_crc() == crc16_ccitt(bytes([0xBB, 0xCC]))


def test_bad_checksum_stays_rejected_on_every_repeat():
    tag = Tag()
    good = raw_of(build_ex_message(bytes([0xBB, 0xCC]), 0xAADD))
    bad = bytes([good[0] ^ 0x01]) + good[1:]
    writes = recording_writes(tag)
    assert [tag.series_complete(bad, False) for _ in range(15)] == [False] * 15
    assert tag.series_complete(good, False) is True
    assert [tag.series_complete(bad, False) for _ in range(15)] == [False] * 15
    assert writes == [(0xAADD, bytes([0xBB, 0xCC]))]
    assert tag.epc[:4] == good[:4]


def test_new_series_bytes_are_verified_again():
    tag = Tag()
    first = raw_of(build_ex_message(bytes([0xBB, 0xCC]), 0xAADD))
    assert tag.series_complete(first, False) is True
    # Same header, other payload: the checksum no longer matches.
    altered = first[:4] + bytes([0xBC, 0xCC])
    assert tag.series_complete(altered, False) is False
    assert tag.fram.read(0xAADD, 2) == bytes([0xBB, 0xCC])
    second = build_ex_message(bytes([0x11, 0x22, 0x33]), 0x0100)
    assert tag.series_complete(raw_of(second), False) is True
    assert tag.fram.read(0x0100, 3) == bytes([0x11, 0x22, 0x33])
    assert tag.epc == second.raw[:4] + bytes(8)


def reference_application_crc(fram, ranges):
    """The CRC over every range ever committed, repeats included."""
    merged = []
    for start, end in sorted(set(ranges)):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return crc16_ccitt(b"".join(fram.read(s, e - s) for s, e in merged))


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(0, 0x300), st.binary(min_size=1, max_size=32),
                          st.integers(1, 4)), max_size=30),
       st.sampled_from([0.0, 0.2]))
def test_application_crc_matches_append_every_commit(commits, fault_prob):
    tag = Tag(write_fault_prob=fault_prob, fault_seed=9)
    ranges = []
    for address, data, repeats in commits:
        raw = raw_of(build_ex_message(data, address))
        for _ in range(repeats):
            tag.series_complete(raw, False)
            ranges.append((address, address + len(data)))
    assert tag.application_crc() == reference_application_crc(tag.fram, ranges)


def reference_commit(tag, address, data):
    """The commit that always copied the data before writing it."""
    written = bytearray(data)
    if tag.write_fault_prob > 0:
        for i in range(len(written)):
            if tag._fault_rng.random() < tag.write_fault_prob:
                written[i] ^= 0xFF
    tag.fram.write(address, bytes(written))
    tag._written[address : address + len(data)] = b"\x01" * len(data)


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(0, FRAM_SIZE), st.binary(min_size=1, max_size=255)),
                max_size=20),
       st.sampled_from([0.0, 0.2]))
def test_commit_matches_the_copy_always_reference(spans, fault_prob):
    tag = Tag(write_fault_prob=fault_prob, fault_seed=9)
    ref = Tag(write_fault_prob=fault_prob, fault_seed=9)
    for address, data in spans:
        address = min(address, FRAM_SIZE - len(data))
        tag._commit(address, data)
        reference_commit(ref, address, data)
    assert tag.fram.read(0, FRAM_SIZE) == ref.fram.read(0, FRAM_SIZE)
    assert tag._written == ref._written
    assert tag._fault_rng.getstate() == ref._fault_rng.getstate()


def reference_basic_write(tag, address, payload):
    """A data Write read before it is rewritten.

    A byte this session already wrote that holds ``payload`` is only read
    back; any other byte is committed as ``reference_commit`` does, so a
    first write that landed corrupt is drawn and written again.
    """
    if not tag._written[address] or tag.fram.read(address) != bytes([payload]):
        reference_commit(tag, address, bytes([payload]))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0.0, 0.2]),
       st.lists(st.tuples(st.integers(0, FRAM_SIZE - 1 - MAX_BASIC_OFFSET),
                          st.lists(st.tuples(st.integers(0, MAX_BASIC_OFFSET),
                                             st.integers(0, 0xFF)), max_size=12)),
                max_size=8))
# Two Writes, then one re-executed as stale rounds do: its first write draws
# a fault (the third draw of fault seed 9), its repeat writes it again, and
# from then on it is only read.
@example(0.2, [(0x4400, [(0x03, 0x11), (0x04, 0x22), *[(0x05, 0xAA)] * 16])])
def test_basic_writes_match_the_read_before_rewrite_reference(fault_prob, rows):
    tag = Tag(write_fault_prob=fault_prob, fault_seed=9)
    ref = Tag(write_fault_prob=fault_prob, fault_seed=9)
    for base, writes in rows:
        tag.handle_basic_write(bytes([HDR_ADDR_FIRST, base >> 8]))
        tag.handle_basic_write(bytes([HDR_ADDR_SECOND, base & 0xFF]))
        for offset, payload in writes:
            tag.handle_basic_write(bytes([offset, payload]))
            reference_basic_write(ref, base + offset, payload)
            echo = bytes([offset, *ref.fram.read(base + offset), 0x01])  # 0x01: the echo mark
            assert tag.epc == echo.ljust(EPC_LENGTH, b"\0")
    assert tag.fram.read(0, FRAM_SIZE) == ref.fram.read(0, FRAM_SIZE)
    assert tag._written == ref._written
    assert tag._fault_rng.getstate() == ref._fault_rng.getstate()


class HeaderOrderTag(Tag):
    """The tag whose Write handling tests INIT, the mode and the two address
    headers before it takes a data byte, as it once did."""

    def handle_basic_write(self, raw):
        if not self.powered:
            return
        header, payload = raw
        if header == HDR_REPROGRAM_INIT:
            if self.mode is TagMode.APPLICATION:
                return
            self.mode = TagMode.REPROGRAM
            self._written = bytearray(FRAM_SIZE)
            self._stored = False
        elif self.mode is not TagMode.REPROGRAM:
            return
        elif header == HDR_ADDR_FIRST:
            self._addr_high = payload
            self._addr_low = None
        elif header == HDR_ADDR_SECOND:
            self._addr_low = payload
        elif header > MAX_BASIC_OFFSET or self._addr_high is None or self._addr_low is None:
            return
        else:
            address = ((self._addr_high << 8) | self._addr_low) + header
            if not (self._written[address] and self.fram._bytes[address] == payload):
                self._commit(address, raw[1:])
                raw = bytes((header, self.fram._bytes[address]))
        self.epc = raw + WRITE_ECHO_MARK.ljust(EPC_LENGTH - 2, b"\x00")


def apply_write_op(tag, op, arg):
    """One step of a Write stream; an out-of-range address raises in both tags alike."""
    try:
        if op == "write":
            tag.handle_basic_write(arg)
        elif op == "lose":
            tag.set_powered(False)
        elif op == "return":
            tag.set_powered(True)
        else:  # "complete": the matching application CRC, or one bit off it
            tag.transfer_complete(tag.application_crc() ^ arg)
    except IndexError as exc:
        return str(exc)
    return None


# Any header, with the address headers, INIT and the header boundaries drawn
# often; payloads from a small set as well, so stale repeats of one Write occur.
# Each "write" builds a new object; "repeat" passes the previous Write's own
# object again, as the reader passes its spec's ``raw`` every round.
WRITE_HEADERS = st.one_of(st.integers(0, 0xFF), st.sampled_from(
    [HDR_ADDR_FIRST, HDR_ADDR_SECOND, HDR_REPROGRAM_INIT, 0x00, MAX_BASIC_OFFSET,
     MAX_BASIC_OFFSET + 1, HDR_ADDR_FIRST - 1]))
WRITE_PAYLOADS = st.one_of(st.integers(0, 0xFF), st.sampled_from([0x00, 0x12, 0xFF]))
WRITE_OPS = st.one_of(
    st.tuples(st.just("write"), st.builds(lambda h, p: bytes((h, p)), WRITE_HEADERS,
                                          WRITE_PAYLOADS)),
    st.sampled_from([("lose", 0), ("return", 0), ("complete", 0), ("complete", 1),
                     ("repeat", 0)]))


@settings(max_examples=400, deadline=None)
@given(st.booleans(), st.sampled_from([0.0, 0.2]), st.lists(WRITE_OPS, max_size=60))
# Every header once, after a base address: data bytes at 0x00-0x20, nothing
# at 0x21-0xFC, and the two address headers and INIT at 0xFD-0xFF.
@example(False, 0.2, [("write", b"\xFD\x12"), ("write", b"\xFE\x34"),
                      *(("write", bytes((h, h))) for h in range(256))])
# A running application keeps the address pair it was sent, and ignores a data byte.
@example(False, 0.0, [("write", b"\xFD\x12"), ("write", b"\xFE\x34"), ("complete", 0),
                      ("write", b"\x00\x56")])
# A data byte at the top of memory runs past its end in both tags.
@example(False, 0.0, [("write", b"\xFD\xFF"), ("write", b"\xFE\xFF"), ("write", b"\x20\x01")])
# A power loss clears the address registers, so the same Write object must be
# taken again, not skipped as a repeat.
@example(False, 0.0, [("write", b"\xFD\x12"), ("lose", 0), ("return", 0), ("repeat", 0)])
# A stored data byte, repeated, then rewritten by a second Write and repeated.
@example(False, 0.2, [("write", b"\xFD\x12"), ("write", b"\xFE\x34"), ("write", b"\x00\x56"),
                      ("repeat", 0), ("repeat", 0), ("write", b"\x00\x57"), ("repeat", 0)])
def test_basic_writes_match_the_header_order_reference(start_in_bootloader, fault_prob, ops):
    tag = Tag(fault_prob, fault_seed=9, start_in_bootloader=start_in_bootloader)
    ref = HeaderOrderTag(fault_prob, fault_seed=9, start_in_bootloader=start_in_bootloader)
    last = b"\xFF\x00"
    for op, arg in ops:
        if op == "repeat":
            op, arg = "write", last
        elif op == "write":
            last = arg
        assert apply_write_op(tag, op, arg) == apply_write_op(ref, op, arg)
        assert (tag.epc, tag.mode, tag.powered) == (ref.epc, ref.mode, ref.powered)
        assert (tag._addr_high, tag._addr_low, tag._stored) == (
            ref._addr_high, ref._addr_low, ref._stored)
        assert tag.fram.read(0, FRAM_SIZE) == ref.fram.read(0, FRAM_SIZE)
        assert tag._written == ref._written
        assert tag._fault_rng.getstate() == ref._fault_rng.getstate()


class VerifyOnceTag(HeaderOrderTag):
    """The tag whose accepted series commits and reads the payload back, unless
    it repeats the series whose last commit passed that check with nothing
    written since: then it only sets the EPC.  Its Writes run in full every
    time, repeats included.

    "Nothing written since" is read off the state a write changes: the memory,
    the written mask and, with faults on, the fault stream.  A write without
    faults that stores the bytes already there changes none of them, and
    skipping it is invisible.
    """

    _good = None  # (raw, memory, mask, fault-stream state) after the last verified commit

    def _snapshot(self, raw):
        return (raw, bytes(self.fram._bytes), bytes(self._written), self._fault_rng.getstate())

    def series_complete(self, raw, corrupted):
        if not self.powered or corrupted or len(raw) < 4:
            return False
        length = raw[1]
        payload = bytes(raw[4 : 4 + length])
        if len(payload) != length or record_checksum(raw[1 : 4 + length]) != raw[0]:
            return False
        address = (raw[2] << 8) | raw[3]
        epc = bytes(raw[:4]).ljust(EPC_LENGTH, b"\x00")
        if self.mode is not TagMode.REPROGRAM:
            return False
        if self._good != self._snapshot(raw):
            self._commit(address, payload)
            if self.fram.read(address, len(payload)) != payload:
                return False
            self._good = self._snapshot(raw)
        self.epc = epc
        return True


# Overlapping series, one with a bad checksum; basic Writes that address the
# same bytes (0x0100 and 0x0101), and INIT.  Each basic op holds one bytes
# object, so drawing it again replays that object, as the reader does.
SERIES = [raw_of(build_ex_message(bytes([0x11, 0x22, 0x33]), 0x0100)),
          raw_of(build_ex_message(bytes([0x44, 0x55]), 0x0101)),
          raw_of(build_ex_message(bytes([0x66]), 0x0100))]
SERIES.append(bytes([SERIES[0][0] ^ 0x01]) + SERIES[0][1:])
A, B = ("series", 0), ("series", 1)
INIT, LOSE, RETURN, COMPLETE = ("basic", b"\xFF\x00"), ("lose", 0), ("return", 0), ("complete", 0)
WRITE_0x0100 = [("basic", b"\xFD\x01"), ("basic", b"\xFE\x00"), ("basic", b"\x00\x77")]
SERIES_OPS = [*(("series", i) for i in range(len(SERIES))), ("corrupted", 0)]
OTHER_OPS = [*WRITE_0x0100, ("basic", b"\x01\x99"), INIT, LOSE, RETURN, COMPLETE, ("complete", 1)]


def apply_tag_op(tag, op, arg, crc):
    if op == "series":
        return tag.series_complete(SERIES[arg], False)
    if op == "corrupted":
        return tag.series_complete(SERIES[arg], True)
    if op == "basic":
        return tag.handle_basic_write(arg)
    if op == "lose":
        return tag.set_powered(False)
    if op == "return":
        return tag.set_powered(True)
    return tag.transfer_complete(crc ^ arg)


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.sampled_from([0.0, 0.2]),
       st.lists(st.one_of(st.sampled_from(SERIES_OPS), st.sampled_from(OTHER_OPS)), max_size=40))
# The verified series switches to B without a commit (the tag runs the
# application), then INIT starts a new session: A must be written again, and
# its repeat acknowledged with A's EPC.
@example(False, 0.0, [A, A, COMPLETE, B, LOSE, RETURN, INIT, A, A])
@example(False, 0.0, [A, A, INIT, A])  # INIT forgets what A wrote
@example(False, 0.0, [A, *WRITE_0x0100, A])  # a basic Write overwrites part of A
# Stale rounds replay A: once a commit passes its read-back check, the replays
# draw no faults.  INIT and a basic Write over A each make A's next repeat
# commit again.
@example(False, 0.2, [A] * 8 + [INIT] + [A] * 8 + WRITE_0x0100 + [A] * 8)
# A's commit fails its read-back (the first draws of fault seed 9), which
# writes memory and leaves the EPC on INIT's echo: the second INIT must still
# forget what the session wrote.
@example(False, 0.2, [INIT, A, INIT])
def test_repeated_series_match_the_verify_once_reference(start_in_bootloader, fault_prob, ops):
    tag = Tag(fault_prob, fault_seed=9, start_in_bootloader=start_in_bootloader)
    ref = VerifyOnceTag(fault_prob, fault_seed=9, start_in_bootloader=start_in_bootloader)
    for op, arg in ops:
        crc = ref.application_crc() if op == "complete" else 0
        assert apply_tag_op(tag, op, arg, crc) == apply_tag_op(ref, op, arg, crc)
        assert tag.fram.read(0, FRAM_SIZE) == ref.fram.read(0, FRAM_SIZE)
        assert tag._written == ref._written
        assert (tag.epc, tag.mode, tag.powered) == (ref.epc, ref.mode, ref.powered)
        assert tag._fault_rng.getstate() == ref._fault_rng.getstate()


def test_odd_length_series_honors_length_field():
    tag = Tag()
    msg = build_ex_message(bytes([0xAB]), 0x3000)
    assert feed_series(tag, msg) is True
    assert tag.fram.read(0x3000, 2) == bytes([0xAB, 0x00])
    assert tag.epc[:4] == msg.raw[:4]


# -- power ------------------------------------------------------------------------


def test_power_model_never_browns_out_at_zero():
    pm = PowerModel(seed=3)
    assert all(pm.step(0.0) for _ in range(1000))


def test_power_model_outage_fraction_matches_process():
    pm = PowerModel(seed=7)
    n = 20_000
    unpowered = sum(0 if pm.step(0.1) else 1 for _ in range(n))
    # Alternating renewal process: powered stretches mean 1/p, outages mean 3.
    expected = MEAN_BURST_ROUNDS / (MEAN_BURST_ROUNDS + 1.0 / 0.1)
    assert unpowered / n == pytest.approx(expected, abs=0.03)


def test_power_loss_clears_volatile_keeps_fram():
    tag = Tag()
    for raw in (b"\xFD\xAA", b"\xFE\xDD", b"\x00\xBB"):
        tag.handle_basic_write(raw)
    tag.set_powered(False)
    assert tag.epc == bytes(12)
    assert not tag.powered
    assert tag.mode is TagMode.REPROGRAM  # the session outlives the outage
    assert tag.fram.read(0xAADD, 1) == bytes([0xBB])  # persistent
    tag.set_powered(True)
    assert tag.mode is TagMode.REPROGRAM  # the session resumes
    tag.handle_basic_write(b"\x00\xBB")  # address registers did not survive either
    assert tag.epc == bytes(12)


def test_unpowered_tag_ignores_a_completed_series():
    # Power changes only between rounds, so a series never straddles a loss;
    # a series handed to an unpowered tag changes nothing.
    tag = Tag()
    msg = build_ex_message(bytes([0xBB, 0xCC]), 0xAADD)
    tag.set_powered(False)
    assert feed_series(tag, msg) is False
    assert tag.fram.read(0xAADD, 2) == bytes(2)
    assert tag.epc == bytes(12)
    tag.set_powered(True)
    assert feed_series(tag, msg) is True


def test_depletion_first_slot_never_fails():
    tag = Tag(energy_seed=5)
    channel = ChannelModel(seed=0)
    channel.set_distance_cm(0.6 * D_REF_CM)  # survival 0.5 from slot 2 on
    state = tag.energy_rng.getstate()
    assert all(tag.series_slot_alive(1, 0.6) for _ in range(100))
    assert tag.energy_rng.getstate() == state  # slot 1 draws no energy
    # A one-word series is lost only to the channel's preamble miss: its
    # table has no drain cell, just the miss and then the corrupted reply.
    table = series_table(1, channel.miss, channel.flip, round_odds(channel.d)[4])
    assert len(table) == 2 and table[0] == pytest.approx(channel.miss, rel=1e-12)
    replied = [channel.deliver_series(1)[0] for _ in range(1000)]
    assert 1000 - sum(replied) == pytest.approx(1000 * channel.miss, abs=30)


def test_depletion_hits_long_series_at_range():
    # Whether slot k replies once every earlier slot did.
    tag = Tag(energy_seed=5)
    deep = sum(tag.series_slot_alive(18, 0.45) for _ in range(2000))
    shallow = sum(tag.series_slot_alive(2, 0.45) for _ in range(2000))
    assert deep < shallow
    expected_deep = (1 - depletion_prob(0.45)) ** 17
    assert deep / 2000 == pytest.approx(expected_deep, abs=0.04)


distances = st.floats(min_value=0.0, max_value=1e12, exclude_min=True,
                      allow_nan=False, allow_infinity=False)


@given(distances)
def test_memoised_survival_and_brownout_equal_the_formulas_bit_for_bit(d):
    for _ in range(2):  # the first placement may fill the memo, the second reads it
        channel = ChannelModel(seed=0)
        channel.set_distance_cm(d * D_REF_CM)
        d_placed = channel.d
        assert channel.survival.hex() == (1.0 - min(0.5, 4.0 * d_placed**4)).hex()
        assert channel.brownout.hex() == min(0.9, 0.02 * (d_placed / 0.6) ** 4).hex()
    assert round_odds.cache_info().maxsize is not None


def test_distance_brownout_prob_shape():
    assert distance_brownout_prob(0.1) < 1e-4
    assert distance_brownout_prob(0.6) == pytest.approx(0.02)
    assert distance_brownout_prob(10.0) == 0.9


# -- bootloader --------------------------------------------------------------------


def test_bootloader_init_enters_reprogram():
    tag = Tag(start_in_bootloader=True)
    assert tag.mode is TagMode.BOOTLOADER
    tag.handle_basic_write(b"\xFF\x00")
    assert tag.mode is TagMode.REPROGRAM
    assert tag.epc[:2] == bytes([0xFF, 0x00])


def test_transfer_complete_with_matching_crc_starts_application():
    tag = Tag(start_in_bootloader=True)
    tag.handle_basic_write(b"\xFF\x00")
    msg = build_ex_message(bytes(range(8)), 0x4400)
    feed_series(tag, msg)
    assert tag.transfer_complete(crc16_ccitt(bytes(range(8)))) is TagMode.APPLICATION
    assert tag.mode is TagMode.APPLICATION


def test_transfer_complete_with_wrong_crc_stays_in_reprogram():
    tag = Tag(start_in_bootloader=True)
    tag.handle_basic_write(b"\xFF\x00")
    msg = build_ex_message(bytes(range(8)), 0x4400)
    feed_series(tag, msg)
    assert tag.transfer_complete(0xBEEF) is TagMode.REPROGRAM
    assert tag.mode is TagMode.REPROGRAM


def test_init_message_forgets_the_last_sessions_writes():
    tag = Tag(start_in_bootloader=True)
    tag.handle_basic_write(b"\xFF\x00")
    feed_series(tag, build_ex_message(bytes([0x42]), 0x0100))
    tag.handle_basic_write(b"\xFF\x00")  # a new session, still in reprogram mode
    feed_series(tag, build_ex_message(bytes([0x07, 0x08]), 0x0200))
    assert tag.application_crc() == crc16_ccitt(bytes([0x07, 0x08]))


def test_power_failure_returns_to_bootloader():
    tag = Tag(start_in_bootloader=True)
    tag.set_powered(False)
    assert not tag.powered
    assert tag.mode is TagMode.BOOTLOADER
    tag.set_powered(True)
    assert tag.mode is TagMode.BOOTLOADER  # no reprogram session yet


def test_application_survives_only_until_power_failure():
    tag = Tag(start_in_bootloader=True)
    tag.handle_basic_write(b"\xFF\x00")
    msg = build_ex_message(bytes([0x42]), 0x100)
    feed_series(tag, msg)
    tag.transfer_complete(crc16_ccitt(bytes([0x42])))
    assert tag.mode is TagMode.APPLICATION
    tag.set_powered(False)
    tag.set_powered(True)
    assert tag.mode is TagMode.BOOTLOADER


def test_transfer_complete_outside_reprogram_changes_nothing():
    tag = Tag(start_in_bootloader=True)  # no init message yet
    assert tag.transfer_complete(tag.application_crc()) is TagMode.BOOTLOADER
    tag.handle_basic_write(b"\xFF\x00")
    feed_series(tag, build_ex_message(bytes([0x42]), 0x100))
    assert tag.transfer_complete(tag.application_crc()) is TagMode.APPLICATION
    assert tag.transfer_complete(tag.application_crc()) is TagMode.APPLICATION


BOOT_OPS = ("lose", "return", "init", "write", "complete", "complete-wrong")


@settings(max_examples=300)
@given(
    st.booleans(),
    st.lists(st.tuples(st.sampled_from(BOOT_OPS), st.integers(0, 255)), max_size=40),
)
@example(False, [("write", 7), ("complete", 0), ("init", 0)])  # INIT to a running application
def test_mode_follows_power_init_and_complete(start_in_bootloader, ops):
    """REPROGRAM from an init (or from construction without the bootloader)
    until a matching complete, then APPLICATION until the next power loss,
    otherwise BOOTLOADER.  An init the tag takes echoes; one it ignores
    leaves the EPC as it was."""
    init_echo = BasicMessage(HDR_REPROGRAM_INIT, 0x00).expected_epc()
    tag = Tag(start_in_bootloader=start_in_bootloader)
    expected = TagMode.BOOTLOADER if start_in_bootloader else TagMode.REPROGRAM
    for op, byte in ops:
        if op == "lose":
            if tag.powered and expected is TagMode.APPLICATION:
                expected = TagMode.BOOTLOADER
            tag.set_powered(False)
        elif op == "return":
            tag.set_powered(True)
        elif op == "init":
            epc = tag.epc
            tag.handle_basic_write(b"\xFF\x00")
            if tag.powered and expected is not TagMode.APPLICATION:
                expected = TagMode.REPROGRAM
                assert tag.epc == init_echo
            else:
                assert tag.epc == epc
        elif op == "write":
            feed_series(tag, build_ex_message(bytes([byte]), 0x1000 + byte))
        elif op == "complete":
            tag.transfer_complete(tag.application_crc())
            if tag.powered and expected is TagMode.REPROGRAM:
                expected = TagMode.APPLICATION
        else:
            tag.transfer_complete(tag.application_crc() ^ 0x0001)
        if tag.powered:
            assert tag.mode is expected
