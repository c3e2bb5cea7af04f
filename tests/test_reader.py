import random

import pytest
from hypothesis import given, settings, strategies as st

from crfid_downlink.channel import (
    COMMAND_OVERHEAD_BITS,
    D_REF_CM,
    WORD_BITS,
    ChannelModel,
    Delivery,
    bit_error_rate,
    depletion_prob,
    miss_probability,
)
from crfid_downlink.protocol import build_ex_message
from crfid_downlink.reader import (
    DELETE_GRACE,
    FRAME_SLACK_ROUNDS,
    LLRP_LATENCY_TICKS,
    NO_TAG_EPC,
    SWITCH_TICKS,
    AccessSpec,
    OperationReport,
    Reader,
    ReportResult,
)
from crfid_downlink.tag import Tag


class ScriptedChannel:
    """Channel stand-in replaying a fixed outcome sequence, one per word.

    Series slots never drain.
    """

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.miss = miss_probability(0.1)  # an idle inventory round at 20 cm
        self.rng = random.Random(0)

    def deliver_word(self):
        if self.outcomes:
            return self.outcomes.pop(0)
        return Delivery.DELIVERED

    def deliver_series(self, n):
        corrupted = False
        for k in range(n):
            outcome = self.deliver_word()
            if outcome is Delivery.LOST:
                return k, corrupted
            corrupted |= outcome is Delivery.CORRUPTED
        return n, corrupted


def write_spec(raw=b"\xFD\xAA", spec_id=1, ocv=15):
    return AccessSpec(spec_id=spec_id, raw=raw, ocv=ocv)


def ex_spec(data=bytes([0xBB, 0xCC]), address=0xAADD, spec_id=1, ocv=15):
    msg = build_ex_message(data, address)
    return AccessSpec(spec_id=spec_id, raw=msg.raw, ocv=ocv)


def run_reader_round(reader, spec, tag, channel, now=0):
    reader.stage(spec, now - LLRP_LATENCY_TICKS)
    return reader.tick(now, tag, channel)


# -- spec construction --------------------------------------------------------


def test_word_count_ceiling():
    AccessSpec(1, bytes(64), 15)
    with pytest.raises(ValueError):
        AccessSpec(1, bytes(66), 15)


def test_write_is_single_word():
    # The length of ``raw`` picks the command.  One word is a Write, which the
    # tag takes as header and payload; two words are a BlockWrite, a series
    # the tag checksums (this one fails it and sets no register).
    write, blockwrite = b"\xFD\xAA", b"\xFD\xAA\x00\x00"
    for raw, addr_high in ((write, 0xAA), (blockwrite, None)):
        tag = Tag()
        report = run_reader_round(Reader(), write_spec(raw), tag, ScriptedChannel([]))
        assert report.result is ReportResult.SUCCESS
        assert tag._addr_high == addr_high
    # A Write's CRC16 keeps a corrupted word from the tag; a BlockWrite replies to it.
    for raw, result in ((write, ReportResult.ERROR), (blockwrite, ReportResult.SUCCESS)):
        channel = ScriptedChannel([Delivery.CORRUPTED])
        assert run_reader_round(Reader(), write_spec(raw), Tag(), channel).result is result


@pytest.mark.parametrize("raw,error,match", [
    # Old-style words tuples, and the mutable or text forms of the image.
    pytest.param((0xFDAA,), TypeError, "raw must be bytes, not tuple", id="words-write"),
    pytest.param((0x1234, 0x0000, 0xFFFF), TypeError, "raw must be bytes, not tuple",
                 id="words-blockwrite"),
    pytest.param(bytearray(b"\xFD\xAA"), TypeError, "not bytearray", id="bytearray"),
    pytest.param("\xFD\xAA", TypeError, "not str", id="str"),
    pytest.param(b"\xFD", ValueError, "odd byte count, 1:", id="one-byte"),
    pytest.param(bytes(7), ValueError, "odd byte count, 7:", id="seven-bytes"),
    # The empty image, named for both commands it could have been meant as: with
    # the command taken from the length, both spell the same input.
    pytest.param(b"", ValueError, r"word count 0 outside 1\.\.32", id="empty-write"),
    pytest.param(b"", ValueError, r"word count 0 outside 1\.\.32", id="empty-blockwrite"),
    pytest.param(bytes(66), ValueError, r"word count 33 outside 1\.\.32", id="33-words"),
])
def test_raw_shape_is_checked(raw, error, match):
    with pytest.raises(error, match=match):
        AccessSpec(1, raw, 15)


# -- round execution ----------------------------------------------------------


def test_report_results_keep_their_order():
    # The reader's round path and the host loop unpack the members by position.
    assert [r.name for r in ReportResult] == ["SUCCESS", "ERROR", "NO_TAG_SEEN", "INVENTORY"]


def test_clean_write_succeeds_and_counts():
    reader, tag = Reader(), Tag()
    report = run_reader_round(reader, write_spec(), tag, ScriptedChannel([]))
    assert report.result is ReportResult.SUCCESS
    assert reader.active.success_count == 1
    assert tag.epc[:2] == bytes([0xFD, 0xAA])


def test_write_lost_reports_no_tag_seen():
    reader, tag = Reader(), Tag()
    report = run_reader_round(reader, write_spec(), tag, ScriptedChannel([Delivery.LOST]))
    assert report.result is ReportResult.NO_TAG_SEEN
    assert report.epc == bytes(12)
    assert reader.active.success_count == 0


def test_write_corrupted_reports_error_without_write():
    reader, tag = Reader(), Tag()
    report = run_reader_round(reader, write_spec(), tag, ScriptedChannel([Delivery.CORRUPTED]))
    assert report.result is ReportResult.ERROR
    assert tag.epc == bytes(12)  # CRC16 caught it, nothing happened
    assert reader.active.success_count == 0


def test_unpowered_round_reports_no_tag():
    reader, tag = Reader(), Tag()
    tag.set_powered(False)
    report = run_reader_round(reader, write_spec(), tag, ScriptedChannel([]))
    assert report.result is ReportResult.NO_TAG_SEEN


def test_blockwrite_second_subcommand_lost_is_error():
    reader, tag = Reader(), Tag()
    channel = ScriptedChannel([Delivery.DELIVERED, Delivery.LOST])
    report = run_reader_round(reader, ex_spec(), tag, channel)
    assert report.result is ReportResult.ERROR
    assert reader.active.success_count == 0
    assert tag.epc == bytes(12)


def test_blockwrite_first_subcommand_lost_is_no_tag():
    reader, tag = Reader(), Tag()
    channel = ScriptedChannel([Delivery.LOST])
    report = run_reader_round(reader, ex_spec(), tag, channel)
    assert report.result is ReportResult.NO_TAG_SEEN


def test_blockwrite_corrupted_word_still_counts_at_reader():
    # No per-word CRC16: the tag replies to a corrupted word, so the reader
    # sees success even though the tag discards the series content.
    reader, tag = Reader(), Tag()
    channel = ScriptedChannel([Delivery.DELIVERED, Delivery.CORRUPTED, Delivery.DELIVERED])
    report = run_reader_round(reader, ex_spec(), tag, channel)
    assert report.result is ReportResult.SUCCESS
    assert reader.active.success_count == 1
    assert tag.epc == bytes(12)  # checksum mismatch withheld the echo
    assert tag.fram.read(0xAADD, 2) == bytes(2)


def test_report_epc_reflects_previous_round():
    reader, tag = Reader(), Tag()
    channel = ScriptedChannel([])
    reader.stage(write_spec(b"\xFD\xAA"), -10)
    first = reader.tick(0, tag, channel)
    second = reader.tick(1, tag, channel)
    assert first.epc == bytes(12)  # initial EPC, message not yet handled
    assert second.epc[:2] == bytes([0xFD, 0xAA])  # echo of the previous round


def test_error_report_still_carries_epc():
    reader, tag = Reader(), Tag()
    channel = ScriptedChannel([Delivery.DELIVERED, Delivery.CORRUPTED])
    reader.stage(write_spec(b"\xFD\xAA"), -10)
    reader.tick(0, tag, channel)
    report = reader.tick(1, tag, channel)
    assert report.result is ReportResult.ERROR
    assert report.epc[:2] == bytes([0xFD, 0xAA])


# -- stop trigger and deletion ------------------------------------------------


def test_stop_trigger_fires_at_ocv_successes():
    reader, tag = Reader(), Tag()
    channel = ScriptedChannel([])
    reader.stage(write_spec(ocv=5), -10)
    successes = 0
    for now in range(20):
        report = reader.tick(now, tag, channel)
        if report is not None and report.result is ReportResult.SUCCESS:
            successes += 1
    assert successes == 5


def test_delete_grace_bounds_blocked_frames():
    # No success ever, and OCV so high that the OCV + FRAME_SLACK_ROUNDS
    # bound would end the frame 10 rounds later: only the grace bound ends it.
    reader, tag = Reader(), Tag()
    tag.set_powered(False)
    channel = ScriptedChannel([])
    reader.stage(write_spec(ocv=40), -10)
    reader.tick(0, tag, channel)
    reader.request_delete(1)
    for now in range(1, 1 + DELETE_GRACE):
        reader.tick(now, tag, channel)
        assert reader.active is not None, now
    reader.tick(1 + DELETE_GRACE, tag, channel)
    assert reader.active is None


def test_failing_frame_ends_at_the_slack_bound():
    # Every operation fails on a powered tag, and no delete is pending: only
    # the OCV + FRAME_SLACK_ROUNDS bound on total rounds ends the frame.
    ocv = 5
    reader, tag = Reader(), Tag()
    channel = ScriptedChannel([Delivery.CORRUPTED] * 20)
    reader.stage(write_spec(ocv=ocv), -LLRP_LATENCY_TICKS)
    for now in range(ocv + FRAME_SLACK_ROUNDS):
        assert reader.tick(now, tag, channel).result is ReportResult.ERROR
        if now < ocv + FRAME_SLACK_ROUNDS - 1:
            assert reader.active is not None, now
    assert reader.active is None
    assert reader.tick(ocv + FRAME_SLACK_ROUNDS, tag, channel).result is ReportResult.INVENTORY


@pytest.mark.parametrize("stage_at", [1, 2, 3, 4, 8])
def test_successor_waits_for_latency_and_switch_gap(stage_at):
    # The first spec succeeds every round, so its frame ends at round 4; the
    # host stages the successor before the round's tick.
    reader, tag = Reader(), Tag()
    channel = ScriptedChannel([])
    reader.stage(write_spec(b"\xFD\xAA", spec_id=1, ocv=5), -LLRP_LATENCY_TICKS)
    removal = 4
    first_round = {}
    for now in range(16):
        if now == stage_at:
            reader.request_delete(now)
            reader.stage(write_spec(b"\xFE\xBB", spec_id=2), now)
        report = reader.tick(now, tag, channel)
        first_round.setdefault(report.spec_id, now)
        if now == removal:
            assert reader.active is None
    start = max(stage_at + LLRP_LATENCY_TICKS, removal + SWITCH_TICKS)
    assert first_round[2] == start
    if start > removal + 1:
        assert first_round[0] == removal + 1  # inventory rounds fill the gap


def test_channel_model_drives_reader():
    # End to end with the real channel at close range: everything succeeds.
    reader, tag = Reader(), Tag()
    channel = ChannelModel(seed=11)
    channel.set_distance_cm(20.0)
    report = run_reader_round(reader, ex_spec(), tag, channel)
    assert report.result is ReportResult.SUCCESS
    assert tag.fram.read(0xAADD, 2) == bytes([0xBB, 0xCC])


def test_unpowered_round_draws_nothing():
    # An unpowered tag misses every command: no channel or energy draw, for
    # either flavour, and a NO_TAG_SEEN report with the all-zero EPC.
    for spec in (write_spec(), ex_spec()):
        reader, tag = Reader(), Tag(energy_seed=3)
        tag.set_powered(False)
        channel = ChannelModel(seed=4)
        channel.set_distance_cm(60.0)
        before = (channel.rng.getstate(), tag.energy_rng.getstate())
        report = run_reader_round(reader, spec, tag, channel)
        assert report.result is ReportResult.NO_TAG_SEEN
        assert report.epc == NO_TAG_EPC
        assert (channel.rng.getstate(), tag.energy_rng.getstate()) == before


def test_a_report_is_returned_again_only_while_every_field_repeats():
    reader, tag, channel = Reader(), Tag(), ScriptedChannel([])
    tag.set_powered(False)  # each access round: NO_TAG_SEEN with the all-zero EPC
    reader.stage(write_spec(spec_id=1, ocv=1), -LLRP_LATENCY_TICKS)
    first = [reader.tick(now, tag, channel) for now in range(1 + FRAME_SLACK_ROUNDS)]
    assert first[0] is first[1] is first[2] and reader.active is None
    reader.stage(write_spec(spec_id=2), 0)
    assert reader.tick(3, tag, channel) is None  # the switch gap; nothing seen
    by_id = reader.tick(4, tag, channel)  # a new spec id
    tag.set_powered(True)
    by_result = reader.tick(5, tag, channel)  # SUCCESS; the tag's EPC is still all-zero
    by_epc, again = reader.tick(6, tag, channel), reader.tick(7, tag, channel)  # the echo
    assert [(r.spec_id, r.result, r.epc[:2]) for r in (first[0], by_id, by_result, by_epc)] == [
        (1, ReportResult.NO_TAG_SEEN, b"\0\0"), (2, ReportResult.NO_TAG_SEEN, b"\0\0"),
        (2, ReportResult.SUCCESS, b"\0\0"), (2, ReportResult.SUCCESS, b"\xFD\xAA")]
    assert len({id(r) for r in (first[0], by_id, by_result, by_epc)}) == 4
    assert again is by_epc


def test_a_repeated_report_is_the_same_object_and_never_changes():
    # Writes and a BlockWrite at 70 cm with random power flips, so rounds
    # succeed, fail on a corrupted word, lose the word and find the tag
    # unpowered.  Each report is compared after the last round with the
    # fields it had when it was returned.
    reader, tag, channel = Reader(), Tag(), ChannelModel(seed=5)
    channel.set_distance_cm(70.0)
    power = random.Random(6)
    specs = [write_spec(raw, spec_id) for spec_id, raw in
             enumerate((b"\xFD\x12", b"\xFE\x34", b"\x00\x56", b"\x01\x78"), 1)]
    specs.append(ex_spec(address=0x1235, spec_id=5))
    returned = []
    now = 0
    for spec in specs:
        reader.request_delete(now)
        reader.stage(spec, now)
        for _ in range(40):
            now += 1
            tag.set_powered(power.random() < 0.8)
            report = reader.tick(now, tag, channel)
            if report is not None:
                returned.append((report, (report.spec_id, report.result, report.epc)))
    assert all((r.spec_id, r.result, r.epc) == fields for r, fields in returned)
    assert {fields[1] for _, fields in returned} == set(ReportResult)
    # An access round repeating the one before it returns that report object;
    # any change builds a new one.  Idle inventory rounds (spec id 0) always do.
    access = [(r, fields) for r, fields in returned if fields[0]]
    pairs = list(zip(access, access[1:]))
    assert all((a is b) == (fa == fb) for (a, fa), (b, fb) in pairs)
    assert sum(a is b for (a, _), (b, _) in pairs) > len(pairs) // 2


# -- fused series sampling versus the per-word loop -----------------------------

FLIP_BITS = WORD_BITS + COMMAND_OVERHEAD_BITS


def reference_blockwrite_round(spec, tag, rng, d):
    """The BlockWrite round word by word, its fate read off one channel draw.

    An unpowered tag draws nothing.  Otherwise one draw ``u`` from the
    channel stream is walked through the sub-commands in order: each slot
    k ends the series while ``u`` falls below the odds accumulated so far,
    first of its preamble miss, then, from the second slot on, of its
    energy drain (``survival**k`` to keep its charge).  A fully replied
    series holds a corrupted word while ``u`` falls below the odds of that
    too, 1 - (1 - flip)**n of the full reply; the energy stream is not drawn.
    """
    if not tag.powered:
        return OperationReport(spec.spec_id, ReportResult.NO_TAG_SEEN, NO_TAG_EPC)
    epc_at_start = tag.epc
    miss = miss_probability(d)
    flip = 1.0 - (1.0 - bit_error_rate(d)) ** FLIP_BITS
    q = 1.0 - depletion_prob(d)
    u = rng.random()
    n = len(spec.raw) >> 1
    ended = 0.0  # the odds that the series has ended by this point
    reach = 1.0  # the odds that slot k is reached
    for index in range(n):
        ended += reach * miss
        reach *= 1.0 - miss
        lost = u < ended
        if index and not lost:
            ended += reach * (1.0 - q ** index)
            reach *= q ** index
            lost = u < ended  # charge drained mid-series, no reply
        if lost:
            if index == 0:
                return OperationReport(spec.spec_id, ReportResult.NO_TAG_SEEN, NO_TAG_EPC)
            return OperationReport(spec.spec_id, ReportResult.ERROR, epc_at_start)
    corrupted = u < ended + reach * (1.0 - (1.0 - flip) ** n)
    tag.series_complete(spec.raw, corrupted)
    return OperationReport(spec.spec_id, ReportResult.SUCCESS, epc_at_start)


def valid_message_raw(data):
    return build_ex_message(data, 0x1000, s_max=30).raw


series_raw = st.one_of(
    st.lists(st.binary(min_size=2, max_size=2), min_size=2, max_size=32).map(b"".join),
    st.binary(min_size=1, max_size=60).map(valid_message_raw),  # 3 to 32 words
)


@settings(max_examples=300, deadline=None)
@given(
    raw=series_raw,
    rounds=st.lists(st.tuples(st.floats(0.05, 0.7), st.booleans()), min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_fused_round_matches_per_word_loop(raw, rounds, seed):
    spec = AccessSpec(1, raw, ocv=64)
    reader = Reader()
    reader.stage(spec, -LLRP_LATENCY_TICKS)
    fused_tag = Tag(write_fault_prob=0.05, fault_seed=seed, energy_seed=seed + 1)
    ref_tag = Tag(write_fault_prob=0.05, fault_seed=seed, energy_seed=seed + 1)
    energy = fused_tag.energy_rng.getstate()
    channel = ChannelModel(seed)
    ref_rng = random.Random(seed)
    for now, (d, powered) in enumerate(rounds):
        channel.set_distance_cm(d * D_REF_CM)
        fused_tag.set_powered(powered)
        ref_tag.set_powered(powered)
        report = reader.tick(now, fused_tag, channel)
        assert report == reference_blockwrite_round(spec, ref_tag, ref_rng, channel.d)
        assert fused_tag.epc == ref_tag.epc
        assert fused_tag.fram.read(0x0000, 0x10000) == ref_tag.fram.read(0x0000, 0x10000)
        assert channel.rng.getstate() == ref_rng.getstate()
        assert fused_tag.energy_rng.getstate() == energy  # the round draws no energy
