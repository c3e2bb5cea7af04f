import math
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erfc as scipy_erfc
from scipy.stats import chisquare

from crfid_downlink.channel import (
    COMMAND_OVERHEAD_BITS,
    D_REF_CM,
    SERIES_SLOTS,
    WORD_BITS,
    ChannelModel,
    Delivery,
    NonPositiveDistance,
    NonPositiveLength,
    bit_error_rate,
    blockwrite_throughput,
    depletion_prob,
    distance_brownout_prob,
    miss_probability,
    round_odds,
    series_table,
)

# Finite positive normalized distances, subnormals and far range included.
distances = st.floats(min_value=0.0, max_value=1e12, exclude_min=True,
                      allow_nan=False, allow_infinity=False)


def oracle_throughput(length_bits, d):
    p = scipy_erfc(1.0 / d)
    total = length_bits + 51
    return (length_bits / total) * (1.0 - p) ** total


# -- bit error rate -----------------------------------------------------------


@pytest.mark.parametrize("d", [0.2, 0.5, 0.8, 1.0, 2.0])
def test_bit_error_rate_matches_scipy(d):
    assert bit_error_rate(d) == pytest.approx(float(scipy_erfc(1.0 / d)), rel=1e-12)


def test_bit_error_rate_half():
    assert bit_error_rate(0.5) == pytest.approx(4.6777e-3, rel=1e-4)


def test_bit_error_rate_fifth():
    assert bit_error_rate(0.2) == pytest.approx(1.5375e-12, rel=1e-4)


def test_bit_error_rate_vanishes_near_zero():
    assert bit_error_rate(1e-3) == 0.0  # erfc(1000) underflows to zero


def test_bit_error_rate_rejects_nonpositive():
    with pytest.raises(NonPositiveDistance):
        bit_error_rate(0.0)
    with pytest.raises(NonPositiveDistance):
        bit_error_rate(-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_distance_is_rejected(bad):
    with pytest.raises(NonPositiveDistance, match=re.escape(f"got {bad}")):
        bit_error_rate(bad)
    channel = ChannelModel(seed=0)
    placed = (channel.d, channel.miss, channel.flip, channel.survival, channel.brownout)
    entries = round_odds.cache_info().currsize
    with pytest.raises(NonPositiveDistance, match=re.escape(f"got {bad} cm")):
        channel.set_distance_cm(bad)
    # The placement stays where it was, and the memo gains no entry.
    assert (channel.d, channel.miss, channel.flip, channel.survival, channel.brownout) == placed
    assert round_odds.cache_info().currsize == entries


# -- throughput ---------------------------------------------------------------


def test_overhead_is_51_bits():
    assert COMMAND_OVERHEAD_BITS == 51


def test_throughput_crossover_near():
    t128 = blockwrite_throughput(128, 0.2)
    t256 = blockwrite_throughput(256, 0.2)
    assert t128 == pytest.approx(oracle_throughput(128, 0.2), abs=1e-6)
    assert t256 == pytest.approx(oracle_throughput(256, 0.2), abs=1e-6)
    assert t128 == pytest.approx(0.7151, abs=1e-4)
    assert t256 == pytest.approx(0.8339, abs=1e-4)
    assert t128 < t256


def test_throughput_crossover_far():
    t128 = blockwrite_throughput(128, 0.5)
    t256 = blockwrite_throughput(256, 0.5)
    assert t128 == pytest.approx(0.309, abs=5e-4)
    assert t256 == pytest.approx(0.198, abs=5e-4)
    assert t128 > t256


def test_throughput_is_product_identity():
    for length in (16, 64, 128, 512):
        for d in (0.1, 0.4, 0.9):
            total = length + COMMAND_OVERHEAD_BITS
            expected = (length / total) * (1.0 - bit_error_rate(d)) ** total
            assert blockwrite_throughput(length, d) == pytest.approx(expected, rel=1e-12)


def test_throughput_unimodal_and_argmax_shrinks_with_distance():
    lengths = list(range(16, 513, 16))
    argmaxes = []
    for d in [round(0.1 * k, 1) for k in range(1, 11)]:
        values = [blockwrite_throughput(L, d) for L in lengths]
        best = values.index(max(values))
        rising = values[: best + 1]
        falling = values[best:]
        assert all(a < b for a, b in zip(rising, rising[1:]))
        assert all(a > b for a, b in zip(falling, falling[1:]))
        argmaxes.append(lengths[best])
    assert all(a >= b for a, b in zip(argmaxes, argmaxes[1:]))


def test_throughput_rejects_bad_inputs():
    with pytest.raises(NonPositiveLength):
        blockwrite_throughput(0, 0.5)
    with pytest.raises(NonPositiveDistance):
        blockwrite_throughput(128, 0)


# -- delivery -----------------------------------------------------------------


def channel_at(d, seed):
    channel = ChannelModel(seed)
    channel.set_distance_cm(d * D_REF_CM)
    return channel


def cell_odds(table):
    """The 2n + 1 outcome odds of a series table's 2n cumulative entries."""
    bounds = [0.0, *table, 1.0]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def test_near_field_always_delivers():
    channel = channel_at(0.2, seed=1)
    outcomes = {channel.deliver_word() for _ in range(10_000)}
    assert outcomes == {Delivery.DELIVERED}
    # A series loses nothing to the channel here: its misses (slot 0, then
    # the first cell of each later slot) and its corruption are negligible,
    # so only a drained slot cuts it short.
    cells = cell_odds(series_table(32, channel.miss, channel.flip, round_odds(channel.d)[4]))
    assert cells[0] + sum(cells[1:-2:2]) + cells[-2] < 1e-8
    series = {channel.deliver_series(32) for _ in range(1000)}
    assert (32, False) in series and (32, True) not in series
    assert all(replied and not corrupted for replied, corrupted in series)


def test_monte_carlo_matches_closed_form():
    d, n = 0.8, 10_000
    channel = channel_at(d, seed=42)
    outcomes = [channel.deliver_word() for _ in range(n)]
    lost = sum(o is Delivery.LOST for o in outcomes)
    corrupted = sum(o is Delivery.CORRUPTED for o in outcomes)
    not_lost = n - lost
    p_corrupt = 1.0 - (1.0 - float(scipy_erfc(1.0 / d))) ** (WORD_BITS + 51)
    assert corrupted / not_lost == pytest.approx(p_corrupt, abs=0.02)
    assert lost / n == pytest.approx(miss_probability(d), abs=0.02)


def test_series_monte_carlo_matches_closed_form():
    # Slot k replies with probability (1 - miss) * q**(k-1), independently,
    # so a whole series of n replies with (1 - miss)**n * q**(n(n-1)/2), and
    # it holds a corrupted word with 1 - (1 - flip)**n.
    d, n, trials = 0.5, 4, 10_000
    channel = channel_at(d, seed=5)
    q = 1.0 - min(0.5, 4.0 * d**4)  # survival at d: 0.75
    assert channel.survival == q
    samples = [channel.deliver_series(n) for _ in range(trials)]
    full = [corrupted for replied, corrupted in samples if replied == n]
    miss = miss_probability(d)
    flip = 1.0 - (1.0 - bit_error_rate(d)) ** (WORD_BITS + COMMAND_OVERHEAD_BITS)
    assert len(full) / trials == pytest.approx((1 - miss) ** n * q ** (n * (n - 1) // 2), abs=0.02)
    assert sum(full) / len(full) == pytest.approx(1 - (1 - flip) ** n, abs=0.02)
    assert sum(replied == 0 for replied, _ in samples) / trials == pytest.approx(miss, abs=0.01)


def reference_deliver_series(channel, n, energy_draw):
    """The per-slot series the one-draw sampler replaced, and its definition.

    Per slot k (from 0): the channel draws the miss, then the flip; from
    slot 1 on, the energy stream draws, and the slot drains unless the draw
    is below ``survival**k``.  The first slot lost ends the series.
    """
    draw = channel.rng.random
    miss, flip, q = channel.miss, channel.flip, channel.survival
    corrupted = False
    for k in range(n):
        if draw() < miss:
            return k, corrupted
        if draw() < flip:
            corrupted = True
        if k and energy_draw() >= q ** k:
            return k, corrupted
    return n, corrupted


def reference_law(channel, n):
    """The odds of ``reference_deliver_series``'s outcomes, slot by slot.

    In the sampler's cell order: a miss at slot 0; a miss, then a drain, at
    each slot 1..n-1; a full reply with a corrupted word; a clean one.
    """
    miss, flip, q = channel.miss, channel.flip, channel.survival
    law = []
    reach = 1.0  # the odds that slot k is reached
    for k in range(n):
        law.append(reach * miss)
        reach *= 1.0 - miss
        if k:
            law.append(reach * (1.0 - q ** k))
            reach *= q ** k
    clean = reach * (1.0 - flip) ** n
    return [*law, reach - clean, clean]


# Normalized distances from the near field to past the depletion clamp at
# d = 8**-0.25 (about 0.59), and every series length the reader sends.
@settings(deadline=None)
@given(st.floats(0.05, 1.5), st.integers(1, 32))
def test_series_table_cells_equal_the_per_slot_law(d, n):
    channel = channel_at(d, seed=0)
    channel.deliver_series(n)  # fills the placed distance's table
    table = round_odds(channel.d)[5][n]
    assert len(table) == 2 * n
    assert all(a <= b for a, b in zip(table, table[1:]))
    cells = cell_odds(table)
    assert cells == pytest.approx(reference_law(channel, n), rel=0, abs=1e-12)


@pytest.mark.parametrize("cm,n", [(90.0, 4), (80.0, 6)])
def test_series_samples_follow_the_table(cm, n):
    # Chi-square over the distinct outcomes at a fixed seed: the one-draw
    # sampler, and the per-slot definition, against the table's cells.
    channel = channel_at(cm / D_REF_CM, seed=8)
    channel.deliver_series(n)
    table = round_odds(channel.d)[5][n]
    cells = cell_odds(table)
    odds = Counter({(0, False): cells[0], (n, True): cells[-2], (n, False): cells[-1]})
    for k in range(1, n):
        odds[k, False] = cells[2 * k - 1] + cells[2 * k]
    assert min(odds.values()) * 20_000 > 20  # every cell expects a fair count
    keys = sorted(odds)
    energy = random.Random(9).random
    reference = channel_at(cm / D_REF_CM, seed=10)
    for sample in (lambda: channel.deliver_series(n),
                   lambda: reference_deliver_series(reference, n, energy)):
        counts = Counter()
        for _ in range(20_000):
            replied, corrupted = sample()
            counts[replied, corrupted and replied == n] += 1
        assert set(counts) <= set(keys)
        result = chisquare([counts[k] for k in keys], [odds[k] * 20_000 for k in keys])
        assert result.pvalue > 1e-3, (counts, odds)


def test_delivery_is_seed_reproducible():
    a, b = channel_at(0.7, seed=7), channel_at(0.7, seed=7)
    seq_a = [a.deliver_word() for _ in range(500)]
    seq_b = [b.deliver_word() for _ in range(500)]
    assert seq_a == seq_b


def test_cached_probabilities_follow_the_distance():
    channel = ChannelModel(seed=0)
    for cm in (20.0, 90.0, 90.0, 140.0, 20.0):
        channel.set_distance_cm(cm)
        d = cm / D_REF_CM
        assert channel.miss == miss_probability(d)
        assert channel.flip == 1.0 - (1.0 - bit_error_rate(d)) ** (WORD_BITS + COMMAND_OVERHEAD_BITS)


@given(distances)
def test_memoised_odds_equal_the_formulas_bit_for_bit(d):
    p = math.erfc(1.0 / d)
    direct = (min(5.0 * p, 0.9999), 1.0 - (1.0 - p) ** 67,
              1.0 - min(0.5, 4.0 * d**4), min(0.9, 0.02 * (d / 0.6) ** 4))
    q = direct[2]
    for _ in range(2):  # the first call may fill the memo, the second reads it
        *odds, powers, tables = round_odds(d)
        assert [x.hex() for x in odds] == [x.hex() for x in direct]
        assert len(powers) == SERIES_SLOTS == 32
        assert [powers[k].hex() for k in range(32)] == [(q ** k).hex() for k in range(32)]
        # The series tables fill lazily, each one from the odds beside it.
        assert type(tables) is dict
        assert all(table == series_table(n, *odds[:2], powers) for n, table in tables.items())
        channel = ChannelModel(seed=0)
        channel.restore((d, round_odds(d)))
        channel.deliver_series(3)  # fills the table the second pass checks
    assert round_odds.cache_info().maxsize is not None


@given(distances, distances)
def test_walk_away_and_back_matches_a_fresh_placement(a, b):
    walked = ChannelModel(seed=0)
    for d in (a, b, a):
        walked.set_distance_cm(d * D_REF_CM)
    round_odds.cache_clear()  # the fresh model computes its odds anew
    fresh = ChannelModel(seed=0)
    fresh.set_distance_cm(a * D_REF_CM)
    placed = [(c.d, c.miss, c.flip, c.survival, c.brownout) for c in (walked, fresh)]
    assert placed[0] == placed[1]


def test_channel_model_distance_mapping():
    ch = ChannelModel(seed=3)
    ch.set_distance_cm(90.0)
    assert ch.d == pytest.approx(0.45)
    with pytest.raises(NonPositiveDistance):
        ch.set_distance_cm(0.0)


def test_miss_probability_clamped():
    assert 0.0 <= miss_probability(50.0) < 1.0
    assert miss_probability(0.2) == pytest.approx(5 * float(scipy_erfc(5.0)), rel=1e-9)


@pytest.mark.parametrize("d", [1e76, 1.3e77, 5e97, 1e300, math.inf])
def test_distance_odds_saturate_past_the_float_range(d):
    # d**4 overflows a float above about 1.3e77; the odds stay at their caps.
    assert (depletion_prob(d), distance_brownout_prob(d)) == (0.5, 0.9)
    if d < math.inf:
        assert round_odds(d)[2:4] == (0.5, 0.9)
