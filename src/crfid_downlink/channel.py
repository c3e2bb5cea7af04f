"""Distance-parameterized lossy channel and everything distance does to a round.

Bit errors follow erfc(1/d) in a dimensionless distance d; physical
distances map through one fixed reference scale, d = cm / D_REF_CM with
D_REF_CM = 200.  Each command of L payload bits plus the fixed 51-bit
overhead is delivered, corrupted, or lost outright; losses model the tag
never decoding the command at all, with probability K_MISS * erfc(1/d)
for K_MISS = 5.  Distance also sets the tag's energy-drain hazard within a
multi-word series and its default per-round brown-out probability; the
channel's placement holds all four probabilities for its current distance.

A series of n one-word sub-commands is sampled with one draw.  Slot k
(from 0) is missed with the preamble odds and, from slot 1 on, drains with
probability 1 - survival**k; the first slot lost ends the series, and a
fully replied series holds a corrupted word with 1 - (1 - flip)**n.  So
its fate is one of 2n + 1 outcomes: a miss at slot 0, a miss or a drain at
each slot 1..n-1, or a full reply, corrupted or clean.  A per-distance
table holds their cumulative odds, and one uniform draw picks the outcome
by bisection.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from enum import Enum
from functools import lru_cache

COMMAND_OVERHEAD_BITS = 51
WORD_BITS = 16

D_REF_CM = 200.0  # cm per unit of normalized distance
K_MISS = 5.0  # preamble-miss multiplier on the bit error rate
DEPLETION_COEFF = 4.0  # series energy-drain hazard per d**4
SERIES_SLOTS = 32  # the longest series, the reader's word-count ceiling
ODDS_MEMO_SIZE = 4096  # distances whose round odds the process keeps


class NonPositiveDistance(ValueError):
    pass


class NonPositiveLength(ValueError):
    pass


class Delivery(Enum):
    DELIVERED = "delivered"
    CORRUPTED = "corrupted"
    LOST = "lost"


# The outcomes as module names: an enum-class lookup costs each command.
_DELIVERED, _CORRUPTED, _LOST = Delivery


def bit_error_rate(d: float) -> float:
    """Per-bit error probability at normalized distance d: erfc(1/d)."""
    if not 0 < d < math.inf:
        raise NonPositiveDistance(f"normalized distance must be positive and finite, got {d}")
    return math.erfc(1.0 / d)


def blockwrite_throughput(length_bits: float, d: float) -> float:
    """Normalized throughput of one command: L/(L+H) * (1-p_e)^(L+H).

    Not monotone in L: the goodput factor favors long commands while the
    error factor punishes them, so the best length shrinks with distance.
    """
    if length_bits <= 0:
        raise NonPositiveLength(f"command length must be positive, got {length_bits}")
    p_e = bit_error_rate(d)
    total = length_bits + COMMAND_OVERHEAD_BITS
    return (length_bits / total) * (1.0 - p_e) ** total


def miss_probability(d: float) -> float:
    """Probability the tag never decodes the command preamble."""
    return min(K_MISS * bit_error_rate(d), 0.9999)


def depletion_prob(d: float) -> float:
    """Per-slot energy-drain hazard base during a multi-word series.

    While decoding back-to-back sub-commands the tag spends faster than it
    harvests, and the margin shrinks with distance; the hazard at series
    slot j scales as 1 - (1-p)^(j-1), so long series collapse at range
    while short ones stay viable.  A drained slot is a within-round
    brown-out approximated as a missed reply.  Past the float range of
    ``d**4`` (d above about 1.3e77) the hazard stays at its cap.
    """
    try:
        return min(0.5, DEPLETION_COEFF * d**4)
    except OverflowError:
        return 0.5


def distance_brownout_prob(d: float) -> float:
    """Default per-round brown-out probability: negligible near, bursty far.

    Like the depletion hazard, it stays at its cap past the float range.
    """
    try:
        return min(0.9, 0.02 * (d / 0.6) ** 4)
    except OverflowError:
        return 0.9


# A memo entry holds its four odds and up to one series table per length
# 1..SERIES_SLOTS (12.2 KB with the dict), so a full memo holds at most about
# 4096 * 12.4 KB, 51 MB; a run fills only the tables of the lengths it sends
# at the distances it visits.
@lru_cache(maxsize=ODDS_MEMO_SIZE)
def round_odds(d: float) -> tuple[float, float, float, float, dict[int, array]]:
    """(miss, flip, survival, brownout, tables) at d, memoised across channels and runs.

    ``miss`` and ``flip`` are a one-word command's; series slot k keeps its
    charge with probability ``survival**(k-1)``.  ``tables`` maps a series
    length n to its ``series_table``, filled on the first series of that
    length at d; the tables are a function of the odds, so every channel and
    run may share them.
    """
    flip = 1.0 - (1.0 - bit_error_rate(d)) ** (WORD_BITS + COMMAND_OVERHEAD_BITS)
    survival = 1.0 - depletion_prob(d)
    return miss_probability(d), flip, survival, distance_brownout_prob(d), {}


def series_table(n: int, miss: float, flip: float, survival: float) -> array:
    """Cumulative odds of the first 2n of an n-word series' 2n + 1 outcomes.

    In ``SERIES_OUTCOMES[n]`` order: a miss at slot 0; for each slot k in
    1..n-1 a miss, then a drain; a full reply that is corrupted.  The last
    outcome, a clean full reply, takes the rest.  Entry i is 1 minus the odds
    of getting past outcome i, so the entries rise and the cells sum to 1.
    """
    hit = 1.0 - miss
    tails = []
    reach = 1.0  # the odds that slot k is reached
    for k in range(n):
        reach *= hit
        tails.append(reach)  # past the miss at slot k
        if k:
            reach *= survival**k
            tails.append(reach)  # past the drain at slot k
    tails.append(reach * (1.0 - flip) ** n)  # past the corrupted full reply
    return array("d", [1.0 - tail for tail in tails])


# (replied, corrupted) per outcome cell by series length, shared by every
# distance.  A series cut short reports no corruption: the reader discards
# it either way.  The cut-short cells are (0, F), (1, F), (1, F), (2, F), ...
_CUT_SHORT = [(k >> 1, False) for k in range(1, 2 * SERIES_SLOTS)]
SERIES_OUTCOMES = ((), *((*_CUT_SHORT[: 2 * n - 1], (n, True), (n, False))
                         for n in range(1, SERIES_SLOTS + 1)))


class ChannelModel:
    """Per-simulation channel: RNG, distance, and the round odds there.

    Each command draws once for the miss and, if not missed, once for the
    flip; the caller handles an unpowered tag, which misses everything.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._place(20.0 / D_REF_CM)

    def set_distance_cm(self, cm: float) -> None:
        # The placed distance is positive and finite, so a distance that is
        # not (NaN included, which equals nothing) always reaches the check.
        d = cm / D_REF_CM
        if d != self.d:
            if not 0 < d < math.inf:
                raise NonPositiveDistance(f"distance must be positive and finite, got {cm} cm")
            self._place(d)

    def _place(self, d: float) -> None:
        self.restore((d, round_odds(d)))

    def placement(self) -> tuple[float, tuple]:
        """The placed distance and its odds, the memo's own tuple, for ``restore``."""
        return self.d, round_odds(self.d)

    def restore(self, placement: tuple[float, tuple]) -> None:
        """Put back a ``placement`` taken earlier: no distance check, no memo lookup."""
        self.d, (self.miss, self.flip, self.survival, self.brownout, self._tables) = placement

    def deliver_word(self) -> Delivery:
        """Outcome of a one-word command to a powered tag."""
        if self.rng.random() < self.miss:
            return _LOST
        return _CORRUPTED if self.rng.random() < self.flip else _DELIVERED

    def deliver_series(self, n: int) -> tuple[int, bool]:
        """Sample a series of ``n`` one-word sub-commands to a powered tag.

        Returns the replies before the first loss and, for a full reply,
        whether any word was corrupted; ``n`` is at most SERIES_SLOTS.  One
        draw from the channel's stream picks the outcome from the placed
        distance's ``series_table``.
        """
        return SERIES_OUTCOMES[n][bisect_right(self._series_table(n), self.rng.random())]

    def _series_table(self, n: int) -> array:
        """The placed distance's ``series_table`` for ``n`` words, filled on its first use."""
        table = self._tables.get(n)
        if table is None:
            table = self._tables[n] = series_table(n, self.miss, self.flip, self.survival)
        return table

    def deliver_repeats(self, rounds: int, successes: int, words: int, power,
                        brownout: float) -> tuple[int, Sequence[tuple[int, bool]]]:
        """Sample a ``words``-word command round after round, as ``deliver_word`` or
        ``deliver_series`` would, until ``successes`` rounds got a full reply (a series'
        corrupted word included) or ``rounds`` rounds ran, both at least 1.  Each round
        after the first runs once ``power.rng`` drew its power step at ``brownout`` as
        ``PowerModel.step`` would; a brown-out starts its outage (``PowerModel.brown_out``)
        and ends the sampling before its round.  Returns the rounds sampled and, in round
        order, each one that got no full reply as ``(k, seen)``: its number, from 1, and
        whether the tag replied at all (a corrupted Write, a series cut short after a reply)."""
        random, draw = self.rng.random, power.rng.random
        end = rounds if rounds < successes else successes  # if every round replies in full
        ahead = end if brownout > 0 else 1  # a round k < ahead draws the next one's power
        if words == 1:
            miss, flip = self.miss, self.flip
            for k in range(1, end + 1):
                if random() < miss:
                    seen = False
                    break
                if random() < flip:
                    seen = True
                    break
                if k < ahead and draw() < brownout:
                    power.brown_out()
                    return k, ()
            else:
                return end, ()
        else:
            table = self._series_table(words)
            cut = table[2 * words - 2]  # a draw below it cuts the series short
            for k in range(1, end + 1):
                if (u := random()) < cut:
                    seen = SERIES_OUTCOMES[words][bisect_right(table, u)][0] > 0
                    break
                if k < ahead and draw() < brownout:
                    power.brown_out()
                    return k, ()
            else:
                return end, ()
        # Round k took no success: the rounds after it sample on as a batch of their own,
        # once round k + 1's power step is drawn here (a call per such round, so at most
        # ``rounds`` deep; a stale frame lasts at most ``DELETE_GRACE`` + 1 rounds).
        missed = [(k, seen)]
        if k < rounds:
            if brownout > 0 and draw() < brownout:  # round k + 1's power step
                power.brown_out()
                return k, missed
            j, later = self.deliver_repeats(rounds - k, successes - k + 1, words, power, brownout)
            missed += [(k + i, replied) for i, replied in later]
            k += j
        return k, missed
