"""Distance-parameterized lossy channel and everything distance does to a round.

Bit errors follow erfc(1/d) in a dimensionless distance d; physical
distances map through one fixed reference scale, d = cm / D_REF_CM with
D_REF_CM = 200.  Each command of L payload bits plus the fixed 51-bit
overhead is delivered, corrupted, or lost outright; losses model the tag
never decoding the command at all, with probability K_MISS * erfc(1/d)
for K_MISS = 5.  Distance also sets the tag's energy-drain hazard within a
multi-word series and its default per-round brown-out probability; the
channel's placement holds all four probabilities for its current distance,
and the survival powers a series reads slot by slot.
"""

from __future__ import annotations

import math
import random
from array import array
from collections.abc import Callable
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


@lru_cache(maxsize=ODDS_MEMO_SIZE)
def round_odds(d: float) -> tuple[float, float, float, float, array]:
    """(miss, flip, survival, brownout, powers) at d, memoised across channels and runs.

    ``miss`` and ``flip`` are a one-word command's; series slot k keeps its
    charge with probability ``survival**(k-1)``, and ``powers[k]`` is
    ``survival**k`` for k < SERIES_SLOTS.  An ``array('d')`` holds the powers
    in a third of a float tuple's memory, which counts at 4096 entries.
    """
    flip = 1.0 - (1.0 - bit_error_rate(d)) ** (WORD_BITS + COMMAND_OVERHEAD_BITS)
    survival = 1.0 - depletion_prob(d)
    powers = array("d", map(survival.__pow__, range(SERIES_SLOTS)))
    return miss_probability(d), flip, survival, distance_brownout_prob(d), powers


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
        self.d = d
        self.miss, self.flip, self.survival, self.brownout, self._powers = round_odds(d)

    def placement(self) -> tuple[float, tuple]:
        """The placed distance and its odds, the memo's own tuple, for ``restore``."""
        return self.d, round_odds(self.d)

    def restore(self, placement: tuple[float, tuple]) -> None:
        """Put back a ``placement`` taken earlier: no distance check, no memo lookup."""
        self.d, (self.miss, self.flip, self.survival, self.brownout, self._powers) = placement

    def deliver_word(self) -> Delivery:
        """Outcome of a one-word command to a powered tag."""
        if self.rng.random() < self.miss:
            return _LOST
        return _CORRUPTED if self.rng.random() < self.flip else _DELIVERED

    def deliver_series(self, n: int, energy_draw: Callable[[], float]) -> tuple[int, bool]:
        """Sample a series of ``n`` one-word sub-commands to a powered tag.

        Returns the replies before the first loss and whether any of them
        was corrupted.  A sub-command the channel did not lose is still lost
        from slot k = 2 on unless ``energy_draw() < survival**(k-1)``.  Per
        slot the draws are the miss, the flip, then the energy; slot 1 draws
        no energy, and ``n`` is at most SERIES_SLOTS.
        """
        draw = self.rng.random
        miss = self.miss
        if draw() < miss:
            return 0, False
        flip = self.flip
        corrupted = draw() < flip
        powers = self._powers
        for k in range(1, n):
            if draw() < miss:
                return k, corrupted
            if draw() < flip:
                corrupted = True
            if energy_draw() >= powers[k]:
                return k, corrupted
        return n, corrupted
