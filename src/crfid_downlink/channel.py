"""Distance-parameterized lossy channel.

Bit errors follow erfc(1/d) in a dimensionless distance d; physical
distances map through one fixed reference scale, d = cm / D_REF_CM with
D_REF_CM = 200.  Each command of L payload bits plus the fixed 51-bit
overhead is delivered, corrupted, or lost outright; losses model the tag
never decoding the command at all, with probability K_MISS * erfc(1/d)
for K_MISS = 5.
"""

from __future__ import annotations

import math
import random
from enum import Enum

COMMAND_OVERHEAD_BITS = 51
WORD_BITS = 16

D_REF_CM = 200.0  # cm per unit of normalized distance
K_MISS = 5.0  # preamble-miss multiplier on the bit error rate


class NonPositiveDistance(ValueError):
    pass


class NonPositiveLength(ValueError):
    pass


class Delivery(Enum):
    DELIVERED = "delivered"
    CORRUPTED = "corrupted"
    LOST = "lost"


def bit_error_rate(d: float) -> float:
    """Per-bit error probability at normalized distance d: erfc(1/d)."""
    if d <= 0:
        raise NonPositiveDistance(f"normalized distance must be positive, got {d}")
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


def delivery_outcome(rng: random.Random, length_bits: int, d: float,
                     tag_powered: bool) -> Delivery:
    """Sample the fate of one command over the channel.

    An unpowered tag always misses the command.  Otherwise the command is
    lost with the preamble-miss probability, else corrupted if any of its
    L+H bits flipped, else delivered intact.
    """
    if length_bits <= 0:
        raise NonPositiveLength(f"command length must be positive, got {length_bits}")
    if not tag_powered:
        return Delivery.LOST
    if rng.random() < miss_probability(d):
        return Delivery.LOST
    p_e = bit_error_rate(d)
    p_any_flip = 1.0 - (1.0 - p_e) ** (length_bits + COMMAND_OVERHEAD_BITS)
    if rng.random() < p_any_flip:
        return Delivery.CORRUPTED
    return Delivery.DELIVERED


class ChannelModel:
    """Per-simulation channel: owns its RNG and the current distance."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.d = 20.0 / D_REF_CM

    def set_distance_cm(self, cm: float) -> None:
        if cm <= 0:
            raise NonPositiveDistance(f"distance must be positive, got {cm} cm")
        self.d = cm / D_REF_CM

    def deliver_word(self, tag_powered: bool) -> Delivery:
        """Outcome for a single one-word command."""
        return delivery_outcome(self.rng, WORD_BITS, self.d, tag_powered)
