import random
from dataclasses import replace

import pytest

from crfid_downlink.channel import ChannelModel
from crfid_downlink.host import HostSession, Variant
from crfid_downlink.ihex import generate_fixture, parse_file
from crfid_downlink.scenario import DistanceProfile, ScenarioConfig
from crfid_downlink.tag import PowerModel, Tag

FIRMWARE_BYTES = 5387  # base firmware image size used in the transfer benchmarks
FIRMWARE_RECORD_WIDTH = 26  # bytes per record, matching toolchain-image averages


@pytest.fixture(scope="session")
def firmware_matrix():
    """5387-byte firmware-sized fixture, 26-byte records."""
    rng = random.Random(99)
    payload = bytes(rng.randrange(256) for _ in range(FIRMWARE_BYTES))
    return parse_file(generate_fixture(payload, record_width=FIRMWARE_RECORD_WIDTH))


@pytest.fixture(scope="session")
def random_5120_matrix():
    """5120 bytes of random data in 16-byte records (320 rows)."""
    rng = random.Random(41)
    payload = bytes(rng.randrange(256) for _ in range(5120))
    return parse_file(generate_fixture(payload, record_width=16))


@pytest.fixture()
def small_matrix():
    rng = random.Random(17)
    payload = bytes(rng.randrange(256) for _ in range(520))
    return parse_file(generate_fixture(payload, record_width=26))


def run_clean(config, matrix, seed=1, cm=20.0, tag=None):
    """Run one session with the tag always powered at a fixed ``cm``.

    The config is copied with ``brownout = 0`` and a static profile at ``cm``.
    ``PowerModel.step(0)`` draws nothing, so the channel seed alone decides
    the rounds.  Returns ``(result, tag)``; ``tag`` defaults to a fresh one.
    """
    tag = Tag() if tag is None else tag
    config = replace(config, brownout=0.0, profile=DistanceProfile(d_cm=cm))
    result = HostSession(config, matrix).run(tag, ChannelModel(seed=seed), PowerModel(seed=0))
    return result, tag


@pytest.fixture(scope="session")
def clean_run():
    return run_clean


def walk_flights(flights, steps: int | None = None):
    """Drive a host's ``_flights()`` cursor, acknowledging every transmission.

    Returns ``(sent, after)``: the ``(raw, row, chunk, S_p, fresh)`` tuples in
    send order (at most ``steps`` of them), and what the cursor yields once
    they are all ACKed: the next transmission, or None when it has nothing left.
    """
    sent, acked = [], None  # a fresh generator takes None, then True for each ACK
    while True:
        try:
            flight = flights.send(acked)
        except StopIteration:
            return sent, None
        if len(sent) == steps:
            return sent, flight
        sent.append(flight)
        acked = True


@pytest.fixture(scope="session")
def flight_walk():
    return walk_flights


def walk_extended_chunks(matrix, s_p: int, steps: int | None = None):
    """Walk the host's message cursor at a fixed S_p, acknowledging each chunk.

    Returns ``(chunks, after)``: the ``(address, payload)`` of every extended
    chunk in send order, read back from the image put on air, and the
    transmission the cursor yields after them (None past the last chunk).
    """
    session = HostSession(ScenarioConfig(protocol=Variant.EX, s_p=s_p), matrix)
    sent, after = walk_flights(session._flights(), steps)
    return [((raw[2] << 8) | raw[3], raw[4 : 4 + raw[1]]) for raw, *_ in sent], after


@pytest.fixture(scope="session")
def chunk_walk():
    return walk_extended_chunks
