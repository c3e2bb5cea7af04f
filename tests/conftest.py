import copy
import random

import pytest

import crfid_downlink.scenario as scenario
from crfid_downlink.channel import ChannelModel
from crfid_downlink.host import HostSession, TransferLog, Variant
from crfid_downlink.ihex import generate_fixture, parse_file
from crfid_downlink.reader import ROUNDS_PER_SEC, OperationReport, Reader
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


def small_image():
    """520 random bytes in 26-byte records (20 rows)."""
    rng = random.Random(17)
    payload = bytes(rng.randrange(256) for _ in range(520))
    return parse_file(generate_fixture(payload, record_width=26))


@pytest.fixture()
def small_matrix():
    return small_image()


def run_session(config, matrix, tag, channel, power, reader=Reader):
    """Run ``config`` once through a ``reader`` (a class) over ``tag``, ``channel``
    and ``power``, built as ``scenario.run_single`` builds it."""
    budget = int(config.max_sim_seconds * ROUNDS_PER_SEC)
    return HostSession(config, matrix).run(
        reader(tag, channel, power, config.profile, config.brownout, budget))


def run_clean(config, matrix, seed=1, cm=20.0, tag=None, reader=Reader):
    """Run one session with the tag always powered at a fixed ``cm``.

    The config is copied with ``brownout = 0`` and a static profile at ``cm``.
    ``PowerModel.step(0)`` draws nothing, so the channel seed alone decides
    the rounds.  Returns ``(result, tag)``; ``tag`` defaults to a fresh one.
    """
    tag = Tag() if tag is None else tag
    config = copy.copy(config)
    config.brownout, config.profile = 0.0, DistanceProfile(d_cm=cm)
    result = run_session(config, matrix, tag, ChannelModel(seed=seed), PowerModel(seed=0), reader)
    return result, tag


# The plain configuration: a ``PlainReader`` runs every round of a transfer
# with every round-path fast path switched off.  A new fast path is switched
# off here, in the change that adds it.


class _EchoesNothing:
    """A tag as a ``PlainReader`` sees it: the tag itself, but for an echo record
    (``Tag.echoes``) that matches no message, so every full reply reaches the
    tag's handler, which makes its own stale-repeat test."""

    __slots__ = ("_tag",)
    _echoed = (None, None)

    def __init__(self, tag):
        self._tag = tag

    def __getattr__(self, name):
        return getattr(self._tag, name)


class PlainReader(Reader):
    """A reader that places the tag through the profile in every round, static
    tags included, and runs every round through ``tick``: no placement is put
    back from a cycle's table, its batch runs no round, every full reply goes to
    the tag's handler, and it hands back a fresh copy of each report, so the
    host never meets the report it consumed the round before."""

    def __init__(self, tag, *args):
        super().__init__(_EchoesNothing(tag), *args)

    def _placement(self, channel, profile, max_rounds):
        at, place = profile.at, channel.set_distance_cm
        place(at(0))
        return lambda now: place(at(now))

    def repeat(self, *args):
        return 0, None, ()

    def tick(self, now):
        report = super().tick(now)
        return None if report is None else OperationReport(report.spec_id, report.result,
                                                           report.epc)


@pytest.fixture()
def one_worker(monkeypatch):
    """Run every repeat of a scenario in this process, as one share.

    A forked share's objects stay in its child, so a test that collects
    objects built inside ``run_single`` sees every run's only this way.
    """
    monkeypatch.setattr(scenario, "_usable_cpus", lambda: 1)


@pytest.fixture(scope="session")
def clean_run():
    return run_clean


def walk_flights(flights, steps: int | None = None):
    """Drive a host's ``_flights(log)`` cursor, acknowledging every transmission.

    Returns ``(sent, after)``: the ``(raw, row, chunk, S_p, fresh)`` tuples in
    send order (at most ``steps`` of them), and what the cursor yields once
    they are all ACKed: the next transmission, or None when it has nothing left.
    """
    sent, reply = [], None  # a fresh generator takes None, then ("ack", round) for each ACK
    while True:
        try:
            flight = flights.send(reply)
        except StopIteration:
            return sent, None
        if len(sent) == steps:
            return sent, flight
        sent.append(flight)
        reply = ("ack", len(sent))


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
    sent, after = walk_flights(session._flights(TransferLog()._appender()), steps)
    return [((raw[2] << 8) | raw[3], raw[4 : 4 + raw[1]]) for raw, *_ in sent], after


@pytest.fixture(scope="session")
def chunk_walk():
    return walk_extended_chunks
