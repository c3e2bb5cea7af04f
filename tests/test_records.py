"""The package's records as values, and the classes that stay dataclasses.

Immutable records are NamedTuples and mutable ones, the messages and the
config among them, plain classes with an ``__init__``, so importing the
package generates no code for them.  A class keeps ``@dataclass`` only for a
reason listed in ``KEPT_DATACLASSES``.
"""

import importlib
import pkgutil

import pytest

import crfid_downlink
from crfid_downlink.host import LogEvent, SessionResult, TransferLog
from crfid_downlink.ihex import HexRecord, RecordMatrix, Row
from crfid_downlink.metrics import ModelParams, ModelPoint, SessionMetrics, compute_metrics
from crfid_downlink.protocol import BasicMessage, ExMessage, build_ex_message
from crfid_downlink.reader import AccessSpec, OperationReport, ReportResult, _RunningSpec
from crfid_downlink.scenario import DistanceProfile, ScenarioConfig, ScenarioOutcome

KEPT_DATACLASSES = {
    "host.SessionResult": "benchmarks/test_benchmark.py copies it with dataclasses.replace",
    "scenario.RunOutcome": "benchmarks/test_benchmark.py copies it with dataclasses.replace",
}


def test_only_the_listed_classes_are_dataclasses():
    found = set()
    for info in pkgutil.iter_modules(crfid_downlink.__path__):
        module = importlib.import_module(f"crfid_downlink.{info.name}")
        for name, value in vars(module).items():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and "__dataclass_fields__" in vars(value)):
                found.add(f"{info.name}.{name}")
    assert found == set(KEPT_DATACLASSES)


def session_result(rounds=600, m_t=40, m_r=4, sum_s_p=160.0, n_s=100, n_t=120):
    return SessionResult(True, rounds, TransferLog(), m_t, m_r, sum_s_p, n_s, n_t)


VALUE_RECORDS = [
    HexRecord(2, 0xAADD, 0, b"\xbb\xcc", 0xF0),
    Row(0x4400, b"\x01\x02\x03"),
    LogEvent(5, "send", 0, 1, 16, "", b"\xab\xcd"),
    ModelParams(20, 0.0138, 0.9448, 170.3735, 0.4184, -22.1623),
    ModelPoint(120.0, 0.9, 108.0, 3456.0),
    compute_metrics(session_result()),
    ScenarioOutcome([]),
]


@pytest.mark.parametrize("record", VALUE_RECORDS, ids=lambda r: type(r).__name__)
def test_a_value_record_refuses_assignment_and_compares_by_its_fields(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        assert record._replace(**{field: object()}) != record
    assert record == type(record)(**record._asdict())


def test_record_matrices_do_not_share_rows():
    a, b = RecordMatrix(), RecordMatrix()
    a.rows.append(Row(0x4400, b"\x01"))
    assert b.rows == [] and len(b) == 0 and len(a) == 1
    assert a == RecordMatrix([Row(0x4400, b"\x01")]) and a != b


def test_mutable_records_carry_no_instance_dict():
    spec = AccessSpec(1, b"\x00\x01", 15)
    for obj in (RecordMatrix(), spec, _RunningSpec(spec, 4),
                OperationReport(1, ReportResult.SUCCESS, b""), BasicMessage(0xFD, 0x44),
                build_ex_message(b"\x01", 0x4400), ScenarioConfig(), DistanceProfile()):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    running = _RunningSpec(spec, 4)  # started in round 4: rounds 4..20 at OCV = 15
    assert (running.spec, running.successes_left, running.last_round) == (spec, 15, 20)


@pytest.mark.parametrize("make", [
    lambda payload: BasicMessage(0x01, payload),
    lambda payload: build_ex_message(bytes([payload, 0x02]), 0x4400),
    lambda payload: OperationReport(3, ReportResult.SUCCESS, bytes([payload]) * 12),
], ids=["BasicMessage", "ExMessage", "OperationReport"])
def test_messages_and_reports_compare_by_their_fields(make):
    a, b, other = make(0x41), make(0x41), make(0x42)
    assert a is not b and a == b and not a != b
    assert a != other and a != (0x01, 0x41) and a != object()
    if not isinstance(a, OperationReport):  # a report is mutable, so unhashable
        assert hash(a) == hash(b) and len({a, b, other}) == 2


def test_an_ex_message_compares_each_field_with_raw_aside():
    msg = ExMessage(0x10, 1, 0x4400, b"\x07")
    assert msg == ExMessage(0x10, 1, 0x4400, b"\x07")
    for changed in (ExMessage(0x11, 1, 0x4400, b"\x07"), ExMessage(0x10, 2, 0x4400, b"\x07"),
                    ExMessage(0x10, 1, 0x4401, b"\x07"), ExMessage(0x10, 1, 0x4400, b"\x08")):
        assert changed != msg
    # An address past 16 bits writes the same wire image, yet is another message.
    wrapped = ExMessage(0x10, 1, 0x14400, b"\x07")
    assert wrapped.raw == msg.raw and wrapped != msg


def test_a_distance_profile_derives_its_period_from_its_fields():
    assert DistanceProfile().period == 1
    assert DistanceProfile(kind="oscillate", speed_m_per_s=0).period == 1
    # 20-90 cm at 0.1 m/s: up and down is 14 s, 840 rounds.
    assert DistanceProfile(kind="oscillate").period == 840
    assert DistanceProfile(kind="oscillate", min_cm=20, max_cm=90, speed_m_per_s=0.3).period == 280
    assert DistanceProfile(kind="oscillate", speed_m_per_s=0.13).period == 0  # 646.15 rounds
    # A field of the wrong type leaves the period 0; ScenarioConfig.validate names it.
    assert DistanceProfile(kind="oscillate", max_cm="90").period == 0
    with pytest.raises(TypeError, match="no field d_min_cm"):
        DistanceProfile(d_min_cm=10)


def test_row_word_count_rounds_odd_byte_counts_up():
    counts = [Row(0, bytes(n)).word_count() for n in range(65)]
    assert counts == [(n + 1) // 2 for n in range(65)]


def test_compute_metrics_fills_every_field_by_name():
    # 600 rounds at 60 rounds/s are 10 s.
    m = compute_metrics(session_result())
    assert m._asdict() == pytest.approx({
        "n_s": 100, "n_t": 120, "t": 10.0, "psi_s": 10.0, "psi_t": 12.0, "eta": 100 / 120,
        "m_t": 40, "m_r": 4, "m_s": 36, "v": 4.0, "psi_sm": 2.5, "psi_tm": 3.0, "p_r": 0.1,
        "mean_s_p": 4.0, "theta": 32.0,
    }, rel=1e-12)
    assert list(m._asdict()) == list(SessionMetrics._fields)
