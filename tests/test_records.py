"""The package's records as values, and the classes that stay dataclasses.

Immutable records are NamedTuples and mutable ones ``__slots__`` classes, so
importing the package generates no code for them.  A class keeps
``@dataclass`` only for a reason listed in ``KEPT_DATACLASSES``.
"""

import importlib
import pkgutil

import pytest

import crfid_downlink
from crfid_downlink.host import LogEvent, SessionResult, TransferLog
from crfid_downlink.ihex import HexRecord, RecordMatrix, Row
from crfid_downlink.metrics import ModelParams, ModelPoint, SessionMetrics, compute_metrics
from crfid_downlink.reader import AccessSpec, OperationReport, ReportResult, _RunningSpec
from crfid_downlink.scenario import ScenarioOutcome

KEPT_DATACLASSES = {
    "host.SessionResult": "benchmarks/test_benchmark.py copies it with dataclasses.replace",
    "scenario.RunOutcome": "benchmarks/test_benchmark.py copies it with dataclasses.replace",
    "scenario.ScenarioConfig": "tests copy it with dataclasses.replace",
    "scenario.DistanceProfile": "__post_init__ derives period; tests subclass it as a dataclass",
    "protocol.BasicMessage": "the tracer wraps its methods by name; tests compare messages",
    "protocol.ExMessage": "the tracer wraps its methods by name; tests compare messages",
    "reader.OperationReport": "the round path reads it every round; as a NamedTuple every "
                              "workload ran 6-12 % slower",
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
    for obj in (RecordMatrix(), spec, _RunningSpec(spec),
                OperationReport(1, ReportResult.SUCCESS, b"")):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    running = _RunningSpec(spec)
    assert (running.spec, running.success_count, running.total_rounds,
            running.delete_requested_at) == (spec, 0, 0, None)


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
