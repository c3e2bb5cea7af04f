import pytest

from crfid_downlink.host import SessionResult, TransferLog
from crfid_downlink.metrics import (
    MODEL_PARAMS,
    EmptyLog,
    UnknownDistance,
    compute_metrics,
    model_curves,
    r_squared,
)


def result(rounds=600, m_t=40, m_r=4, sum_s_p=160.0, n_s=100, n_t=120):
    return SessionResult(
        completed=True, rounds=rounds, log=TransferLog(),
        messages_sent=m_t, resends=m_r, sum_s_p=sum_s_p,
        op_success=n_s, op_total=n_t,
    )


# -- session metrics ------------------------------------------------------------


def test_sops_definition():
    m = compute_metrics(result(rounds=600, n_s=10, n_t=10))
    assert m.t == pytest.approx(10.0)
    assert m.psi_s == pytest.approx(1.0)


def test_no_resends_means_zero_resend_rate():
    m = compute_metrics(result(m_r=0))
    assert m.p_r == 0.0


def test_metric_identities():
    m = compute_metrics(result())
    assert m.psi_s == pytest.approx(m.v * m.psi_sm, rel=1e-12)
    assert m.psi_t == pytest.approx(m.v * m.psi_tm, rel=1e-12)
    assert m.m_t == m.m_r + m.m_s
    assert 0.0 <= m.eta <= 1.0
    assert 0.0 <= m.p_r <= 1.0
    assert m.n_s <= m.n_t
    assert m.theta == pytest.approx(2.0 * m.mean_s_p * m.v, rel=1e-12)


def test_empty_session_rejected():
    with pytest.raises(EmptyLog):
        compute_metrics(result(rounds=0, m_t=0))


# -- fitted model -----------------------------------------------------------------


def test_model_point_values_at_close_range():
    # Arithmetic on the 20 cm parameter row.
    point = model_curves(20, 1)
    assert point.psi_t == pytest.approx(170.3735 - 22.1623, abs=1e-9)
    assert point.psi_t == pytest.approx(148.2112, abs=1e-3)
    assert point.eta == pytest.approx(0.9448 - 0.0138, abs=1e-9)
    assert point.eta == pytest.approx(0.9310, abs=1e-4)
    assert point.psi_s == pytest.approx(point.eta * point.psi_t, rel=1e-12)
    assert point.theta == pytest.approx(2.0 * 1 * point.psi_s, rel=1e-12)


def test_model_collapse_at_sixty_cm():
    point = model_curves(60, 16)
    assert point.eta == pytest.approx(0.8710 - 0.0503 * 16, abs=1e-9)
    assert point.eta == pytest.approx(0.0662, abs=1e-4)


def test_model_efficiency_strictly_decreasing_everywhere():
    for d_cm, params in MODEL_PARAMS.items():
        assert params.a_eta > 0
        etas = [model_curves(d_cm, x).eta for x in range(1, 33)]
        assert all(a > b for a, b in zip(etas, etas[1:]))


def test_model_throughput_grows_with_word_count_at_close_range():
    thetas = [model_curves(20, x).theta for x in range(1, 15)]
    assert all(a < b for a, b in zip(thetas, thetas[1:]))


def test_model_unknown_distance():
    with pytest.raises(UnknownDistance):
        model_curves(45, 4)


def test_model_rejects_a_non_integer_distance():
    with pytest.raises(UnknownDistance):
        model_curves(20.9, 1)
    assert model_curves(20.0, 1) == model_curves(20, 1)


def test_model_word_count_range():
    with pytest.raises(ValueError):
        model_curves(20, 0)
    with pytest.raises(ValueError):
        model_curves(20, 33)


# -- fit quality -------------------------------------------------------------------


def test_r_squared_perfect_fit():
    ys = [1.0, 2.0, 3.0, 4.0]
    assert r_squared(ys, ys) == pytest.approx(1.0)


def test_r_squared_penalizes_misfit():
    observed = [1.0, 2.0, 3.0, 4.0]
    good = [1.1, 1.9, 3.1, 3.9]
    bad = [4.0, 3.0, 2.0, 1.0]
    assert r_squared(observed, bad) < r_squared(observed, good) <= 1.0


def test_r_squared_input_validation():
    with pytest.raises(ValueError):
        r_squared([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        r_squared([], [])


def test_r_squared_summary_aggregates():
    from crfid_downlink.metrics import r_squared_summary

    perfect = ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    mean, var = r_squared_summary([perfect, perfect])
    assert mean == pytest.approx(1.0)
    assert var == pytest.approx(0.0)
    noisy = ([1.0, 2.0, 3.0], [1.2, 1.8, 3.4])
    mean2, var2 = r_squared_summary([perfect, noisy])
    assert mean2 < 1.0
    assert var2 > 0.0
