"""Session performance metrics and the fitted BlockWrite performance model.

Raw command metrics count operations: success operations per second, total
operations per second, their ratio (efficiency) and throughput.  Session
metrics add the message dimension: messages per second, operations per
message and the resend rate.  The fitted model maps word count to those
command metrics at the five measured antenna distances.
"""

from __future__ import annotations

from typing import NamedTuple

from .host import SessionResult
from .reader import ROUNDS_PER_SEC


class EmptyLog(ValueError):
    pass


class UnknownDistance(ValueError):
    pass


class SessionMetrics(NamedTuple):
    n_s: int
    n_t: int
    t: float  # session runtime, seconds
    psi_s: float  # success operations per second
    psi_t: float  # total operations per second
    eta: float  # psi_s / psi_t
    m_t: int  # messages sent, resends included
    m_r: int  # resends
    m_s: int  # first transmissions
    v: float  # messages per second
    psi_sm: float  # success operations per message
    psi_tm: float  # total operations per message
    p_r: float  # resend rate
    mean_s_p: float  # mean payload size over transmissions, words
    theta: float  # throughput, bytes per second: 2 * mean_s_p * v


def compute_metrics(result: SessionResult) -> SessionMetrics:
    """Fold a finished session into the metric set."""
    if result.rounds <= 0 or result.messages_sent <= 0:
        raise EmptyLog("session produced no rounds or no messages")
    t = result.rounds / ROUNDS_PER_SEC
    m_t = result.messages_sent
    m_r = result.resends
    v = m_t / t
    psi_s = result.op_success / t
    psi_t = result.op_total / t
    mean_s_p = result.sum_s_p / m_t
    return SessionMetrics(
        n_s=result.op_success,
        n_t=result.op_total,
        t=t,
        psi_s=psi_s,
        psi_t=psi_t,
        eta=(result.op_success / result.op_total) if result.op_total else 0.0,
        m_t=m_t,
        m_r=m_r,
        m_s=m_t - m_r,
        v=v,
        psi_sm=result.op_success / m_t,
        psi_tm=result.op_total / m_t,
        p_r=m_r / m_t,
        mean_s_p=mean_s_p,
        theta=2.0 * mean_s_p * v,
    )


class ModelParams(NamedTuple):
    d_cm: int
    a_eta: float
    b_eta: float
    a2: float
    b2: float
    c2: float


# Fitted parameters of the per-distance performance curves: total
# operations per second follow a2/x^b2 + c2 and efficiency follows
# b_eta - a_eta*x in the word count x.
MODEL_PARAMS: dict[int, ModelParams] = {
    20: ModelParams(20, 0.0138, 0.9448, 170.3735, 0.4184, -22.1623),
    30: ModelParams(30, 0.0163, 0.9401, 166.3176, 0.4523, -16.6735),
    40: ModelParams(40, 0.0168, 0.9270, 164.6218, 0.4341, -18.7205),
    50: ModelParams(50, 0.0204, 0.9056, 158.3378, 0.4909, -10.9255),
    60: ModelParams(60, 0.0503, 0.8710, 122.2697, 0.7347, 11.0553),
}


class ModelPoint(NamedTuple):
    psi_t: float
    eta: float
    psi_s: float
    theta: float


def model_curves(d_cm: int, x: float) -> ModelPoint:
    """Evaluate the fitted curves at word count ``x`` for a known distance.

    ``d_cm`` must equal one of the fitted distances: 20 and 20.0 do, 20.9 does not.
    """
    p = MODEL_PARAMS.get(d_cm)
    if p is None:
        raise UnknownDistance(
            f"no model parameters for d = {d_cm} cm; known: {sorted(MODEL_PARAMS)}"
        )
    if not 1 <= x <= 32:
        raise ValueError(f"word count {x} outside the modeled range 1..32")
    psi_t = p.a2 / (x ** p.b2) + p.c2
    eta = -p.a_eta * x + p.b_eta
    psi_s = eta * psi_t
    theta = 2.0 * x * psi_s
    return ModelPoint(psi_t=psi_t, eta=eta, psi_s=psi_s, theta=theta)


def r_squared(observed: list[float], modeled: list[float]) -> float:
    """Coefficient of determination of modeled values against observations."""
    if len(observed) != len(modeled) or not observed:
        raise ValueError("need equally sized, non-empty series")
    mean = sum(observed) / len(observed)
    ss_tot = sum((y - mean) ** 2 for y in observed)
    ss_res = sum((y - f) ** 2 for y, f in zip(observed, modeled))
    if ss_tot == 0:
        return 1.0 if ss_res == 0 else 0.0
    return 1.0 - ss_res / ss_tot


def r_squared_summary(series: list[tuple[list[float], list[float]]]) -> tuple[float, float]:
    """Mean and population variance of fit quality across several curves."""
    values = [r_squared(obs, mod) for obs, mod in series]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, var
