"""Shared fixtures: benchmark objects and the scenario-A record, and the
observer's vector field as the paper writes it, the oracle of the
operator builder and of whole runs.

The scenario-A simulation is session-scoped because three different test
modules interrogate the same run (final errors, decay fit, SE(3)-factor
tracking) and it costs a few seconds.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from lieobs.integrate import SimConfig, simulate
from lieobs.kinematics import (
    MeasurementModel,
    _stacked_bounds,
    build_F,
    measure,
    se3_benchmark_bias,
    se3_benchmark_landmarks,
    se3_benchmark_truth,
)
from lieobs.liegroup import algebra_basis_se3, algebra_basis_so3, hat_so3, project_matrix
from lieobs.matcore import frob_norm, mat_exp, mat_inv
from lieobs.observers import Gains, ObserverKind, ObserverState


def strict_json(text: str):
    """``text`` parsed as strict JSON: ``NaN``, ``Infinity`` and
    ``-Infinity``, which Python's parser accepts by default, raise."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def paper_field(kind, group, k_p, k_i, A, A_bar, b, xi_m, F, F_dot):
    """The observer's vector field as the paper writes it, for one instant:
    the oracle of the affine operator and of whole runs. It shares nothing
    with the library but ``mat_inv`` and ``project_matrix``, and writes
    each side's formulas in the user's frame."""
    E = A - A_bar
    W = mat_inv(A) if kind.uses_inverse else A.T

    def proj(m):
        return project_matrix(group, m) if kind.projected_bias else m

    if kind.side == "left":
        d_a = A_bar @ xi_m - A @ b + k_p * E
        d_b = -k_i * proj(W @ E)
        feed = F_dot @ mat_inv(F) @ A
    else:
        d_a = -(xi_m @ A_bar) + b @ A + k_p * E
        d_b = k_i * proj(E @ W)
        feed = A @ mat_inv(F) @ F_dot
    if kind.time_varying:
        d_a = d_a + feed
    return d_a, d_b


@pytest.fixture(scope="session")
def se3():
    return algebra_basis_se3()


@pytest.fixture(scope="session")
def so3():
    return algebra_basis_so3()


@pytest.fixture(scope="session")
def benchmark_truth():
    return se3_benchmark_truth()


@pytest.fixture(scope="session")
def benchmark_bias():
    return se3_benchmark_bias()


@pytest.fixture(scope="session")
def benchmark_F():
    return build_F(se3_benchmark_landmarks())


@pytest.fixture(scope="session")
def benchmark_bounds(benchmark_truth, benchmark_bias):
    """Envelope constants of the benchmark truth on a 0.01 grid over 30 s."""
    g, xi, _ = benchmark_truth.state_of(np.arange(0.0, 30.0 + 0.005, 0.01))
    return _stacked_bounds(g, xi, bias_norm=frob_norm(benchmark_bias.matrix))


def scenario_a_config(truth, bias, F, **overrides):
    """The first benchmark scenario: right-measurement observer, k_P = 4,
    k_I = 0.75, quarter-turn initial attitude offset, zero initial bias."""
    model = MeasurementModel(side="right", F=F)
    g_bar0 = np.eye(4)
    g_bar0[:3, :3] = mat_exp(hat_so3(np.array([math.pi / 2.0, 0.0, 0.0])))
    init = ObserverState(measure(model, g_bar0, 0.0), np.zeros((4, 4)))
    base = dict(
        kind=ObserverKind.II,
        gains=Gains(4.0, 0.75),
        model=model,
        bias=bias,
        initial_observer=init,
        truth=truth,
        horizon=30.0,
        step=1e-3,
        record_stride=10,
        bounds="empirical",
        lyapunov_epsilon="auto",
    )
    base.update(overrides)
    return SimConfig(**base)


@pytest.fixture(scope="session")
def scenario_a(benchmark_truth, benchmark_bias, benchmark_F):
    """(record, wall_seconds) for the scenario-A run."""
    cfg = scenario_a_config(benchmark_truth, benchmark_bias, benchmark_F)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        record = simulate(cfg)
    return record, time.perf_counter() - t0
