"""Ensemble members through the library API: ``SimConfig`` + ``simulate``.

A member is a JSON-ready parameter dict drawn by ``scenario.draw_member``.
This module turns it into lieobs objects, runs it, and reduces the record
to the columns the benchmark checks.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

import lieobs.integrate
import lieobs.kinematics
from lieobs.analysis import project_se3
from lieobs.errors import DegeneracyError, SingularityError
from lieobs.integrate import SimConfig
from lieobs.kinematics import MeasurementModel, VelocityTruth, measure
from lieobs.liegroup import AlgebraElement, algebra_basis_se3
from lieobs.observers import Gains, ObserverKind, ObserverState, gain_floor

import scenario

# Every REF_EVERY-th recorded sample is compared with the reference.
REF_EVERY = 10


def build(member: dict, wrap=None) -> SimConfig:
    """SimConfig for one member. ``wrap(name, fn)`` may decorate the truth
    callables, which is how the traced run counts truth evaluations."""
    kind = ObserverKind.from_label(member["kind"])
    group = algebra_basis_se3()
    if "twisting_F" in member:
        tf = scenario.TwistingF(**member["twisting_F"])
        model = MeasurementModel(kind.side, tf.F, tf.F_dot, time_varying=True)
    else:
        model = MeasurementModel(kind.side, scenario.landmark_F())
    bias = AlgebraElement(group, scenario.twist(*member["bias"]))
    if member["truth"] == "benchmark":
        truth = lieobs.kinematics.se3_benchmark_truth()
        g0 = truth.state_of(0.0)[0]
    else:
        velocity_of = scenario.VelocityProfile(**member["velocity"])
        if wrap is not None:
            velocity_of = wrap("truth", velocity_of)
        g0 = np.array(member["g0"])
        truth = VelocityTruth(group, velocity_of, g0)
    if member["initial"] == "exact":
        a_bar0 = measure(model, g0, 0.0)
        b_bar0 = bias.matrix.copy() if kind is ObserverKind.I_MOD else bias
    else:
        a_bar0 = measure(model, np.array(member["initial"]["g_bar"]), 0.0)
        b_mat = scenario.twist(*member["initial"]["b_bar"])
        b_bar0 = b_mat if kind is ObserverKind.I_MOD else AlgebraElement(group, b_mat)
    return SimConfig(
        kind=kind,
        gains=Gains(*member["gains"]),
        model=model,
        bias=bias,
        initial_observer=ObserverState(a_bar0, b_bar0),
        truth=truth,
        horizon=member["horizon"],
        step=member["step"],
        record_stride=member["record_stride"],
        lyapunov_epsilon="auto",
    )


def prepare(member: dict) -> None:
    """Everything ``simulate`` does before its first RK4 step: build the
    config, sample the empirical bounds, the gain floor and epsilon. These
    are the two helpers ``lieobs check-gains`` calls as well."""
    config = build(member)
    bounds = lieobs.integrate._resolve_bounds(config)
    gain_floor(config.kind, bounds)
    lieobs.integrate._resolve_epsilon(config, bounds)


def proj_error(sample) -> float:
    """|g - project_se3(g_hat)|, as the CLI writes it for err_Eg_proj."""
    if sample.errors.E_g is None:
        return math.nan
    try:
        return float(np.linalg.norm(sample.g - project_se3(sample.g - sample.errors.E_g)))
    except (DegeneracyError, SingularityError):
        return math.nan


def columns(sample) -> list[float]:
    e = sample.errors
    return [sample.t, e.err_EA, e.err_eb, e.err_Eg, proj_error(sample)]


def summarize(member: dict, record) -> dict:
    """What the parent checks: sampled columns, finiteness and drift."""
    samples = record.samples
    finite = all(
        math.isfinite(v)
        for s in samples
        for v in (s.errors.err_EA, s.errors.err_eb, s.errors.err_Eg)
    )
    out = {
        "id": member["id"],
        "rows": [columns(s) for s in samples[::REF_EVERY]],
        "final": columns(samples[-1]),
        "finite": finite,
    }
    if member["initial"] == "exact":
        out["drift"] = max(s.errors.err_EA + s.errors.err_eb for s in samples)
    return out


def run(member: dict, wrap=None) -> dict:
    """Build and simulate one member; an exception becomes an ``error``
    entry so the rest of the ensemble still runs."""
    try:
        config = build(member, wrap)
        with warnings.catch_warnings():
            # Drawn gains may sit below the gain floor, where simulate warns.
            warnings.simplefilter("ignore")
            record = lieobs.integrate.simulate(config)
        return summarize(member, record)
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        return {"id": member["id"], "error": f"{type(exc).__name__}: {exc}"}
