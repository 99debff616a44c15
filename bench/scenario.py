"""Benchmark inputs as plain numpy: poses, velocity profiles, measurement maps.

Nothing here imports lieobs. The same definitions feed the program under
test (through ``members.py`` and the CLI configs) and the independent
``solve_ivp`` oracle in ``oracle.py``, so the two integrate one problem.
"""

from __future__ import annotations

import math
import random

import numpy as np

KINDS = ("I", "I_mod", "I_tv", "II", "II_tv", "III", "IV")
LEFT_KINDS = ("I", "I_mod", "I_tv", "III")
TV_KINDS = ("I_tv", "II_tv")

# Ensemble roster: every kind meets every variant once. "analytic" runs on
# the closed-form SE(3) benchmark truth, "velocity" on a co-integrated
# VelocityTruth, "exact" starts on the truth and must stay there.
VARIANTS = ("analytic", "velocity", "exact")
HORIZON = 1.0
STEP = 1e-3
ENSEMBLE_STRIDE = 10
# Committed candidates per (kind, variant) cell; the workload seed picks one.
CANDIDATES = 4

# CLI workloads: the seed turns the presets' quarter-turn initial attitude
# offset about one of six signed coordinate axes (+x is the preset itself).
AXES = ("+x", "-x", "+y", "-y", "+z", "-z")


def side(kind: str) -> str:
    return "left" if kind in LEFT_KINDS else "right"


def hat3(w) -> np.ndarray:
    x, y, z = (float(c) for c in w)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def twist(w, v) -> np.ndarray:
    out = np.zeros((4, 4))
    out[:3, :3] = hat3(w)
    out[:3, 3] = v
    return out


def rotation(axis_angle) -> np.ndarray:
    """Rodrigues' formula."""
    aa = np.asarray(axis_angle, dtype=float)
    theta = float(np.linalg.norm(aa))
    if theta == 0.0:
        return np.eye(3)
    k = hat3(aa / theta)
    return np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k)


def pose(axis_angle, translation) -> np.ndarray:
    g = np.eye(4)
    g[:3, :3] = rotation(axis_angle)
    g[:3, 3] = translation
    return g


def axis_angle_of(axis: str) -> list[float]:
    """Quarter turn about a signed coordinate axis such as ``"-y"``."""
    out = [0.0, 0.0, 0.0]
    out["xyz".index(axis[1])] = (1.0 if axis[0] == "+" else -1.0) * math.pi / 2.0
    return out


def landmark_F() -> np.ndarray:
    """F = S S^T for the five homogeneous benchmark landmark columns."""
    s = np.array(
        [
            [1.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 1.0],
            [1.0, 0.0, 1.0, 1.0],
            [0.0, 0.0, -1.0, 0.0],
        ]
    ).T
    return s @ s.T


def _rot_z4(theta: float) -> np.ndarray:
    out = np.eye(4)
    c, s = math.cos(theta), math.sin(theta)
    out[0, 0] = out[1, 1] = c
    out[0, 1], out[1, 0] = -s, s
    return out


class TwistingF:
    """F(t) = Rz(amp sin(freq t)) F0 and its exact time derivative."""

    def __init__(self, amp: float, freq: float):
        self.amp, self.freq = float(amp), float(freq)
        self.f0 = landmark_F()
        self.jz = twist([0.0, 0.0, 1.0], [0.0, 0.0, 0.0])

    def F(self, t: float) -> np.ndarray:
        return _rot_z4(self.amp * math.sin(self.freq * t)) @ self.f0

    def F_dot(self, t: float) -> np.ndarray:
        rate = self.amp * self.freq * math.cos(self.freq * t)
        return rate * (self.jz @ self.F(t))


class VelocityProfile:
    """Body twist xi(t) = hat(w0 + w1 sin(f t), v0 + v1 cos(f t))."""

    def __init__(self, w0, w1, v0, v1, freq):
        self.w0, self.w1 = np.asarray(w0, float), np.asarray(w1, float)
        self.v0, self.v1 = np.asarray(v0, float), np.asarray(v1, float)
        self.freq = float(freq)

    def __call__(self, t: float) -> np.ndarray:
        s, c = math.sin(self.freq * t), math.cos(self.freq * t)
        return twist(self.w0 + s * self.w1, self.v0 + c * self.v1)


def draw_member(kind: str, variant: str, candidate: int) -> dict:
    """Parameters of one ensemble pool member, a pure function of its cell.

    String seeds hash through SHA-512, so the draw is the same on every
    Python version and platform.
    """
    rng = random.Random(f"lieobs-bench/{kind}/{variant}/{candidate}")

    def vec(scale):
        return [rng.uniform(-scale, scale) for _ in range(3)]

    def rand_pose(max_angle, max_shift):
        axis = np.array([rng.gauss(0.0, 1.0) for _ in range(3)])
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.2, max_angle)
        return pose(angle * axis, vec(max_shift)).tolist()

    member = {
        "id": f"{kind}/{variant}/{candidate}",
        "kind": kind,
        "variant": variant,
        "truth": "benchmark" if variant == "analytic" else "velocity",
        "horizon": HORIZON,
        "step": STEP,
        "record_stride": ENSEMBLE_STRIDE,
        "gains": [rng.uniform(4.0, 8.0), rng.uniform(0.5, 4.0)],
        "bias": [vec(1.0), vec(0.5)],
    }
    if variant == "exact":
        # Stationarity members alternate between the two truth paths.
        member["truth"] = "benchmark" if KINDS.index(kind) % 2 == 0 else "velocity"
    if member["truth"] == "velocity":
        member["velocity"] = {
            "w0": vec(1.5), "w1": vec(1.0), "v0": vec(1.0), "v1": vec(1.0),
            "freq": rng.uniform(0.5, 2.0),
        }
        member["g0"] = rand_pose(math.pi, 1.0)
    if kind in TV_KINDS:
        member["twisting_F"] = {"amp": rng.uniform(0.2, 0.5), "freq": rng.uniform(0.5, 2.0)}
    if variant == "exact":
        member["initial"] = "exact"
    else:
        member["initial"] = {"g_bar": rand_pose(0.8 * math.pi, 1.0), "b_bar": [vec(0.5), vec(0.5)]}
    return member


def cli_config(workload: str, axis: str, smoke: bool = False) -> dict:
    """Config file for a CLI workload; ``smoke`` shortens the horizon."""
    init = {
        "g_bar": {"axis_angle": axis_angle_of(axis), "translation": [0.0, 0.0, 0.0]},
        "b_bar": {"omega": [0.0, 0.0, 0.0], "v": [0.0, 0.0, 0.0]},
    }
    if workload == "stock":
        cfg = {"preset": "se3-observer2", "initial_observer": init}
        if smoke:
            cfg.update(horizon=2.0, fit_window=[0.5, 1.5])
        return cfg
    if workload == "dense-inverse":
        cfg = {
            "preset": "se3-observer4",
            "initial_observer": init,
            "horizon": 10.0,
            "record_stride": 1,
            "fit_window": [2.0, 8.0],
        }
        if smoke:
            cfg.update(horizon=1.0, fit_window=[0.2, 0.8])
        return cfg
    raise ValueError(f"not a CLI workload: {workload}")
