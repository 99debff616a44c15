"""Independent cross-check of the reference columns with scipy.

The observer equations are written out here from the paper, on full 4x4
matrices, and integrated by ``scipy.integrate.solve_ivp`` (DOP853, tight
tolerances) together with the truth. Nothing from lieobs is used, so an
agreement shows that the committed RK4 reference solves the observer
equations rather than merely repeating the program's own output.
"""

from __future__ import annotations

import math

import numpy as np

import scenario

RTOL = 1e-12
ATOL = 1e-12


def benchmark_truth(t: float) -> tuple[np.ndarray, np.ndarray]:
    """Benchmark pose g(t) and body twist xi = g^-1 dg/dt.

    R = Rx(t) Rz(t) Rx(t) and p = (cos t, sin t, cos t); dR/dt follows
    from d/dt Rx(t) = Rx(t) hat(e1) and d/dt Rz(t) = Rz(t) hat(e3).
    """
    rx = scenario.rotation([t, 0.0, 0.0])
    rz = scenario.rotation([0.0, 0.0, t])
    hx = scenario.hat3([1.0, 0.0, 0.0])
    hz = scenario.hat3([0.0, 0.0, 1.0])
    r = rx @ rz @ rx
    r_dot = rx @ hx @ rz @ rx + rx @ rz @ hz @ rx + r @ hx
    p_dot = np.array([-math.sin(t), math.cos(t), -math.sin(t)])
    g = np.eye(4)
    g[:3, :3] = r
    g[:3, 3] = [math.cos(t), math.sin(t), math.cos(t)]
    xi = np.zeros((4, 4))
    xi[:3, :3] = r.T @ r_dot
    xi[:3, 3] = r.T @ p_dot
    return g, xi


def proj(m: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto se(3)."""
    out = np.zeros((4, 4))
    out[:3, :3] = 0.5 * (m[:3, :3] - m[:3, :3].T)
    out[:3, 3] = m[:3, 3]
    return out


def polar_pose(m: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(m[:3, :3])
    d = np.sign(np.linalg.det(u @ vt))
    out = np.eye(4)
    out[:3, :3] = (u * np.array([1.0, 1.0, d])) @ vt
    out[:3, 3] = m[:3, 3]
    return out


class Problem:
    """One observer run: truth, measurement map, gains, bias, initial state."""

    def __init__(self, member: dict):
        self.kind = member["kind"]
        self.left = scenario.side(self.kind) == "left"
        self.k_p, self.k_i = member["gains"]
        self.b = scenario.twist(*member["bias"])
        self.horizon = member["horizon"]
        if "twisting_F" in member:
            tf = scenario.TwistingF(**member["twisting_F"])
            self.F, self.F_dot = tf.F, tf.F_dot
        else:
            f0 = scenario.landmark_F()
            self.F, self.F_dot = (lambda t: f0), (lambda t: np.zeros((4, 4)))
        self.velocity = None
        if member["truth"] == "velocity":
            self.velocity = scenario.VelocityProfile(**member["velocity"])
            g0 = np.array(member["g0"])
        else:
            g0 = benchmark_truth(0.0)[0]
        if member["initial"] == "exact":
            a_bar0, b_bar0 = self.measure(g0, 0.0), self.b
        else:
            a_bar0 = self.measure(np.array(member["initial"]["g_bar"]), 0.0)
            b_bar0 = scenario.twist(*member["initial"]["b_bar"])
        parts = ([g0.ravel()] if self.velocity is not None else []) + [a_bar0.ravel(), b_bar0.ravel()]
        self.y0 = np.concatenate(parts)

    def measure(self, g, t):
        f = self.F(t)
        return f @ g if self.left else np.linalg.inv(g) @ f

    def unpack(self, t, y):
        if self.velocity is None:
            g, xi = benchmark_truth(t)
            rest = y
        else:
            g, xi = y[:16].reshape(4, 4), self.velocity(t)
            rest = y[16:]
        return g, xi, rest[:16].reshape(4, 4), rest[16:].reshape(4, 4)

    def rhs(self, t, y):
        g, xi, a_bar, b_bar = self.unpack(t, y)
        f, f_dot = self.F(t), self.F_dot(t)
        a = self.measure(g, t)
        xi_m = xi + self.b
        e = a - a_bar
        if self.left:
            d_a = a_bar @ xi_m - a @ b_bar + self.k_p * e
            if self.kind == "I_tv":
                d_a += f_dot @ np.linalg.inv(f) @ a
            if self.kind == "I_mod":
                d_b = -self.k_i * (a.T @ e)
            elif self.kind == "III":
                d_b = -self.k_i * proj(np.linalg.inv(a) @ e)
            else:
                d_b = -self.k_i * proj(a.T @ e)
        else:
            d_a = -xi_m @ a_bar + b_bar @ a + self.k_p * e
            if self.kind == "II_tv":
                d_a += a @ np.linalg.inv(f) @ f_dot
            if self.kind == "IV":
                d_b = self.k_i * proj(e @ np.linalg.inv(a))
            else:
                d_b = self.k_i * proj(e @ a.T)
        parts = [(g @ xi).ravel()] if self.velocity is not None else []
        return np.concatenate(parts + [d_a.ravel(), d_b.ravel()])

    def columns(self, t, y) -> list[float]:
        g, _, a_bar, b_bar = self.unpack(t, y)
        f = self.F(t)
        a = self.measure(g, t)
        g_hat = None
        if self.left:
            g_hat = np.linalg.inv(f) @ a_bar
        else:
            sv = np.linalg.svd(a_bar, compute_uv=False)
            if sv[-1] > 0.0 and sv[0] / sv[-1] <= 1e10:
                g_hat = f @ np.linalg.inv(a_bar)
        nrm = np.linalg.norm
        err_g = nrm(g - g_hat) if g_hat is not None else math.nan
        err_p = nrm(g - polar_pose(g_hat)) if g_hat is not None else math.nan
        return [t, nrm(a - a_bar), nrm(self.b - b_bar), err_g, err_p]


def solve(member: dict, times: list[float]) -> list[list[float]]:
    """Oracle columns ``[t, err_EA, err_eb, err_Eg, err_Eg_proj]`` at ``times``."""
    from scipy.integrate import solve_ivp

    prob = Problem(member)
    sol = solve_ivp(prob.rhs, (0.0, prob.horizon), prob.y0, method="DOP853",
                    t_eval=np.clip(times, 0.0, prob.horizon), rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise RuntimeError(f"solve_ivp failed for {member.get('id')}: {sol.message}")
    return [prob.columns(t, sol.y[:, i]) for i, t in enumerate(sol.t)]


def deviation(rows: list[list[float]], oracle_rows: list[list[float]]) -> float:
    """Largest |RK4 - oracle| over the four error columns, each scaled by
    the larger of 1 and the largest magnitude the column reaches in the run
    (stationary runs hold rounding noise only)."""
    ref = np.array(rows, dtype=float)[:, 1:]
    ora = np.array(oracle_rows, dtype=float)[:, 1:]
    scale = np.maximum(np.nanmax(np.abs(ref), axis=0), 1.0)
    return float(np.nanmax(np.abs(ref - ora) / scale))
