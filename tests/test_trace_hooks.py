"""The module attributes that the benchmark's tracer rebinds.

The tracer in ``bench/tracer.py`` times the layers of a run by replacing
module attributes with counting wrappers, and reports a metric as null
when its target is gone. These tests keep the targets in place, and keep
``simulate`` calling the block advance, and ``lieobs simulate`` the
errors and Lyapunov values, through the module globals, so that a
rebinding is seen by the run.
"""

import importlib
import json

import pytest

import lieobs.integrate
from lieobs.cli import _ROW_BLOCK, main
from lieobs.integrate import CHUNK_STEPS, SimConfig, _block_steps, simulate
from lieobs.kinematics import Bounds, MeasurementModel, measure
from lieobs.observers import Gains, ObserverKind, ObserverState

TARGETS = [
    "lieobs.integrate._rhs_factory",
    "lieobs.integrate.compute_errors",
    "lieobs.integrate.lyapunov_value",
    "lieobs.integrate._resolve_bounds",
    "lieobs.integrate.simulate",
    "lieobs.integrate.mat_inv",
    "lieobs.observers.mat_inv",
    "lieobs.cli.simulate",
    "lieobs.cli.se3_benchmark_truth",
    "lieobs.cli.fit_exponential",
]


@pytest.mark.parametrize("path", TARGETS)
def test_rebinding_target_exists(path):
    mod_name, attr = path.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(mod_name), attr, None))


def test_simulate_advances_through_the_module_global(monkeypatch, benchmark_truth,
                                                     benchmark_bias, benchmark_F, se3):
    # 1,000 steps are chunks of 256, 256, 256 and 232 steps, each split
    # into 8 blocks of at most 32: 32 blocks, one factory call each.
    factory = lieobs.integrate._rhs_factory
    calls = {"factory": 0, "advance": 0}

    def counted_factory(maps):
        calls["factory"] += 1
        advance = factory(maps)

        def counted_advance(ys):
            calls["advance"] += 1
            return advance(ys)

        return counted_advance

    monkeypatch.setattr(lieobs.integrate, "_rhs_factory", counted_factory)
    model = MeasurementModel("right", benchmark_F)
    rec = simulate(SimConfig(
        kind=ObserverKind.II,
        gains=Gains(k_P=10.0, k_I=2.0),
        model=model,
        bias=benchmark_bias,
        initial_observer=ObserverState(measure(model, benchmark_truth.state_of(0.0)[0]),
                                       benchmark_bias),
        truth=benchmark_truth,
        horizon=1.0,
        step=1e-3,
        record_stride=100,
        bounds=Bounds(B_xi=3.5, B_b=2.3, L_g=0.5, U_g=2.0),
    ))
    assert (CHUNK_STEPS, _block_steps(ObserverKind.II, se3, 2)) == (256, 32)
    assert calls == {"factory": 32, "advance": 32}
    assert rec.t[-1] == 1.0


def test_cli_errors_go_through_the_module_globals_by_row_block(monkeypatch, tmp_path):
    # 2,501 recorded rows are three row blocks: the export computes each
    # block's errors and Lyapunov values with one call of each.
    calls = {"errors": 0, "V": 0}

    def counted(key, f):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return f(*args, **kwargs)
        return wrapped

    for key, name in (("errors", "compute_errors"), ("V", "lyapunov_value")):
        monkeypatch.setattr(lieobs.integrate, name, counted(key, getattr(lieobs.integrate, name)))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "preset": "se3-observer2", "gains": {"k_P": 6.4, "k_I": 1.0}, "horizon": 2.5,
        "record_stride": 1, "fit_window": None,
        "bounds": {"B_xi": 3.5, "B_b": 2.3, "L_g": 0.5, "U_g": 2.0}}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert _ROW_BLOCK == 1024
    assert calls == {"errors": 3, "V": 3}
