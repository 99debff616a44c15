"""The CLI exit-code contract under mutated preset configs.

``simulate`` exits 0, 2, 3 or 4 and ``check-gains`` 0, 2 or 3, with no
exception escaping either, and the two reject (exit 2) exactly the same
configs, bounds given by value or not. A record of 1e16 rows or more,
past any address space, exits 2 from both. Every
``summary.json`` that an exit-0 ``simulate`` writes is strict JSON, its
CSV has a Lyapunov value on every row, and neither command warns of a
numpy floating-point error when it exits 0.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import strict_json  # noqa: E402
from lieobs.cli import load_config, main  # noqa: E402

SCENARIOS = ("se3-observer2", "se3-observer4", "stationary")

# Magnitudes whose squares, products or quotients overflow or underflow.
EXTREMES = [1e-300, 1e-155, 1e154, 1e300]
MATRICES = st.lists(st.lists(st.sampled_from([0, 1, *EXTREMES]), min_size=4, max_size=4),
                    min_size=4, max_size=4)
# A model F: a unit upper-triangular matrix of small integers, full rank,
# times a scale whose square overflows or underflows, or 1e200, whose
# smallest singular value squares past the largest float.
MODEL_FS = st.builds(
    lambda upper, scale: (scale * (np.eye(4) + np.triu(np.reshape(upper, (4, 4)), 1))).tolist(),
    st.lists(st.integers(-2, 2), min_size=16, max_size=16),
    st.sampled_from([1.0, *EXTREMES, 1e200]),
)
ZERO_TWIST = {"omega": [0, 0, 0], "v": [0, 0, 0]}

LEAVES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 10**400,
                     0, -1, 1, 0.5, 2.0, 1e-3, *EXTREMES]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "0.01", "4", "auto", "exact", "empirical", "se3-benchmark",
                     "right", "left", "I", "I_mod", "I_tv", "II", "II_tv", "III", "IV"]),
    st.booleans(),
    st.none(),
    st.lists(st.floats(-2.0, 2.0), max_size=5),
    st.lists(st.lists(st.integers(-2, 2), min_size=1, max_size=5), min_size=1, max_size=5),
    MATRICES,
    st.dictionaries(st.sampled_from(["k_P", "k_I", "omega", "v", "side", "F", "S", "W",
                                     "g_bar", "b_bar", "A_bar", "axis_angle"]),
                    st.integers(-2, 2), max_size=3),
)

# Record strides of a 10-step run: zero, negative, fractional, boolean,
# integral floats, and strides at or past its last step up to past int64.
STRIDES = st.one_of(
    st.sampled_from([0, -1, 0.5, 9.5, 10, 11, 10.0, 11.0, True, False, 1e15, 1e300,
                     2**63, 10**30, -0.0]),
    st.integers(-3, 2**70),
    st.floats(-20.0, 1e20),
)


@st.composite
def mutants(draw, value):
    """``value`` with one entry (at any depth) replaced by a leaf, or a
    leaf in its place. Three draws in four go deeper and numbers become
    small floats half of the time, so runs that pass validation are common
    too."""
    if isinstance(value, (dict, list)) and value and draw(st.integers(0, 3)) > 0:
        keys = sorted(value) if isinstance(value, dict) else range(len(value))
        key = draw(st.sampled_from(keys))
        out = value.copy()
        out[key] = draw(mutants(value[key]))
        return out
    if isinstance(value, (int, float)) and not isinstance(value, bool) and draw(st.booleans()):
        return draw(st.floats(-3.0, 3.0))
    return draw(LEAVES)


def keeps_run_short(field, x):
    """Horizon and step mutants are invalid or keep a run at <= 100 steps
    (horizon <= 0.1, step >= 1e-3)."""
    if field not in ("horizon", "step") or isinstance(x, bool) or not isinstance(x, (int, float)):
        return True
    if not abs(x) <= sys.float_info.max:  # NaN, infinite, or too large an int: rejected
        return True
    return x <= 0.1 if field == "horizon" else (x <= 0.0 or x >= 1e-3)


def oversized(cfg) -> bool:
    """Whether ``cfg`` asks for 1e16 recorded rows or more at stride 1."""
    horizon, step = cfg.get("horizon"), cfg.get("step")
    return (cfg.get("record_stride") == 1 and isinstance(horizon, float)
            and isinstance(step, float) and step > 0.0 and horizon >= 1e16 * step)


@st.composite
def configs(draw):
    """A scenario preset cut to 10 steps, with one or two top-level fields
    mutated, and in one draw of four each an initial ``A_bar`` of extreme
    entries in place of its estimate, a :data:`MODEL_FS` model ``F`` and a
    :data:`STRIDES` record stride. In one draw of eight, the model ``F`` is
    instead the only change, so no other broken field hides what it does.

    In one draw of eight, the run is then 1e16 to 1e300 steps at stride 1:
    a step of a power of two and a whole ratio (every float past 2**53 is
    one), so the horizon is an exact multiple and the config is valid
    unless a mutation broke it. No address space holds such a record, so
    it fails at allocation, before any walk of the horizon."""
    cfg = load_config(draw(st.sampled_from(SCENARIOS)))
    cfg["horizon"] = 0.01
    if draw(st.integers(0, 7)) == 0:
        cfg["model"] = {"F": draw(MODEL_FS)}
        return cfg
    fields = sorted(set(cfg) | {"strict_gains"})
    for field in draw(st.lists(st.sampled_from(fields), min_size=1, max_size=2, unique=True)):
        cfg[field] = draw(mutants(cfg.get(field)).filter(lambda x: keeps_run_short(field, x)))
    if draw(st.integers(0, 3)) == 0:
        cfg["initial_observer"] = {"A_bar": draw(MATRICES), "b_bar": ZERO_TWIST}
    if draw(st.integers(0, 3)) == 0:
        cfg["model"] = {"F": draw(MODEL_FS)}
    if draw(st.integers(0, 3)) == 0:
        cfg["record_stride"] = draw(STRIDES)
    if draw(st.integers(0, 7)) == 0:
        step = math.ldexp(1.0, draw(st.integers(-10, 10)))
        cfg.update(step=step, horizon=step * draw(st.floats(1e16, 1e300)), record_stride=1)
    return cfg


def run_cli(args) -> tuple[int, list]:
    """``main(args)``'s exit code and the numpy warnings it raised."""
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("always")
        code = main(args)
    return code, [w for w in caught if issubclass(w.category, RuntimeWarning)]


# A huge but finite estimate, whose V overflows, and explicit bounds whose
# epsilon interval overflows.
A_BAR_1E300 = np.diag([1e300, 1, 1, 1]).tolist()
EXPLICIT_BOUNDS = {"B_xi": 3.5, "B_b": 2.3, "L_g": 0.5, "U_g": 2.0}


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(cfg=configs())
@example(cfg={**load_config("se3-observer2"), "horizon": 0.01,
              "initial_observer": {"A_bar": A_BAR_1E300, "b_bar": ZERO_TWIST}})
@example(cfg={**load_config("se3-observer2"), "horizon": 0.01,
              "gains": {"k_P": 6.4, "k_I": 0.75},
              "bounds": {"B_xi": 3.5, "B_b": 2.3, "L_g": 1e-155, "U_g": 1e-155}})
# A model F whose smallest singular value squares past the largest float,
# once an overflow warning from the certificate's scale terms.
@example(cfg={**load_config("se3-observer2"), "horizon": 0.01,
              "gains": {"k_P": 20, "k_I": 1},
              "bounds": {"B_xi": 1, "B_b": 1, "L_g": 1, "U_g": 1e100},
              "model": {"F": (1e200 * np.eye(4)).tolist()}})
# Records past numpy's largest array, once a ValueError traceback.
@example(cfg={**load_config("se3-observer2"), "horizon": 1e17, "step": 1.0, "record_stride": 1})
@example(cfg={**load_config("se3-observer2"), "horizon": 1e300, "step": 1e200,
              "record_stride": 1})
# Bounds given by value, once read by check-gains alone and the rest passed
# through unread: a horizon that is not a number, and a record too large.
@example(cfg={**load_config("se3-observer2"), "bounds": EXPLICIT_BOUNDS, "horizon": "abc"})
@example(cfg={**load_config("se3-observer2"), "bounds": EXPLICIT_BOUNDS, "horizon": 1e17,
              "step": 1.0, "record_stride": 1})
# A stray "truth", which the CLI's one truth leaves no key for, and a kind
# that is no label, which the enum's lookup meets unhashable.
@example(cfg={**load_config("se3-observer2"), "horizon": 0.01, "truth": "se3-benchmark"})
@example(cfg={**load_config("se3-observer4"), "horizon": 0.01, "kind": ["II"]})
def test_exit_codes_of_mutated_presets(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        sim, sim_warnings = run_cli(["simulate", "--config", str(path), "--out", str(out)])
        check, check_warnings = run_cli(["check-gains", "--config", str(path)])
        if sim == 0:
            # Strict JSON: a value that is not a finite number is null.
            strict_json((out / "summary.json").read_text())
            table = np.loadtxt(out / "timeseries.csv", delimiter=",", ndmin=2, dtype=str)
            V = table[1:, list(table[0]).index("V")].astype(float)
            assert not np.isnan(V).any()
            assert sim_warnings == []
        if check == 0:
            assert check_warnings == []
    assert sim in {0, 2, 3, 4}
    assert check in {0, 2, 3}
    if oversized(cfg):
        assert sim == 2
    assert (check == 2) == (sim == 2)
