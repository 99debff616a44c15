"""The CLI exit-code contract under mutated preset configs.

``simulate`` exits 0, 2, 3 or 4 and ``check-gains`` 0, 2 or 3, with no
exception escaping either, and for a config whose bounds are not given
by value the two reject (exit 2) exactly the same configs. Every
``summary.json`` that an exit-0 ``simulate`` writes is strict JSON.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import strict_json  # noqa: E402
from lieobs.cli import load_config, main  # noqa: E402

SCENARIOS = ("se3-observer2", "se3-observer4", "stationary")

LEAVES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 10**400,
                     0, -1, 1, 0.5, 2.0, 1e-3]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "0.01", "4", "auto", "exact", "empirical", "se3-benchmark",
                     "right", "left", "I", "I_mod", "I_tv", "II", "II_tv", "III", "IV"]),
    st.booleans(),
    st.none(),
    st.lists(st.floats(-2.0, 2.0), max_size=5),
    st.lists(st.lists(st.integers(-2, 2), min_size=1, max_size=5), min_size=1, max_size=5),
    st.dictionaries(st.sampled_from(["k_P", "k_I", "omega", "v", "side", "F", "S", "W",
                                     "g_bar", "b_bar", "A_bar", "axis_angle"]),
                    st.integers(-2, 2), max_size=3),
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


@st.composite
def configs(draw):
    """A scenario preset cut to 10 steps, with one or two top-level fields
    mutated."""
    cfg = load_config(draw(st.sampled_from(SCENARIOS)))
    cfg["horizon"] = 0.01
    fields = sorted(set(cfg) | {"strict_gains"})
    for field in draw(st.lists(st.sampled_from(fields), min_size=1, max_size=2, unique=True)):
        cfg[field] = draw(mutants(cfg.get(field)).filter(lambda x: keeps_run_short(field, x)))
    return cfg


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(cfg=configs())
def test_exit_codes_of_mutated_presets(cfg):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        sim = main(["simulate", "--config", str(path), "--out", str(Path(tmp) / "out")])
        check = main(["check-gains", "--config", str(path)])
        if sim == 0:
            # Strict JSON: a value that is not a finite number is null.
            strict_json((Path(tmp) / "out" / "summary.json").read_text())
    assert sim in {0, 2, 3, 4}
    assert check in {0, 2, 3}
    if not isinstance(cfg.get("bounds"), dict):
        assert (check == 2) == (sim == 2)
