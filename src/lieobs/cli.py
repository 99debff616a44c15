"""Command line front end: presets, config files, CSV/JSON export.

Two subcommands. ``simulate`` runs one scenario (or a gain sweep) and
writes ``timeseries.csv`` plus ``summary.json`` into the output
directory. ``check-gains`` resolves a configuration, computes the gain
floor and the admissible Lyapunov mixing interval, and reports whether
the configured proportional gain clears the floor.

Exit codes: 0 success, 2 invalid configuration, a record too large to
allocate or an unusable output directory, 3 strict-gain violation, 4
numerical failure during integration.

``--config`` names a preset (an embedded constant) or a JSON config
file, which mirrors the simulation config and may name a ``preset`` and
override any top-level field, so runs are reproducible with zero setup.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import epsilon_bound, fit_exponential, project_se3, quadform_rates, suggested_epsilon
from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    FitError,
    GainFloorError,
    InadmissibleEpsilonError,
    NumericalError,
    SingularityError,
)
from .integrate import (
    SimConfig,
    SimRecord,
    _record_columns,
    _resolve_bounds,
    _strict_flag,
    simulate,
)
from .kinematics import (
    Bounds,
    LandmarkSet,
    MeasurementModel,
    _full_rank,
    build_F,
    measure,
    se3_benchmark_landmarks,
    se3_benchmark_truth,
)
from .liegroup import AlgebraElement, hat_se3, hat_so3
from .matcore import _finite_real, frob_norm, mat_exp
from .observers import Gains, ObserverKind, ObserverState, gain_floor

__all__ = ["PRESETS", "load_config", "run_simulate", "run_check_gains", "main"]

_SCENARIO_A = {
    "kind": "II",
    "gains": {"k_P": 4.0, "k_I": 0.75},
    "model": {"landmarks": "se3-benchmark"},
    "bias": {"omega": [1.0, 0.5, -1.0], "v": [0.5, -0.5, 0.5]},
    "initial_observer": {
        "g_bar": {
            "axis_angle": [math.pi / 2.0, 0.0, 0.0],
            "translation": [0.0, 0.0, 0.0],
        },
        "b_bar": {"omega": [0.0, 0.0, 0.0], "v": [0.0, 0.0, 0.0]},
    },
    "horizon": 30.0,
    "step": 1e-3,
    "record_stride": 10,
    "bounds": "empirical",
    "lyapunov_epsilon": "auto",
    "fit_window": [5.0, 25.0],
}

_SCENARIO_B = copy.deepcopy(_SCENARIO_A)
_SCENARIO_B["kind"] = "IV"
_SCENARIO_B["gains"] = {"k_P": 4.0, "k_I": 4.0}

_STATIONARY = copy.deepcopy(_SCENARIO_A)
_STATIONARY["initial_observer"] = "exact"
_STATIONARY["fit_window"] = None

PRESETS: dict[str, dict] = {
    "se3-observer2": _SCENARIO_A,
    "se3-observer4": _SCENARIO_B,
    "stationary": _STATIONARY,
    "gain-sweep": {
        "sweep": {"base": "se3-observer2", "k_P": [4.0, 8.0], "k_I": [0.75, 4.0]}
    },
}

# The CSV columns in file order; the summary's "final" holds all but V.
_COLUMNS = ("t", "err_EA", "err_eb", "err_Eg", "err_Eg_proj", "V")
# Rows per block of the export, which computes a block's errors, Lyapunov
# values and projections and writes its text one block at a time. A
# block's temporaries stay small, so they stay in cache, and the export
# needs memory for its columns and a few blocks, not for error stacks or
# text the size of the record.
_ROW_BLOCK = 1024


def load_config(scenario: str) -> dict:
    """Resolve a preset name or a JSON config path to a config dict.

    A file may reference a preset through a ``preset`` key; its remaining
    top-level keys override the preset's.
    """
    if scenario in PRESETS:
        return copy.deepcopy(PRESETS[scenario])
    path = Path(scenario)
    if not path.is_file():
        raise ConfigurationError(f"unknown preset or missing config file: {scenario}")
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"config file {scenario} is not readable UTF-8 text: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {scenario} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigurationError("config root must be a JSON object")
    if "preset" in cfg:
        name = cfg.pop("preset")
        if not isinstance(name, str) or name not in PRESETS:
            raise ConfigurationError(f"config references unknown preset {name!r}")
        cfg = {**copy.deepcopy(PRESETS[name]), **cfg}
    return cfg


def _read(raw, what: str, shape: tuple = ()):
    """JSON numbers of ``shape`` (None: any length of at least one) as a
    float, or as an array for a non-empty shape.

    Only finite numbers are accepted: strings, booleans and null are
    rejected, not coerced.
    """
    def numbers(x, dims):
        if not dims:
            return _finite_real(x)
        return (isinstance(x, list) and len(x) > 0 and dims[0] in (None, len(x))
                and all(numbers(y, dims[1:]) for y in x))

    if numbers(raw, shape):
        try:
            return np.array(raw, dtype=float) if shape else float(raw)
        except ValueError:  # ragged rows
            pass
    form = " x ".join(str(d or "n") for d in shape)
    need = f"an array of finite numbers of shape {form}" if shape else "a finite number"
    raise ConfigurationError(f"{what} must be {need}, got {raw!r}")


def _config_errors(build):
    """Report a matrix problem met while building a config (a shape, a
    singular pose or ``F``, an overflow) as a ConfigurationError."""
    @functools.wraps(build)
    def wrapped(*args):
        try:
            return build(*args)
        except (DimensionError, DomainError, SingularityError) as exc:
            raise ConfigurationError(str(exc)) from None

    return wrapped


def _fields(raw, what: str, required=(), optional=(), one_of=()) -> dict:
    """``raw`` as a JSON object with every ``required`` key, exactly one
    of the ``one_of`` keys when there are any, and no other key but the
    ``optional`` ones."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{what} must be an object")
    unknown = set(raw).difference(required, optional, one_of)
    if unknown:
        raise ConfigurationError(f"unknown {what} fields: {sorted(unknown)}")
    for key in required:
        if key not in raw:
            raise ConfigurationError(f"{what} is missing {key!r}")
    if one_of and sum(key in raw for key in one_of) != 1:
        raise ConfigurationError(f"{what} needs exactly one of {', '.join(map(repr, one_of))}")
    return raw


def _parse_numbers(raw, what: str, cls):
    """A ``cls`` from a JSON object with a finite number for each field and no other key."""
    names = [field.name for field in dataclasses.fields(cls)]
    _fields(raw, what, names)
    return cls(**{name: _read(raw[name], f"{what}.{name}") for name in names})


def _parse_fit_window(raw) -> tuple[float, float] | None:
    if raw is None:
        return None
    t0, t1 = _read(raw, "fit_window", (2,))
    if not t0 < t1:
        raise ConfigurationError(f"fit_window must have t0 < t1, got {raw!r}")
    return float(t0), float(t1)


def _parse_twist(raw, what: str) -> np.ndarray:
    _fields(raw, what, ("omega", "v"))
    return hat_se3(_read(raw["omega"], f"{what}.omega", (3,)),
                   _read(raw["v"], f"{what}.v", (3,)))


@_config_errors
def _parse_model(raw, kind: ObserverKind) -> MeasurementModel:
    _fields(raw, "model", one_of=("F", "landmarks"))
    if "F" in raw:
        F = _read(raw["F"], "model.F", (None, None))
        return MeasurementModel(kind.side, _full_rank(F, "model.F"))
    lm = raw["landmarks"]
    if lm == "se3-benchmark":
        return MeasurementModel(kind.side, build_F(se3_benchmark_landmarks()))
    _fields(lm, "landmarks", ("S", "W"), ("construction",))
    S = _read(lm["S"], "landmarks.S", (None, None))
    W = _read(lm["W"], "landmarks.W", (None, None))
    return MeasurementModel(kind.side, build_F(LandmarkSet(**{**lm, "S": S, "W": W})))


def _parse_sweep(raw) -> tuple[str, list[tuple[str, dict]]]:
    """(base, runs) of a sweep object, with each run ``(dir, gains)``.
    Gains whose directory names coincide are rejected: their runs would
    overwrite each other's files."""
    if not isinstance(_fields(raw, "sweep", ("base", "k_P", "k_I"))["base"], str):
        raise ConfigurationError("sweep.base must be a preset name")
    for key in ("k_P", "k_I"):
        _read(raw[key], f"sweep.{key}", (None,))
    runs = [(f"kP{k_p:g}_kI{k_i:g}", {"k_P": k_p, "k_I": k_i})
            for k_p in raw["k_P"] for k_i in raw["k_I"]]
    dirs = [sub for sub, _ in runs]
    for sub in dirs:
        if dirs.count(sub) > 1:
            raise ConfigurationError(f"sweep runs share the output directory {sub!r}")
    return raw["base"], runs


def _parse_pose(raw, what: str) -> np.ndarray:
    if isinstance(raw, dict):
        _fields(raw, what, ("axis_angle",), ("translation",))
        aa = _read(raw["axis_angle"], f"{what}.axis_angle", (3,))
        tr = _read(raw.get("translation", [0.0, 0.0, 0.0]), f"{what}.translation", (3,))
        g = np.zeros((4, 4))
        g[:3, :3] = mat_exp(hat_so3(aa))
        g[:3, 3] = tr
        g[3, 3] = 1.0
        return g
    return _read(raw, what, (None, None))


# The run fields a config may set: SimConfig's defaulted ones. A config's
# top level holds these, the five fields every run needs (the truth is the
# CLI's one SE(3) benchmark), and the fit window of its summary.
_RUN_FIELDS = tuple(field.name for field in dataclasses.fields(SimConfig)
                    if field.default is not dataclasses.MISSING)
# The fields that check-gains reads from a config that gives its bounds by value.
_GAIN_FIELDS = ("kind", "gains", "bounds", "model", "strict_gains")


@_config_errors
def _build_sim_config(cfg: dict) -> tuple[SimConfig, tuple[float, float] | None]:
    """Turn a config dict into a SimConfig and the fit window."""
    _fields(cfg, "config", ("kind", "gains", "model", "bias", "initial_observer"),
            (*_RUN_FIELDS, "fit_window"))

    kind = ObserverKind.from_label(cfg["kind"])
    gains = _parse_numbers(cfg["gains"], "gains", Gains)
    truth = se3_benchmark_truth()
    group = truth.group

    model = _parse_model(cfg["model"], kind)
    bias = AlgebraElement(group, _parse_twist(cfg["bias"], "bias"))

    raw_init = cfg["initial_observer"]
    if raw_init == "exact":
        g0, _, _ = truth.state_of(0.0)
        a_bar0 = measure(model, g0, 0.0)
        b_bar0 = bias.matrix.copy() if kind is ObserverKind.I_MOD else bias
    elif isinstance(raw_init, dict):
        _fields(raw_init, "initial_observer", ("b_bar",), one_of=("A_bar", "g_bar"))
        if "A_bar" in raw_init:
            a_bar0 = _read(raw_init["A_bar"], "initial_observer.A_bar", (None, None))
        else:
            g_bar0 = _parse_pose(raw_init["g_bar"], "initial_observer.g_bar")
            a_bar0 = measure(model, g_bar0, 0.0)
        raw_b = raw_init["b_bar"]
        if isinstance(raw_b, dict):
            b_mat = _parse_twist(raw_b, "initial_observer.b_bar")
        else:
            b_mat = _read(raw_b, "initial_observer.b_bar", (None, None))
        b_bar0 = b_mat if kind is ObserverKind.I_MOD else AlgebraElement(group, b_mat)
    else:
        raise ConfigurationError('initial_observer must be "exact" or an object')

    # SimConfig holds the run defaults but one: the CLI reports the
    # certificate's V, at epsilon "auto"; the library's 0 is the plain quadratic.
    run = {name: cfg[name] for name in _RUN_FIELDS if name in cfg}
    run.setdefault("lyapunov_epsilon", "auto")
    run.update({name: _read(run[name], name) for name in ("horizon", "step") if name in run})
    if isinstance(run.get("bounds"), dict):
        run["bounds"] = _parse_numbers(run["bounds"], "bounds", Bounds)

    return SimConfig(
        kind=kind,
        gains=gains,
        model=model,
        bias=bias,
        initial_observer=ObserverState(a_bar0, b_bar0),
        truth=truth,
        **run,
    ), _parse_fit_window(cfg.get("fit_window"))


def _columns(record: SimRecord) -> np.ndarray:
    """The ``_COLUMNS`` of a record, one row per sample, filled one row
    block of ``_ROW_BLOCK`` samples at a time from that block's errors and
    Lyapunov values, so that the export needs memory for the columns and
    a block, not for error stacks or temporaries the size of the record.

    ``err_Eg_proj`` is the distance from the true SE(3) pose to the
    SE(3)-projected estimate, NaN where ``E_g`` is absent or the
    estimate's rotation block is rank deficient.
    """
    columns = np.empty((len(record.t), len(_COLUMNS)))
    for lo in range(0, len(columns), _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        err, V = record.errors_and_V(rows)
        g = record.g[rows]
        columns[rows] = np.column_stack((
            record.t[rows], err.err_EA, err.err_eb, err.err_Eg,
            frob_norm(g - project_se3(g - err.E_g)), V))
    return columns


def _write_timeseries(path: Path, columns: np.ndarray) -> None:
    """The CSV, written to the open file a block of rows at a time, so a
    long record is never held as text all at once."""
    row = ",".join(["%.17g"] * columns.shape[1]) + "\n"
    with open(path, "w") as f:
        f.write(",".join(_COLUMNS) + "\n")
        for start in range(0, len(columns), _ROW_BLOCK):
            block = columns[start:start + _ROW_BLOCK]
            f.write((row * len(block)) % tuple(block.ravel().tolist()))


def _summarize(scenario: str, record: SimRecord, columns: np.ndarray, fit_window) -> dict:
    cfg = record.config
    kind, gains, bounds = cfg.kind, cfg.gains, record.bounds
    H, cap = epsilon_bound(kind, gains, bounds, cfg.model.F)

    fit = None
    if fit_window is not None:
        # The times ascend, so the rows inside the window are one slice.
        t = columns[:, 0]
        rows = slice(np.searchsorted(t, fit_window[0]), np.searchsorted(t, fit_window[1], "right"))
        # An overflowing sum is +inf, a sample the fit does not use.
        with np.errstate(over="ignore"):
            series = np.column_stack((t[rows], columns[rows, 1] + columns[rows, 2]))
        try:
            fit = dataclasses.asdict(fit_exponential(series, fit_window))
        except FitError:
            pass

    return {
        "scenario": scenario,
        "kind": kind.value,
        "gains": dataclasses.asdict(gains),
        "gain_floor": record.floor,
        "gain_satisfied": bool(gains.k_P > record.floor),
        "bounds": dataclasses.asdict(bounds),
        "H": H,
        "cap": cap,
        "epsilon_used": record.epsilon,
        "epsilon_fallback": record.epsilon_fallback,
        "fit": fit,
        "final": dict(zip(_COLUMNS[:-1], columns[-1].tolist())),
        "horizon": cfg.horizon,
        "step": cfg.step,
        "record_stride": cfg.record_stride,
        "samples": len(columns),
    }


def _json_ready(obj):
    """``obj`` with numpy numbers as Python floats and every non-finite
    float as None, so the JSON written from it is strict: ``null`` stands
    for "not a finite number"."""
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _run_one(scenario: str, cfg: dict, out_dir: Path) -> dict:
    sim_cfg, fit_window = _build_sim_config(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    record = simulate(sim_cfg)
    columns = _columns(record)
    _write_timeseries(out_dir / "timeseries.csv", columns)
    summary = _summarize(scenario, record, columns, fit_window)
    (out_dir / "summary.json").write_text(
        json.dumps(_json_ready(summary), indent=2) + "\n"
    )
    return summary


def run_simulate(scenario: str, output_dir: str) -> int:
    """Run a preset or config file into ``output_dir``; returns the exit code."""
    out_root = Path(output_dir)
    try:
        cfg = load_config(scenario)
        if "sweep" in cfg:
            base_name, sweep = _parse_sweep(cfg.pop("sweep"))
            base = load_config(base_name)
            runs = []
            for sub, gains in sweep:
                run_cfg = copy.deepcopy({**base, **cfg, "gains": gains})
                summary = _run_one(f"{scenario}/{sub}", run_cfg, out_root / sub)
                runs.append({"dir": sub, "gains": gains,
                             "final_err_eb": summary["final"]["err_eb"]})
            out_root.mkdir(parents=True, exist_ok=True)
            (out_root / "index.json").write_text(
                json.dumps(_json_ready({"runs": runs}), indent=2) + "\n"
            )
            print(f"wrote {len(runs)} sweep runs under {out_root}")
            return 0
        summary = _run_one(scenario, cfg, out_root)
    except GainFloorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigurationError, OSError, MemoryError) as exc:
        # A valid config whose record cannot be allocated is reported too.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, SingularityError) as exc:
        t = getattr(exc, "t", None)
        where = f" at t={t}" if t is not None else ""
        print(f"error: numerical failure{where}: {exc}", file=sys.stderr)
        return 4
    print(f"wrote {out_root / 'timeseries.csv'} and {out_root / 'summary.json'}")
    final = summary["final"]
    print(
        f"final errors at t={final['t']:g}: "
        f"err_EA={final['err_EA']:.3e} err_eb={final['err_eb']:.3e}"
    )
    return 0


def _certificate(kind, gains, bounds, F, epsilon) -> str:
    """``quadform_rates``' epsilon, alpha and beta at a run's ``epsilon``,
    where ``"auto"`` is half the admissible bound, else 0."""
    if epsilon == "auto":
        epsilon = suggested_epsilon(kind, gains, bounds, F) or 0.0
    try:
        # Extreme bounds give non-finite rates, with no warning.
        with np.errstate(all="ignore"):
            rates = quadform_rates(kind, epsilon, gains, bounds, F)
    except InadmissibleEpsilonError:
        return "none (epsilon not admissible)"
    return f"epsilon={rates.epsilon:.17g} alpha={rates.alpha:.17g} beta={rates.beta:.17g}"


def run_check_gains(scenario: str) -> int:
    """Report the gain floor, epsilon interval and certificate of a config.

    A config that holds nothing but ``kind``, ``gains``, a ``bounds``
    object, ``strict_gains`` and (for the epsilon interval of the
    transpose-feedback kinds) a ``model`` is read as it stands; nothing
    is simulated. Any other config is resolved in full, as ``simulate``
    resolves it, and its record allocated, so the two commands reject
    the same configs; the bounds are then its own or sampled empirically,
    and the certificate's epsilon is its own, or ``"auto"`` when read as
    it stands.
    """
    try:
        cfg = load_config(scenario)
        if "sweep" in cfg:
            raise ConfigurationError("check-gains does not apply to sweep configs")
        if isinstance(cfg.get("bounds"), dict) and set(cfg) <= set(_GAIN_FIELDS):
            _fields(cfg, "config", ("kind", "gains"), _GAIN_FIELDS)
            kind = ObserverKind.from_label(cfg["kind"])
            gains = _parse_numbers(cfg["gains"], "gains", Gains)
            bounds = _parse_numbers(cfg["bounds"], "bounds", Bounds)
            model = _parse_model(cfg["model"], kind) if "model" in cfg else None
            strict = _strict_flag(cfg.get("strict_gains", False))
            epsilon = "auto"
        else:
            sim_cfg, _ = _build_sim_config(cfg)
            kind, gains, model = sim_cfg.kind, sim_cfg.gains, sim_cfg.model
            # As in simulate, a record too large to allocate fails before
            # the bounds walk its horizon. Its pages are never touched.
            _record_columns(sim_cfg)
            bounds = _resolve_bounds(sim_cfg)
            strict, epsilon = sim_cfg.strict_gains, sim_cfg.lyapunov_epsilon
    except (ConfigurationError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    floor = gain_floor(kind, bounds)
    satisfied = gains.k_P > floor
    print(f"kind: {kind.value}")
    print("bounds:", *(f"{key}={value:.6g}" for key, value in dataclasses.asdict(bounds).items()))
    print(f"gain floor: {floor:.6g}")
    verdict = "satisfies" if satisfied else "does not satisfy"
    print(f"k_P: {gains.k_P:g} ({verdict} the floor)")
    if kind.uses_inverse or model is not None:
        F = None if model is None else model.F
        H, cap = epsilon_bound(kind, gains, bounds, F)
        print(f"H: {H:.6g}")
        print(f"cap: {cap:.6g}")
        none = ("none (gains below floor)" if not satisfied
                else f"none (H is {'not a number' if H != H else 'not positive'})")
        print(f"admissible epsilon: {f'(0, {min(H, cap):.6g})' if H > 0.0 else none}")
        certified = satisfied and H == H  # else none for the reason above
        print("certificate:", _certificate(kind, gains, bounds, F, epsilon) if certified else none)
    if strict and not satisfied:
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lieobs",
        description="Bias-compensating matrix observers on Lie groups: "
        "simulation and gain diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    config_help = f"a preset name ({', '.join(sorted(PRESETS))}) or a JSON config file"
    p_sim = sub.add_parser("simulate", help="run a scenario and export CSV/JSON")
    p_sim.add_argument("--config", required=True, help=config_help)
    p_sim.add_argument("--out", default="out", help="output directory (default: out)")

    p_chk = sub.add_parser("check-gains", help="report gain floor, epsilon range and certificate")
    p_chk.add_argument("--config", required=True, help=config_help)

    args = parser.parse_args(argv)
    if args.command == "simulate":
        return run_simulate(args.config, args.out)
    return run_check_gains(args.config)
