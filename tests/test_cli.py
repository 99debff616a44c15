"""Command line interface: config resolution, file outputs, exit codes."""

import dataclasses
import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import strict_json

import lieobs.cli
from lieobs.analysis import fit_exponential, project_se3
from lieobs.cli import (
    _ROW_BLOCK,
    PRESETS,
    _build_sim_config,
    _write_timeseries,
    load_config,
    main,
    run_check_gains,
)
from lieobs.errors import ConfigurationError
from lieobs.integrate import SimConfig, simulate
from lieobs.kinematics import build_F, se3_benchmark_landmarks
from lieobs.liegroup import hat_so3
from lieobs.matcore import frob_norm, mat_exp

FAST_BOUNDS = {"B_xi": 3.5, "B_b": 2.3, "L_g": 0.5, "U_g": 2.0}


def fast_config(**overrides):
    cfg = {
        "preset": "se3-observer2",
        "gains": {"k_P": 6.4, "k_I": 1.0},
        "horizon": 0.5,
        "record_stride": 50,
        "bounds": dict(FAST_BOUNDS),
    }
    cfg.update(overrides)
    return cfg


# Values both commands must reject with exit 2: id -> override on a config.
# Numbers are checked, not coerced, and matrix problems met while building
# the config (a singular g_bar or F, an overflowing exponential) are
# configuration errors.
ZERO_TWIST = {"omega": [0, 0, 0], "v": [0, 0, 0]}
PROBES = {
    "horizon-not-step-multiple": {"horizon": 0.0105},
    "A_bar-3x3": {"initial_observer": {"A_bar": np.eye(3).tolist(), "b_bar": ZERO_TWIST}},
    "A_bar-nan": {"initial_observer": {"A_bar": np.diag([math.nan, 1, 1, 1]).tolist(),
                                       "b_bar": ZERO_TWIST}},
    "g_bar-singular": {"initial_observer": {"g_bar": np.diag([1, 1, 0, 1]).tolist(),
                                            "b_bar": ZERO_TWIST}},
    "axis-angle-overflow": {"initial_observer": {"g_bar": {"axis_angle": [1e308, 1e308, 0]},
                                                 "b_bar": ZERO_TWIST}},
    "axis-angle-past-scaling": {"initial_observer": {"g_bar": {"axis_angle": [1e308, 0, 0]},
                                                     "b_bar": ZERO_TWIST}},
    "F-nan": {"model": {"side": "right", "F": np.diag([math.nan, 1, 1, 1]).tolist()}},
    "F-singular": {"model": {"side": "right", "F": np.diag([1, 1, 1, 0]).tolist()}},
    "F-ragged": {"model": {"side": "right", "F": [*np.eye(4)[:3].tolist(), [0, 0, 0, 1, 0]]}},
    "horizon-text": {"horizon": "0.01"},
    "gain-numeric-text": {"gains": {"k_P": "4", "k_I": 0.75}},
    "gain-1e400": {"gains": {"k_P": 1e400, "k_I": 0.75}},
    "bound-nan": {"bounds": {**FAST_BOUNDS, "B_xi": math.nan}},
    "bound-inf": {"bounds": {**FAST_BOUNDS, "B_xi": math.inf}},
    "bias-text": {"bias": {"omega": ["1", 0, 0], "v": [0, 0, 0]}},
    "bias-bool": {"bias": {"omega": [1, 0, 0], "v": [0, 0, True]}},
    "strict-gains-text": {"strict_gains": "no"},
    "epsilon-negative": {"lyapunov_epsilon": -5},
    "U_g-square-overflow": {"bounds": {**FAST_BOUNDS, "U_g": 1e200}},
    "L_g-square-underflow": {"bounds": {**FAST_BOUNDS, "L_g": 1e-200}},
    # 1/(2 k_I) overflows.
    "k_I-subnormal": {"horizon": 0.01, "gains": {"k_P": 4.0, "k_I": 5e-324},
                      "bounds": {"B_xi": 1.0, "B_b": 1.0, "L_g": 1e154, "U_g": 1e154}},
    # Config objects hold only the keys they read.
    "model-F-and-landmarks": {"model": {"side": "right", "F": np.eye(4).tolist(),
                                        "landmarks": "se3-benchmark"}},
    "model-unknown-key": {"model": {"side": "right", "landmarks": "se3-benchmark",
                                    "scale": 2}},
    "landmarks-unknown-key": {"model": {"side": "right", "landmarks": {
        "S": np.eye(4).tolist(), "W": np.eye(4).tolist(), "weights": [1, 1, 1, 1]}}},
    "A_bar-and-g_bar": {"initial_observer": {"A_bar": np.eye(4).tolist(),
                                             "g_bar": np.eye(4).tolist(),
                                             "b_bar": ZERO_TWIST}},
    "g_bar-misspelt-translation": {"initial_observer": {
        "g_bar": {"axis_angle": [0, 0, 0], "translaton": [1, 0, 0]}, "b_bar": ZERO_TWIST}},
    "gains-extra-key": {"gains": {"k_P": 6.4, "k_I": 1.0, "k_D": 0.0}},
    "unknown-field-explicit-bounds": {"horizon_s": 1.0, "bounds": dict(FAST_BOUNDS)},
    # null is no alias for "empirical" bounds or for epsilon 0.
    "bounds-null": {"bounds": None},
    "epsilon-null": {"lyapunov_epsilon": None},
    # Records past numpy's largest array: "array is too big" and "Maximum
    # allowed dimension exceeded", each a MemoryError.
    "record-1e17-rows": {"horizon": 1e17, "step": 1.0, "record_stride": 1},
    "record-1e100-rows": {"horizon": 1e300, "step": 1e200, "record_stride": 1},
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestLoadConfig:
    def test_preset_names(self):
        assert set(PRESETS) == {
            "se3-observer2",
            "se3-observer4",
            "stationary",
            "gain-sweep",
        }

    def test_presets_resolve(self):
        for name in PRESETS:
            assert isinstance(load_config(name), dict)

    def test_preset_copies_are_independent(self):
        cfg = load_config("se3-observer2")
        cfg["horizon"] = -1.0
        cfg["gains"]["k_P"] = -1.0
        fresh = load_config("se3-observer2")
        assert fresh["horizon"] == 30.0
        assert fresh["gains"]["k_P"] == 4.0

    def test_scenario_presets_differ_as_documented(self):
        a = load_config("se3-observer2")
        b = load_config("se3-observer4")
        assert a["kind"] == "II" and b["kind"] == "IV"
        assert b["gains"] == {"k_P": 4.0, "k_I": 4.0}
        assert load_config("stationary")["initial_observer"] == "exact"
        assert "sweep" in load_config("gain-sweep")

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            load_config("no-such-preset-or-file")

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError):
            load_config(str(path))

    @pytest.mark.parametrize("command", ["simulate", "check-gains"])
    def test_non_utf8_file_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"preset": "stationary", "horizon": 1.0\xff}')
        out = ["--out", str(tmp_path / "out")] if command == "simulate" else []
        assert main([command, "--config", str(path), *out]) == 2
        assert "UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError):
            load_config(str(path))

    def test_preset_merge_overrides(self, tmp_path):
        path = write_config(tmp_path, {"preset": "se3-observer2", "horizon": 2.0})
        cfg = load_config(path)
        assert cfg["horizon"] == 2.0
        assert cfg["kind"] == "II"
        assert cfg["gains"] == {"k_P": 4.0, "k_I": 0.75}

    def test_unknown_preset_reference(self, tmp_path):
        path = write_config(tmp_path, {"preset": "nope"})
        with pytest.raises(ConfigurationError):
            load_config(path)


class TestSimulateCommand:
    def run_fast(self, tmp_path, cfg=None, extra_args=(), name="config.json",
                 out="out"):
        path = write_config(tmp_path, cfg or fast_config(), name=name)
        out_dir = tmp_path / out
        code = main(["simulate", "--config", path, "--out", str(out_dir), *extra_args])
        return code, out_dir

    def test_writes_expected_files(self, tmp_path):
        code, out_dir = self.run_fast(tmp_path)
        assert code == 0
        assert (out_dir / "timeseries.csv").is_file()
        assert (out_dir / "summary.json").is_file()

    def test_csv_header_and_row_count(self, tmp_path):
        _, out_dir = self.run_fast(tmp_path)
        lines = (out_dir / "timeseries.csv").read_text().splitlines()
        assert lines[0] == "t,err_EA,err_eb,err_Eg,err_Eg_proj,V"
        # 0.5 s at step 1e-3 recorded every 50 steps: samples 0 .. 500
        assert len(lines) == 1 + 11

    def test_csv_values_roundtrip_exactly(self, tmp_path):
        _, out_dir = self.run_fast(tmp_path)
        lines = (out_dir / "timeseries.csv").read_text().splitlines()
        for line in lines[1:]:
            for token in line.split(","):
                assert f"{float(token):.17g}" == token

    def test_csv_blocks_join_to_one_text(self, tmp_path):
        # More rows than one write block, with a partial last block and
        # non-finite values: the file is the header and every row, each
        # line ended by a newline, as if formatted in one piece.
        columns = np.random.default_rng(7).normal(size=(2 * _ROW_BLOCK + 5, 6))
        columns[3, 3], columns[-1, 5] = np.nan, np.inf
        path = tmp_path / "timeseries.csv"
        _write_timeseries(path, columns)
        row = ",".join(["%.17g"] * 6)
        lines = ["t,err_EA,err_eb,err_Eg,err_Eg_proj,V"] + [row % tuple(v) for v in columns]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_rerun_is_bit_identical(self, tmp_path):
        _, first = self.run_fast(tmp_path, out="a")
        _, second = self.run_fast(tmp_path, out="b")
        assert (first / "timeseries.csv").read_bytes() == (
            second / "timeseries.csv"
        ).read_bytes()
        assert (first / "summary.json").read_bytes() == (
            second / "summary.json"
        ).read_bytes()

    def test_summary_contents(self, tmp_path):
        _, out_dir = self.run_fast(tmp_path)
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["kind"] == "II"
        assert summary["gains"] == {"k_P": 6.4, "k_I": 1.0}
        assert summary["gain_floor"] == pytest.approx(5.8)
        assert summary["gain_satisfied"] is True
        assert summary["bounds"] == FAST_BOUNDS
        assert summary["H"] > 0.0
        assert summary["cap"] > 0.0
        assert summary["epsilon_used"] > 0.0
        assert summary["epsilon_fallback"] is False
        assert summary["samples"] == 11
        assert summary["final"]["t"] == 0.5
        for key in ("err_EA", "err_eb", "err_Eg", "err_Eg_proj"):
            assert isinstance(summary["final"][key], float)

    def test_output_names_are_pinned(self, tmp_path, capsys):
        # The file formats' names, in order: a renamed dataclass field or
        # column must fail here, not change the files silently.
        cfg = fast_config(horizon=8.0, record_stride=100, fit_window=[1.0, 7.0])
        code, out_dir = self.run_fast(tmp_path, cfg)
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert list(summary) == [
            "scenario", "kind", "gains", "gain_floor", "gain_satisfied", "bounds", "H", "cap",
            "epsilon_used", "epsilon_fallback", "fit", "final", "horizon", "step",
            "record_stride", "samples"]
        assert list(summary["gains"]) == ["k_P", "k_I"]
        assert list(summary["bounds"]) == ["B_xi", "B_b", "L_g", "U_g"]
        assert list(summary["fit"]) == ["C", "a", "window", "residual"]
        assert list(summary["final"]) == ["t", "err_EA", "err_eb", "err_Eg", "err_Eg_proj"]
        header = (out_dir / "timeseries.csv").read_text().splitlines()[0]
        assert header == "t,err_EA,err_eb,err_Eg,err_Eg_proj,V"
        capsys.readouterr()
        assert main(["check-gains", "--config", write_config(tmp_path, cfg)]) == 0
        assert "bounds: B_xi=3.5 B_b=2.3 L_g=0.5 U_g=2\n" in capsys.readouterr().out

    def test_fit_reported_when_window_covered(self, tmp_path):
        cfg = fast_config(horizon=8.0, record_stride=100, fit_window=[1.0, 7.0])
        _, out_dir = self.run_fast(tmp_path, cfg)
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["fit"] is not None
        assert summary["fit"]["window"] == [1.0, 7.0]
        assert summary["fit"]["a"] > 0.0

    def test_pose_matrix_form_matches_axis_angle(self, tmp_path):
        # same rotation entered both ways must produce identical files
        g = np.eye(4)
        g[:3, :3] = mat_exp(hat_so3([math.pi / 2.0, 0.0, 0.0]))
        cfg_matrix = fast_config(
            horizon=0.05,
            initial_observer={
                "g_bar": g.tolist(),
                "b_bar": {"omega": [0.0, 0.0, 0.0], "v": [0.0, 0.0, 0.0]},
            },
        )
        cfg_angle = fast_config(horizon=0.05)
        _, out_a = self.run_fast(tmp_path, cfg_angle, name="a.json", out="a")
        _, out_b = self.run_fast(tmp_path, cfg_matrix, name="b.json", out="b")
        assert (out_a / "timeseries.csv").read_bytes() == (
            out_b / "timeseries.csv"
        ).read_bytes()

    def test_ambient_initial_state_form(self, tmp_path):
        g = np.eye(4)
        g[:3, :3] = mat_exp(hat_so3([math.pi / 2.0, 0.0, 0.0]))
        a_bar0 = np.linalg.inv(g) @ build_F(se3_benchmark_landmarks())
        cfg = fast_config(
            horizon=0.05,
            initial_observer={
                "A_bar": a_bar0.tolist(),
                "b_bar": np.zeros((4, 4)).tolist(),
            },
        )
        code, out_dir = self.run_fast(tmp_path, cfg)
        assert code == 0
        assert (out_dir / "timeseries.csv").is_file()

    def test_exact_initialization_stays_flat(self, tmp_path):
        cfg = fast_config(horizon=0.1, record_stride=100,
                          initial_observer="exact")
        _, out_dir = self.run_fast(tmp_path, cfg)
        lines = (out_dir / "timeseries.csv").read_text().splitlines()
        final = lines[-1].split(",")
        assert float(final[1]) < 1e-9
        assert float(final[2]) < 1e-9

    def test_landmark_table_form(self, tmp_path):
        s = np.array(
            [
                [1.0, 0.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 1.0, -1.0],
                [1.0, 1.0, 1.0, 1.0, 0.0],
            ]
        )
        cfg = fast_config(
            horizon=0.05,
            model={
                "side": "right",
                "landmarks": {"S": s.tolist(), "W": np.eye(5).tolist()},
            },
        )
        code, _ = self.run_fast(tmp_path, cfg)
        assert code == 0

    @pytest.mark.parametrize("stride", [1e19, 1e300])
    def test_stride_past_the_horizon_records_one_row(self, tmp_path, stride):
        code, out_dir = self.run_fast(tmp_path, fast_config(horizon=0.01, record_stride=stride))
        assert code == 0
        lines = (out_dir / "timeseries.csv").read_text().splitlines()
        assert len(lines) == 2 and float(lines[1].split(",")[0]) == 0.0

    def test_fit_reads_the_window_rows(self, tmp_path):
        # The window's ends fall on recorded times, so they are inside it.
        cfg = fast_config(horizon=8.0, record_stride=100, fit_window=[1.0, 7.0])
        _, out_dir = self.run_fast(tmp_path, cfg)
        fit = strict_json((out_dir / "summary.json").read_text())["fit"]
        t, err_EA, err_eb = np.loadtxt(out_dir / "timeseries.csv", delimiter=",", skiprows=1,
                                       usecols=(0, 1, 2), unpack=True)
        assert t[10] == 1.0 and t[70] == 7.0
        want = fit_exponential(np.column_stack((t, err_EA + err_eb)), (1.0, 7.0))
        assert [fit["C"], fit["a"], fit["residual"]] == [want.C, want.a, want.residual]

    # Bounds whose floor or interval overflows: the values that are not
    # finite numbers are written as null, so the files are strict JSON.
    NON_FINITE = {
        "floor-overflow": ({"bounds": {"B_xi": 1.7e308, "B_b": 1.7e308, "L_g": 0.5,
                                       "U_g": 2.0}}, ("gain_floor", "H")),
        "cap-overflow": ({"kind": "I", "model": {"side": "left", "landmarks": "se3-benchmark"},
                          "gains": {"k_P": 4.0, "k_I": 1e-308},
                          "bounds": {"B_xi": 1.0, "B_b": 1.0, "L_g": 1e-156, "U_g": 1e-156}},
                         ("cap",)),
    }

    @pytest.mark.filterwarnings("ignore:k_P=4.0 does not exceed")
    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_summary_values_are_null(self, tmp_path, case):
        override, nulls = self.NON_FINITE[case]
        cfg = {"preset": "se3-observer2", "horizon": 0.01, **override}
        code, out_dir = self.run_fast(tmp_path, cfg)
        assert code == 0
        summary = strict_json((out_dir / "summary.json").read_text())
        for key in nulls:
            assert summary[key] is None, key
        assert all(isinstance(summary["final"][k], float) for k in ("err_EA", "err_eb"))

    def test_overflowing_V_is_inf_without_a_warning(self, tmp_path):
        # |e_b|^2 / (2 k_I) passes the largest float at k_I = 1e-308.
        cfg = {"preset": "se3-observer2", "horizon": 0.01, "gains": {"k_P": 4.0, "k_I": 1e-308},
               "bounds": {"B_xi": 1.0, "B_b": 1.0, "L_g": 1e154, "U_g": 1e154}}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out_dir = self.run_fast(tmp_path, cfg)
        assert code == 0
        header, *rows = (out_dir / "timeseries.csv").read_text().splitlines()
        col = header.split(",").index("V")
        assert rows and all(float(row.split(",")[col]) == math.inf for row in rows)

    def test_huge_estimate_has_inf_V_without_a_warning(self, tmp_path):
        # err_EA is 9.6e299 at t = 0.01, so |E_A|^2 / 2 passes the largest
        # float on both rows, and the cross term is inf - inf.
        path = write_config(tmp_path, {
            "preset": "se3-observer2", "horizon": 0.01,
            "initial_observer": {"A_bar": np.diag([1e300, 1, 1, 1]).tolist(),
                                 "b_bar": ZERO_TWIST}})
        out_dir = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "lieobs", "simulate", "--config", path,
                               "--out", str(out_dir)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        header, *rows = (out_dir / "timeseries.csv").read_text().splitlines()
        col = header.split(",").index("V")
        assert [float(row.split(",")[col]) for row in rows] == [math.inf, math.inf]

    def test_fit_over_an_overflowing_error_sum_is_null_without_a_warning(self, tmp_path):
        # err_EA + err_eb passes the largest float on the rows after the
        # first, so the fit window keeps fewer than ten usable samples.
        path = write_config(tmp_path, {
            "preset": "se3-observer2", "horizon": 0.01, "record_stride": 1,
            "fit_window": [0.0, 0.01], "gains": {"k_P": 10.0, "k_I": 0.75},
            "bounds": {"B_xi": 3.5, "B_b": 2.3, "L_g": 0.5, "U_g": 2.0},
            "initial_observer": {"A_bar": np.diag([1.5e308, 1, 1, 1]).tolist(),
                                 "b_bar": {"omega": [0, 0, 0], "v": [1.5e308, 0, 0]}}})
        out_dir = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "lieobs", "simulate", "--config", path,
                               "--out", str(out_dir)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        assert strict_json((out_dir / "summary.json").read_text())["fit"] is None

    def test_overflowing_epsilon_interval_falls_back_to_zero(self, tmp_path):
        # lam_min / U_g^2 and u^2 overflow, so H is inf / inf: NaN, and
        # "auto" takes epsilon 0 as when the gains admit none.
        path = write_config(tmp_path, {
            "preset": "se3-observer2", "horizon": 0.01, "gains": {"k_P": 6.4, "k_I": 0.75},
            "bounds": {"B_xi": 3.5, "B_b": 2.3, "L_g": 1e-155, "U_g": 1e-155}})
        out_dir = tmp_path / "out"
        procs = {args[0]: subprocess.run([sys.executable, "-m", "lieobs", *args],
                                         capture_output=True, text=True)
                 for args in (["check-gains", "--config", path],
                              ["simulate", "--config", path, "--out", str(out_dir)])}
        for proc in procs.values():
            assert proc.returncode == 0, proc.stderr
            assert "RuntimeWarning" not in proc.stderr
        summary = strict_json((out_dir / "summary.json").read_text())
        assert summary["H"] is None
        assert summary["epsilon_used"] == 0.0 and summary["epsilon_fallback"] is True
        header, *rows = (out_dir / "timeseries.csv").read_text().splitlines()
        col = header.split(",").index("V")
        assert float(rows[-1].split(",")[col]) == pytest.approx(21.1065206, rel=1e-7)
        chk = procs["check-gains"].stdout
        assert "k_P: 6.4 (satisfies the floor)\nH: nan\n" in chk
        assert chk.endswith("admissible epsilon: none (H is not a number)\n")

    def test_record_too_large_exits_2_before_the_bounds_walk(self, tmp_path):
        # The record's 1e14 rows are allocated before the empirical bounds
        # walk 1e14 steps, so the run fails at once instead of after the walk.
        path = write_config(tmp_path, {"preset": "se3-observer2", "horizon": 1e14,
                                       "step": 1.0, "record_stride": 1})
        proc = subprocess.run([sys.executable, "-m", "lieobs", "simulate", "--config", path,
                               "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("error:") == 1

    def test_check_gains_record_too_large_exits_2_before_the_bounds_walk(self, tmp_path,
                                                                         monkeypatch, capsys):
        # check-gains allocates the record that simulate would, untouched,
        # before the empirical bounds would walk the 1e14 steps.
        def walk(config):
            pytest.fail("the empirical bounds were walked")

        monkeypatch.setattr(lieobs.cli, "_resolve_bounds", walk)
        path = write_config(tmp_path, {"preset": "se3-observer2", "horizon": 1e14,
                                       "step": 1.0, "record_stride": 1})
        assert run_check_gains(path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("error:") == 1

    def test_sweep_index_is_strict_json(self, tmp_path):
        cfg = {"sweep": {"base": "se3-observer2", "k_P": [6.0], "k_I": [1.0]},
               "horizon": 0.01, "bounds": {"B_xi": 1.7e308, "B_b": 1.7e308, "L_g": 0.5,
                                            "U_g": 2.0}}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out_dir = self.run_fast(tmp_path, cfg)
        assert code == 0
        assert strict_json((out_dir / "index.json").read_text())["runs"][0]["dir"] == "kP6_kI1"
        assert strict_json((out_dir / "kP6_kI1" / "summary.json").read_text())["H"] is None

    @pytest.mark.filterwarnings("ignore:k_P=4.0 does not exceed")
    @pytest.mark.parametrize("horizon", [5.0, 20.0])
    def test_run_and_export_memory_is_record_plus_constant(self, tmp_path, horizon):
        # Every step recorded: 5,001 and 20,001 rows of 520 bytes of states.
        # The errors, the CSV columns and err_Eg_proj are worked in row
        # blocks, so the traced peak of a whole `lieobs simulate` exceeds the
        # states and the columns by a constant, and never holds the record's
        # error stacks. The fit's least squares take memory for its window's
        # rows, so both lengths fit over the same window.
        cfg = {"preset": "se3-observer4", "horizon": horizon, "record_stride": 1,
               "bounds": dict(FAST_BOUNDS), "fit_window": [1.0, 4.0]}
        path = write_config(tmp_path, cfg)
        run = ["simulate", "--config", path, "--out", str(tmp_path / "out")]
        main(["simulate", "--config", write_config(tmp_path, {**cfg, "horizon": 0.1}, "warm.json"),
              "--out", str(tmp_path / "warm")])
        tracemalloc.start()
        try:
            assert main(run) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rec = simulate(_build_sim_config(load_config(path))[0])
        own = sum(a.nbytes for a in (rec.t, rec.g, rec.A, rec.A_bar, rec.b_bar))
        columns = 6 * 8 * len(rec.t)
        assert len(rec.t) == round(horizon * 1000) + 1
        assert peak - own - columns < 1.5e6

    def test_seed_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            self.run_fast(tmp_path, fast_config(horizon=0.05), extra_args=("--seed", "7"))
        assert exc.value.code == 2

    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_field_exits_2(self, tmp_path):
        code, _ = self.run_fast(tmp_path, fast_config(typo_field=1.0))
        assert code == 2

    def test_missing_required_field_exits_2(self, tmp_path):
        cfg = load_config("se3-observer2")
        del cfg["bias"]
        cfg["bounds"] = dict(FAST_BOUNDS)
        cfg["horizon"] = 0.05
        code, _ = self.run_fast(tmp_path, cfg)
        assert code == 2

    def test_bad_gains_keys_exit_2(self, tmp_path):
        code, _ = self.run_fast(tmp_path, fast_config(gains={"kp": 4.0}))
        assert code == 2

    def test_side_conflict_exits_2(self, tmp_path):
        cfg = fast_config(model={"side": "left", "landmarks": "se3-benchmark"})
        code, _ = self.run_fast(tmp_path, cfg)
        assert code == 2

    def test_bad_bounds_keys_exit_2(self, tmp_path):
        cfg = fast_config(bounds={"B_xi": 1.0})
        code, _ = self.run_fast(tmp_path, cfg)
        assert code == 2

    def test_strict_gains_exit_3(self, tmp_path, capsys):
        cfg = fast_config(gains={"k_P": 4.0, "k_I": 0.75})
        code, _ = self.run_fast(tmp_path, cfg, extra_args=("--strict-gains",))
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_numerical_blowup_exit_4(self, tmp_path, capsys):
        cfg = fast_config(gains={"k_P": 1e308, "k_I": 1.0}, horizon=0.05)
        code, _ = self.run_fast(tmp_path, cfg)
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_unusable_out_exits_2_before_the_run(self, tmp_path, capsys, out):
        # The run itself would fail with exit 4: the output directory is
        # created, and fails, first.
        (tmp_path / "file").touch()
        cfg = fast_config(gains={"k_P": 1e308, "k_I": 1.0}, horizon=0.05)
        code, _ = self.run_fast(tmp_path, cfg, out=out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / "file") in err

    def test_unwritable_output_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "out" / "summary.json").mkdir(parents=True)
        code, out_dir = self.run_fast(tmp_path)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert (out_dir / "timeseries.csv").is_file()

    def test_gain_sweep_layout(self, tmp_path):
        cfg = {
            "sweep": {"base": "se3-observer2", "k_P": [6.0, 8.0], "k_I": [0.75, 4.0]},
            "gains": {"k_P": 6.0, "k_I": 1.0},
            "horizon": 0.2,
            "record_stride": 100,
            "bounds": dict(FAST_BOUNDS),
        }
        path = write_config(tmp_path, cfg)
        out_dir = tmp_path / "sweep"
        code = main(["simulate", "--config", path, "--out", str(out_dir)])
        assert code == 0
        subdirs = {"kP6_kI0.75", "kP6_kI4", "kP8_kI0.75", "kP8_kI4"}
        for sub in subdirs:
            assert (out_dir / sub / "timeseries.csv").is_file()
            assert (out_dir / sub / "summary.json").is_file()
        index = json.loads((out_dir / "index.json").read_text())
        assert {run["dir"] for run in index["runs"]} == subdirs
        for run in index["runs"]:
            assert isinstance(run["final_err_eb"], float)
            summary = json.loads((out_dir / run["dir"] / "summary.json").read_text())
            assert summary["gains"] == run["gains"]


def per_row_timeseries(record) -> str:
    """timeseries.csv written one sample at a time, the way the CLI wrote
    it before it read the record's columns."""
    def fmt(x):
        return f"{float(x):.17g}"

    lines = ["t,err_EA,err_eb,err_Eg,err_Eg_proj,V"]
    err, V = record.errors_and_V()
    for k, (t, g) in enumerate(zip(record.t, record.g)):
        norms = [frob_norm(stack[k]) for stack in (err.E_A, err.e_b, err.E_g)]
        proj = frob_norm(g - project_se3(g - err.E_g[k]))
        lines.append(",".join(map(fmt, (t, *norms, proj, V[k]))))
    return "\n".join(lines) + "\n"


class TestColumnExport:
    CASES = {
        "IV-stride-1": {"preset": "se3-observer4", "horizon": 1.0, "record_stride": 1},
        # A_bar(0) sits just inside the guard, so the first rows have no
        # E_g: nan in err_Eg and err_Eg_proj.
        "II-near-singular": fast_config(
            horizon=0.05, step=1e-4, record_stride=1,
            initial_observer={"A_bar": np.diag([2.0, 2.0, 2.0, 1.98e-10]).tolist(),
                              "b_bar": {"omega": [0, 0, 0], "v": [0, 0, 0]}}),
    }

    @pytest.mark.filterwarnings("ignore:k_P=4.0 does not exceed")
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_csv_bytes_equal_per_row_export(self, case, tmp_path):
        cfg = self.CASES[case]
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 0
        sim_cfg, _ = _build_sim_config(load_config(path))
        want = per_row_timeseries(simulate(sim_cfg))
        assert (tmp_path / "out" / "timeseries.csv").read_text() == want
        if case.startswith("II"):
            assert ",nan,nan," in want
        last = [float(x) for x in want.splitlines()[-1].split(",")[:5]]
        final = json.loads((tmp_path / "out" / "summary.json").read_text())["final"]
        got = [final[k] for k in ("t", "err_EA", "err_eb", "err_Eg", "err_Eg_proj")]
        assert got == [None if math.isnan(x) else x for x in last]


class TestRejectedValues:
    """Values that once crashed or were coerced now exit 2 cleanly."""

    def test_top_level_fields_are_the_run_fields_and_fit_window(self):
        accepted = {field.name for field in dataclasses.fields(SimConfig)} | {"fit_window"}
        others = {"preset", "sweep", "seed", "samples"}
        with pytest.raises(ConfigurationError) as exc:
            _build_sim_config(dict.fromkeys(accepted | others))
        assert str(exc.value) == f"unknown config fields: {sorted(others)}"
        with pytest.raises(ConfigurationError) as exc:
            _build_sim_config(dict.fromkeys(accepted))
        assert "unknown config fields" not in str(exc.value)

    @pytest.mark.parametrize(
        "override",
        [
            {"horizon": "inf"},
            {"horizon": "nan"},
            {"gains": {"k_P": "abc", "k_I": 1.0}},
            {"fit_window": 5},
            {"record_stride": 1.5},
            {"sweep": {"base": "se3-observer2", "k_I": [0.75]}},
            {"sweep": {"base": "se3-observer2", "k_P": 4, "k_I": [0.75]}},
            # Both runs would write kP4_kI0.75.
            {"sweep": {"base": "se3-observer2", "k_P": [4.0, 4.000001], "k_I": [0.75]}},
            {"sweep": {"base": 3, "k_P": [4.0], "k_I": [0.75]}},
            {"model": {"side": "right", "F": [[1, 0], [0, 1]]}},
            {"model": {"side": "right", "landmarks": {"S": [[1, 0], [0, 1]],
                                                      "W": [[1, 0], [0, 1]]}}},
            {"model": {"side": "right", "landmarks": {"S": np.eye(4).tolist(),
                                                      "W": np.eye(3).tolist()}}},
            {"model": {"side": "right", "landmarks": {"S": np.eye(4).tolist(),
                                                      "W": np.diag([1, 1, 1, 0]).tolist()}}},
            # Valid, but its record asks for hundreds of TiB.
            {"horizon": 1e12, "record_stride": 1},
            *PROBES.values(),
        ],
        ids=["horizon-inf", "horizon-nan", "gain-text", "fit-window-scalar",
             "fractional-stride", "sweep-without-kP", "sweep-scalar-kP", "sweep-same-dir",
             "sweep-base-number",
             "model-F-2x2", "landmarks-2x2", "landmarks-W-shape", "landmarks-degenerate",
             "record-too-large", *PROBES],
    )
    def test_exit_2_without_traceback(self, tmp_path, override):
        path = write_config(tmp_path, fast_config(**override))
        proc = subprocess.run(
            [sys.executable, "-m", "lieobs", "simulate", "--config", path,
             "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error:" in proc.stderr

    @pytest.mark.parametrize(
        "override",
        [{"model": {"side": "right", "F": [[1, 0], [0, 1]]}},
         {"model": {"side": "right", "landmarks": {"S": np.eye(4).tolist(),
                                                   "W": np.diag([1, 1, 1, 0]).tolist()}}},
         {"bounds": dict(FAST_BOUNDS), "strict_gains": "yes"},
         *PROBES.values()],
        ids=["F-2x2", "landmarks-degenerate", "explicit-bounds-strict-text", *PROBES],
    )
    def test_check_gains_exit_2_without_traceback(self, tmp_path, override):
        cfg = fast_config(**{"bounds": "empirical", **override})
        proc = subprocess.run(
            [sys.executable, "-m", "lieobs", "check-gains", "--config",
             write_config(tmp_path, cfg)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error:" in proc.stderr


class TestCheckGainsCommand:
    @pytest.mark.parametrize(
        "cfg",
        [{"preset": "se3-observer2", "horizon": 0.01, "strict_gains": True},
         {"kind": "IV", "gains": {"k_P": 1, "k_I": 1},
          "bounds": {"B_xi": 1, "B_b": 1, "L_g": 1, "U_g": 2}, "strict_gains": True}],
        ids=["empirical-bounds", "explicit-bounds"],
    )
    def test_config_strict_gains_exit_3(self, tmp_path, capsys, cfg):
        # A config's own strict_gains acts like --strict-gains: report, then 3.
        assert main(["check-gains", "--config", write_config(tmp_path, cfg)]) == 3
        assert "does not satisfy" in capsys.readouterr().out

    def test_coarse_step_over_long_horizon(self, tmp_path):
        # 100 steps over a horizon of 1e308: the bounds grid follows the
        # run's step instead of allocating 1e310 nodes.
        path = write_config(tmp_path, {"preset": "se3-observer2", "horizon": 1e308,
                                       "step": 1e306})
        codes = {}
        for args in (["check-gains", "--config", path],
                     ["simulate", "--config", path, "--out", str(tmp_path / "out")]):
            proc = subprocess.run([sys.executable, "-m", "lieobs", *args],
                                  capture_output=True, text=True)
            assert "Traceback" not in proc.stderr
            codes[args[0]] = proc.returncode
        assert codes["check-gains"] == 0
        assert codes["simulate"] in (0, 4)

    def test_huge_bias_norm_is_finite(self, tmp_path):
        # The bias twist's sum of squares overflows, its norm does not:
        # check-gains reports the bound, and the run fails as a run.
        path = write_config(tmp_path, {"preset": "se3-observer2", "horizon": 0.01,
                                       "bias": {"omega": [1e200, 0, 0], "v": [0, 0, 0]}})
        procs = {args[0]: subprocess.run([sys.executable, "-m", "lieobs", *args],
                                         capture_output=True, text=True)
                 for args in (["check-gains", "--config", path],
                              ["simulate", "--config", path, "--out", str(tmp_path / "out")])}
        for proc in procs.values():
            assert "RuntimeWarning" not in proc.stderr
        chk = procs["check-gains"]
        assert chk.returncode == 0, chk.stderr
        assert " B_b=1.41421e+200 " in chk.stdout
        assert "gain floor: 1.41421e+200\n" in chk.stdout
        assert procs["simulate"].returncode == 4
        assert "error: numerical failure at t=0.0" in procs["simulate"].stderr

    @pytest.mark.parametrize("override", [{"horizon": "abc"}, *PROBES.values()],
                             ids=["horizon-text-abc", *PROBES])
    def test_explicit_bounds_with_run_fields_resolve_in_full(self, tmp_path, capsys,
                                                            override):
        # fast_config gives its bounds by value; its run fields are read as
        # simulate reads them, so each probe exits 2 here too.
        assert run_check_gains(write_config(tmp_path, fast_config(**override))) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("error:") == 1

    def test_explicit_bounds_are_used_as_given(self, tmp_path, capsys, monkeypatch):
        # A preset with bounds given by value reports what the minimal
        # config of its kind, gains, bounds and model reports, with no walk
        # of the truth.
        def walk(*args):
            pytest.fail("the truth was walked for the bounds")

        monkeypatch.setattr(lieobs.integrate, "_truth_chunks", walk)
        preset = load_config("se3-observer2")
        minimal = {key: preset[key] for key in ("kind", "gains", "model")}
        outs = []
        for cfg in ({"preset": "se3-observer2", "bounds": FAST_BOUNDS},
                    {**minimal, "bounds": FAST_BOUNDS}):
            assert run_check_gains(write_config(tmp_path, cfg)) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and " B_xi=3.5 " in outs[0]

    def test_floor_from_explicit_bounds(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "kind": "I",
                "gains": {"k_P": 4.0, "k_I": 1.0},
                "bounds": {"B_xi": 2.0, "B_b": 1.0, "L_g": 1.0, "U_g": 1.0},
            },
        )
        assert run_check_gains(path) == 0
        out = capsys.readouterr().out
        assert "kind: I" in out
        assert "gain floor: 3" in out
        assert "(satisfies the floor)" in out

    def test_violated_floor_nonstrict_and_strict(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "kind": "III",
                "gains": {"k_P": 4.0, "k_I": 1.0},
                "bounds": {"B_xi": 2.0, "B_b": 1.0, "L_g": 1.0, "U_g": 1.0},
            },
        )
        assert run_check_gains(path) == 0
        out = capsys.readouterr().out
        assert "gain floor: 5" in out
        assert "does not satisfy" in out
        assert run_check_gains(path, strict=True) == 3

    def test_epsilon_interval_worked_example(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "kind": "I",
                "gains": {"k_P": 4.0, "k_I": 1.0},
                "bounds": {"B_xi": 1.0, "B_b": 1.0, "L_g": 1.0, "U_g": 1.0},
                "model": {"side": "left", "F": np.eye(3).tolist()},
            },
        )
        assert run_check_gains(path) == 0
        out = capsys.readouterr().out
        assert "H: 0.0503145" in out
        assert "cap: 0.57735" in out
        assert "admissible epsilon: (0, 0.0503145)" in out

    @pytest.mark.parametrize("kind,H,cap", [("II", "1e-200", "0.5"), ("IV", "4e-200", "1")])
    def test_huge_gain_keeps_an_interval(self, tmp_path, capsys, kind, H, cap):
        # c^2 = (k_P + B_b + 2 B_xi)^2 exceeds the float range; H does not
        # collapse to 0
        path = write_config(tmp_path, {
            "kind": kind,
            "gains": {"k_P": 1e200, "k_I": 1},
            "bounds": {"B_xi": 1, "B_b": 1, "L_g": 1, "U_g": 1},
            "model": {"side": "right", "F": np.eye(4).tolist()},
        })
        assert run_check_gains(path) == 0
        out = capsys.readouterr().out
        assert f"H: {H}\n" in out
        assert f"cap: {cap}\n" in out
        assert f"admissible epsilon: (0, {H})" in out

    def test_huge_bound_keeps_an_interval(self, tmp_path, capsys):
        # c = k_P + B_b + 2 B_xi itself exceeds the float range; H is not NaN
        path = write_config(tmp_path, {
            "kind": "II",
            "gains": {"k_P": 1.7e308, "k_I": 1},
            "bounds": {"B_xi": 1e308, "B_b": 1, "L_g": 1, "U_g": 1},
            "model": {"side": "right", "F": np.eye(4).tolist()},
        })
        assert run_check_gains(path) == 0
        out = capsys.readouterr().out
        assert "(satisfies the floor)" in out
        assert "H: 5.11322e-310\n" in out
        assert "admissible epsilon: (0, 5.11322e-310)" in out

    def test_inverse_kind_needs_no_model(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "kind": "III",
                "gains": {"k_P": 10.0, "k_I": 1.0},
                "bounds": {"B_xi": 2.0, "B_b": 1.0, "L_g": 1.0, "U_g": 1.0},
            },
        )
        assert run_check_gains(path) == 0
        out = capsys.readouterr().out
        assert "H: 0.0873362" in out
        assert "cap: 1" in out

    def test_no_interval_below_floor(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "kind": "I",
                "gains": {"k_P": 2.0, "k_I": 1.0},
                "bounds": {"B_xi": 1.0, "B_b": 1.0, "L_g": 1.0, "U_g": 1.0},
                "model": {"side": "left", "F": np.eye(3).tolist()},
            },
        )
        assert run_check_gains(path) == 0
        out = capsys.readouterr().out
        assert "does not satisfy" in out
        assert "admissible epsilon: none" in out

    def test_left_kind_without_model_omits_interval(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "kind": "I",
                "gains": {"k_P": 4.0, "k_I": 1.0},
                "bounds": {"B_xi": 1.0, "B_b": 1.0, "L_g": 1.0, "U_g": 1.0},
            },
        )
        assert run_check_gains(path) == 0
        out = capsys.readouterr().out
        assert "gain floor: 2" in out
        assert "H:" not in out

    def test_preset_resolves_empirical_bounds(self, capsys):
        assert run_check_gains("se3-observer2") == 0
        out = capsys.readouterr().out
        assert "kind: II" in out
        assert "gain floor: 5.77" in out
        assert "H:" in out

    def test_sweep_config_rejected(self, capsys):
        assert run_check_gains("gain-sweep") == 2
        assert "error" in capsys.readouterr().err

    def test_main_dispatch(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "kind": "I",
                "gains": {"k_P": 4.0, "k_I": 1.0},
                "bounds": {"B_xi": 2.0, "B_b": 1.0, "L_g": 1.0, "U_g": 1.0},
            },
        )
        assert main(["check-gains", "--config", path]) == 0
        assert "gain floor: 3" in capsys.readouterr().out

    def test_main_strict_dispatch(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "kind": "III",
                "gains": {"k_P": 4.0, "k_I": 1.0},
                "bounds": {"B_xi": 2.0, "B_b": 1.0, "L_g": 1.0, "U_g": 1.0},
            },
        )
        assert main(["check-gains", "--config", path, "--strict-gains"]) == 3
        capsys.readouterr()


class TestArgumentParsing:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_simulate_needs_a_source(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 2

    def test_preset_and_config_are_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--preset", "stationary", "--config", "x.json"])
        assert exc.value.code == 2

    def test_unknown_preset_choice(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--preset", "bogus"])
        assert exc.value.code == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lieobs", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "simulate" in proc.stdout
        assert "check-gains" in proc.stdout
