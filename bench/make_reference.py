#!/usr/bin/env python3
"""Regenerate ``reference.json``: the inputs pool and its expected columns.

    python3 bench/make_reference.py

Runs every input the workloads can draw through the same child processes
the benchmark uses, records the error columns it checks (final and sampled
``err_EA``, ``err_eb``, ``err_Eg``, ``err_Eg_proj``), and, when scipy is
importable, cross-checks each against ``oracle.py``. Fields derived from
the empirical bounds (gain floor, H, cap, epsilon, V) are left out on
purpose: refining how the bounds are sampled may shift them.

Only regenerate when a change of outputs is intended and explained.
"""

from __future__ import annotations

import json
import re
import sys

import run
import scenario

# Largest scaled RK4-versus-oracle deviation accepted (see oracle.deviation).
ORACLE_TOL = 1e-7


def cli_member(workload: str, axis: str) -> dict:
    """The CLI workload's problem in the oracle's terms."""
    sys.path.insert(0, str(run.SRC))
    from lieobs.cli import PRESETS

    cfg = scenario.cli_config(workload, axis)
    preset = PRESETS[cfg["preset"]]
    gains = preset["gains"]
    bias = preset["bias"]
    return {
        "id": f"{workload}/{axis}",
        "kind": preset["kind"],
        "truth": "benchmark",
        "gains": [gains["k_P"], gains["k_I"]],
        "bias": [bias["omega"], bias["v"]],
        "horizon": cfg.get("horizon", preset["horizon"]),
        "initial": {"g_bar": scenario.pose(scenario.axis_angle_of(axis), [0.0] * 3).tolist(),
                    "b_bar": [[0.0] * 3, [0.0] * 3]},
    }


def cross_check(member: dict, got: dict, report: dict) -> None:
    if "skipped" in report:
        return
    import oracle

    rows = got["rows"] + ([got["final"]] if got["final"][0] > got["rows"][-1][0] else [])
    dev = oracle.deviation(rows, oracle.solve(member, [r[0] for r in rows]))
    report["max_deviation"] = max(report.get("max_deviation", 0.0), dev)
    report["checked"] = report.get("checked", 0) + 1
    if not dev <= ORACLE_TOL:
        raise SystemExit(f"{member['id']}: RK4 reference deviates {dev:.3e} from the oracle")


def main() -> int:
    try:
        import scipy

        oracle_report = {"method": "scipy.integrate.solve_ivp DOP853, rtol=atol=1e-12",
                         "scipy": scipy.__version__, "tolerance": ORACLE_TOL}
    except ImportError:
        oracle_report = {"skipped": "scipy is not importable"}
    work = run.RESULTS / "make-reference"
    work.mkdir(parents=True, exist_ok=True)

    cli = {}
    for workload in run.CLI_REF_EVERY:
        cli[workload] = {}
        for axis in scenario.AXES:
            d = work / workload / axis.replace("+", "p").replace("-", "m")
            d.mkdir(parents=True, exist_ok=True)
            cfg = d / "config.json"
            cfg.write_text(json.dumps(scenario.cli_config(workload, axis)))
            _, _, code = run.spawn([sys.executable, "-m", "lieobs", "simulate", "--config",
                                    str(cfg), "--out", str(d / "out")], d / "stderr.txt")
            if code != 0:
                raise SystemExit(f"{workload}/{axis}: lieobs exited {code}: {run.tail(d / 'stderr.txt')}")
            got = run.read_cli_output(workload, d / "out")
            if not got["finite"]:
                raise SystemExit(f"{workload}/{axis}: non-finite error column")
            cross_check(cli_member(workload, axis), got, oracle_report)
            cli[workload][axis] = {"rows": got["rows"], "final": got["final"]}
            print(f"{workload} {axis}: final {got['final']}", flush=True)

    pool = [scenario.draw_member(k, v, c) for k in scenario.KINDS
            for v in scenario.VARIANTS for c in range(scenario.CANDIDATES)]
    spec, out = work / "pool.json", work / "pool-results.json"
    spec.write_text(json.dumps(pool))
    _, _, code = run.spawn([sys.executable, str(run.BENCH / "child.py"), "ensemble",
                            "--spec", str(spec), "--out", str(out)], work / "stderr.txt")
    if code != 0:
        raise SystemExit(f"ensemble pool: exited {code}: {run.tail(work / 'stderr.txt')}")
    ensemble = []
    for member, got in zip(pool, json.loads(out.read_text())):
        if "error" in got or not got["finite"] or got.get("drift", 0.0) >= run.STATIONARY_TOL:
            raise SystemExit(f"{member['id']}: unusable pool member: {got}")
        cross_check(member, got, oracle_report)
        ensemble.append({"member": member, "rows": got["rows"], "final": got["final"]})
        print(f"{member['id']}: final {got['final']}", flush=True)

    reference = {
        "about": "Expected error columns for every input the workloads can draw; "
                 "written by bench/make_reference.py.",
        "lieobs_git_head": run.git_head(),
        "tolerance": {"rtol": run.RTOL, "atol": run.ATOL},
        "oracle": oracle_report,
        "cli": cli,
        "ensemble": ensemble,
    }
    text = json.dumps(reference, indent=1)
    # One line per list of numbers keeps the file short and diffable.
    text = re.sub(r"\[\s+([-0-9.eE+,\s]+?)\s+\]",
                  lambda m: "[" + re.sub(r"\s+", " ", m.group(1)) + "]", text)
    run.REFERENCE.write_text(text + "\n")
    print(f"wrote {run.REFERENCE} (oracle: {oracle_report})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
