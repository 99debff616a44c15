#!/usr/bin/env python3
"""The lieobs benchmark: observer runs end to end, and module by module.

    python3 bench/run.py --workload stock --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Workloads (see README.md for why each exists and what it should show):

  stock          ``lieobs simulate`` on the se3-observer2 preset (kind II, 30 s)
  dense-inverse  ``lieobs simulate`` on se3-observer4 (kind IV), 10 s, every step recorded
  ensemble       21 short library runs (``SimConfig`` + ``simulate``) in one process

``--seed`` draws the inputs; the program only ever receives configs. Every
workload runs in its own child process, launch to exit, one at a time.
With ``--trace 0`` the run measures the end-to-end metrics, with
``--trace 1`` the per-layer metrics, from a traced child process beside an
untraced one. Every run checks the outputs against ``reference.json`` and
prints, last, one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
A result file with provenance goes to ``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import array
import csv
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
REFERENCE = BENCH / "reference.json"

sys.path.insert(0, str(BENCH))
import scenario  # noqa: E402

WORKLOADS = ("stock", "dense-inverse", "ensemble")
# CSV rows between two rows compared with the reference.
CLI_REF_EVERY = {"stock": 100, "dense-inverse": 500}
# A produced error column matches its reference value x when it lies within
# RTOL |x| + ATOL. Refactors are expected to reproduce outputs to ~1e-12.
RTOL, ATOL = 1e-8, 1e-12
# Exactly initialised ensemble members must keep err_EA + err_eb below this.
STATIONARY_TOL = 1e-8
COLUMNS = ("err_EA", "err_eb", "err_Eg", "err_Eg_proj")
SETUP_RUNS = 7
MIN_REPS = 3
SMOKE_ENSEMBLE_HORIZON = 0.2
CHILD_TIMEOUT_S = 170.0
# CPU seconds one batch of each metronome kernel takes at the reference
# speed, which is about the fast phase of a 2-vCPU Xeon virtual machine; see
# metronome.py. Launches are timed against "compute", set-ups against "import".
REF_BATCH_S = {"compute": 250e-6, "import": 1000e-6}

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "runs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
LAYER_UNITS = {
    "kinematics.truth_calls": "count",
    "kinematics.truth_s": "s",
    "kinematics.truth_per_step": "count/step",
    "kinematics.bounds_s": "s",
    "kinematics.truth_us": "us",
    "observers.rhs_calls": "count",
    "observers.rhs_s": "s",
    **{f"observers.rhs_us.{k}": "us" for k in scenario.KINDS},
    "matcore.inv_calls": "count",
    "matcore.inv_s": "s",
    "matcore.inv_us": "us",
    "matcore.svd_us": "us",
    "liegroup.project_us": "us",
    "liegroup.element_us": "us",
    "integrate.steps": "count",
    "integrate.rhs_evals": "count",
    "integrate.self_s": "s",
    "integrate.rk4_us": "us",
    "analysis.errors_calls": "count",
    "analysis.errors_s": "s",
    "analysis.errors_us": "us",
    "analysis.lyapunov_s": "s",
    "analysis.lyapunov_us": "us",
    "analysis.fit_s": "s",
    "cli.config_s": "s",
    "cli.export_s": "s",
    "cli.csv_bytes": "bytes",
    "trace.overhead_frac": "frac",
}
# Counts that must repeat exactly between runs of the same code and inputs.
EXACT_COUNTS = ("integrate.steps", "integrate.rhs_evals", "kinematics.truth_calls",
                "matcore.inv_calls", "analysis.errors_calls")


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to a failed observer run)."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONNOUSERSITE="1", PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    return env


def pin_to_one_cpu() -> int | None:
    """Pin this process, and so every child it starts, to its last allowed CPU.

    The timed child and its metronome must share one vCPU: on a shared host
    each vCPU speeds up and slows down on its own."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def read_metronome(path: Path, start: float, end: float) -> float | None:
    """Mean CPU seconds of the metronome batches that ended in [start, end].

    None when none did, which only a child that dies within milliseconds
    leaves behind."""
    records = array.array("d")
    with open(path, "rb") as f:
        records.frombytes(f.read())
    batches = [cpu for t, cpu in zip(records[::2], records[1::2]) if start <= t <= end]
    return None if not batches else math.fsum(batches) / len(batches)


def spawn(args: list[str], log: Path, metronome: str | None = None) -> dict:
    """Run one child to exit.

    Returns its wall and CPU seconds, peak RSS in MB and exit code. stderr
    goes to ``log``. A child still running after CHILD_TIMEOUT_S is killed,
    so the benchmark always ends. With ``metronome`` naming a kernel, a
    metronome runs it beside the child, and ``norm_s`` is the child's CPU
    time at the reference speed: CPU seconds x REF_BATCH_S[kernel] / the
    metronome's mean batch time.
    """
    metro = metro_out = None
    if metronome:
        metro_out = log.with_name("metronome.bin")
        metro = subprocess.Popen([sys.executable, str(BENCH / "metronome.py"), metronome, str(metro_out)],
                                 cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL)
    try:
        if metro is not None and metro.stdout.readline() != b"ready\n":
            raise BenchError("the metronome did not start")
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(args, cwd=ROOT, env=child_env(),
                                    stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            end = time.perf_counter()
    finally:
        if metro is not None:
            metro.terminate()
            metro.wait()
            metro.stdout.close()
    rep = {"wall_s": end - start, "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "code": os.waitstatus_to_exitcode(status)}
    if metronome:
        rep["batch_s"] = read_metronome(metro_out, start, end)
        scale = 1.0 if rep["batch_s"] is None else REF_BATCH_S[metronome] / rep["batch_s"]
        rep["norm_s"] = rep["cpu_s"] * scale
    return rep


def tail(path: Path, n: int = 400) -> str:
    text = path.read_text(errors="replace") if path.exists() else ""
    return text[-n:].strip()


# ---------------------------------------------------------------- inputs


def load_reference() -> dict:
    with open(REFERENCE) as f:
        return json.load(f)


def draw_inputs(workload: str, seed: int, ref: dict, smoke: bool) -> dict:
    """The workload's inputs as a pure function of the seed."""
    rng = random.Random(seed)
    if workload in CLI_REF_EVERY:
        axis = rng.choice(scenario.AXES)
        return {"axis": axis, "config": scenario.cli_config(workload, axis, smoke),
                "reference": ref["cli"][workload][axis]}
    pool = ref["ensemble"]
    roster = []
    for kind in scenario.KINDS:
        for variant in scenario.VARIANTS:
            cell = [e for e in pool if e["member"]["kind"] == kind
                    and e["member"]["variant"] == variant]
            roster.append(rng.choice(cell))
    rng.shuffle(roster)
    members = [dict(e["member"]) for e in roster]
    if smoke:
        for m in members:
            m["horizon"] = SMOKE_ENSEMBLE_HORIZON
    return {"members": members, "reference": {e["member"]["id"]: e for e in roster}}


def steps_and_runs(workload: str, inputs: dict) -> tuple[int, int]:
    if workload == "ensemble":
        ms = inputs["members"]
        return sum(int(round(m["horizon"] / m["step"])) for m in ms), len(ms)
    cfg = inputs["config"]
    horizon = cfg.get("horizon", 30.0)
    return int(round(horizon / 1e-3)), 1


# ---------------------------------------------------------------- checking


def compare(rows: list, final: list, ref: dict) -> str | None:
    """None when every produced row matches the reference row at its time."""
    expected = {round(r[0], 9): r for r in ref["rows"] + [ref["final"]]}
    for row in rows + [final]:
        exp = expected.get(round(row[0], 9))
        if exp is None:
            return f"no reference row at t={row[0]!r}"
        for name, got, want in zip(COLUMNS, row[1:], exp[1:]):
            if not (math.isfinite(got) and abs(got - want) <= RTOL * abs(want) + ATOL):
                return f"{name} at t={row[0]!r}: {got!r}, reference {want!r}"
    return None


def read_cli_output(workload: str, out_dir: Path) -> dict:
    """Checked rows, final row and finiteness from ``lieobs simulate`` files."""
    with open(out_dir / "timeseries.csv", newline="") as f:
        table = [[float(x) for x in row[:5]] for row in list(csv.reader(f))[1:]]
    with open(out_dir / "summary.json") as f:
        final = json.load(f)["final"]
    return {
        "rows": table[:: CLI_REF_EVERY[workload]],
        "final": [final["t"]] + [math.nan if final[c] is None else final[c] for c in COLUMNS],
        "finite": all(math.isfinite(v) for row in table for v in row[1:4]),
    }


def check_cli_output(workload: str, out_dir: Path, ref: dict) -> str | None:
    """Failure reason for one CLI run, or None."""
    try:
        got = read_cli_output(workload, out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable output: {exc}"
    if not got["finite"]:
        return "non-finite error in timeseries.csv"
    return compare(got["rows"], got["final"], ref)


def check_ensemble_output(path: Path, inputs: dict) -> dict[str, str]:
    """``member id -> failure reason`` for every failed member."""
    try:
        with open(path) as f:
            results = {r["id"]: r for r in json.load(f)}
    except (OSError, ValueError, KeyError) as exc:
        return {m["id"]: f"unreadable output: {exc}" for m in inputs["members"]}
    failures = {}
    for m in inputs["members"]:
        r = results.get(m["id"])
        if r is None:
            reason = "no result"
        elif "error" in r:
            reason = r["error"]
        elif not r["finite"]:
            reason = "non-finite error"
        elif r.get("drift", 0.0) >= STATIONARY_TOL:
            reason = f"stationary member drifted {r['drift']:.3e}"
        else:
            reason = compare(r["rows"], r["final"], inputs["reference"][m["id"]])
        if reason:
            failures[m["id"]] = reason
    return failures


# ---------------------------------------------------------------- running


class Runner:
    """One workload's inputs and the child processes that run it."""

    def __init__(self, workload: str, inputs: dict, work: Path):
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.steps, self.runs = steps_and_runs(workload, inputs)
        self.count = 0
        work.mkdir(parents=True, exist_ok=True)
        if workload == "ensemble":
            self.spec = work / "spec.json"
            self.spec.write_text(json.dumps(inputs["members"]))
        else:
            self.spec = work / "config.json"
            self.spec.write_text(json.dumps(inputs["config"]))

    def _fresh(self, name: str) -> Path:
        self.count += 1
        path = self.work / f"{self.count:03d}-{name}"
        path.mkdir()
        return path

    def setup_once(self) -> dict:
        """One set-up process under the metronome; adds ``error`` if it failed."""
        d = self._fresh("setup")
        if self.workload == "ensemble":
            args = [sys.executable, str(BENCH / "child.py"), "ensemble-setup", "--spec", str(self.spec)]
        else:
            args = [sys.executable, "-m", "lieobs", "check-gains", "--config", str(self.spec)]
        rep = spawn(args, d / "stderr.txt", metronome="import")
        if rep["code"] != 0:
            rep["error"] = f"set-up exited {rep['code']}: {tail(d / 'stderr.txt')}"
        return rep

    def run_once(self, traced: bool) -> dict:
        """One launch of the workload: ``spawn``'s figures, failures, trace.

        Untraced launches run under the metronome."""
        d = self._fresh("traced" if traced else "run")
        trace = d / "trace.json"
        if self.workload == "ensemble":
            out = d / "members.json"
            mode = ["trace-ensemble", "--trace", str(trace)] if traced else ["ensemble"]
            args = [sys.executable, str(BENCH / "child.py"), *mode, "--spec", str(self.spec), "--out", str(out)]
        else:
            lieobs_args = ["simulate", "--config", str(self.spec), "--out", str(d / "out")]
            if traced:
                args = [sys.executable, str(BENCH / "child.py"), "trace-cli", "--trace", str(trace), "--", *lieobs_args]
            else:
                args = [sys.executable, "-m", "lieobs", *lieobs_args]
        rep = spawn(args, d / "stderr.txt", metronome=None if traced else "compute")
        if rep["code"] != 0:
            failures = {"*": f"exited {rep['code']}: {tail(d / 'stderr.txt')}"}
        elif self.workload == "ensemble":
            failures = check_ensemble_output(out, self.inputs)
        else:
            reason = check_cli_output(self.workload, d / "out", self.inputs["reference"])
            failures = {"*": reason} if reason else {}
        rep["failures"] = failures
        if traced and trace.exists():
            rep["trace"] = json.loads(trace.read_text())
        shutil.rmtree(d)
        return rep

    def failed_runs(self, rep: dict) -> int:
        return self.runs if "*" in rep["failures"] else len(rep["failures"])


def measure_end_to_end(runner: Runner, seconds: float, setup_runs: int, min_reps: int) -> dict:
    setups = [runner.setup_once() for _ in range(setup_runs)]
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(runner.run_once(traced=False))
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps and elapsed + statistics.median(r["wall_s"] for r in reps) > seconds:
            break
    run_s = statistics.median(r["norm_s"] for r in reps)
    attempted = runner.runs * len(reps)
    failed = sum(runner.failed_runs(r) for r in reps)
    setup_errors = [r["error"] for r in setups if "error" in r]
    return {
        "metrics": {
            "run_s": run_s,
            "setup_s": statistics.median(r["norm_s"] for r in setups),
            "steps_per_s": runner.steps / run_s,
            "runs_per_s": runner.runs / run_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "ok_frac": 1.0 - failed / attempted,
        },
        "attempted": attempted,
        "failed": failed,
        "setup_errors": setup_errors,
        "reps": reps,
        "setups": setups,
        "wall_s": statistics.median(r["wall_s"] for r in reps),
    }


def measure_layers(runner: Runner, seconds: float, work: Path) -> dict:
    """Microbenchmarks, then untraced/traced launch pairs until ``seconds``.

    One pair may already fill the run: per-layer medians carry no bound."""
    micro_log = work / "micro.stderr.txt"
    micro_out = work / "micro.json"
    code = spawn([sys.executable, str(BENCH / "child.py"), "micro", "--trace", str(micro_out)], micro_log)["code"]
    if code != 0:
        raise BenchError(f"microbenchmarks exited {code}: {tail(micro_log)}")
    metrics = json.loads(micro_out.read_text())

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        # Alternate which side goes first so drift in machine load is shared.
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for is_traced in order:
            (traced if is_traced else plain).append(runner.run_once(traced=is_traced))
        elapsed = time.perf_counter() - start
        pair = statistics.median(p["wall_s"] + t["wall_s"] for p, t in zip(plain, traced))
        if elapsed + pair > seconds:
            break

    layer_reps = [r.get("trace", {}) for r in traced]
    for name in LAYER_UNITS:
        if name in metrics or name == "trace.overhead_frac":
            continue
        entries = [rep.get(name, {"value": None, "reason": "traced run wrote no metrics"})
                   for rep in layer_reps]
        values = [e["value"] for e in entries]
        if any(v is None for v in values):
            metrics[name] = next(e for e in entries if e["value"] is None)
        elif LAYER_UNITS[name] in ("count", "bytes"):
            metrics[name] = {"value": values[0]}
        else:
            metrics[name] = {"value": statistics.median(values)}
    counts_repeat = all(
        len({json.dumps(rep.get(n)) for rep in layer_reps}) == 1 for n in EXACT_COUNTS
    )
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead_frac"] = {"value": traced_wall / plain_wall - 1.0}
    reps = plain + traced
    return {
        "metrics": metrics,
        "attempted": runner.runs * len(reps),
        "failed": sum(runner.failed_runs(r) for r in reps),
        "counts_repeat": counts_repeat,
        "reps": reps,
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
    }


# ---------------------------------------------------------------- provenance


def git_head() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(args, load_start, cpu) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_head": git_head(),
        "child_threads": 1,
        "pinned_cpu": cpu,
        "metronome_ref_batch_s": REF_BATCH_S,
    }


# ---------------------------------------------------------------- main


def run_workload(args, workload: str, work: Path) -> dict:
    ref = load_reference()
    inputs = draw_inputs(workload, args.seed, ref, args.smoke)
    runner = Runner(workload, inputs, work / workload)
    setup_runs, min_reps = (2, 1) if args.smoke else (SETUP_RUNS, MIN_REPS)
    if args.trace:
        res = measure_layers(runner, args.seconds, work)
        units = LAYER_UNITS
        metrics = {n: {**res["metrics"][n], "unit": units[n]} for n in units}
        correct = res["failed"] == 0 and res["counts_repeat"]
    else:
        res = measure_end_to_end(runner, args.seconds, setup_runs, min_reps)
        metrics = {n: {"value": res["metrics"][n], "unit": u} for n, u in END_TO_END.items()}
        correct = res["failed"] == 0 and not res["setup_errors"]
    res["inputs"] = {"axis": inputs["axis"]} if "axis" in inputs else {
        "members": [m["id"] for m in inputs["members"]]}
    res["steps_per_rep"], res["runs_per_rep"] = runner.steps, runner.runs
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics, "detail": res}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short horizons, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "lieobs" / "__init__.py").is_file() or not REFERENCE.is_file():
        print(f"error: no lieobs sources under {SRC} or no {REFERENCE.name}", file=sys.stderr)
        return 2
    load_start = list(os.getloadavg())
    cpu = pin_to_one_cpu()
    RESULTS.mkdir(exist_ok=True)
    work = RESULTS / f"work-{os.getpid()}"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = {}
    try:
        for name in names:
            outcomes[name] = run_workload(args, name, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    prov = provenance(args, load_start, cpu)
    for name, out in outcomes.items():
        detail = out["detail"]
        prov_w = {**prov, "workload": name,
                  "trace_overhead_frac": detail["metrics"]["trace.overhead_frac"]["value"]
                  if args.trace else None}
        stamp = time.strftime("%Y%m%dT%H%M%S")
        path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
        path.write_text(json.dumps({"provenance": prov_w, **out}, indent=1, default=str) + "\n")
        print(f"[{name}] seed {args.seed}, {'traced' if args.trace else 'untraced'}, "
              f"{out['attempted']} runs attempted, {out['failed']} failed "
              f"(failed_frac {out['failed'] / out['attempted']:.3g}); result file {path.relative_to(ROOT)}")
        for metric, m in out["metrics"].items():
            value = "null" if m["value"] is None else f"{m['value']:.6g}"
            reason = f"  ({m['reason']})" if m.get("reason") else ""
            print(f"  {metric:28s} {value:>14s} {m['unit']}{reason}")

    if len(outcomes) == 1:
        out = next(iter(outcomes.values()))
        line = {k: out[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        line = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{w}.{n}": m for w, o in outcomes.items() for n, m in o["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
