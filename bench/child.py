"""Child processes the benchmark launches, one mode per invocation.

    child.py ensemble       --spec S --out R             run the members in S
    child.py ensemble-setup --spec S                     set them up, no RK4 step
    child.py trace-ensemble --spec S --out R --trace T   run them under the tracer
    child.py trace-cli      --trace T -- <lieobs args>   ``lieobs`` under the tracer
    child.py micro          --trace T                    per-call microbenchmarks

Each run writes JSON files only; stdout belongs to the program under test.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def run_members(spec_path, out_path, wrap=None) -> None:
    import members

    with open(spec_path) as f:
        spec = json.load(f)
    results = [members.run(m, wrap) for m in spec]
    with open(out_path, "w") as f:
        json.dump(results, f)


def encode(metrics: dict) -> dict:
    """``name -> value`` or ``name -> (None, reason)`` to JSON objects."""
    out = {}
    for name, value in metrics.items():
        if isinstance(value, tuple):
            out[name] = {"value": None, "reason": value[1]}
        else:
            out[name] = {"value": value}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["ensemble", "ensemble-setup", "trace-ensemble",
                                         "trace-cli", "micro"])
    parser.add_argument("--spec")
    parser.add_argument("--out")
    parser.add_argument("--trace")
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    lieobs_args = argv[split + 1:]

    if args.mode == "ensemble":
        run_members(args.spec, args.out)
        return 0
    if args.mode == "ensemble-setup":
        import members

        with open(args.spec) as f:
            for member in json.load(f):
                members.prepare(member)
        return 0
    if args.mode == "micro":
        import micro

        with open(args.trace, "w") as f:
            json.dump(encode(micro.run()), f)
        return 0

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    if args.mode == "trace-ensemble":
        run_members(args.spec, args.out, tracer.wrap)
        metrics = tracer.layer_metrics(None, None)
        code = 0
    else:
        import lieobs.cli

        start = time.perf_counter()
        code = lieobs.cli.main(lieobs_args)
        end = time.perf_counter()
        out_dir = lieobs_args[lieobs_args.index("--out") + 1]
        csv_path = os.path.join(out_dir, "timeseries.csv")
        csv_bytes = os.path.getsize(csv_path) if os.path.exists(csv_path) else None
        metrics = tracer.layer_metrics((start, end), csv_bytes)
    with open(args.trace, "w") as f:
        json.dump(encode(metrics), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
