"""Machine-speed metronome: a fixed kernel timed in CPU seconds, batch by batch.

    python3 bench/metronome.py compute|import OUT

The benchmark starts one beside every timed child process, on the same CPU
and at a lower priority, so it takes about a tenth of that CPU and samples
its speed all through the child's life. A shared host makes a vCPU run the
same code up to ~2x slower for seconds at a time; the child's CPU time
and the metronome's batch time both follow that factor, so their ratio
does not, as long as the kernel does the same kind of work as the child:

  compute  small numpy matrix products in a Python loop, like an observer run
  import   unmarshal and execute a stdlib module's code, like the interpreter
           start-up and imports that make up most of a set-up process

Nothing here imports lieobs.

It prints ``ready`` once warm, then runs batches until SIGTERM, and writes
OUT as pairs of doubles: the ``perf_counter`` at each batch's end and the
CPU seconds the batch took.
"""

from __future__ import annotations

import argparse
import array
import marshal
import os
import signal
import sys
import time

import numpy as np

# Niceness 10 against the child's 0 gives the metronome about 10% of the CPU.
NICE = 10
with open(argparse.__file__) as _f:
    MODULE_CODE = marshal.dumps(compile(_f.read(), argparse.__file__, "exec"))


def compute(n: int = 100) -> float:
    a = np.eye(4)
    b = np.full((4, 4), 0.1)
    s = 0.0
    for i in range(n):
        a = a @ b + a
        a *= 0.5
        s += i * 0.5
    return s + float(a[0, 0])


def import_() -> int:
    namespace = {"__name__": "metronome_module"}
    exec(marshal.loads(MODULE_CODE), namespace)
    return len(namespace)


KERNELS = {"compute": compute, "import": import_}


def main(argv=None) -> int:
    kernel_name, out = sys.argv[1:] if argv is None else argv
    kernel = KERNELS[kernel_name]
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    records = array.array("d")
    os.nice(NICE)
    kernel()
    print("ready", flush=True)
    while not stop:
        c0 = time.process_time()
        kernel()
        c1 = time.process_time()
        records.append(time.perf_counter())
        records.append(c1 - c0)
    with open(out, "wb") as f:
        records.tofile(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
