"""Wall time and peak RSS of `reduction-lab analyze` on full matrix algebras M_n.

M_n is given by two generators, the plain clock diag(exp(2 pi i j / n)) and
the cyclic shift, with no conjugation.  Each n runs in a fresh Python
process with 2 BLAS threads (fewer if fewer CPUs are available), so each peak
resident set is that analysis's alone:

    PYTHONPATH=src python3 scripts/mn_walls.py 10 12 14 16
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BLAS_THREADS = 2

CHILD = """
import contextlib, io, resource, sys, time
from reduction_lab import cli
t0 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["analyze", sys.argv[1], "--format", "json"])
seconds = time.perf_counter() - t0
print(code, seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""


def write_spec(path: Path, n: int) -> None:
    clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    shift = np.roll(np.eye(n, dtype=complex), 1, axis=0)
    gens = [[[[z.real, z.imag] for z in row] for row in g] for g in (clock, shift)]
    path.write_text(json.dumps({"dimension": n, "generators": gens, "unital": True}))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sizes", type=int, nargs="+")
    args = ap.parse_args()

    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "MKL_NUM_THREADS": threads}
    print(f"{'n':>4} {'seconds':>9} {'peak_MiB':>9}")
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.sizes:
            spec = Path(tmp) / f"M{n}.json"
            write_spec(spec, n)
            proc = subprocess.run(
                [sys.executable, "-c", CHILD, str(spec)],
                env=env, capture_output=True, text=True, check=True,
            )
            code, seconds, peak = proc.stdout.split()
            if code != "0":
                sys.exit(f"analyze on M_{n} exited {code}")
            print(f"{n:>4} {float(seconds):9.2f} {float(peak):9.0f}")


if __name__ == "__main__":
    main()
