"""Wall time, peak RSS and projection-constant bound of `reduction-lab analyze`
on full matrix algebras M_n.

M_n is given by two generators, the plain clock diag(exp(2 pi i j / n)) and
the cyclic shift, with no conjugation.  With ``--central`` the algebra is
instead the diagonal algebra C^n of n central summands, generated by the
clock conjugated by the fixed shear I + 1/2 (strict upper triangle of ones),
so that its unions of summands are skew.  With ``--chain`` it is the
upper-triangular algebra T_n of the chain digraph, generated by the clock
and the superdiagonal of ones, as the benchmark's ``chain`` case is before
its conjugation; its verdict is a no.  The last column is the report's
``projection_constant_lower_bound``, so a C^n ladder records its bound beside
its wall (1 on M_n, "-" on T_n, which has none).  Each n runs in a fresh Python
process with 2 BLAS threads (fewer if fewer CPUs are available), so each peak
resident set is that analysis's alone:

    PYTHONPATH=src python3 scripts/mn_walls.py 10 12 14 16
    PYTHONPATH=src python3 scripts/mn_walls.py --central 6 8 12 13
    PYTHONPATH=src python3 scripts/mn_walls.py --chain 16 24 32
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
import contextlib, io, json, resource, sys, time
from reduction_lab import cli
out = io.StringIO()
t0 = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = cli.main(["analyze", sys.argv[1], "--format", "json"])
seconds = time.perf_counter() - t0
bound = json.loads(out.getvalue())["projection_constant_lower_bound"] if code == 0 else None
print(code, seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, bound)
"""


def write_spec(path: Path, n: int, kind: str) -> None:
    clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    if kind == "central":
        shear = np.eye(n) + 0.5 * np.triu(np.ones((n, n)), 1)
        mats = [shear @ clock @ np.linalg.inv(shear)]
    elif kind == "chain":
        mats = [clock, np.diag(np.ones(n - 1, dtype=complex), 1)]
    else:
        mats = [clock, np.roll(np.eye(n, dtype=complex), 1, axis=0)]
    gens = [[[[z.real, z.imag] for z in row] for row in g] for g in mats]
    path.write_text(json.dumps({"dimension": n, "generators": gens, "unital": True}))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sizes", type=int, nargs="+")
    algebra = ap.add_mutually_exclusive_group()
    algebra.add_argument("--central", action="store_true", help="C^n under a fixed shear, not M_n")
    algebra.add_argument("--chain", action="store_true", help="the chain algebra T_n, not M_n")
    args = ap.parse_args()
    kind = "central" if args.central else "chain" if args.chain else "full"
    prefix = {"central": "C^", "chain": "T_", "full": "M_"}[kind]

    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "MKL_NUM_THREADS": threads}
    print(f"{'n':>4} {'seconds':>9} {'peak_MiB':>9} {'bound':>12}")
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.sizes:
            name = f"{prefix}{n}"
            spec = Path(tmp) / f"{name}.json"
            write_spec(spec, n, kind)
            proc = subprocess.run(
                [sys.executable, "-c", CHILD, str(spec)],
                env=env, capture_output=True, text=True, check=True,
            )
            code, seconds, peak, bound = proc.stdout.split()
            if code != "0":
                sys.exit(f"analyze on {name} exited {code}")
            bound = "-" if bound == "None" else f"{float(bound):.8g}"
            print(f"{n:>4} {float(seconds):9.3f} {float(peak):9.0f} {bound:>12}")


if __name__ == "__main__":
    main()
