"""Run one benchmark workload of reduction-lab and print its metrics.

    python3 perfbench/run.py --workload algebra-ladder --seed 1 --seconds 60 --trace 0

One process is one closed-loop client: it calls ``reduction_lab.cli.main``
in-process on each case of the workload, back to back, with stdout captured,
parses every JSON report and checks it (``checks.py``).  A pass over all
cases is a round; rounds repeat while another one fits in ``--seconds``, and
at least one always runs.  The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones:

- ``wall_s``: one round, as the sum over cases of each case's median time;
- ``setup_s``: median over three fresh processes of process start to ready
  (interpreter, imports, spec generation, warm-up), each run with
  ``--setup-only``;
- ``peak_rss_mb``: peak resident set of this process;
- ``cond_gmean`` / ``pc_bound_gmean``: geometric means of the similarity
  condition and of the projection-constant lower bound over the yes-verdict
  reports.

With ``--trace 1`` the package is wrapped from outside (``layertrace.py``) and the
metrics are the per-layer ones of ``BENCHMARK.json``, each the median over
rounds of its per-round value.

The BLAS thread count is set from ``--blas-threads`` (capped at the CPUs this
process may use) before numpy loads, whatever the caller's environment says.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# numpy, and every module that imports it, is imported inside functions: it
# must load after pin_blas_threads has set the thread count.
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench-out"
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blas-threads", type=int, default=2)
    ap.add_argument("--setup-only", action="store_true", help="set up, then exit")
    return ap.parse_args(argv)


def pin_blas_threads(requested: int) -> int:
    threads = max(1, min(requested, len(os.sched_getaffinity(0))))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def measure_setup(args) -> list[float]:
    """Seconds from spawn to exit of fresh ``--setup-only`` processes."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--blas-threads", str(args.blas_threads), "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
    return samples


def blas_info() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


class Runner:
    """Calls the CLI on cases, times each call and checks each report."""

    def __init__(self) -> None:
        from reduction_lab import cli

        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.yes_reports: list[dict] = []
        self._unchecked: list[tuple] = []

    def run(self, case) -> float:
        """Seconds taken by one CLI call; its report is kept for ``check``."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(case.argv))
        except Exception:  # a crash is one failed operation; the client goes on
            code = traceback.format_exc()
        dt = time.perf_counter() - t0
        if code != 0:
            self.failed += 1
            print(f"{case.name}: exit {code}: {err.getvalue().strip()}", file=sys.stderr)
            return dt
        self._unchecked.append((case, json.loads(out.getvalue())))
        return dt

    def check(self) -> None:
        """Check the reports kept since the last call (outside any traced span)."""
        from checks import check_report

        for case, report in self._unchecked:
            self.problems += check_report(case, report)
            if report["reduction_property"]["verdict"]:
                self.yes_reports.append(report)
        self._unchecked.clear()


def set_up(args, workdir: Path) -> tuple[list, list[str]]:
    """The workload's cases, and the problems met while warming up on small ones."""
    import workloads

    workdir.mkdir(parents=True)
    cases = workloads.build(args.workload, args.seed, workdir)
    warm = Runner()
    for case in workloads.warmup(workdir):
        warm.run(case)
    warm.check()
    return cases, warm.problems + [f"{warm.failed} warm-up case(s) failed"] * (warm.failed > 0)


def gmean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def run_rounds(cases, runner, seconds: float, recording=contextlib.nullcontext) -> list[list[float]]:
    """Whole rounds while another fits in ``seconds``; returns per-round case times.

    Each round runs inside ``recording()``; its reports are checked after it.
    """
    rounds = []
    t0 = time.perf_counter()
    while True:
        with recording():
            rounds.append([runner.run(case) for case in cases])
        runner.check()
        elapsed = time.perf_counter() - t0
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_blas_threads(args.blas_threads)
    if not (ROOT / "src" / "reduction_lab").is_dir():
        print(f"error: no reduction_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        if args.setup_only:
            set_up(args, workdir)
            return 0
        setup = [] if args.trace else measure_setup(args)
        cases, warmup_problems = set_up(args, workdir)
        runner = Runner()
        if args.trace:
            metrics, rounds = traced(cases, runner, args.seconds)
        else:
            rounds = run_rounds(cases, runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import numpy as np

    case_s = {c.name: statistics.median(times) for c, times in zip(cases, zip(*rounds))}
    if not args.trace:
        metrics = end_to_end(sum(case_s.values()), setup, runner)
    problems = warmup_problems + runner.problems
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "blas_threads": threads, "nproc": os.cpu_count(), "numpy": np.__version__,
        "blas": blas_info(), "rounds": len(rounds),
        "round_s": sum(case_s.values()), "case_median_s": case_s,
        "round_times_s": [[round(t, 4) for t in r] for r in rounds],
        "setup_samples_s": setup,
    }
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def end_to_end(round_s: float, setup: list[float], runner: Runner) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    yes = runner.yes_reports
    return {
        "wall_s": (round_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
        "cond_gmean": (gmean([r["similarity_condition"] for r in yes]), "1"),
        "pc_bound_gmean": (gmean([r["projection_constant_lower_bound"] for r in yes]), "1"),
    }


def traced(cases, runner, seconds: float):
    from layertrace import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    tracer = Tracer()
    per_round = []

    @contextlib.contextmanager
    def recording():
        tracer.install()
        try:
            yield
        finally:
            tracer.remove()
        per_round.append(tracer.metrics())
        tracer.reset()

    rounds = run_rounds(cases, runner, seconds, recording)
    metrics = {
        m["name"]: (statistics.median(r.get(m["name"], 0) for r in per_round), m["unit"])
        for m in spec
    }
    return metrics, rounds


if __name__ == "__main__":
    sys.exit(main())
