"""Alternating benchmark pairs of a parent commit and the working tree, summarised.

The parent commit is unpacked with ``git archive`` into a temporary directory,
so the repository and its ``.git`` are only read.  Pair i runs
``perfbench/run.py --seed i`` (``--trace 0``) on both sides back to back, the
parent first at odd seeds and the working tree first at even ones, so that a
drift of the host falls on both sides alike.  With ``--trace-seconds`` each
side then takes one traced run (``--trace 1``, seed 1) per workload.

    python3 scripts/bench_pairs.py --parent HEAD --pairs algebra-ladder=10 \\
        --pairs projection-bound=5 --claim algebra-ladder/wall_s \\
        --trace-seconds 30 --out BENCH_pr24.json

The JSON written holds every run's end-to-end metrics, round count and case
medians; per workload and metric of ``BENCHMARK.json`` the medians and
(inclusive) quartiles of each side, the pairs won by the change, the relative
change of the median and whether it is within the metric's bound; and, per
workload, the least-squares line of ``peak_rss_mb`` on rounds over the runs
of both sides, as ``perfbench/run.py`` keeps every yes report and so grows
with the rounds a run completes.  A claimed gain is met when the change wins
at least nine in ten pairs and its median is better than the parent's by more
than the parent's interquartile distance.  Every end-to-end metric outside
its bound, and a claimed gain not met, is printed to standard error, and the
script then exits 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def run_bench(
    tree: Path, workload: str, seed: int, seconds: float, threads: int, trace: int
) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its info and result lines."""
    cmd = [
        sys.executable, "perfbench/run.py", "--blas-threads", str(threads), "--workload",
        workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.exit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: {proc.stderr.strip()}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"info": info, "result": result}


def run_record(seed: int, out: dict) -> dict:
    """The per-run entry of the summary: seed, counts, metrics, rounds, case medians."""
    info, result = out["info"], out["result"]
    record = {
        "seed": seed,
        "attempted": result["attempted"],
        "correct": result["correct"],
        "failed": result["failed"],
    }
    record.update({name: m["value"] for name, m in result["metrics"].items()})
    record["rounds"] = info["rounds"]
    record["case_median_s"] = info["case_median_s"]
    return record


def quartiles(values: list) -> list:
    """Inclusive quartiles; a single run is its own three quartiles."""
    if len(values) < 2:
        return list(values) * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def rss_fit(records: list) -> dict:
    """Least-squares line peak_rss_mb = intercept + slope * rounds over ``records``."""
    x = [r["rounds"] for r in records]
    y = [r["peak_rss_mb"] for r in records]
    mx, my = statistics.fmean(x), statistics.fmean(y)
    sxx = sum((a - mx) ** 2 for a in x)
    slope = sum((a - mx) * (b - my) for a, b in zip(x, y)) / sxx if sxx else 0.0
    intercept = my - slope * mx
    residual = max(abs(b - intercept - slope * a) for a, b in zip(x, y))
    return {
        "intercept_mb": intercept,
        "per_round_kib": slope * 1024.0,
        "max_residual_mb": residual,
        "runs": len(records),
    }


def summarise(runs: dict, end_to_end: list, claim: tuple | None) -> dict:
    """Summary, fits and claimed gain of ``runs`` (workload -> side -> records,
    records of one pair at the same index) under the ``end_to_end`` metric spec
    of ``BENCHMARK.json``."""
    summary, fits = {}, {}
    for workload, sides in runs.items():
        summary[workload] = {}
        for spec in end_to_end:
            name, lower = spec["name"], spec["better"] == "lower"
            parent, change = ([r[name] for r in sides[s]] for s in SIDES)
            won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
            pm, cm = statistics.median(parent), statistics.median(change)
            rel = (cm - pm) / pm
            summary[workload][name] = {
                "parent": parent,
                "change": change,
                "parent_median": pm,
                "parent_quartiles": quartiles(parent),
                "change_median": cm,
                "change_quartiles": quartiles(change),
                "pairs_won_by_change": won,
                "relative_change_of_median": rel,
                "bound": spec["bound"],
                "within_bound": (rel if lower else -rel) <= spec["bound"],
            }
        fits[workload] = rss_fit(sides["parent"] + sides["change"])
    out = {"summary": summary, "peak_rss_fit": fits}
    if claim:
        workload, metric = claim
        spec = next(s for s in end_to_end if s["name"] == metric)
        s = summary[workload][metric]
        lower = spec["better"] == "lower"
        q1, _, q3 = s["parent_quartiles"]
        diff = (s["parent_median"] - s["change_median"]) * (1 if lower else -1)
        pairs = len(s["parent"])
        out["claimed_gain"] = {
            "workload": workload,
            "metric": metric,
            "better": spec["better"],
            "pairs": pairs,
            "pairs_won_by_change": s["pairs_won_by_change"],
            "parent_median": s["parent_median"],
            "change_median": s["change_median"],
            "median_difference": diff,
            "parent_interquartile_distance": q3 - q1,
            "met": 10 * s["pairs_won_by_change"] >= 9 * pairs and diff > q3 - q1,
        }
    return out


def shortfalls(result: dict) -> list:
    """One line for each end-to-end metric of ``result`` (the summary of
    ``summarise``) outside its bound, and one for a claimed gain not met."""
    out = [
        f"{workload}/{name}: median {s['parent_median']:.6g} -> {s['change_median']:.6g} "
        f"({s['relative_change_of_median']:+.1%}) is outside its bound {s['bound']:g}"
        for workload, metrics in result["summary"].items()
        for name, s in metrics.items()
        if not s["within_bound"]
    ]
    gain = result.get("claimed_gain")
    if gain and not gain["met"]:
        out.append(
            f"claim {gain['workload']}/{gain['metric']} not met: {gain['pairs_won_by_change']} "
            f"of {gain['pairs']} pairs won, median difference {gain['median_difference']:.6g} "
            f"against the parent's interquartile distance "
            f"{gain['parent_interquartile_distance']:.6g}"
        )
    return out


def unpack(commit: str, dest: Path) -> str:
    """Unpack ``commit`` into ``dest`` with ``git archive``; returns its short hash."""
    short = subprocess.run(
        ["git", "rev-parse", "--short", commit],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    dest.mkdir()
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        sys.exit(f"git archive {commit} failed")
    return short


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD", help="the commit to compare with")
    ap.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N")
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--blas-threads", type=int, default=2)
    ap.add_argument("--claim", metavar="WORKLOAD/METRIC", help="the metric a gain is claimed on")
    ap.add_argument("--trace-seconds", type=float, default=0.0, help="0: no traced runs")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    plan = [(w, int(n)) for w, n in (p.split("=") for p in args.pairs)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    claim = tuple(args.claim.split("/")) if args.claim else None

    runs: dict = {w: {s: [] for s in SIDES} for w, _ in plan}
    trace: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp) / "parent"
        commit = unpack(args.parent, parent)
        trees = {"parent": parent, "change": ROOT}
        for workload, pairs in plan:
            for seed in range(1, pairs + 1):
                order = SIDES if seed % 2 else SIDES[::-1]
                for side in order:
                    out = run_bench(trees[side], workload, seed, args.seconds, args.blas_threads, 0)
                    rec = run_record(seed, out)
                    runs[workload][side].append(rec)
                    print(f"{workload} seed {seed} {side}: wall_s {rec['wall_s']:.4f} rounds "
                          f"{rec['rounds']} peak_rss_mb {rec['peak_rss_mb']:.1f}", file=sys.stderr)
        if args.trace_seconds:
            for workload, _ in plan:
                trace[workload] = {
                    side: run_bench(
                        trees[side], workload, 1, args.trace_seconds, args.blas_threads, 1
                    )["result"]["metrics"]
                    for side in SIDES
                }

    records = [r for sides in runs.values() for s in SIDES for r in sides[s]]
    command = f"python3 perfbench/run.py --blas-threads {args.blas_threads} --workload <workload>"
    result = {
        "what": "perfbench end-to-end runs (--trace 0) of the parent commit and of the working "
                "tree in alternating pairs, both sides of a pair at the same workload seed: "
                + ", ".join(f"{n} pairs on {w}" for w, n in plan)
                + ("; one traced run per side and workload" if trace else ""),
        "command": f"{command} --seed <seed> --seconds {args.seconds:g} --trace 0",
        "trace_command": f"{command} --seed 1 --seconds {args.trace_seconds:g} --trace 1"
        if trace else None,
        "parent_commit": commit,
        "host": f"{os.cpu_count()} CPUs, {args.blas_threads} BLAS threads",
        "pair_order": "odd seeds: parent first; even seeds: change first",
        "failed_operations": sum(r["failed"] for r in records),
        "runs_with_failed_checks": sum(not r["correct"] for r in records),
    }
    result.update(summarise(runs, spec["end_to_end"], claim))
    result["runs"] = runs
    result["trace"] = trace
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    gain = result.get("claimed_gain")
    if gain:
        print(json.dumps(gain), file=sys.stderr)
    failed = shortfalls(result)
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
