"""Dump the benchmark's reports, or compare them with an earlier dump.

Runs every case of both benchmark workloads (``perfbench/workloads.py``) at
workload seeds 1-3 through ``reduction_lab.cli.main`` in-process, as the
benchmark's runner does, each at the workloads' analysis seed 42.  With no
argument it prints one sorted JSON object of the reports, keyed
``workload/seed/case``, with ``timing_seconds`` dropped (a case that exits
nonzero is kept as its exit code and error text):

    PYTHONPATH=src python3 scripts/benchmark_reports.py > before.json
    PYTHONPATH=src python3 scripts/benchmark_reports.py before.json

With a dump as its argument it prints the largest relative difference of
``similarity_condition`` and of ``projection_constant_lower_bound`` from
that dump, then every other field that differs.  It exits 1 if another field
differs, or if either number moves by more than ``GATE`` (1e-9) relative:
the reports must not change beyond roundoff.
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from reduction_lab import cli  # noqa: E402

SEEDS = (1, 2, 3)
NUMBERS = ("similarity_condition", "projection_constant_lower_bound")
GATE = 1e-9


def reports() -> dict:
    """Every case's report, keyed workload/seed/case."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(workloads.WORKLOADS):
            for seed in SEEDS:
                workdir = Path(tmp) / f"{name}-{seed}"
                workdir.mkdir()
                for case in workloads.build(name, seed, workdir):
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        code = cli.main(list(case.argv))
                    if code == 0:
                        report = json.loads(stdout.getvalue())
                        report.pop("timing_seconds", None)
                    else:
                        report = {"exit_code": code, "error": stderr.getvalue().strip()}
                    out[f"{name}/{seed}/{case.name}"] = report
    return out


def flatten(value, path: str = "") -> dict:
    """The leaves of nested dicts, keyed by their slash-joined paths."""
    if isinstance(value, dict):
        return {k: v for key in value for k, v in flatten(value[key], f"{path}{key}/").items()}
    return {path.rstrip("/"): value}


def compare(old: dict, new: dict) -> int:
    old, new = flatten(old), flatten(new)
    worst = dict.fromkeys(NUMBERS, 0.0)
    differ = []
    for path in sorted(old.keys() | new.keys()):
        a, b = old.get(path), new.get(path)
        field = path.rsplit("/", 1)[-1]
        if a == b:
            continue
        if field in NUMBERS and isinstance(a, float) and isinstance(b, float):
            worst[field] = max(worst[field], abs(a - b) / max(abs(a), abs(b)))
        else:
            differ.append(path)
    for field in NUMBERS:
        print(f"{field}: largest relative difference {worst[field]:.3g}")
    print(f"other fields that differ: {len(differ)}")
    for path in differ:
        print(f"  {path}")
    return 1 if differ or max(worst.values()) > GATE else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dump", nargs="?", help="an earlier dump to compare with")
    args = ap.parse_args()
    current = reports()
    if args.dump is None:
        print(json.dumps(current, sort_keys=True, indent=1))
        return 0
    return compare(json.loads(Path(args.dump).read_text()), current)


if __name__ == "__main__":
    sys.exit(main())
