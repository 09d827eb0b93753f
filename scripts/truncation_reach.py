"""Reach of the analysis on the graph truncations: how many analysis seeds pass.

For each k and decay, `truncated_graph_example(k, decay)` is analysed as
`reduction-lab gallery graph_truncation` does, once per analysis seed
0..seeds-1 (the seed drives the commutant draw that splits C^n).  A seed
passes when the analysis reports a yes with its similarity and bound; a
breakdown counts against it, and the stages it named are tallied.  This is the
source of README's reach numbers:

    PYTHONPATH=src python3 scripts/truncation_reach.py
    PYTHONPATH=src python3 scripts/truncation_reach.py --k 4 --decays 0.002 0.001 --seeds 5
"""

import argparse
import collections
import re

from reduction_lab.cli import analysis_report
from reduction_lab.errors import NumericalDegeneracyError
from reduction_lab.gallery import truncated_graph_example
from reduction_lab.tolerance import DEFAULT_TOL

DECAYS = {
    4: [0.005, 0.004, 0.003, 0.002, 0.001, 0.0005, 0.0003, 0.0001, 1e-5],
    6: [0.1, 0.05, 0.02, 0.01, 0.008, 0.005, 1e-5],
}


def reach(k: int, decay: float, seeds: int) -> tuple[int, collections.Counter]:
    """(passing seeds, breakdown stages) of k and decay over seeds 0..seeds-1."""
    A = truncated_graph_example(k, decay)
    passed, stages = 0, collections.Counter()
    for seed in range(seeds):
        try:
            report = analysis_report(A, seed, DEFAULT_TOL)
        except NumericalDegeneracyError as exc:
            stage = re.match(r"stage '([\w-]+)'", str(exc))
            stages[stage.group(1) if stage else "other"] += 1
            continue
        passed += report["reduction_property"]["verdict"]
    return passed, stages


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, nargs="*", default=sorted(DECAYS))
    ap.add_argument("--decays", type=float, nargs="*", help="the same decays for every k")
    ap.add_argument("--seeds", type=int, default=20)
    args = ap.parse_args()

    print(f"{'k':>2} {'decay':>8} {'passed':>8}  breakdowns")
    for k in args.k:
        for decay in args.decays or DECAYS.get(k, [0.1]):
            passed, stages = reach(k, decay, args.seeds)
            failed = ", ".join(f"{s} {c}" for s, c in sorted(stages.items())) or "-"
            print(f"{k:>2} {decay:>8g} {passed:>4}/{args.seeds:<3}  {failed}")


if __name__ == "__main__":
    main()
