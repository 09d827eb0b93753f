"""Survey projection-constant lower bounds across the gallery families.

Sweeps the commutative a_lambda family and the graph-truncation family,
reporting the lower bound (exact for a_lambda, whose submodules are finitely
many; (kappa + 1/kappa) / 2 for the truncations, kappa the condition, from
the balanced graph submodule of their multiplicity-two class), the exact
level-1 value where one is known, and the condition of the orthogonalising
similarity.
"""

import argparse
import math
import time

from reduction_lab.gallery import a_lambda, truncated_graph_example
from reduction_lab.modules import projection_constant_estimate
from reduction_lab.orthogonalize import similarity_bound_report, wedderburn_similarity


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--amplification", type=int, default=1, choices=[1, 2])
    ap.add_argument("--lambdas", type=float, nargs="*", default=[0.5, 1, 2, 5, 10])
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--decays", type=float, nargs="*", default=[0.5, 0.3, 0.2, 0.1])
    args = ap.parse_args()

    print(f"# a_lambda family (amplification level {args.amplification})")
    print(f"{'lambda':>8} {'bound':>10} {'sqrt(1+l^2)':>12} {'condition':>10} {'<=128K^2':>9}")
    for lam in args.lambdas:
        A = a_lambda(lam)
        bound, _ = projection_constant_estimate(
            A, seed=args.seed, amplification=args.amplification
        )
        prof = wedderburn_similarity(A, seed=args.seed)
        rep = similarity_bound_report(prof, bound)
        print(
            f"{lam:8.2f} {bound:10.4f} {math.sqrt(1 + lam * lam):12.4f} "
            f"{prof.similarity.condition:10.4f} {str(rep.within_bound):>9}"
        )

    print(f"\n# graph truncation family, k = {args.k}")
    print(f"{'decay':>8} {'bound':>10} {'condition':>10} {'seconds':>8}")
    for decay in args.decays:
        t0 = time.perf_counter()
        A = truncated_graph_example(args.k, decay)
        bound, _ = projection_constant_estimate(
            A, seed=args.seed, amplification=args.amplification
        )
        prof = wedderburn_similarity(A, seed=args.seed)
        print(
            f"{decay:8.2f} {bound:10.4f} {prof.similarity.condition:10.4f} "
            f"{time.perf_counter() - t0:8.2f}"
        )


if __name__ == "__main__":
    main()
