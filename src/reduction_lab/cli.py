"""Command-line surface: parse algebra specifications, run analyses, emit reports.

Spec files are JSON with complex entries as [re, im] pairs; "dimension" is a
JSON integer and "unital" (default true) a JSON boolean:

    {"dimension": 2,
     "generators": [[[[0,0],[1,0]],[[0,0],[0,0]]]],
     "unital": true,
     "tolerance": {"eq_eps": 1e-8, "rank_eps": 1e-10}}

Exit codes: 0 success, 1 malformed input, 2 structural precondition failure
or numerical breakdown.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import sampling
from .algebra import (
    commutant,
    generate_algebra,
    span_equal,
)
from .errors import (
    MalformedDerivationError,
    MalformedGraphError,
    MalformedInputError,
    ReductionLabError,
)
from .gallery import (
    Digraph,
    a_lambda,
    all_reflexive_transitive_digraphs,
    csl_algebra,
    digraph_algebra,
    non_reflexive_example,
    truncated_graph_example,
)
from .linalg import (
    Subspace,
    matrix_sqrt_positive,
    operator_norm,
    polar_decompose,
    principal_angle,
    projection_onto_along,
)
from .modules import (
    Representation,
    _projection_constant_estimate,
    build_hat_representation,
    has_reduction_property,
    min_norm_module_projection,
    module_complement,
    solve_inner_derivation,
)
from .orthogonalize import (
    _wedderburn_similarity,
    dixmier_orthogonalize,
    symmetric_difference_closure,
    wedderburn_similarity,
)
from .tolerance import DEFAULT_TOL, Tolerance

SEED_ENV_VAR = "REDUCTION_LAB_SEED"


def _complex_to_json(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_to_json(M: np.ndarray) -> list:
    return [[_complex_to_json(z) for z in row] for row in np.asarray(M)]


def _matrix_from_json(data, what: str = "matrix") -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"{what} is not a nested [re, im] array") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise MalformedInputError(f"{what} must be rows x cols x [re, im]")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def load_algebra_spec(path: str) -> tuple[int, list, bool, Tolerance]:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise MalformedInputError(f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"spec file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise MalformedInputError("spec must be a JSON object")
    # type(), not isinstance(): a JSON true loads as a bool, which is an int
    dimension, unital = raw.get("dimension"), raw.get("unital", True)
    if type(dimension) is not int or dimension < 1:
        raise MalformedInputError("spec 'dimension' must be a positive JSON integer")
    if type(unital) is not bool:
        raise MalformedInputError("spec 'unital' must be a JSON boolean")
    generators = []
    for g in raw.get("generators", []):
        M = _matrix_from_json(g, "generator")
        if M.shape != (dimension, dimension):
            raise MalformedInputError("generator shape does not match the dimension")
        if not np.all(np.isfinite(M)):
            raise MalformedInputError("generator has non-finite entries")
        generators.append(M)
    tol_raw = raw.get("tolerance", {})
    if not isinstance(tol_raw, dict):
        raise MalformedInputError("spec 'tolerance' must be a JSON object")
    tol = _tolerance(
        tol_raw.get("rank_eps", DEFAULT_TOL.rank_eps), tol_raw.get("eq_eps", DEFAULT_TOL.eq_eps)
    )
    return dimension, generators, unital, tol


def _tolerance(rank_eps, eq_eps) -> Tolerance:
    """The tolerance policy from raw values, a bad one reported as malformed input."""
    try:
        return Tolerance(rank_eps=float(rank_eps), eq_eps=float(eq_eps))
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad tolerance: {exc}") from exc


def analysis_report(A, seed: int, tol: Tolerance) -> dict:
    """Run the full pipeline on an algebra and collect the report dictionary.

    The commutant is the certificate's.  On a yes A'' = A exactly when no
    summand is annihilated: then I is in A, which is similar to a unital
    *-algebra (double commutant theorem), and else I is in A'' but not in A.
    """
    t0 = time.perf_counter()
    verdict, cert = has_reduction_property(A, seed=seed, tol=tol)
    comm = cert.commutant
    if verdict:
        bicomm_equal = cert.degenerate_dim == 0
    else:
        bicomm_equal = span_equal(A, commutant(comm, tol), tol)
    report = {
        "algebra_dimension": A.dim,
        "ambient_dimension": A.ambient,
        "unital": bool(A.contains_identity(tol)),
        "radical_dimension": cert.radical_dim,
        "commutant_dimension": comm.dim,
        "bicommutant_equals_algebra": bool(bicomm_equal),
        "reduction_property": {"verdict": bool(verdict)},
        "wedderburn_profile": None,
        "projection_constant_lower_bound": None,
        "similarity_condition": None,
    }
    if verdict:
        report["reduction_property"]["certificate"] = {
            "blocks": [list(b) for b in cert.blocks],
            "degenerate_dimension": cert.degenerate_dim,
        }
        profile = _wedderburn_similarity(A, cert)
        bound, _ = _projection_constant_estimate(A, cert, seed, tol)
        report["wedderburn_profile"] = [list(b) for b in profile.blocks]
        report["projection_constant_lower_bound"] = float(bound)
        report["similarity_condition"] = float(profile.similarity.condition)
    else:
        report["reduction_property"]["certificate"] = {
            "radical_element": _matrix_to_json(cert.radical_element),
            "uncomplemented_subspace_frame": _matrix_to_json(cert.witness.frame),
        }
    report["timing_seconds"] = round(time.perf_counter() - t0, 6)
    return report


def emit_report(report: dict, fmt: str, out=None) -> None:
    out = out if out is not None else sys.stdout
    if fmt == "json":
        out.write(json.dumps(report, sort_keys=True, separators=(",", ":")))
        out.write("\n")
        return
    verdict = report["reduction_property"]["verdict"]
    lines = [
        f"algebra dimension:      {report['algebra_dimension']} (ambient {report['ambient_dimension']})",
        f"radical dimension:      {report['radical_dimension']}",
        f"reduction property:     {'yes' if verdict else 'no'}",
        f"commutant dimension:    {report['commutant_dimension']}",
        f"bicommutant == algebra: {report['bicommutant_equals_algebra']}",
    ]
    if verdict:
        lines.append(f"wedderburn profile:     {report['wedderburn_profile']}")
        lines.append(
            f"projection constant:    >= {report['projection_constant_lower_bound']:.6g}"
        )
        lines.append(f"similarity condition:   {report['similarity_condition']:.6g}")
    else:
        lines.append("certificate:            radical element plus uncomplemented subspace")
    lines.append(f"timing:                 {report['timing_seconds']:.3f} s")
    out.write("\n".join(lines) + "\n")


def cmd_analyze(args) -> int:
    dimension, generators, unital, tol = load_algebra_spec(args.path)
    tol = _override_tol(tol, args)
    if not generators and not unital:
        raise MalformedInputError("empty generator list requires the unital flag")
    A = generate_algebra(generators, unital=unital, ambient=dimension, tol=tol)
    report = analysis_report(A, seed=args.seed, tol=tol)
    emit_report(report, args.format)
    return 0


def _parse_edges(text: str) -> list:
    """Edge syntax '1>2,2>3': one-based node pairs."""
    edges = []
    if not text:
        return edges
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ">" not in part:
            raise MalformedInputError(f"bad edge '{part}'; expected 'i>j'")
        a, b = part.split(">", 1)
        try:
            edges.append((int(a) - 1, int(b) - 1))
        except ValueError as exc:
            raise MalformedInputError(f"bad edge '{part}'") from exc
    return edges


def _parse_masks(text: str) -> list:
    masks = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if not set(part) <= {"0", "1"}:
            raise MalformedInputError(f"bad mask '{part}'; expected 0/1 characters")
        masks.append([int(c) for c in part])
    return masks


def build_gallery_algebra(args):
    name = args.name
    if name == "a_lambda":
        return a_lambda(args.lam)
    if name == "digraph":
        edges = _parse_edges(args.edges)
        nodes = args.nodes
        if nodes is None:
            nodes = max((max(i, j) for i, j in edges), default=0) + 1
        G = Digraph.from_edges(nodes, edges)
        return digraph_algebra(G)
    if name == "csl":
        masks = _parse_masks(args.masks)
        if not masks:
            raise MalformedInputError("csl needs --masks, e.g. --masks '110,001'")
        n = len(masks[0])
        if any(len(m) != n for m in masks):
            raise MalformedInputError("all masks must have equal length")
        projections = [np.diag(np.asarray(m, dtype=complex)) for m in masks]
        return csl_algebra(projections)
    if name == "graph_truncation":
        return truncated_graph_example(args.k, args.decay)
    if name == "non_reflexive":
        A, _ = non_reflexive_example()
        return A
    raise MalformedInputError(f"unknown gallery item '{name}'")


def cmd_gallery(args) -> int:
    tol = _override_tol(DEFAULT_TOL, args)
    A = build_gallery_algebra(args)
    report = analysis_report(A, seed=args.seed, tol=tol)
    report["gallery"] = args.name
    emit_report(report, args.format)
    return 0


# --- self test -------------------------------------------------------------


def _prop_cosecant(rng, count, tol):
    good = 0
    for _ in range(count):
        n = int(rng.integers(2, 9))
        V, W = sampling.random_complementary_pair(n, rng, min_angle_sin=0.05)
        p = projection_onto_along(V, W, tol)
        want = 1.0 / np.sin(principal_angle(V, W))
        good += abs(operator_norm(p) - want) <= 1e-8 * max(1.0, want)
    return good, count


def _prop_polar(rng, count, tol):
    good = 0
    for _ in range(count):
        n = int(rng.integers(2, 13))
        M = sampling.random_invertible(n, rng, max_cond=1e3)
        U, S = polar_decompose(M, require_invertible=True, tol=tol)
        ok = operator_norm(U @ U.conj().T - np.eye(n)) <= 1e-9 * n
        ok = ok and operator_norm(U @ S - M) <= 1e-9 * max(1.0, operator_norm(M))
        good += ok
    return good, count


def _prop_sqrt_scaling(rng, count, tol):
    good = 0
    for _ in range(count):
        n = int(rng.integers(2, 9))
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M = X @ X.conj().T
        c = float(rng.uniform(0.1, 10.0))
        lhs = matrix_sqrt_positive(c * M, tol)
        rhs = np.sqrt(c) * matrix_sqrt_positive(M, tol)
        good += operator_norm(lhs - rhs) <= 1e-8 * max(1.0, operator_norm(rhs))
    return good, count


def _prop_rp_agreement(rng, count, tol):
    good = 0
    for trial in range(count):
        if trial % 2 == 0:
            A, _, _ = sampling.random_semisimple_algebra(rng, max_dim=5)
            expected = True
        else:
            G = sampling.random_digraph(int(rng.integers(2, 5)), rng, density=0.4)
            A = digraph_algebra(G)
            expected = G.symmetric
        verdict, cert = has_reduction_property(A, tol=tol)
        ok = verdict == expected
        if not verdict and ok:
            ok = module_complement(cert.witness, A, tol) is None
        good += ok
    return good, count


def _prop_dixmier(rng, count, tol):
    good = 0
    for _ in range(count):
        n = int(rng.integers(2, 9))
        fam = sampling.random_commuting_idempotents(rng, n, int(rng.integers(1, 4)))
        rep = dixmier_orthogonalize(fam, tol)
        closed = symmetric_difference_closure(fam, tol)
        K = max(operator_norm(p) for p in closed)
        ok = all(
            operator_norm(rep.conjugate(p) - rep.conjugate(p).conj().T)
            <= 1e-8 * max(1.0, operator_norm(p))
            for p in closed
        )
        ok = ok and rep.condition <= (1.0 + 2.0 * K) ** 2 + 1e-8
        good += ok
    return good, count


def _prop_wedderburn(rng, count, tol):
    good = 0
    for _ in range(count):
        A, blocks, degenerate = sampling.random_semisimple_algebra(
            rng, max_dim=6, allow_degenerate=True
        )
        prof = wedderburn_similarity(A, seed=int(rng.integers(0, 2**31)), tol=tol)
        good += prof.blocks == blocks and prof.degenerate_dim == degenerate
    return good, count


def _prop_derivations(rng, count, tol):
    good = 0
    for _ in range(count):
        A, _, _ = sampling.random_semisimple_algebra(rng, max_dim=4)
        theta = Representation.identity_rep(A)
        T0 = rng.standard_normal((A.ambient, A.ambient))
        delta = [T0 @ b - b @ T0 for b in A.basis]
        T = solve_inner_derivation(theta, delta, tol)
        ok = T is not None
        if ok:
            hat = build_hat_representation(theta, delta, tol)
            hat_alg = generate_algebra(hat.images, tol=tol)
            top = Subspace.from_spanning(
                np.vstack([np.eye(A.ambient), np.zeros((A.ambient, A.ambient))]),
                ambient=2 * A.ambient,
            )
            ok = module_complement(top, hat_alg, tol) is not None
        good += ok
    return good, count


def _prop_min_projection(rng, count, tol):
    good = 0
    for _ in range(count):
        lam = float(rng.uniform(0.5, 4.0))
        A = a_lambda(lam)
        p = min_norm_module_projection(Subspace.span_of_basis_vector(2, 0), A, tol=tol)
        want = np.sqrt(1.0 + lam * lam)
        good += abs(operator_norm(p) - want) <= 1e-9 * max(1.0, want)
    return good, count


def _prop_digraph(rng, count, tol):
    graphs = all_reflexive_transitive_digraphs(3)
    good = 0
    for G in graphs:
        verdict, _ = has_reduction_property(digraph_algebra(G), tol=tol)
        good += verdict == G.symmetric
    return good, len(graphs)


SELFTEST_PROPERTIES = [
    ("cosecant-law", _prop_cosecant, 60),
    ("polar-reconstruction", _prop_polar, 40),
    ("sqrt-scaling", _prop_sqrt_scaling, 40),
    ("reduction-vs-radical", _prop_rp_agreement, 30),
    ("dixmier-hermitian", _prop_dixmier, 30),
    ("wedderburn-roundtrip", _prop_wedderburn, 12),
    ("derivation-duality", _prop_derivations, 10),
    ("min-projection-value", _prop_min_projection, 8),
    ("digraph-criterion", _prop_digraph, 1),
]


def cmd_selftest(args) -> int:
    tol = _override_tol(DEFAULT_TOL, args)
    rng = np.random.default_rng(args.seed)
    all_ok = True
    for name, fn, count in SELFTEST_PROPERTIES:
        n = max(2, count // 4) if args.quick else count
        good, total = fn(rng, n, tol)
        ok = good == total
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'} {name} ({good}/{total})")
    return 0 if all_ok else 1


# --- argument plumbing -----------------------------------------------------


def _override_tol(tol: Tolerance, args) -> Tolerance:
    return _tolerance(
        args.rank_tol if args.rank_tol is not None else tol.rank_eps,
        args.tol if args.tol is not None else tol.eq_eps,
    )


def _add_common(parser: argparse.ArgumentParser, raw_seed: str) -> None:
    try:
        default_seed = int(raw_seed)
    except ValueError as exc:
        raise MalformedInputError(f"{SEED_ENV_VAR} must be an integer, got {raw_seed!r}") from exc
    parser.add_argument("--tol", type=float, default=None, help="comparison tolerance")
    parser.add_argument("--rank-tol", type=float, default=None, help="rank tolerance")
    parser.add_argument("--seed", type=int, default=default_seed)
    parser.add_argument("--format", choices=["json", "text"], default="json")


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, whose ``--seed`` default is read from ``REDUCTION_LAB_SEED``
    on every call; a parser is built once per value of the variable."""
    return _parser(os.environ.get(SEED_ENV_VAR, "42"))


@functools.lru_cache(maxsize=8)
def _parser(raw_seed: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reduction-lab",
        description="Decide the reduction property for matrix algebras and "
        "construct orthogonalising similarities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyse an algebra spec file")
    p.add_argument("path")
    _add_common(p, raw_seed)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("gallery", help="analyse a named gallery algebra")
    p.add_argument(
        "name",
        choices=["a_lambda", "digraph", "csl", "graph_truncation", "non_reflexive"],
    )
    p.add_argument("--lambda", dest="lam", type=float, default=2.0)
    p.add_argument("--edges", default="", help="digraph edges, e.g. '1>2,2>3'")
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--masks", default="", help="csl projection masks, e.g. '110,001'")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--decay", type=float, default=0.5)
    _add_common(p, raw_seed)
    p.set_defaults(fn=cmd_gallery)

    p = sub.add_parser("selftest", help="run the randomized invariant suite")
    _add_common(p, raw_seed)
    p.add_argument("--quick", action="store_true", help="reduced sample counts")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (MalformedInputError, MalformedGraphError, MalformedDerivationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ReductionLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
