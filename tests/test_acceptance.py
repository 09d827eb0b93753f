"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.

Criterion 3 is split: the Hermitian clause passes, while the similarity
condition clause asserts a bound of 1 + 2K that no similarity (optimal ones
included, checked by exhaustive convex search during development) attains on
generic commuting families; the group-averaging construction guarantees
(1 + 2K)^2.  That clause is therefore expected to fail and is marked
strict-xfail; see notes in the repository root for the analysis.
"""

import math

import numpy as np
import pytest

from reduction_lab.algebra import (
    AlgebraBasis,
    bicommutant,
    generate_algebra,
    radical,
    span_equal,
)
from reduction_lab.gallery import (
    a_lambda,
    all_reflexive_transitive_digraphs,
    digraph_algebra,
    digraph_cb_bound_check,
    truncated_graph_example,
)
from reduction_lab.linalg import (
    Subspace,
    operator_norm,
    principal_angle,
    projection_onto_along,
)
from reduction_lab.modules import (
    Representation,
    build_hat_representation,
    has_reduction_property,
    intertwiner_symmetry_check,
    intertwiners,
    min_norm_module_projection,
    module_complement,
    projection_constant_estimate,
    sample_invariant_subspaces,
    solve_inner_derivation,
)
from reduction_lab.orthogonalize import (
    dixmier_orthogonalize,
    symmetric_difference_closure,
    wedderburn_similarity,
)
from reduction_lab.sampling import (
    random_commuting_idempotents,
    random_complementary_pair,
    random_digraph,
    random_invertible,
    random_semisimple_algebra,
)

MASTER_SEED = 42


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def adjoint_closure_defect(basis):
    A = AlgebraBasis(ambient=basis[0].shape[0], basis=list(basis), unital=False)
    F = A.frame()
    worst = 0.0
    for b in basis:
        v = b.conj().T.reshape(-1)
        resid = v - F @ (F.conj().T @ v)
        worst = max(worst, float(np.linalg.norm(resid) / max(1.0, np.linalg.norm(v))))
    return worst


def nonsymmetric_digraph(rng, max_nodes=5):
    while True:
        G = random_digraph(int(rng.integers(2, max_nodes)), rng, density=0.35)
        if not G.symmetric:
            return G


def test_criterion_01_reduction_iff_semisimple():
    """200 randomized algebras; verdict always matches radical-zero and the
    construction; 50 cross-checked against a sampled complement search."""
    rng = np.random.default_rng(MASTER_SEED)
    agree = 0
    oracle_agree = 0
    for trial in range(200):
        if trial % 2 == 0:
            A, _, _ = random_semisimple_algebra(rng, max_dim=6, allow_degenerate=True)
            expected = True
        else:
            G = nonsymmetric_digraph(rng)
            base = digraph_algebra(G)
            R = random_invertible(G.nodes, rng, max_cond=40)
            R_inv = np.linalg.inv(R)
            A = AlgebraBasis(
                ambient=G.nodes,
                basis=[R @ b @ R_inv for b in base.basis],
                unital=True,
            )
            expected = False
        verdict, cert = has_reduction_property(A, seed=int(rng.integers(2**31)))
        assert verdict == (radical(A).dim == 0)
        assert verdict == expected, f"trial {trial}: verdict {verdict}, expected {expected}"
        agree += 1
        if trial < 50:
            subs = sample_invariant_subspaces(
                A, count=8, seed=int(rng.integers(2**31)), include_full=False
            )
            oracle = all(module_complement(V, A) is not None for V in subs)
            if not verdict:
                oracle = oracle and module_complement(cert.witness, A) is not None
            assert oracle == verdict, f"trial {trial}: oracle disagrees"
            oracle_agree += 1
    report(f"criterion 01 reduction-iff-semisimple: PASS ({agree}/200 verdicts, "
           f"{oracle_agree}/50 complement-search cross-checks)")


def test_criterion_02_wedderburn_roundtrip():
    """100 conjugated block algebras: exact profile recovery, adjoint-closure
    defect at most 1e-7."""
    rng = np.random.default_rng(MASTER_SEED + 1)
    for trial in range(100):
        A, blocks, degenerate = random_semisimple_algebra(
            rng, max_dim=7, allow_degenerate=True
        )
        prof = wedderburn_similarity(A, seed=int(rng.integers(2**31)))
        assert prof.blocks == blocks, f"trial {trial}: {prof.blocks} != {blocks}"
        assert prof.degenerate_dim == degenerate
        conj = [prof.similarity.conjugate(b) for b in A.basis]
        defect = adjoint_closure_defect(conj)
        assert defect <= 1e-7, f"trial {trial}: defect {defect:.2e}"
    report("criterion 02 wedderburn-roundtrip: PASS (100/100 profiles exact, "
           "defects <= 1e-7)")


def _dixmier_instances():
    rng = np.random.default_rng(MASTER_SEED + 2)
    out = []
    for _ in range(100):
        n = int(rng.integers(2, 11))
        count = int(rng.integers(1, 5))
        out.append(random_commuting_idempotents(rng, n, count))
    return out


def test_criterion_03a_dixmier_hermitian():
    """100 commuting idempotent families: all conjugates Hermitian to 1e-8."""
    for fam in _dixmier_instances():
        rep = dixmier_orthogonalize(fam)
        for p in symmetric_difference_closure(fam):
            c = rep.conjugate(p)
            assert operator_norm(c - c.conj().T) <= 1e-8 * max(1.0, operator_norm(p))
    report("criterion 03a dixmier-hermitian: PASS (100/100 families)")


@pytest.mark.xfail(
    strict=True,
    reason="the 1+2K condition bound is not attainable for generic commuting "
    "idempotent families: exhaustive convex search over all valid similarities "
    "exceeds it on a positive fraction of instances; the averaging construction "
    "guarantees (1+2K)^2, which test_criterion_03c verifies",
)
def test_criterion_03b_dixmier_condition_linear_bound():
    """Condition <= 1 + 2 max||p|| + 1e-8, as stated; expected to fail."""
    failures = 0
    worst = 0.0
    for fam in _dixmier_instances():
        rep = dixmier_orthogonalize(fam)
        K = max(operator_norm(p) for p in symmetric_difference_closure(fam))
        if rep.condition > 1.0 + 2.0 * K + 1e-8:
            failures += 1
            worst = max(worst, rep.condition / (1.0 + 2.0 * K))
    report(f"criterion 03b dixmier-condition (1+2K): FAIL "
           f"({failures}/100 families exceed the bound, worst ratio {worst:.3f}; "
           f"bound unattainable, see decision notes)")
    assert failures == 0


def test_criterion_03c_dixmier_condition_square_bound():
    """The provable envelope: condition <= (1 + 2 max||p||)^2 + 1e-8."""
    for fam in _dixmier_instances():
        rep = dixmier_orthogonalize(fam)
        K = max(operator_norm(p) for p in symmetric_difference_closure(fam))
        assert rep.condition <= (1.0 + 2.0 * K) ** 2 + 1e-8
    report("criterion 03c dixmier-condition ((1+2K)^2): PASS (100/100 families)")


def test_criterion_04_cosecant_law():
    """500 complementary pairs: | ||p|| - cosec(angle) | <= 1e-8."""
    rng = np.random.default_rng(MASTER_SEED + 3)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        V, W = random_complementary_pair(n, rng, min_angle_sin=0.05)
        p = projection_onto_along(V, W)
        want = 1.0 / math.sin(principal_angle(V, W))
        assert abs(operator_norm(p) - want) <= 1e-8
    report("criterion 04 cosecant-law: PASS (500/500 pairs within 1e-8)")


def test_criterion_05_a_lambda_constants():
    """Projection-constant lower bound >= lambda; level-1 value sqrt(1+l^2)."""
    for lam in (1.0, 2.0, 5.0, 10.0):
        A = a_lambda(lam)
        bound, _ = projection_constant_estimate(A, seed=MASTER_SEED)
        assert bound >= lam
        p = min_norm_module_projection(Subspace.span_of_basis_vector(2, 0), A)
        exact = math.sqrt(1.0 + lam * lam)
        assert abs(operator_norm(p) - exact) <= 1e-9
        assert abs(bound - exact) <= 1e-9
    report("criterion 05 a-lambda-constants: PASS (lambda in {1, 2, 5, 10})")


def test_criterion_06_digraph_criterion():
    """Exhaustive reflexive-transitive digraphs on <= 4 nodes: verdict equals
    symmetry; sampled amplified norms stay within M n^2."""
    rng = np.random.default_rng(MASTER_SEED + 4)
    total = 0
    for n in range(1, 5):
        for G in all_reflexive_transitive_digraphs(n):
            A = digraph_algebra(G)
            verdict, _ = has_reduction_property(A)
            assert verdict == G.symmetric
            total += 1
            R = random_invertible(n, rng, max_cond=20)
            R_inv = np.linalg.inv(R)
            theta = Representation(
                source=A, target_dim=n, images=[R @ b @ R_inv for b in A.basis]
            )
            m = min(3, n)
            observed, bound = digraph_cb_bound_check(
                G, theta, m, samples=500, seed=int(rng.integers(2**31))
            )
            assert observed <= bound
    report(f"criterion 06 digraph-criterion: PASS ({total} digraphs, "
           "500 amplified samples each within M n^2)")


def test_criterion_07_derivation_graph_duality():
    """50 inner derivations solved to 1e-8; the triangular derivation is
    infeasible; complement existence always matches solver feasibility."""
    rng = np.random.default_rng(MASTER_SEED + 5)
    for trial in range(50):
        A, _, _ = random_semisimple_algebra(rng, max_dim=4)
        theta = Representation.identity_rep(A)
        T0 = rng.standard_normal((A.ambient, A.ambient)) + 1j * rng.standard_normal(
            (A.ambient, A.ambient)
        )
        delta = [T0 @ b - b @ T0 for b in A.basis]
        T = solve_inner_derivation(theta, delta)
        assert T is not None, f"trial {trial}: inner derivation not solved"
        scale = max(1.0, max(operator_norm(d) for d in delta))
        for im, d in zip(theta.images, delta):
            assert operator_norm(T @ im - im @ T - d) <= 1e-8 * scale
        hat = build_hat_representation(theta, delta)
        hat_alg = generate_algebra(hat.images)
        m = A.ambient
        top = Subspace.from_spanning(
            np.vstack([np.eye(m), np.zeros((m, m))]), ambient=2 * m
        )
        assert module_complement(top, hat_alg) is not None

    tri = AlgebraBasis(
        ambient=2,
        basis=[np.eye(2, dtype=complex), np.array([[0, 1], [0, 0]], dtype=complex)],
        unital=True,
    )
    theta = Representation(
        source=tri,
        target_dim=1,
        images=[np.eye(1, dtype=complex), np.zeros((1, 1), dtype=complex)],
    )
    delta = [np.zeros((1, 1), dtype=complex), np.eye(1, dtype=complex)]
    assert solve_inner_derivation(theta, delta) is None
    hat = build_hat_representation(theta, delta)
    hat_alg = generate_algebra(hat.images)
    assert module_complement(Subspace.span_of_basis_vector(2, 0), hat_alg) is None
    report("criterion 07 derivation-graph-duality: PASS (50 inner + 1 outer, "
           "complements match feasibility)")


def test_criterion_08_intertwiner_symmetry():
    """50 random reduction algebras: nonzero-intertwiner existence symmetric
    on sampled pairs; the triangular control is asymmetric."""
    rng = np.random.default_rng(MASTER_SEED + 6)
    for trial in range(50):
        A, _, _ = random_semisimple_algebra(rng, max_dim=5)
        assert intertwiner_symmetry_check(
            A, samples=8, seed=int(rng.integers(2**31))
        ), f"trial {trial}"
    ut = generate_algebra(
        [
            np.diag([1.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0]).astype(complex),
            np.array([[0, 1], [0, 0]], dtype=complex),
        ]
    )
    line = Subspace.span_of_basis_vector(2, 0)
    full = Subspace.full(2)
    assert intertwiners(line, full, ut).dim > 0
    assert intertwiners(full, line, ut).dim == 0
    assert not intertwiner_symmetry_check(ut)
    report("criterion 08 intertwiner-symmetry: PASS (50/50 symmetric, "
           "triangular control asymmetric)")


def test_criterion_09_bicommutant():
    """100 random unital reduction algebras: span(A'') equals span(A)."""
    rng = np.random.default_rng(MASTER_SEED + 7)
    for trial in range(100):
        A, _, _ = random_semisimple_algebra(rng, max_dim=6)
        assert A.contains_identity()
        assert span_equal(A, bicommutant(A)), f"trial {trial}"
    report("criterion 09 bicommutant: PASS (100/100 spans equal)")


def test_criterion_10_truncated_graph_trend():
    """Projection-constant lower bounds strictly increase as the decay falls."""
    bounds = []
    for decay in (0.5, 0.2, 0.1):
        A = truncated_graph_example(4, decay)
        bound, _ = projection_constant_estimate(A, seed=MASTER_SEED)
        bounds.append(bound)
    assert bounds[0] < bounds[1] < bounds[2]
    report(
        "criterion 10 truncated-graph-trend: PASS (bounds "
        + " < ".join(f"{b:.3f}" for b in bounds)
        + " for decay 0.5, 0.2, 0.1)"
    )
