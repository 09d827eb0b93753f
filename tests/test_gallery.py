import numpy as np
import pytest

from reduction_lab.algebra import (
    SubspaceLattice,
    _generating_stack,
    alg_of_lattice,
    bicommutant,
    center_and_minimal_central_idempotents,
    generate_algebra,
    is_reflexive,
    radical,
    span_equal,
)
from reduction_lab.errors import (
    MalformedGraphError,
    MalformedInputError,
    StructurePreconditionError,
)
from reduction_lab.gallery import (
    Digraph,
    a_lambda,
    all_reflexive_transitive_digraphs,
    csl_algebra,
    digraph_algebra,
    digraph_cb_bound_check,
    digraph_rp_check,
    non_reflexive_example,
    truncated_graph_example,
)
from reduction_lab.linalg import Subspace, operator_norm
from reduction_lab.modules import (
    Representation,
    has_reduction_property,
    invariant,
    min_norm_module_projection,
    projection_constant_estimate,
)
from reduction_lab.orthogonalize import wedderburn_similarity
from reduction_lab.sampling import random_invertible

from conftest import unit


class TestDigraph:
    def test_triangular_two_nodes(self):
        G = Digraph.from_edges(2, [(0, 1)])
        A = digraph_algebra(G)
        assert A.dim == 3
        assert A.in_span(unit(2, 0, 1)) and not A.in_span(unit(2, 1, 0))

    def test_complete_graph_gives_full_algebra(self):
        G = Digraph.from_edges(3, [(i, j) for i in range(3) for j in range(3)])
        assert digraph_algebra(G).dim == 9

    def test_loops_only_gives_diagonal(self):
        G = Digraph.from_edges(4, [])
        A = digraph_algebra(G)
        assert A.dim == 4
        for b in A.basis:
            assert operator_norm(b - np.diag(np.diag(b))) < 1e-12

    def test_malformed_graph_rejected(self):
        with pytest.raises(MalformedGraphError):
            Digraph(nodes=2, edges=frozenset({(0, 0), (1, 1), (0, 5)}))
        with pytest.raises(MalformedGraphError):
            Digraph(nodes=2, edges=frozenset({(0, 0)}))  # missing a loop
        with pytest.raises(MalformedGraphError):
            Digraph(nodes=3, edges=frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}))

    def test_rp_check_matches_symmetry(self):
        assert digraph_rp_check(Digraph.from_edges(2, [(0, 1)])) is False
        clique = Digraph.from_edges(3, [(i, j) for i in range(3) for j in range(3)])
        assert digraph_rp_check(clique) is True
        two_blocks = Digraph.from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert digraph_rp_check(two_blocks) is True

    def test_exhaustive_small_graphs(self):
        counts = {1: 1, 2: 4, 3: 29}
        for n, expected in counts.items():
            graphs = all_reflexive_transitive_digraphs(n)
            assert len(graphs) == expected
            for G in graphs:
                verdict, _ = has_reduction_property(digraph_algebra(G))
                assert verdict == G.symmetric


class TestCbBound:
    def test_identity_representation(self):
        G = Digraph.from_edges(3, [(0, 1)])
        A = digraph_algebra(G)
        theta = Representation.identity_rep(A)
        observed, bound = digraph_cb_bound_check(G, theta, 2, samples=100, seed=0)
        assert bound == pytest.approx(9.0)
        assert observed <= 1.0 + 1e-9

    def test_conjugated_representation(self, rng):
        G = Digraph.from_edges(3, [(0, 1), (1, 2)])
        A = digraph_algebra(G)
        R = random_invertible(3, rng, max_cond=30)
        R_inv = np.linalg.inv(R)
        theta = Representation(source=A, target_dim=3, images=[R @ b @ R_inv for b in A.basis])
        observed, bound = digraph_cb_bound_check(G, theta, 3, samples=500, seed=1)
        assert observed <= bound

    def test_diagonal_digraph(self, rng):
        G = Digraph.from_edges(3, [])
        A = digraph_algebra(G)
        R = random_invertible(3, rng, max_cond=30)
        R_inv = np.linalg.inv(R)
        theta = Representation(source=A, target_dim=3, images=[R @ b @ R_inv for b in A.basis])
        observed, bound = digraph_cb_bound_check(G, theta, 2, samples=200, seed=2)
        assert observed <= bound


class TestALambda:
    def test_lambda_zero_is_diagonal(self):
        A = a_lambda(0.0)
        for b in A.basis:
            assert operator_norm(b - np.diag(np.diag(b))) < 1e-12

    def test_commutative_and_semisimple(self):
        A = a_lambda(2.5)
        for x in A.basis:
            for y in A.basis:
                assert operator_norm(x @ y - y @ x) < 1e-12
        assert radical(A).dim == 0

    def test_projection_constant_bound(self):
        bound, _ = projection_constant_estimate(a_lambda(2.0))
        assert bound >= 2.0

    def test_min_norm_exact_value(self):
        p = min_norm_module_projection(Subspace.span_of_basis_vector(2, 0), a_lambda(3.0))
        assert operator_norm(p) == pytest.approx(np.sqrt(10.0), abs=1e-9)

    def test_minimal_idempotent_norms(self):
        lam = 2.0
        A = a_lambda(lam)
        _, idems = center_and_minimal_central_idempotents(A)
        want = np.sqrt(1 + lam * lam)
        norms = sorted(operator_norm(p) for p in idems)
        assert norms == pytest.approx([want, want], abs=1e-9)


class TestCsl:
    def test_single_projection_gives_nest_algebra(self):
        A = csl_algebra([np.diag([1.0, 0.0]).astype(complex)])
        assert A.dim == 3
        verdict, _ = has_reduction_property(A)
        assert verdict is False

    def test_boolean_pair_gives_diagonal(self):
        A = csl_algebra([np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)])
        assert A.dim == 2
        verdict, _ = has_reduction_property(A)
        assert verdict
        for b in A.basis:
            assert A.in_span(b.conj().T)

    def test_empty_projections_give_full_algebra(self):
        A = csl_algebra([], ambient=3)
        assert A.dim == 9

    def test_non_commuting_rejected(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        q = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        with pytest.raises(StructurePreconditionError):
            csl_algebra([p, q])

    def test_skew_idempotent_rejected(self):
        with pytest.raises(StructurePreconditionError):
            csl_algebra([np.array([[1.0, 1.0], [0.0, 0.0]])])

    def test_output_reflexive_for_generating_lattice(self, rng):
        masks = [np.diag([1.0, 0.0, 0.0]).astype(complex),
                 np.diag([1.0, 1.0, 0.0]).astype(complex)]
        A = csl_algebra(masks)
        from reduction_lab.linalg import rank_and_range

        ranges = [rank_and_range(p)[1] for p in masks]
        L = SubspaceLattice.generate(3, ranges)
        assert is_reflexive(A, L)


class TestTruncatedGraph:
    def test_dimension_and_invariant_graphs(self):
        A = truncated_graph_example(2, 0.5)
        assert A.dim == 4
        T = np.diag([0.5, 0.25]).astype(complex)
        for lam in (0.0, 1.0, 10.0):
            cols = np.vstack([np.eye(2), lam * T])
            V = Subspace.from_spanning(cols, ambient=4)
            assert invariant(V, A)

    def test_reduction_property_holds(self):
        for k in (2, 3):
            verdict, cert = has_reduction_property(truncated_graph_example(k, 0.4))
            assert verdict
            assert cert.blocks == ((k, 2),)

    def test_wedderburn_profile(self):
        prof = wedderburn_similarity(truncated_graph_example(3, 0.5), seed=4)
        assert prof.blocks == ((3, 2),)

    @pytest.mark.parametrize(
        "k, decay",
        [(4, d) for d in (0.5, 0.2, 0.1, 0.02, 0.005, 0.002, 0.001)]
        + [(6, d) for d in (0.5, 0.1, 0.05, 0.02, 0.01)],
    )
    def test_shift_generators_regenerate_the_algebra(self, k, decay):
        # the doubled up- and down-shifts, with I, generate A; they are the
        # stack its commutant, invariance and Hom systems are built from
        A = truncated_graph_example(k, decay)
        assert span_equal(generate_algebra(A.generators, unital=True), A)
        assert len(_generating_stack(A)) == 2

    @pytest.mark.parametrize("decay", [0.01, 0.005, 0.002])
    def test_bicommutant_keeps_every_direction(self, decay):
        A = truncated_graph_example(4, decay)
        assert bicommutant(A).dim == 16

    def test_bad_parameters_rejected(self):
        with pytest.raises(MalformedInputError):
            truncated_graph_example(1, 0.5)
        with pytest.raises(StructurePreconditionError):
            truncated_graph_example(3, 1.5)


class TestNonReflexive:
    def test_dimensions(self):
        A, L = non_reflexive_example()
        assert A.dim == 2
        B = alg_of_lattice(L)
        assert B.dim == 3

    def test_strict_containment(self):
        A, L = non_reflexive_example()
        B = alg_of_lattice(L)
        for a in A.basis:
            assert B.in_span(a)
        assert not span_equal(A, B)
        assert is_reflexive(A, L) is False
