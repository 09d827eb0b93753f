import dataclasses
import itertools

import numpy as np
import pytest

from reduction_lab import modules
from reduction_lab.algebra import (
    AlgebraBasis,
    center_and_minimal_central_idempotents,
    commutant,
    generate_algebra,
    radical,
    span_equal,
)
from reduction_lab.errors import (
    InvalidWitnessError,
    MalformedDerivationError,
    MalformedInputError,
    NotComplementableError,
    NumericalDegeneracyError,
    StructurePreconditionError,
)
from reduction_lab.gallery import (
    Digraph,
    a_lambda,
    all_reflexive_transitive_digraphs,
    digraph_algebra,
    non_reflexive_example,
    truncated_graph_example,
)
from reduction_lab.linalg import (
    Subspace,
    _opnorms,
    null_space,
    operator_norm,
    solve_consistent,
    sylvester_system,
)
from reduction_lab.modules import (
    Representation,
    _module_projection_family,
    _spectral_norm_minimiser,
    _start_point_duals,
    build_hat_representation,
    has_reduction_property,
    intertwiner_symmetry_check,
    intertwiners,
    invariant,
    irreducible_decomposition,
    min_norm_module_projection,
    module_complement,
    projection_constant_estimate,
    sample_invariant_subspaces,
    solve_inner_derivation,
)
from reduction_lab.sampling import (
    block_algebra_basis,
    random_digraph,
    random_invertible,
    random_semisimple_algebra,
    random_unitary,
)
from reduction_lab.tolerance import DEFAULT_TOL

from conftest import unit


def upper_triangular_2():
    return generate_algebra(
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex), unit(2, 0, 1)]
    )


def diagonal_2():
    return generate_algebra(
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    )


def dense_projection_system(V, A):
    """The module-projection system in all n^2 entries of p, as (M, b) with M vec(p) = b.

    Rows: commutation with the basis, range inside V, and p fixing V pointwise;
    the reference that the commutant-coordinate route is checked against.
    """
    n = A.ambient
    I = np.eye(n)
    B = np.reshape(A.basis, (-1, n, n))
    M = np.vstack([sylvester_system(B, B), np.kron(I - V.projector(), I), np.kron(I, V.frame.T)])
    b = np.concatenate([np.zeros(len(M) - n * V.dim, dtype=complex), V.frame.reshape(-1)])
    return M, b


def amplified_m2():
    """M_2 tensor the identity of multiplicity two, on C^4."""
    gens = [np.kron(unit(2, 0, 1), np.eye(2)), np.kron(unit(2, 1, 0), np.eye(2))]
    return generate_algebra(gens, unital=True)


class TestRepresentation:
    def test_from_images_validates_multiplicativity(self):
        A = generate_algebra([unit(2, 0, 1), unit(2, 1, 0)])
        good = Representation.from_images(A, [np.kron(b, np.eye(2)) for b in A.basis])
        assert good.target_dim == 4
        with pytest.raises(MalformedInputError):
            Representation.from_images(A, [np.eye(2, dtype=complex) for _ in A.basis])

    def test_apply_is_linear_on_span(self, rng):
        A = generate_algebra([unit(2, 0, 1), unit(2, 1, 0)])
        theta = Representation.from_images(A, [np.kron(b, np.eye(2)) for b in A.basis])
        x = A.combine(rng.standard_normal(A.dim))
        assert operator_norm(theta.apply(x) - np.kron(x, np.eye(2))) < 1e-10


class TestInvariant:
    def test_first_line_under_upper_triangular(self):
        assert invariant(Subspace.span_of_basis_vector(2, 0), upper_triangular_2())

    def test_second_line_not_invariant(self):
        assert not invariant(Subspace.span_of_basis_vector(2, 1), upper_triangular_2())

    def test_batched_test_matches_elementwise_loop(self, rng):
        def reference(V, A, tol=DEFAULT_TOL):
            if V.dim == 0:
                return True
            Q = np.eye(A.ambient) - V.projector()
            return all(
                operator_norm(Q @ b @ V.frame) <= tol.eq_eps * max(1.0, operator_norm(b))
                for b in A.basis
            )

        algebras = [random_semisimple_algebra(rng, max_dim=5)[0] for _ in range(4)]
        algebras += [digraph_algebra(random_digraph(4, rng, density=0.5)) for _ in range(4)]
        seen = {True: 0, False: 0}
        for A in algebras:
            for V in sample_invariant_subspaces(A, count=8, seed=int(rng.integers(2**31))):
                assert invariant(V, A)
                assert reference(V, A)
                frames = [V.frame + eps * rng.standard_normal(V.frame.shape) for eps in (1e-12, 1e-3)]
                for F in frames:
                    W = Subspace.from_spanning(F, ambient=A.ambient)
                    assert invariant(W, A) == reference(W, A)
                    seen[reference(W, A)] += 1
        assert seen[True] and seen[False]

    def test_operator_norm_decides_where_frobenius_does_not(self):
        # R = (I - P_V) b F is c I_2 for b = I_4 + c (lower-left I_2): ||R||_F = c sqrt(2)
        # exceeds the Frobenius bound eps max(1, ||b||_F / 2) ~ eps for c > eps / sqrt(2)
        eps = DEFAULT_TOL.eq_eps
        V = Subspace.from_spanning(np.eye(4)[:, :2])
        for c, want in ((0.9 * eps, True), (1.5 * eps, False)):
            b = np.eye(4, dtype=complex)
            b[2:, :2] = c * np.eye(2)
            A = AlgebraBasis(ambient=4, basis=[b])
            R = (np.eye(4) - V.projector()) @ b @ V.frame
            assert np.linalg.norm(R) > eps * max(1.0, np.linalg.norm(b) / 2)
            assert (operator_norm(R) <= eps * max(1.0, operator_norm(b))) == want
            assert invariant(V, A) == want

    def test_non_finite_basis_rejected(self):
        A = AlgebraBasis(ambient=2, basis=[np.diag([np.nan, 1.0]).astype(complex)])
        with pytest.raises(MalformedInputError):
            invariant(Subspace.span_of_basis_vector(2, 0), A)

    def test_anything_under_scalars(self, rng):
        A = generate_algebra([np.eye(3)], unital=True)
        V = Subspace.from_spanning(rng.standard_normal((3, 2)))
        assert invariant(V, A)


class TestAlgebraIdentityElement:
    @staticmethod
    def reference(A, tol=DEFAULT_TOL):
        """One column per basis element i: the products b_i b_j and b_j b_i over j."""
        cols = [
            np.concatenate([np.r_[(bi @ bj).ravel(), (bj @ bi).ravel()] for bj in A.basis])
            for bi in A.basis
        ]
        rhs = np.concatenate([np.concatenate([bj.ravel(), bj.ravel()]) for bj in A.basis])
        coeff = solve_consistent(np.column_stack(cols), rhs, tol)
        return None if coeff is None else A.combine(coeff)

    def test_matches_pairwise_reference(self, rng):
        for _ in range(12):
            A, _, _ = random_semisimple_algebra(rng, max_dim=5, allow_degenerate=True)
            e, want = modules.algebra_identity_element(A), self.reference(A)
            assert e is not None and want is not None
            assert np.allclose(e, want, rtol=0, atol=1e-12)
            assert np.allclose(e @ e, e, atol=1e-9)

    def test_nilpotent_span_has_none(self):
        A = AlgebraBasis(ambient=3, basis=[unit(3, 0, 1), unit(3, 0, 2), unit(3, 1, 2)])
        assert self.reference(A) is None
        assert modules.algebra_identity_element(A) is None


class TestIrreducibleDecomposition:
    def test_full_matrix_algebra(self):
        A = generate_algebra([unit(2, 0, 1), unit(2, 1, 0)])
        dec = irreducible_decomposition(A)
        assert len(dec) == 1
        assert dec[0][0].dim == 2

    def test_diagonal_two_classes(self):
        dec = irreducible_decomposition(diagonal_2())
        assert sorted(s.dim for s, _ in dec) == [1, 1]
        assert len({lab for _, lab in dec}) == 2

    def test_amplified_one_class(self):
        dec = irreducible_decomposition(amplified_m2())
        assert [s.dim for s, _ in dec] == [2, 2]
        assert len({lab for _, lab in dec}) == 1

    def test_non_semisimple_rejected(self):
        with pytest.raises(StructurePreconditionError):
            irreducible_decomposition(upper_triangular_2())

    def test_degenerate_rejected(self):
        A = generate_algebra([np.diag([1.0, 0.0]).astype(complex)])
        with pytest.raises(StructurePreconditionError):
            irreducible_decomposition(A)

    def test_pieces_are_invariant_and_span(self, rng):
        for _ in range(6):
            A, blocks, _ = random_semisimple_algebra(rng, max_dim=6)
            if not A.contains_identity():
                continue
            dec = irreducible_decomposition(A, seed=int(rng.integers(2**31)))
            assert sum(s.dim for s, _ in dec) == A.ambient
            for s, _ in dec:
                assert invariant(s, A)
            # class sizes reproduce the construction profile
            by_label = {}
            for s, lab in dec:
                by_label.setdefault(lab, []).append(s.dim)
            got = tuple(sorted(((dims[0], len(dims)) for dims in by_label.values()), reverse=True))
            assert got == blocks


class TestIntertwiners:
    def test_schur_scalars(self):
        A = generate_algebra([unit(2, 0, 1), unit(2, 1, 0)])
        full = Subspace.full(2)
        assert intertwiners(full, full, A).dim == 1

    def test_triangular_one_way(self):
        A = upper_triangular_2()
        line = Subspace.span_of_basis_vector(2, 0)
        full = Subspace.full(2)
        assert intertwiners(line, full, A).dim > 0
        assert intertwiners(full, line, A).dim == 0

    def test_amplified_isomorphic_copies(self):
        A = amplified_m2()
        dec = irreducible_decomposition(A)
        V, W = dec[0][0], dec[1][0]
        assert intertwiners(V, W, A).dim == 1
        assert intertwiners(W, V, A).dim == 1

    def test_non_invariant_rejected(self):
        A = upper_triangular_2()
        with pytest.raises(InvalidWitnessError):
            intertwiners(Subspace.span_of_basis_vector(2, 1), Subspace.full(2), A)

    def test_zero_algebra_intertwines_everything(self):
        zero = AlgebraBasis(ambient=3, basis=[])
        V = Subspace.from_spanning(np.eye(3)[:, :2])
        W = Subspace.span_of_basis_vector(3, 2)
        assert intertwiners(V, W, zero).dim == V.dim * W.dim

    def test_hom_dimension_independent_of_basis_scale(self):
        # two isomorphic one-dimensional pieces of a ((1, 5),) algebra; the
        # Sylvester system vanishes in exact arithmetic, and its roundoff
        # grows with the basis scale
        A, blocks, _ = random_semisimple_algebra(
            np.random.default_rng(3), max_dim=6, allow_degenerate=True
        )
        assert blocks == ((1, 5),)
        V, W = [p for p, _ in has_reduction_property(A)[1].pieces][:2]
        for s in (1e-6, 1.0, 1e6, 1e8):
            B = AlgebraBasis(ambient=A.ambient, basis=[s * b for b in A.basis], unital=A.unital)
            assert intertwiners(V, W, B).dim == 1

    def test_intertwiner_equation(self, rng):
        A = amplified_m2()
        dec = irreducible_decomposition(A)
        V, W = dec[0][0], dec[1][0]
        tw = intertwiners(V, W, A)
        for T in tw.basis:
            for b in A.basis:
                bV = V.frame.conj().T @ b @ V.frame
                bW = W.frame.conj().T @ b @ W.frame
                assert operator_norm(T @ bV - bW @ T) < 1e-9


class TestModuleComplement:
    def test_diagonal(self):
        W = module_complement(Subspace.span_of_basis_vector(2, 0), diagonal_2())
        assert W is not None and W.equals(Subspace.span_of_basis_vector(2, 1))

    def test_a_lambda_unique_complement(self):
        W = module_complement(Subspace.span_of_basis_vector(2, 0), a_lambda(2.0))
        expected = Subspace.from_spanning(np.array([[2.0], [1.0]]))
        assert W is not None and W.equals(expected)

    def test_unital_nilpotent_has_none(self):
        A = AlgebraBasis(ambient=2, basis=[np.eye(2, dtype=complex), unit(2, 0, 1)], unital=True)
        assert module_complement(Subspace.span_of_basis_vector(2, 0), A) is None

    def test_complement_is_invariant(self, rng):
        for _ in range(6):
            A, _, _ = random_semisimple_algebra(rng, max_dim=5)
            subs = sample_invariant_subspaces(A, count=6, seed=int(rng.integers(2**31)))
            for V in subs:
                W = module_complement(V, A)
                assert W is not None
                assert invariant(W, A)
                assert V.dim + W.dim == A.ambient


class TestHasReductionProperty:
    def test_upper_triangular_witness(self):
        ok, cert = has_reduction_property(upper_triangular_2())
        assert not ok
        assert cert.witness.equals(Subspace.span_of_basis_vector(2, 0))
        assert operator_norm(cert.radical_element) > 0.5
        assert module_complement(cert.witness, upper_triangular_2()) is None

    def test_full_matrix_algebra(self):
        A = generate_algebra(
            [unit(3, 0, 1), unit(3, 1, 0), unit(3, 1, 2), unit(3, 2, 1)]
        )
        ok, cert = has_reduction_property(A)
        assert ok and cert.blocks == ((3, 1),) and cert.degenerate_dim == 0

    def test_unital_algebra_annihilates_nothing(self):
        # C^2 from one generator diag(1, 0), which kills e_2: with I in the
        # algebra e_2 is a piece of its own, without it the annihilated summand
        g = np.diag([1.0, 0.0]).astype(complex)
        for unital, blocks, degenerate in [(True, ((1, 1), (1, 1)), 0), (False, ((1, 1),), 1)]:
            ok, cert = has_reduction_property(generate_algebra([g], unital=unital))
            assert ok and cert.blocks == blocks and cert.degenerate_dim == degenerate

    def test_against_sampled_complement_oracle(self, rng):
        for trial in range(20):
            if trial % 2 == 0:
                A, _, _ = random_semisimple_algebra(rng, max_dim=5, allow_degenerate=True)
            else:
                A = digraph_algebra(random_digraph(int(rng.integers(2, 5)), rng, 0.4))
            verdict, cert = has_reduction_property(A, seed=int(rng.integers(2**31)))
            subs = sample_invariant_subspaces(A, count=10, seed=int(rng.integers(2**31)),
                                              include_full=False)
            oracle = all(module_complement(V, A) is not None for V in subs)
            if not verdict:
                oracle = oracle and module_complement(cert.witness, A) is not None
            assert verdict == oracle

    def test_invariant_under_basis_scale(self, rng):
        algebras = [random_semisimple_algebra(rng, max_dim=5, allow_degenerate=True)[0]
                    for _ in range(12)]
        algebras += [digraph_algebra(G) for G in all_reflexive_transitive_digraphs(3)]
        for A in algebras:
            ok, cert = has_reduction_property(A)
            for s in (1e-6, 1e6):
                scaled = AlgebraBasis(A.ambient, [s * b for b in A.basis], unital=A.unital)
                ok_s, cert_s = has_reduction_property(scaled)
                assert ok_s == ok
                assert cert_s.blocks == cert.blocks
                assert cert_s.degenerate_dim == cert.degenerate_dim

    @staticmethod
    def check_structure(A, cert):
        # the commutant, the kernel of the unit and the piece intertwiners
        # the certificate carries, each against a solve of its own
        n = A.ambient
        comm = cert.commutant
        assert span_equal(comm, commutant(A))
        G = np.reshape(comm.basis, (comm.dim, -1))
        assert operator_norm(G.conj() @ G.T - np.eye(comm.dim)) <= 1e-12
        kernel = Subspace.from_spanning(null_space(cert.unit), ambient=n)
        assert cert.kernel.dim == n - np.linalg.matrix_rank(cert.unit, 1e-8)
        assert cert.kernel.equals(kernel)
        assert len(cert.homs) == len(cert.pieces)
        first = {}
        for (q, lab), T in zip(cert.pieces, cert.homs):
            F0 = first.setdefault(lab, q.frame)
            Y = q.frame @ T
            for b in A.basis:
                defect = operator_norm(b @ Y - Y @ (F0.conj().T @ b @ F0))
                assert defect <= 1e-8 * max(1.0, operator_norm(b) * operator_norm(Y))

    def test_certificate_carries_structure(self, rng):
        with_degenerate = 0
        for _ in range(60):
            A, _, degenerate = random_semisimple_algebra(rng, max_dim=6, allow_degenerate=True)
            with_degenerate += degenerate > 0
            ok, cert = has_reduction_property(A, seed=int(rng.integers(2**31)))
            assert ok and cert.degenerate_dim == degenerate
            self.check_structure(A, cert)
        assert with_degenerate >= 10

    def test_no_verdict_witness_is_invariant(self):
        # a no is reported only after its witness passes the invariance check
        # and its radical element lies in A and is nilpotent: they do on every
        # no-case of the suite, the digraphs, the non-reflexive example and the
        # chains T_n
        algebras = [
            digraph_algebra(G)
            for nodes in (3, 4)
            for G in all_reflexive_transitive_digraphs(nodes)
            if not G.symmetric
        ]
        algebras += [non_reflexive_example()[0], upper_triangular_2()]
        algebras += [
            digraph_algebra(Digraph.from_edges(n, [(i, i + 1) for i in range(n - 1)]))
            for n in range(2, 9)
        ]
        for A in algebras:
            ok, cert = has_reduction_property(A)
            assert not ok
            assert modules._invariance_residual(cert.witness, A) <= DEFAULT_TOL.eq_eps
            margins = modules._radical_element_margins(cert.radical_element, A, DEFAULT_TOL)
            assert max(margins) <= DEFAULT_TOL.eq_eps

    @pytest.mark.parametrize(
        "element, fault",
        [
            (np.diag([1.0, 0.0]), "the radical element is not nilpotent"),
            (unit(2, 0, 1) + unit(2, 1, 0), "the radical element lies outside the algebra"),
        ],
        ids=["idempotent", "outside-the-span"],
    )
    def test_corrupted_radical_element_is_a_breakdown(self, monkeypatch, element, fault):
        # an element whose range is invariant, so the witness check passes,
        # but which is no radical element of the upper-triangular algebra
        def corrupted(A, tol=DEFAULT_TOL):
            return AlgebraBasis(ambient=2, basis=[np.asarray(element, dtype=complex)])

        monkeypatch.setattr(modules, "radical", corrupted)
        with pytest.raises(NumericalDegeneracyError, match=f"stage 'radical': {fault}"):
            has_reduction_property(upper_triangular_2())

    def test_complemented_witness_is_a_breakdown(self, monkeypatch):
        # T_2 (+) C: the radical is span(E12), whose range e1 has no invariant
        # complement.  A radical basis [E12, E22] keeps that element, nilpotent
        # and in A, but its range e1, e2 is invariant and complemented by e3
        A = generate_algebra([unit(3, 0, 0), unit(3, 1, 1), unit(3, 0, 1), unit(3, 2, 2)])

        def complemented(A, tol=DEFAULT_TOL):
            return AlgebraBasis(ambient=3, basis=[unit(3, 0, 1), unit(3, 1, 1)])

        monkeypatch.setattr(modules, "radical", complemented)
        with pytest.raises(
            NumericalDegeneracyError,
            match=r"stage 'radical': the witness admits a module projection \(residual",
        ):
            has_reduction_property(A)

    def test_zero_algebra_certificate(self):
        A = AlgebraBasis(ambient=3, basis=[])
        ok, cert = has_reduction_property(A)
        assert ok and cert.pieces == cert.homs == () and cert.kernel.dim == 3
        assert cert.commutant.dim == 9
        self.check_structure(A, cert)


def count_radicals(monkeypatch):
    """The algebras whose radical ``has_reduction_property`` computes, as a list."""
    calls = []

    def counting(A, tol=DEFAULT_TOL):
        calls.append(A)
        return radical(A, tol)

    monkeypatch.setattr(modules, "radical", counting)
    return calls


class TestBurnsideCertificate:
    # a yes from one draw's count, sum k^2 = dim A, with no trace form; the
    # trace form runs only where the first draw does not certify

    def test_agrees_with_the_trace_form_on_digraphs(self, monkeypatch):
        calls = count_radicals(monkeypatch)
        graphs = [G for n in (2, 3, 4) for G in all_reflexive_transitive_digraphs(n)]
        assert len(graphs) == 388
        for G in graphs:
            A = digraph_algebra(G)
            calls.clear()
            ok, _ = has_reduction_property(A)
            semisimple = radical(A).dim == 0
            assert ok == semisimple
            assert (calls == []) == semisimple

    def test_certifies_random_semisimple_algebras(self, monkeypatch):
        calls = count_radicals(monkeypatch)
        rng = np.random.default_rng(3)
        for _ in range(200):
            A, blocks, degenerate = random_semisimple_algebra(rng, max_dim=6, allow_degenerate=True)
            ok, cert = has_reduction_property(A)
            assert ok and cert.blocks == blocks and cert.degenerate_dim == degenerate
            assert radical(A).dim == 0
        assert calls == []

    def test_indecomposable_piece_is_counted_out(self, monkeypatch):
        # T_2's one piece C^2 has dim End = 1, but 4 > 3 = dim T_2: the trace
        # form decides, and the no carries its radical, witness and commutant
        A = upper_triangular_2()
        C = commutant(A)
        assert C.dim == 1 and A.dim == 3
        labelled = modules._class_labels([Subspace.full(2)], A, DEFAULT_TOL)
        assert [(p.dim, lab) for p, lab, _ in labelled] == [(2, 0)]
        assert next(modules._draws(A, C, 0, DEFAULT_TOL)) is None
        calls = count_radicals(monkeypatch)
        ok, cert = has_reduction_property(A)
        assert not ok and calls == [A]
        assert cert.radical_dim == 1 and cert.witness.dim == 1
        assert span_equal(cert.commutant, C)

    def test_singular_copy_hom_is_counted_out(self, monkeypatch):
        # A = {x (+) y : x = [[a, b], [0, c]], y = [[c, e], [0, a]]} has radical
        # (b, e), yet its two pieces C^2 have dim End = 1, are joined by the
        # rank-one Hom [[0, 1], [0, 0]], and 2^2 = dim A: a singular copy Hom
        # must refuse the draw
        gens = [
            np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex),
            np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex),
            unit(4, 0, 1),
            unit(4, 2, 3),
        ]
        A = generate_algebra(gens, unital=True)
        assert A.dim == 4 and radical(A).dim == 2
        assert not any(modules._draws(A, commutant(A), 0, DEFAULT_TOL))
        calls = count_radicals(monkeypatch)
        ok, cert = has_reduction_property(A)
        assert not ok and calls == [A] and cert.radical_dim == 2
        with pytest.raises(StructurePreconditionError):
            irreducible_decomposition(A)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_graph_truncation_past_the_trace_form(self, monkeypatch, scale):
        # at decay 0.0003 the trace form reads a radical of dimension 6, while
        # the draws certify the yes at every scale of basis and generators.  The
        # copy Hom's condition there, about 8e9, sits at the rank cutoff: where
        # roundoff refuses the first draw, the trace form's no breaks down and a
        # later draw certifies
        A = truncated_graph_example(4, 0.0003)
        assert radical(A).dim == 6
        B = AlgebraBasis(
            A.ambient,
            [scale * b for b in A.basis],
            unital=True,
            generators=[scale * g for g in A.generators],
        )
        calls = count_radicals(monkeypatch)
        ok, cert = has_reduction_property(B, seed=42)
        assert ok and cert.blocks == ((4, 2),) and cert.degenerate_dim == 0
        assert calls in ([], [B])


class TestMinNormProjection:
    def test_diagonal_orthogonal(self):
        p = min_norm_module_projection(Subspace.span_of_basis_vector(2, 0), diagonal_2())
        assert np.allclose(p, np.diag([1.0, 0.0]))
        assert operator_norm(p) == pytest.approx(1.0)

    def test_a_lambda_unique_value(self):
        for lam in (1.0, 3.0):
            A = a_lambda(lam)
            p = min_norm_module_projection(Subspace.span_of_basis_vector(2, 0), A)
            assert np.allclose(p, np.array([[1.0, -lam], [0.0, 0.0]]), atol=1e-9)
            assert operator_norm(p) == pytest.approx(np.sqrt(1 + lam * lam), abs=1e-9)

    def test_graph_subspace_against_grid_search(self, rng):
        A = amplified_m2()
        dec = irreducible_decomposition(A)
        V0, V1 = dec[0][0], dec[1][0]
        T = intertwiners(V0, V1, A).basis[0]
        T = T / operator_norm(T)
        G = Subspace.from_spanning(V0.frame + 1.7 * (V1.frame @ T), ambient=4)
        p = min_norm_module_projection(G, A)
        # independent oracle: dense grid over the one-parameter affine family of
        # the n^2-coordinate system
        M, b = dense_projection_system(G, A)
        N = null_space(M)
        assert N.shape[1] == 1
        p0 = np.linalg.lstsq(M, b, rcond=None)[0].reshape(4, 4)
        D = N[:, 0].reshape(4, 4)
        grid = np.linspace(-4.0, 4.0, 321)
        best = min(
            operator_norm(p0 + (re + 1j * im) * D) for re in grid for im in grid
        )
        assert operator_norm(p) <= best + 1e-4
        # never worse than the orthogonal-complement candidate (norm 1 here)
        assert operator_norm(p) <= 1.0 + 1e-6

    def test_several_directions_known_minimum(self, monkeypatch):
        # ||E00 + sum_j (a_j + c_j) E0j|| = sqrt(1 + sum_j |a_j + c_j|^2): minimum 1 at
        # c = -a; the start point c = 0 is not least, so both problems reach the barrier
        calls = []
        barrier = modules.least_psd_shift

        def counting(F0, F):
            calls.append(len(F0))
            return barrier(F0, F)

        monkeypatch.setattr(modules, "least_psd_shift", counting)
        for a in ([1.0, -2j, 0.5 + 0.5j, -3.0], [0.3, 1j, -1.0, 2 + 1j, 0.7]):
            k = len(a)
            P0 = np.zeros((k + 1, k + 1), dtype=complex)
            P0[0, 0] = 1.0
            P0[0, 1:] = a
            D = np.zeros((k, k + 1, k + 1), dtype=complex)
            D[np.arange(k), 0, np.arange(1, k + 1)] = 1.0
            p = _spectral_norm_minimiser(P0, D)
            assert operator_norm(p) == pytest.approx(1.0, abs=1e-8)
            assert p[0, 0] == 1.0 and not p[1:].any()
        assert calls == [1, 1]

    def test_several_directions_known_minimum_stacked(self):
        # the same two problems as one stack: the 5x5 one bordered by zeros to
        # 6x6 (same norm), its four directions padded with a zero fifth
        P0 = np.zeros((2, 6, 6), dtype=complex)
        D = np.zeros((2, 5, 6, 6), dtype=complex)
        for w, a in enumerate(([1.0, -2j, 0.5 + 0.5j, -3.0], [0.3, 1j, -1.0, 2 + 1j, 0.7])):
            k = len(a)
            P0[w, 0, 0] = 1.0
            P0[w, 0, 1 : k + 1] = a
            D[w, np.arange(k), 0, np.arange(1, k + 1)] = 1.0
        p = _spectral_norm_minimiser(P0, D)
        for w in range(2):
            assert operator_norm(p[w]) == pytest.approx(1.0, abs=1e-8)
            assert p[w, 0, 0] == 1.0 and not p[w, 1:].any()

    def test_stacked_descent_matches_single_runs(self):
        # every witness of an estimate, stacked with zero-padded directions,
        # reaches the norm it reaches when run alone
        A = truncated_graph_example(4, 0.2)
        _, witnesses = projection_constant_estimate(A)
        comm = commutant(A)
        families = [
            _module_projection_family(V, comm, DEFAULT_TOL)
            for V, _ in witnesses
            if 0 < V.dim < A.ambient
        ]
        n, k = A.ambient, max(len(D) for _, D in families) + 2
        P0 = np.array([p0 for p0, _ in families])
        D = np.zeros((len(families), k, n, n), dtype=complex)
        for w, (_, Dw) in enumerate(families):
            D[w, : len(Dw)] = Dw
        stacked = _spectral_norm_minimiser(P0, D)
        assert len(families) >= 4
        for w, (p0, Dw) in enumerate(families):
            alone = operator_norm(_spectral_norm_minimiser(p0, Dw))
            assert operator_norm(stacked[w]) == pytest.approx(alone, rel=1e-12)

    def test_commutant_coordinates_give_least_frobenius_solution(self, rng):
        # p0 and the direction space against the n^2-coordinate system solved densely
        for _ in range(10):
            A, _, _ = random_semisimple_algebra(rng, max_dim=5, allow_degenerate=True)
            comm = commutant(A)
            subs = sample_invariant_subspaces(A, count=4, seed=int(rng.integers(2**31)),
                                              include_full=False)
            for V in subs:
                M, b = dense_projection_system(V, A)
                p0_dense = np.linalg.lstsq(M, b, rcond=None)[0].reshape(A.ambient, A.ambient)
                p0, D = _module_projection_family(V, comm, DEFAULT_TOL)
                assert np.linalg.norm(p0 - p0_dense) <= 1e-9 * max(1.0, np.linalg.norm(p0_dense))
                N = null_space(M)
                Dv = D.reshape(len(D), A.ambient**2).T
                assert Dv.shape == N.shape
                assert np.linalg.norm(Dv @ Dv.conj().T - N @ N.conj().T, 2) <= 1e-9

    def test_bounds_against_feasible_solution(self, rng):
        for _ in range(5):
            A, _, _ = random_semisimple_algebra(rng, max_dim=5)
            subs = sample_invariant_subspaces(A, count=4, seed=int(rng.integers(2**31)),
                                              include_full=False)
            for V in subs:
                p0, _ = _module_projection_family(V, commutant(A), DEFAULT_TOL)
                p = min_norm_module_projection(V, A)
                assert operator_norm(p) <= operator_norm(p0) + 1e-8
                if V.dim > 0:
                    assert operator_norm(p) >= 1.0 - 1e-8
                # verified module projection with range V
                assert operator_norm(p @ p - p) < 1e-6 * max(1.0, operator_norm(p)) ** 2
                for b in A.basis:
                    assert operator_norm(p @ b - b @ p) < 1e-6 * max(1.0, operator_norm(b) * operator_norm(p))
                assert operator_norm(p @ V.frame - V.frame) < 1e-6 * max(1.0, operator_norm(p))

    def test_uncomplementable_rejected(self):
        A = AlgebraBasis(ambient=2, basis=[np.eye(2, dtype=complex), unit(2, 0, 1)], unital=True)
        with pytest.raises(NotComplementableError):
            min_norm_module_projection(Subspace.span_of_basis_vector(2, 0), A)

    @pytest.mark.parametrize(
        "make", [lambda: truncated_graph_example(4, 0.5)], ids=["truncated_graph_example(4, 0.5)"]
    )
    def test_drifted_minimiser_is_caught(self, monkeypatch, make):
        # every split candidate is re-verified after the descent, also those
        # with no free direction; the class lattice's atom projections are
        # checked on their own
        def drifted(P0, D):
            return P0 + 1e-3 * np.ones(P0.shape)

        monkeypatch.setattr(modules, "_spectral_norm_minimiser", drifted)
        with pytest.raises(NumericalDegeneracyError):
            projection_constant_estimate(make())

    def test_estimate_makes_no_svd_per_minimiser_step(self, monkeypatch):
        # the minimiser takes no SVD per step; a per-step SVD over 500 steps
        # would put this estimate above 500 calls
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        projection_constant_estimate(truncated_graph_example(4, 0.2), seed=42)
        assert len(calls) < 100

    @pytest.mark.parametrize("decay", [0.5, 0.2, 0.1])
    def test_no_lower_point_around_the_minimum(self, decay):
        # a check independent of the solver: the norm is convex in the
        # coefficients, so no point on small rings around the returned
        # coefficient may be lower than the returned norm
        A = truncated_graph_example(4, decay)
        comm = commutant(A)
        subspaces = [V for V, _ in projection_constant_estimate(A, seed=42)[1]]
        P = [min_norm_module_projection(V, A) for V in subspaces]
        ring = np.exp(2j * np.pi * np.arange(16) / 16)
        checked = 0
        for V, p in zip(subspaces, P):
            p0, D = _module_projection_family(V, comm, DEFAULT_TOL)
            if not len(D):
                continue
            c = np.einsum("kij,ij->k", D.conj(), p - p0)  # D is Frobenius-orthonormal
            assert np.linalg.norm(p - p0 - np.tensordot(c, D, 1)) <= 1e-12 * np.linalg.norm(p)
            f = operator_norm(p)
            assert 1.0 - 1e-12 <= f <= operator_norm(p0) * (1 + 1e-12)
            for r in (1e-2, 1e-4, 1e-6):
                for z in r * max(1.0, float(np.linalg.norm(c))) * ring:
                    for Dj in D:
                        assert operator_norm(p + z * Dj) >= f * (1 - 1e-10)
            checked += 1
        assert checked


def barrier_minimum(P0, D):
    """``_spectral_norm_minimiser`` with no start point certified, so that every
    member with a free direction takes the barrier."""
    def uncertified(P0, D):
        return _opnorms(P0), np.full(len(P0), -np.inf)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modules, "_start_point_duals", uncertified)
        return _spectral_norm_minimiser(P0, D)


def certified(P0, D):
    """Whether each member's start point passes the minimiser's gap test."""
    norm, dual = _start_point_duals(P0, D)
    return norm - dual <= 1e-11 * np.maximum(1.0, norm)


class TestStartPointCertificate:
    def test_weak_duality_on_random_families(self, rng):
        # the dual value bounds every point of the family from below, so it
        # never exceeds the barrier's norm; a certified start point is least to
        # the barrier's own gap, 1e-11 relative
        families, with_multiplicity = [], 0
        while with_multiplicity < 6:
            A, blocks, _ = random_semisimple_algebra(rng, max_dim=6, allow_degenerate=True)
            if all(m == 1 for _, m in blocks):
                continue
            with_multiplicity += 1
            comm = commutant(A)
            subs = sample_invariant_subspaces(A, count=8, seed=int(rng.integers(2**31)),
                                              include_full=False)
            for V in subs:
                family = _module_projection_family(V, comm, DEFAULT_TOL)
                if family is not None and len(family[1]):
                    families.append(family)
        passed = 0
        for p0, D in families:
            norm, dual = _start_point_duals(p0[None], D[None])
            least = operator_norm(barrier_minimum(p0, D))
            assert dual[0] <= least * (1 + 1e-13)
            if certified(p0[None], D[None])[0]:
                assert abs(norm[0] - least) <= 1e-11 * least
                passed += 1
        assert len(families) >= 20 and 0 < passed < len(families)

    def test_graph_truncation_start_points_are_certified(self, monkeypatch):
        # every free member of trunc-k4 is certified at its start point, and
        # the barrier confirms that it is least
        captured = []

        def spy(P0, D):
            captured.append((P0, D))
            return _spectral_norm_minimiser(P0, D)

        monkeypatch.setattr(modules, "_spectral_norm_minimiser", spy)
        for decay in (0.5, 0.2, 0.1):
            projection_constant_estimate(truncated_graph_example(4, decay), seed=42)
        for P0, D in captured:
            free = D.any(axis=(1, 2, 3))
            assert free.sum() == 4 and certified(P0[free], D[free]).all()
            norm = _opnorms(P0[free])
            least = _opnorms(barrier_minimum(P0[free], D[free]))
            assert np.all(np.abs(norm - least) <= 1e-11 * least)
        assert len(captured) == 3

    def test_double_top_value(self):
        # diag(2, 2, 0) along E00 - E11: W = I/2 on the top pair meets the
        # condition, and the dual value is 2, the norm; along E00 + E11 no W
        # has tr W = 1 and tr W = 0, and indeed diag(2 + c, 2 + c, 0) reaches 0
        P0 = np.diag([2.0, 2.0, 0.0]).astype(complex)[None]
        for sign, is_least in ((-1.0, True), (1.0, False)):
            D = np.diag([1.0, sign, 0.0]).astype(complex)[None, None]
            norm, dual = _start_point_duals(P0, D)
            assert norm[0] == pytest.approx(2.0, rel=1e-15)
            assert certified(P0, D)[0] == is_least
            if is_least:
                assert dual[0] == pytest.approx(2.0, rel=1e-14)
                assert np.array_equal(_spectral_norm_minimiser(P0, D), P0)
            else:
                assert operator_norm(_spectral_norm_minimiser(P0, D)[0]) <= 1e-9

    def test_verdict_independent_of_direction_basis(self, rng):
        # the certificate depends on the span of the directions only: a
        # non-orthonormal basis of it, or zero directions padded in anywhere,
        # give the same verdicts and dual values
        A = truncated_graph_example(4, 0.2)
        comm = commutant(A)
        families = [
            _module_projection_family(V, comm, DEFAULT_TOL)
            for V, _ in projection_constant_estimate(A, seed=42)[1]
            if 0 < V.dim < A.ambient
        ]
        A2, _, _ = random_semisimple_algebra(np.random.default_rng(3), max_dim=5)
        comm2 = commutant(A2)
        families += [
            _module_projection_family(V, comm2, DEFAULT_TOL)
            for V in sample_invariant_subspaces(A2, count=8, seed=1, include_full=False)
        ]
        # and the known minimum of test_several_directions_known_minimum, whose
        # start point is not least
        P0 = np.zeros((4, 4), dtype=complex)
        P0[0] = [1.0, 1.0, -2j, 0.5 + 0.5j]
        D = np.zeros((3, 4, 4), dtype=complex)
        D[np.arange(3), 0, np.arange(1, 4)] = 1.0
        families = [(p0, D) for p0, D in families if len(D)] + [(P0, D)]
        verdicts = set()
        for p0, D in families:
            k, n = len(D), len(p0)
            T = random_invertible(k, rng, max_cond=10)
            mixed = np.einsum("jk,kab->jab", T, D)
            padded = np.zeros((k + 2, n, n), dtype=complex)
            padded[1 : k + 1] = D
            want = _start_point_duals(p0[None], D[None])[1]
            for other in (mixed, padded, 3.0 * D):
                assert certified(p0[None], other[None]) == certified(p0[None], D[None])
                got = _start_point_duals(p0[None], other[None])[1]
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            verdicts.add(bool(certified(p0[None], D[None])[0]))
        assert verdicts == {True, False}


class TestProjectionConstantEstimate:
    def test_full_matrix_algebra_is_one(self):
        A = generate_algebra(
            [unit(3, 0, 1), unit(3, 1, 0), unit(3, 1, 2), unit(3, 2, 1)]
        )
        bound, witnesses = projection_constant_estimate(A)
        assert bound == pytest.approx(1.0, abs=1e-9)
        assert witnesses

    def test_a_lambda_value(self):
        bound, _ = projection_constant_estimate(a_lambda(3.0))
        assert bound >= 3.0
        assert bound == pytest.approx(np.sqrt(10.0), abs=1e-9)

    def test_requires_reduction_property(self):
        with pytest.raises(StructurePreconditionError):
            projection_constant_estimate(upper_triangular_2())

    def test_deterministic_given_seed(self):
        A = a_lambda(2.0)
        b1, w1 = projection_constant_estimate(A, seed=5)
        b2, w2 = projection_constant_estimate(A, seed=5)
        assert b1 == b2 and len(w1) == len(w2)

    def test_amplified_level_two(self):
        # the doubled module never reports less; for this family the level-1
        # value already comes from a uniquely complemented line
        A = a_lambda(2.0)
        level1, _ = projection_constant_estimate(A, seed=3)
        level2, _ = projection_constant_estimate(A, seed=3, amplification=2)
        assert level2 >= level1 - 1e-12
        assert level2 == pytest.approx(np.sqrt(5.0), abs=1e-8)

    def test_amplification_level_capped(self):
        with pytest.raises(MalformedInputError):
            projection_constant_estimate(a_lambda(1.0), amplification=3)

    def test_repeated_union_masks_are_skipped(self, monkeypatch):
        # M2 x I2 is one class of multiplicity two: its random masks over the
        # two atoms give an atom again or the whole class, which the class
        # lattice norms, so exactly the two atoms and the four graph
        # candidates of _multiplicity_atoms reach _closed_families, in order;
        # and the draw stops once all three nonzero masks have come, well
        # before its 48 draws
        atoms, families, draws = [], [], []
        multiplicity_atoms, closed_families = modules._multiplicity_atoms, modules._closed_families
        default_rng = np.random.default_rng

        def recording_atoms(*args):
            atoms.append(multiplicity_atoms(*args))
            return atoms[-1]

        def recording_families(Z, Z_inv, layout, starts, candidates):
            families.extend(candidates)
            return closed_families(Z, Z_inv, layout, starts, candidates)

        class CountingGenerator:
            def __init__(self, rng):
                self.rng = rng

            def integers(self, *args, **kwargs):
                draws.append(self.rng.integers(*args, **kwargs))
                return draws[-1]

            def __getattr__(self, name):
                return getattr(self.rng, name)

        monkeypatch.setattr(modules, "_multiplicity_atoms", recording_atoms)
        monkeypatch.setattr(modules, "_closed_families", recording_families)
        monkeypatch.setattr(np.random, "default_rng", lambda *a: CountingGenerator(default_rng(*a)))
        bound, _ = projection_constant_estimate(amplified_m2())
        assert bound == pytest.approx(1.0, abs=1e-9)
        assert len(atoms) == 1 and atoms[0].shape == (2, 6)
        assert len(families) == 6
        for j, V in enumerate(families):
            assert len(V) == 1 and np.array_equal(V[0], atoms[0][:, [j]])
        assert len({tuple(mask) for mask in draws} - {(0, 0)}) == 3
        assert len(draws) < 2 * modules._FAMILY_CANDIDATES

    def test_degenerate_orthogonal_case(self):
        A = generate_algebra([np.diag([1.0, 0.0]).astype(complex)])
        bound, _ = projection_constant_estimate(A)
        assert bound == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_skew_case(self, rng):
        # one skew idempotent: both invariant lines are uniquely complemented,
        # so the estimate is exactly max(||p||, ||1-p||)
        R = random_invertible(2, rng, max_cond=20)
        p = R @ np.diag([1.0, 0.0]).astype(complex) @ np.linalg.inv(R)
        A = generate_algebra([p])
        bound, _ = projection_constant_estimate(A)
        want = max(operator_norm(p), operator_norm(np.eye(2) - p))
        assert bound == pytest.approx(want, abs=1e-8)


def random_multiplicity_algebra(rng):
    """A conjugated block algebra on at most C^8 with two to three classes, two
    or more of them of multiplicity above 1, and its blocks."""
    while True:
        count = rng.integers(2, 4)
        blocks = [(int(rng.integers(1, 3)), int(rng.integers(1, 4))) for _ in range(count)]
        n = sum(k * m for k, m in blocks)
        if n <= 8 and sum(m > 1 for _, m in blocks) >= 2:
            break
    R = random_invertible(n, rng, max_cond=50)
    R_inv = np.linalg.inv(R)
    basis = [R @ b @ R_inv for b in block_algebra_basis(blocks).basis]
    return AlgebraBasis(ambient=n, basis=basis, unital=True), blocks


class TestClosedFamilies:
    @staticmethod
    def check(A, monkeypatch, seed=0):
        """The shapes of A's split candidates and how many got no directions,
        after checking each family that _closed_families builds against
        _module_projection_family on its witness: the same least-Frobenius p0
        to 1e-10 relative and the same span of directions, or no directions
        and a p0 of norm 1."""
        built = []
        closed_families = modules._closed_families

        def recording(*args):
            built.append((args[4], closed_families(*args)))
            return built[-1][1]

        monkeypatch.setattr(modules, "_closed_families", recording)
        monkeypatch.setattr(modules, "_spectral_norm_minimiser", lambda P0, D: P0)
        cert = has_reduction_property(A, seed)[1]
        modules._split_projections(A, cert, seed)
        [(candidates, (P0, D, witnesses))] = built
        assert len(P0) == len(D) == len(witnesses) == len(candidates)
        least = 0
        for p0, Dw, V in zip(P0, D, witnesses):
            want, dirs = _module_projection_family(V, cert.commutant, DEFAULT_TOL)
            assert np.linalg.norm(p0 - want) <= 1e-10 * np.linalg.norm(want)
            live = Dw[Dw.any(axis=(1, 2))].reshape(-1, A.ambient**2).T
            if not live.size:
                assert operator_norm(p0) <= 1 + 1e-12
                least += 1
                continue
            ref = dirs.reshape(len(dirs), -1).T
            assert live.shape == ref.shape
            assert np.linalg.norm(live @ live.conj().T - ref @ ref.conj().T, 2) <= 1e-9
        return {tuple(X.shape[1] for X in V) for V in candidates}, least

    def test_trunc_k4_m2xi2_and_scalars(self, rng, monkeypatch):
        R = random_invertible(4, rng, max_cond=20)
        m2 = amplified_m2()
        conjugated = AlgebraBasis(4, [R @ b @ np.linalg.inv(R) for b in m2.basis], unital=True)
        for A in (truncated_graph_example(4, 0.2), m2, conjugated):
            assert self.check(A, monkeypatch)[0] == {(1,)}
        # C I_3 has only orthogonal module projections: every p0 has norm 1,
        # and no candidate keeps a direction
        scalars = AlgebraBasis(3, [np.eye(3, dtype=complex)], unital=True)
        shapes, least = self.check(scalars, monkeypatch)
        assert shapes == {(1,), (2,)} and least == 3 + 4 + 3

    def test_random_algebras_of_mixed_shapes(self, monkeypatch):
        # candidates of several shapes, their column counts per block, in one
        # estimate: the grouping of the batched builder, which no benchmark
        # case reaches
        rng, shapes = np.random.default_rng(23), set()
        for _ in range(20):
            A, blocks = random_multiplicity_algebra(rng)
            seen = self.check(A, monkeypatch)[0]
            assert len(seen) > 1
            shapes |= {(tuple(blocks), shape) for shape in seen}
        assert len(shapes) > 30


def conjugated_diagonal(n, rng, zeros=0):
    """C^n (+) 0_zeros as R diag(1, ..., n, 0, ...) R^-1, and R."""
    R = random_invertible(n + zeros, rng, max_cond=20)
    D = np.diag(np.r_[np.arange(1.0, n + 1), np.zeros(zeros)]).astype(complex)
    return generate_algebra([R @ D @ np.linalg.inv(R)], unital=not zeros), R


class TestLatticeProjectionConstant:
    @staticmethod
    def estimate(A, seed=0):
        """(bound, witnesses, whether the class lattice alone decided it, over
        all its unions): every multiplicity is one and the 2^(r-1) - 1 proper
        unions holding atom 0 of the r atoms, the classes and the annihilated
        summand if any, number at most the cap."""
        cert = has_reduction_property(A, seed)[1]
        bound, witnesses = modules._projection_constant_estimate(A, cert, seed, DEFAULT_TOL)
        atoms = len(cert.blocks) + bool(cert.degenerate_dim)
        unions = 2 ** (atoms - 1) - 1
        lattice = all(m == 1 for _, m in cert.blocks) and unions <= modules._POINT_UNIONS
        return bound, witnesses, lattice

    @pytest.mark.parametrize("n", range(3, 9))
    def test_conjugated_diagonal_against_every_mask(self, rng, n):
        # the one module projection onto a union of the lines of R C^n R^-1
        # is R diag(mask) R^-1
        A, R = conjugated_diagonal(n, rng)
        R_inv = np.linalg.inv(R)
        want = max(
            operator_norm(R @ np.diag(mask) @ R_inv)
            for mask in itertools.product((0.0, 1.0), repeat=n)
            if 0 < sum(mask) < n
        )
        bound, witnesses, lattice = self.estimate(A)
        assert lattice
        assert bound == pytest.approx(want, rel=1e-12)
        assert witnesses[0][1] == pytest.approx(bound, rel=1e-12)
        assert len(witnesses) in (n, n + 1)

    @pytest.mark.parametrize("n, zeros", [(5, 0), (3, 2)], ids=["C^5", "C^3+0_2"])
    def test_invariant_under_scale_unitary_and_seed(self, rng, n, zeros):
        A, _ = conjugated_diagonal(n, rng, zeros)
        want = self.estimate(A)[0]
        U = random_unitary(n + zeros, rng)
        for s in (1e-6, 1.0, 1e6):
            moved = AlgebraBasis(
                A.ambient, [s * U @ b @ U.conj().T for b in A.basis], unital=A.unital
            )
            for seed in range(4):
                assert self.estimate(moved, seed)[0] == pytest.approx(want, rel=1e-12)

    def test_against_least_norms_of_every_union(self, rng):
        # an independent oracle: the least-norm solve on every union of the
        # atoms, each of which has exactly one module projection
        tested = 0
        while tested < 12:
            A, blocks, degenerate = random_semisimple_algebra(rng, max_dim=5, allow_degenerate=True)
            cert = has_reduction_property(A)[1]
            atoms = [p for p, _ in cert.pieces] + ([cert.kernel] if degenerate else [])
            if any(m > 1 for _, m in blocks) or len(atoms) < 2:
                continue
            unions = [
                Subspace.from_spanning(np.hstack([atoms[k].frame for k in members]))
                for size in range(1, len(atoms))
                for members in itertools.combinations(range(len(atoms)), size)
            ]
            P = np.array([min_norm_module_projection(U, A) for U in unions])
            bound, _, lattice = self.estimate(A)
            assert lattice
            assert bound == pytest.approx(max(1.0, *_opnorms(P)), rel=1e-9)
            tested += 1

    def test_norms_in_chunks_match_one_batch(self, monkeypatch, rng):
        # a large lattice takes its union norms in chunks of bounded memory
        A, _ = conjugated_diagonal(6, rng)
        whole = self.estimate(A)
        monkeypatch.setattr(modules, "_NORM_BATCH", 3 * 6**2)
        assert self.estimate(A)[0] == whole[0]

    def test_unions_past_the_cap_give_one_lower_bound(self, monkeypatch, rng):
        # past the cap the most balanced unions are normed, the same ones
        # whatever the seed, so the bound does not move with it
        A, _ = conjugated_diagonal(5, rng)
        exact, _, lattice = self.estimate(A)
        monkeypatch.setattr(modules, "_POINT_UNIONS", 3)
        capped = [self.estimate(A, seed) for seed in range(4)]
        assert lattice and not any(c[2] for c in capped)
        assert all(c[0] == pytest.approx(capped[0][0], rel=1e-12) for c in capped)
        assert capped[0][0] <= exact * (1 + 1e-12)
        assert all(len(c[1]) in (5, 6) for c in capped)

    @pytest.mark.parametrize("seed", [42, 1, 2])
    def test_thirteen_sheared_summands_read_the_exact_maximum(self, seed):
        # C^13 under the shear of scripts/mn_walls.py --central, one atom past
        # where every union fits under the cap: the most balanced 2047 hold the
        # maximum over all 4095 proper unions that hold atom 0
        n = 13
        shear = np.eye(n) + 0.5 * np.triu(np.ones((n, n)), 1)
        shear_inv = np.linalg.inv(shear)
        clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
        A = generate_algebra([shear @ clock @ shear_inv], unital=True)
        masks = np.array([(1.0, *m) for m in itertools.product((0.0, 1.0), repeat=n - 1)])[:-1]
        assert len(masks) == 4095
        want = max(_opnorms((shear * M[:, None]) @ shear_inv).max() for M in np.split(masks, 5))
        bound, _, lattice = self.estimate(A, seed)
        assert not lattice
        assert bound == pytest.approx(want, rel=1e-12)

    def test_unions_of_classes_with_multiplicity(self, rng):
        # an independent route to every union of whole classes: the minimal
        # central idempotents p_c of the centre, at another seed; the bound
        # of a certificate with a multiplicity above one is at least each
        # ||sum over U of p_c||
        tested = 0
        while tested < 8:
            A, blocks, _ = random_semisimple_algebra(rng, max_dim=7)
            if len(blocks) < 2 or all(m == 1 for _, m in blocks):
                continue
            _, idems = center_and_minimal_central_idempotents(A, seed=1)
            bound, _, lattice = self.estimate(A, seed=0)
            assert not lattice and len(idems) == len(blocks)
            for size in range(1, len(idems) + 1):
                for U in itertools.combinations(idems, size):
                    assert bound >= operator_norm(sum(U)) * (1 - 1e-9)
            tested += 1

    @pytest.mark.parametrize(
        "make, count",
        [(lambda: a_lambda(2.0), 2), (lambda: truncated_graph_example(4, 0.2), 7)],
        ids=["a_lambda", "trunc-k4-0.2"],
    )
    def test_one_gate_frobenius_first(self, monkeypatch, make, count):
        # one gate per estimate, over the atom projections and the split
        # candidates' results together; on valid projections the Frobenius
        # bound passes every one of them, with no operator norm taken
        A = make()
        cert = has_reduction_property(A, 42)[1]
        gate, opnorms, stacks = modules._check_module_projections, modules._opnorms, []

        def counted(P, *args):
            stacks.append(len(P))
            calls = []
            monkeypatch.setattr(modules, "_opnorms", lambda X: calls.append(1) or opnorms(X))
            gate(P, *args)
            monkeypatch.setattr(modules, "_opnorms", opnorms)
            assert not calls

        monkeypatch.setattr(modules, "_check_module_projections", counted)
        modules._projection_constant_estimate(A, cert, 42, DEFAULT_TOL)
        assert stacks == [count]

    @pytest.mark.parametrize("corrupt", ["skewed-piece", "repeated-piece", "inverse-row"])
    def test_corrupted_atom_projection_is_caught(self, corrupt):
        # one atom projection off, through the piece basis Z = [p q]: a piece
        # that is not invariant (with Z^-1 its true inverse), a piece given
        # twice, or one row of Z^-1 moved, which breaks idempotency
        A = a_lambda(2.0)
        cert = has_reduction_property(A)[1]
        Z, Z_inv = cert.basis.copy(), cert.basis_inv.copy()
        if corrupt == "skewed-piece":
            Z[:, 0] += 1e-3 * Z[:, 1]
            Z_inv = np.linalg.inv(Z)
        elif corrupt == "repeated-piece":
            Z[:, 1] = Z[:, 0]
        else:
            Z_inv[-1] += 1e-3
        cert = dataclasses.replace(cert, basis=Z, basis_inv=Z_inv)
        with pytest.raises(NumericalDegeneracyError, match="stage 'projection-constant'"):
            modules._projection_constant_estimate(A, cert, 0, DEFAULT_TOL)


class TestIntertwinerSymmetry:
    def test_block_diagonal_true(self):
        A = generate_algebra(
            [unit(3, 0, 1), unit(3, 1, 0), unit(3, 2, 2)], unital=True
        )
        assert intertwiner_symmetry_check(A)

    def test_triangular_negative_control(self):
        assert not intertwiner_symmetry_check(upper_triangular_2())

    def test_random_semisimple(self, rng):
        for _ in range(6):
            A, _, _ = random_semisimple_algebra(rng, max_dim=5)
            assert intertwiner_symmetry_check(A, samples=8, seed=int(rng.integers(2**31)))


def triangular_rep_and_derivation():
    """The 1-dimensional representation [[a,b],[0,a]] -> a with derivation -> b."""
    A = AlgebraBasis(ambient=2, basis=[np.eye(2, dtype=complex), unit(2, 0, 1)], unital=True)
    theta = Representation(source=A, target_dim=1,
                           images=[np.eye(1, dtype=complex), np.zeros((1, 1), dtype=complex)])
    delta = [np.zeros((1, 1), dtype=complex), np.eye(1, dtype=complex)]
    return theta, delta


class TestDerivations:
    def test_zero_derivation(self):
        A = generate_algebra([unit(2, 0, 1), unit(2, 1, 0)])
        theta = Representation.identity_rep(A)
        delta = [np.zeros((2, 2), dtype=complex) for _ in A.basis]
        T = solve_inner_derivation(theta, delta)
        assert T is not None
        for b, d in zip(theta.images, delta):
            assert operator_norm(T @ b - b @ T - d) < 1e-9

    def test_inner_roundtrip(self, rng):
        A, _, _ = random_semisimple_algebra(rng, max_dim=4)
        theta = Representation.identity_rep(A)
        T0 = rng.standard_normal((A.ambient, A.ambient)) + 1j * rng.standard_normal((A.ambient, A.ambient))
        delta = [T0 @ b - b @ T0 for b in A.basis]
        T = solve_inner_derivation(theta, delta)
        assert T is not None
        for im, d in zip(theta.images, delta):
            assert operator_norm(T @ im - im @ T - d) < 1e-8 * max(1.0, operator_norm(d))

    def test_triangular_not_inner(self):
        theta, delta = triangular_rep_and_derivation()
        assert solve_inner_derivation(theta, delta) is None

    def test_zero_algebra_derivation_is_inner(self):
        theta = Representation(source=AlgebraBasis(ambient=2, basis=[]), target_dim=3, images=[])
        T = solve_inner_derivation(theta, [])
        assert T is not None and T.shape == (3, 3)
        assert not T.any()

    def test_bad_derivation_rejected(self):
        A = generate_algebra([unit(2, 0, 1), unit(2, 1, 0)])
        theta = Representation.identity_rep(A)
        delta = [np.eye(2, dtype=complex) for _ in A.basis]
        with pytest.raises(MalformedDerivationError):
            solve_inner_derivation(theta, delta)


class TestHatRepresentation:
    def test_zero_derivation_block_diagonal(self):
        A = generate_algebra([unit(2, 0, 1), unit(2, 1, 0)])
        theta = Representation.identity_rep(A)
        delta = [np.zeros((2, 2), dtype=complex) for _ in A.basis]
        hat = build_hat_representation(theta, delta)
        for im, orig in zip(hat.images, theta.images):
            assert np.allclose(im[:2, :2], orig) and np.allclose(im[2:, 2:], orig)
            assert np.allclose(im[:2, 2:], 0) and np.allclose(im[2:, :2], 0)

    def test_inner_complement_is_a_graph(self, rng):
        A = generate_algebra([unit(2, 0, 1), unit(2, 1, 0)])
        theta = Representation.identity_rep(A)
        T0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        delta = [T0 @ b - b @ T0 for b in A.basis]
        hat = build_hat_representation(theta, delta)
        hat_alg = generate_algebra(hat.images)
        top = Subspace.from_spanning(np.vstack([np.eye(2), np.zeros((2, 2))]), ambient=4)
        W = module_complement(top, hat_alg)
        assert W is not None
        T = solve_inner_derivation(theta, delta)
        graph = Subspace.from_spanning(np.vstack([T, np.eye(2)]), ambient=4)
        # the solver's graph is itself a module complement
        assert invariant(graph, hat_alg)
        assert top.join(graph).dim == 4
        # any complement of the top copy is a graph over the bottom copy
        assert W.dim == 2 and W.meet(top).dim == 0

    def test_non_inner_has_no_complement(self):
        theta, delta = triangular_rep_and_derivation()
        hat = build_hat_representation(theta, delta)
        hat_alg = generate_algebra(hat.images)
        top = Subspace.span_of_basis_vector(2, 0)
        assert module_complement(top, hat_alg) is None

    def test_correspondence_both_directions(self, rng):
        # solver feasibility must match complement existence case by case
        for trial in range(10):
            A, _, _ = random_semisimple_algebra(rng, max_dim=3)
            theta = Representation.identity_rep(A)
            if trial % 2 == 0:
                T0 = rng.standard_normal((A.ambient, A.ambient))
                delta = [T0 @ b - b @ T0 for b in A.basis]
            else:
                delta = [np.zeros((A.ambient, A.ambient), dtype=complex) for _ in A.basis]
            T = solve_inner_derivation(theta, delta)
            hat = build_hat_representation(theta, delta)
            hat_alg = generate_algebra(hat.images)
            m = A.ambient
            top = Subspace.from_spanning(np.vstack([np.eye(m), np.zeros((m, m))]), ambient=2 * m)
            W = module_complement(top, hat_alg)
            assert (T is not None) == (W is not None)


def per_item_family(V, comm, tol=DEFAULT_TOL):
    """A reference module-projection family: one lstsq for the least-norm
    coefficients and one null space."""
    n = V.ambient
    if V.dim in (0, n):
        p0 = np.zeros((n, n), dtype=complex) if V.dim == 0 else np.eye(n, dtype=complex)
        return p0, np.zeros((0, n, n), dtype=complex)
    C = np.reshape(comm.basis, (-1, n, n))
    M = np.vstack(
        [
            ((np.eye(n) - V.projector()) @ C).reshape(len(C), -1).T,
            (C @ V.frame).reshape(len(C), -1).T,
        ]
    )
    rhs = np.concatenate([np.zeros(n * n, dtype=complex), V.frame.reshape(-1)])
    y = solve_consistent(M, rhs, tol)
    if y is None:
        return None
    return np.tensordot(y, C, 1), np.tensordot(null_space(M, tol=tol).T, C, 1)


def repeated_summand_algebra(rng):
    """A conjugated block algebra with two or three blocks of one matrix size, so
    that pieces of one dimension come both isomorphic and not."""
    k = int(rng.integers(1, 3))
    blocks = [(k, int(rng.integers(1, 3))) for _ in range(int(rng.integers(2, 4)))]
    while sum(a * m for a, m in blocks) > 8:
        blocks.pop()
    if len(blocks) == 1:
        blocks.append((k, 1))
    literal = block_algebra_basis(blocks)
    n = literal.ambient
    R = random_invertible(n, rng, max_cond=20)
    R_inv = np.linalg.inv(R)
    return AlgebraBasis(ambient=n, basis=[R @ b @ R_inv for b in literal.basis], unital=True)


class TestBatchedSummandLoops:
    def test_labels_match_pairwise_intertwiners(self, rng):
        for _ in range(20):
            A = repeated_summand_algebra(rng)
            dec = irreducible_decomposition(A, seed=int(rng.integers(2**31)))
            for (p, a), (q, b) in itertools.combinations(dec, 2):
                if p.dim == q.dim:
                    assert (a == b) == (intertwiners(p, q, A).dim > 0)
                else:
                    assert a != b

    @pytest.mark.parametrize(
        "make, labels, systems",
        [
            (
                lambda: generate_algebra([np.diag([1.0, 2.0, 3.0]).astype(complex)], unital=True),
                [0, 1, 2],
                [3, 2, 1],
            ),
            (lambda: block_algebra_basis([(2, 4)]), [0] * 4, [4]),
            (lambda: block_algebra_basis([(1, 5)]), [0] * 5, [5]),
        ],
        ids=["C^3", "M2 x I4", "C x I5"],
    )
    def test_one_commutant_one_call_per_class(self, monkeypatch, make, labels, systems):
        # one commutant of the algebra given, and per class one stacked call:
        # its representative's own system, then one per later unlabelled piece
        # of its dimension, so m copies take m systems
        commutants, rows = [], []
        comm, build = modules.commutant, modules._intertwiner_systems

        def counting_commutant(A, tol=DEFAULT_TOL):
            commutants.append(A)
            return comm(A, tol)

        def counting_systems(A, sources, targets):
            rows.append(len(sources))
            return build(A, sources, targets)

        monkeypatch.setattr(modules, "commutant", counting_commutant)
        monkeypatch.setattr(modules, "_intertwiner_systems", counting_systems)
        A = make()
        dec = irreducible_decomposition(A)
        assert [label for _, label in dec] == labels
        assert commutants == [A]
        assert rows == systems

    def test_merged_draw_is_drawn_again(self, monkeypatch):
        # a draw whose clusters merge gives a reducible piece: the first draw is
        # refused and the second kept; a splitter that always merges gives up
        draws = []
        clusters_of = modules.eig_clusters

        def merging(first_only):
            def clusters(evals, *args):
                draws.append(1)
                got = clusters_of(evals, *args)
                return [sum(got, [])] if len(draws) == 1 or not first_only else got

            return clusters

        A = block_algebra_basis([(2, 1), (1, 2)])
        monkeypatch.setattr(modules, "eig_clusters", merging(first_only=True))
        dec = irreducible_decomposition(A)
        assert len(draws) == 2
        assert [(p.dim, lab) for p, lab in dec] == [(1, 0), (1, 0), (2, 1)]
        monkeypatch.setattr(modules, "eig_clusters", merging(first_only=False))
        with pytest.raises(NumericalDegeneracyError):
            irreducible_decomposition(A)

    def test_isotypic_components_do_not_depend_on_the_seed(self):
        # the pieces of a multiplicity block follow the draw, but each class's
        # sum of pieces is the algebra's isotypic component
        rng, tested = np.random.default_rng(5), 0
        while tested < 20:
            A, blocks, _ = random_semisimple_algebra(rng, max_dim=6)
            if all(m == 1 for _, m in blocks):
                continue
            components = []
            for seed in (1, 2):
                by_label = {}
                for p, lab in irreducible_decomposition(A, seed=seed):
                    by_label.setdefault(lab, []).append(p.frame)
                components.append([Subspace.from_spanning(np.hstack(f)) for f in by_label.values()])
            first, second = components
            assert len(first) == len(second) == len(blocks)
            for U in first:
                assert sum(U.equals(W) for W in second) == 1
            tested += 1

    @pytest.mark.parametrize(
        "make",
        [
            lambda: truncated_graph_example(4, 0.2),
            lambda: a_lambda(2.0),
            lambda: amplified_m2(),
            lambda: generate_algebra([np.diag([1.0, 2.0, 0.0, 0.0]).astype(complex)]),
        ],
        ids=["truncated_graph_example(4, 0.2)", "a_lambda(2.0)", "M2 x I2", "C^2 + 0_2"],
    )
    def test_stacked_families_match_per_item(self, make):
        # the one-SVD family of each subspace against the per-item reference
        # of one lstsq and one null space
        A = make()
        comm = commutant(A)
        subspaces = [V for V, _ in projection_constant_estimate(A, seed=42)[1]]
        subspaces += sample_invariant_subspaces(A, count=8, seed=1)
        n = A.ambient
        for V in subspaces:
            P0, D = _module_projection_family(V, comm, DEFAULT_TOL)
            p0, Dw = per_item_family(V, comm)
            assert len(D) == len(Dw)
            got, want = D.reshape(-1, n * n).T, Dw.reshape(-1, n * n).T
            assert np.linalg.norm(got @ got.conj().T - want @ want.conj().T) <= 1e-12
            # the same affine family p0 + span(D), and the SVD's p0 is its
            # least-Frobenius point; lstsq's p0 may carry a component along a
            # direction it also counts free, when a singular value of the system
            # lies between lstsq's cutoff and the rank tolerance
            scale = max(1.0, np.linalg.norm(p0))
            delta = (P0 - p0).reshape(-1)
            assert np.linalg.norm(delta - got @ (got.conj().T @ delta)) <= 1e-12 * scale
            assert np.linalg.norm(got.conj().T @ P0.reshape(-1)) <= 1e-12 * scale

    def test_stacked_families_reject_like_per_item(self):
        A = AlgebraBasis(ambient=2, basis=[np.eye(2, dtype=complex), unit(2, 0, 1)], unital=True)
        V = Subspace.span_of_basis_vector(2, 0)
        comm = commutant(A)
        assert per_item_family(V, comm) is None
        assert _module_projection_family(V, comm, DEFAULT_TOL) is None
        assert module_complement(V, A) is None
