import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reduction_lab import algebra
from reduction_lab.algebra import (
    AlgebraBasis,
    SubspaceLattice,
    alg_of_lattice,
    bicommutant,
    center_and_minimal_central_idempotents,
    commutant,
    generate_algebra,
    is_reflexive,
    radical,
    span_equal,
)
from reduction_lab.errors import (
    InvalidWitnessError,
    MalformedInputError,
    StructurePreconditionError,
)
from reduction_lab.gallery import digraph_algebra, truncated_graph_example
from reduction_lab.linalg import Subspace, null_space, operator_norm, sylvester_system
from reduction_lab.modules import (
    has_reduction_property,
    invariant,
    sample_invariant_subspaces,
)
from reduction_lab.sampling import (
    block_algebra_basis,
    random_digraph,
    random_invertible,
    random_semisimple_algebra,
    random_subspace,
)
from reduction_lab.tolerance import DEFAULT_TOL

from conftest import unit


def word_closure_dimension(generators, unital, max_len=4):
    """Oracle: dimension of the span of all words of length <= max_len."""
    n = generators[0].shape[0]
    words = [np.eye(n, dtype=complex)] if unital else []
    current = [np.eye(n, dtype=complex)]
    for _ in range(max_len):
        nxt = []
        for w in current:
            for g in generators:
                nxt.append(w @ g)
        words.extend(nxt)
        current = nxt
    stacked = np.column_stack([w.reshape(-1) for w in words])
    return int(np.linalg.matrix_rank(stacked, tol=1e-9))


def pairwise_generate_algebra(generators, unital=False, tol=DEFAULT_TOL):
    """Reference span closure: one product and one residual test per pair of frame elements."""
    n = generators[0].shape[0]
    mats = ([np.eye(n, dtype=complex)] if unital else []) + list(generators)
    F = Subspace.from_spanning(np.column_stack([m.reshape(-1) for m in mats]), tol=tol).frame
    while True:
        current = [F[:, j].reshape(n, n) for j in range(F.shape[1])]
        new_vecs = []
        for a in current:
            for b in current:
                v = (a @ b).reshape(-1)
                resid = v - F @ (F.conj().T @ v)
                if np.linalg.norm(resid) > tol.rank_eps * max(1.0, np.linalg.norm(v)):
                    new_vecs.append(v)
        if not new_vecs:
            break
        F = Subspace.from_spanning(np.column_stack([F] + new_vecs), tol=tol).frame
        if F.shape[1] >= n * n:
            break
    A = AlgebraBasis(ambient=n, basis=[F[:, j].reshape(n, n) for j in range(F.shape[1])])
    return AlgebraBasis(ambient=n, basis=A.basis, unital=unital or A.contains_identity(tol))


class TestGenerateAlgebra:
    def test_identity_generator(self):
        A = generate_algebra([np.eye(2)], unital=True)
        assert A.dim == 1 and A.unital

    def test_nilpotent_generator(self):
        A = generate_algebra([unit(2, 0, 1)])
        assert A.dim == 1 and not A.unital

    def test_full_matrix_algebra_against_word_oracle(self):
        gens = [unit(2, 0, 1), unit(2, 1, 0)]
        A = generate_algebra(gens)
        assert A.dim == 4
        assert A.dim == word_closure_dimension(gens, unital=False)

    def test_dimension_mismatch(self):
        with pytest.raises(MalformedInputError):
            generate_algebra([np.eye(2), np.eye(3)])

    def test_empty_needs_unital(self):
        with pytest.raises(MalformedInputError):
            generate_algebra([])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_idempotent_regeneration(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 5))
        gens = [gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
                for _ in range(int(gen.integers(1, 3)))]
        A = generate_algebra(gens)
        B = generate_algebra(A.basis)
        assert span_equal(A, B)
        A.validate()

    def test_batched_closure_matches_pairwise_reference(self, rng):
        def gaussian(n):
            return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

        cases = []
        for n in (2, 3, 4):
            cases.append(([gaussian(n)], True))
            cases.append(([gaussian(n), gaussian(n)], False))
            cases.append(([np.triu(gaussian(n), 1)], False))  # nilpotent
            cases.append(([np.triu(gaussian(n), 1), np.diag(rng.standard_normal(n))], False))
        cases.append(([random_semisimple_algebra(rng, max_dim=5)[0].basis[0]], False))
        for gens, unital in cases:
            A = generate_algebra(gens, unital=unital)
            want = pairwise_generate_algebra(gens, unital=unital)
            assert A.dim == want.dim
            assert span_equal(A, want)
            assert A.unital == want.unital
        assert {generate_algebra(g, unital=u).unital for g, u in cases} == {True, False}

    def test_validate_matches_pairwise_span_test(self, rng):
        def pairwise_closed(A):
            return all(A.in_span(bi @ bj) for bi in A.basis for bj in A.basis)

        closed = generate_algebra([rng.standard_normal((3, 3)), np.triu(np.ones((3, 3)), 1)])
        spans = [
            closed,
            AlgebraBasis(ambient=2, basis=[unit(2, 0, 1), unit(2, 1, 0)]),
            AlgebraBasis(ambient=3, basis=[unit(3, 0, 1), unit(3, 1, 2)]),
        ]
        # the upper triangular 2 x 2 algebra, tilted out of itself by eta
        for eta in (1e-12, 1e-6):
            tilted = unit(2, 0, 1) + eta * unit(2, 1, 0)
            spans.append(AlgebraBasis(ambient=2, basis=[unit(2, 0, 0), unit(2, 1, 1), tilted]))
        for A in spans:
            if pairwise_closed(A):
                A.validate()
            else:
                with pytest.raises(MalformedInputError, match="closed"):
                    A.validate()
        assert [pairwise_closed(A) for A in spans] == [True, False, False, True, False]
        with pytest.raises(MalformedInputError, match="dependent"):
            AlgebraBasis(ambient=2, basis=[unit(2, 0, 1), 2 * unit(2, 0, 1)]).validate()


class TestCommutant:
    def test_full_matrix_algebra_gives_scalars(self):
        A = generate_algebra([unit(2, 0, 1), unit(2, 1, 0)])
        C = commutant(A)
        assert C.dim == 1
        assert C.in_span(np.eye(2))

    def test_scalars_give_everything(self):
        A = generate_algebra([np.eye(3)], unital=True)
        assert commutant(A).dim == 9

    def test_diagonal_is_self_commuting(self):
        # hand solve: T commuting with e11 and e22 is diagonal
        A = generate_algebra([np.diag([1.0, 0.0]).astype(complex),
                              np.diag([0.0, 1.0]).astype(complex)])
        C = commutant(A)
        assert C.dim == 2
        assert span_equal(A, C)

    def test_tower_properties(self, rng):
        for _ in range(10):
            A, _, _ = random_semisimple_algebra(rng, max_dim=5, allow_degenerate=True)
            Ac = commutant(A)
            Acc = bicommutant(A)
            # A is contained in its bicommutant
            for b in A.basis:
                assert Acc.in_span(b)
            # triple commutant equals the commutant
            assert span_equal(commutant(Acc), Ac)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_commutant_of_doubled_module_quadruples(self, seed):
        # the commutant of a (x) 1_2 consists of 2x2 blocks over the commutant
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 4))
        gens = [gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
                for _ in range(int(gen.integers(1, 3)))]
        A = generate_algebra(gens)
        doubled = generate_algebra([np.kron(b, np.eye(2)) for b in A.basis])
        assert commutant(doubled).dim == 4 * commutant(A).dim


    def test_chunked_fold_matches_one_system(self, rng, monkeypatch):
        # chunks of one basis element each: every fold goes through the triangular factor
        A, _, _ = random_semisimple_algebra(rng, max_dim=4)
        n = A.ambient
        B = np.reshape(A.basis, (-1, n, n))
        N = null_space(sylvester_system(B, B))
        monkeypatch.setattr(algebra, "_SYLVESTER_CHUNK", n**4)
        C = commutant(A)
        assert A.dim > 1 and C.dim == N.shape[1]
        F = C.frame()
        assert np.allclose(F @ F.conj().T, N @ N.conj().T, atol=1e-10)

    def test_m16_commutant_peak_memory(self):
        # a fresh process, so that the peak is this commutant's and not the test run's
        script = (
            "import resource, numpy as np\n"
            "from reduction_lab.algebra import AlgebraBasis, commutant\n"
            "E = np.eye(256, dtype=complex).reshape(256, 16, 16)\n"
            "C = commutant(AlgebraBasis(ambient=16, basis=list(E), unital=True))\n"
            "print(C.dim, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        src = str(Path(algebra.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "2"}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=600
        )
        assert proc.returncode == 0, proc.stderr
        dim, maxrss_kib = map(int, proc.stdout.split())
        assert dim == 1
        assert maxrss_kib * 1024 < 2**29  # 0.5 GiB; the system built whole peaked at 1.1 GiB


class TestBicommutant:
    def test_full(self):
        A = generate_algebra([unit(2, 0, 1), unit(2, 1, 0)])
        assert span_equal(bicommutant(A), A)

    def test_diagonal(self):
        A = generate_algebra([np.diag([1.0, 0.0]).astype(complex),
                              np.diag([0.0, 1.0]).astype(complex)])
        assert span_equal(bicommutant(A), A)

    def test_unital_nilpotent_span(self):
        # A = span{I, e12}: the commutant is A itself, so A'' = A even though
        # A is not a reduction algebra
        A = AlgebraBasis(ambient=2, basis=[np.eye(2, dtype=complex), unit(2, 0, 1)],
                         unital=True)
        assert span_equal(bicommutant(A), A)


class TestRadical:
    def test_simple_algebra(self):
        A = generate_algebra([unit(3, 0, 1), unit(3, 1, 0), unit(3, 1, 2), unit(3, 2, 1)])
        assert radical(A).dim == 0

    def test_unital_nilpotent_span(self):
        A = AlgebraBasis(ambient=2, basis=[np.eye(2, dtype=complex), unit(2, 0, 1)],
                         unital=True)
        rad = radical(A)
        assert rad.dim == 1
        r = rad.basis[0]
        assert operator_norm(r @ r) < 1e-12
        # the radical element spans the same line as e12
        assert abs(abs(r[0, 1]) - 1.0) < 1e-9

    def test_upper_triangular(self):
        A = generate_algebra([np.diag([1.0, 0.0]).astype(complex),
                              np.diag([0.0, 1.0]).astype(complex), unit(2, 0, 1)])
        rad = radical(A)
        assert A.dim == 3 and rad.dim == 1

    @pytest.mark.parametrize("decay", [0.015, 0.01, 0.005])
    def test_semisimple_basis_with_spread_norms(self, decay):
        # basis norms run from 1 to decay^-3, but the trace form on the
        # orthonormal frame of M_4 has every singular value 2
        A = truncated_graph_example(4, decay)
        assert radical(A).dim == 0
        assert has_reduction_property(A)[0]

    def test_trace_form_kernel_by_hand(self):
        # For span{I, e12} the Gram matrix of the trace form is [[2,0],[0,0]],
        # so the kernel is exactly the line through e12.
        A = AlgebraBasis(ambient=2, basis=[np.eye(2, dtype=complex), unit(2, 0, 1)],
                         unital=True)
        G = np.array([[np.trace(a @ b) for b in A.basis] for a in A.basis])
        assert np.allclose(G, np.array([[2.0, 0.0], [0.0, 0.0]]))

    def test_quotient_by_radical_is_semisimple(self, rng):
        # realize A/rad through its left regular action on coset coordinates
        # and check that the quotient's own radical vanishes
        from reduction_lab.gallery import digraph_algebra
        from reduction_lab.sampling import random_digraph

        for trial in range(6):
            G = random_digraph(int(rng.integers(2, 5)), rng, density=0.4)
            A = digraph_algebra(G)
            rad = radical(A)
            if rad.dim == 0:
                continue
            stacked = np.column_stack([b.reshape(-1) for b in A.basis])
            # the returned radical basis is orthonormal in vectorised form
            rad_frame = np.column_stack([r.reshape(-1) for r in rad.basis])
            proj_out = np.eye(A.ambient**2) - rad_frame @ rad_frame.conj().T
            u, s, _ = np.linalg.svd(proj_out @ stacked, full_matrices=False)
            quot_frame = u[:, : A.dim - rad.dim]
            assert s[A.dim - rad.dim - 1] > 1e-10
            actions = []
            for b in A.basis:
                cols = []
                for j in range(quot_frame.shape[1]):
                    x = quot_frame[:, j].reshape(A.ambient, A.ambient)
                    bx = (b @ x).reshape(-1)
                    cols.append(quot_frame.conj().T @ (proj_out @ bx))
                actions.append(np.column_stack(cols))
            Q = generate_algebra(actions)
            assert radical(Q).dim == 0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_radical_elements_are_nilpotent(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 5))
        gens = [gen.standard_normal((n, n)) for _ in range(2)]
        # force a nontrivial invariant flag structure by zeroing a column block
        for g in gens:
            g[:, 0] = 0.0
        A = generate_algebra([g.astype(complex) for g in gens])
        rad = radical(A)
        for r in rad.basis:
            power = np.eye(n, dtype=complex)
            for _ in range(n):
                power = power @ r
            assert operator_norm(power) < 1e-8


class TestCenterAndIdempotents:
    def test_full_matrix_algebra(self):
        A = generate_algebra([unit(2, 0, 1), unit(2, 1, 0)])
        Z, idems = center_and_minimal_central_idempotents(A)
        assert Z.dim == 1 and len(idems) == 1
        assert np.allclose(idems[0], np.eye(2))

    def test_diagonal(self):
        A = generate_algebra([np.diag([1.0, 0.0]).astype(complex),
                              np.diag([0.0, 1.0]).astype(complex)])
        Z, idems = center_and_minimal_central_idempotents(A)
        assert Z.dim == 2 and len(idems) == 2
        got = sorted(tuple(np.round(np.diag(p).real).astype(int)) for p in idems)
        assert got == [(0, 1), (1, 0)]

    def test_two_blocks_in_m4(self):
        blocks = []
        for off in (0, 2):
            for s, t in itertools.product(range(2), repeat=2):
                blocks.append(unit(4, off + s, off + t))
        A = generate_algebra(blocks)
        Z, idems = center_and_minimal_central_idempotents(A)
        assert Z.dim == 2 and len(idems) == 2
        traces = sorted(round(np.trace(p).real) for p in idems)
        assert traces == [2, 2]
        for p in idems:
            assert operator_norm(p @ p - p) < 1e-8

    def test_idempotent_family_properties(self, rng):
        for _ in range(8):
            A, _, degenerate = random_semisimple_algebra(rng, max_dim=6)
            if not A.contains_identity():
                continue
            _, idems = center_and_minimal_central_idempotents(A, seed=int(rng.integers(2**31)))
            total = np.zeros((A.ambient, A.ambient), dtype=complex)
            for i, p in enumerate(idems):
                assert operator_norm(p @ p - p) < 1e-7 * max(1.0, operator_norm(p)) ** 2
                for q in idems[i + 1:]:
                    assert operator_norm(p @ q) < 1e-7 * max(1.0, operator_norm(p) * operator_norm(q))
                for b in A.basis:
                    assert operator_norm(p @ b - b @ p) < 1e-7 * max(1.0, operator_norm(b) * operator_norm(p))
                total += p
            assert operator_norm(total - np.eye(A.ambient)) < 1e-7

    def test_idempotents_do_not_depend_on_seed(self, rng):
        # the central idempotents are unique; only the pieces they are read
        # from follow the seed
        for _ in range(20):
            A, blocks, _ = random_semisimple_algebra(rng, max_dim=6)
            Z1, idems1 = center_and_minimal_central_idempotents(A, seed=1)
            Z2, idems2 = center_and_minimal_central_idempotents(A, seed=2)
            assert Z1.dim == Z2.dim == len(idems1) == len(blocks)
            assert span_equal(Z1, Z2)
            for p, q in zip(idems1, idems2):
                assert operator_norm(p - q) <= 1e-10 * max(1.0, operator_norm(p))

    def test_non_semisimple_rejected(self):
        A = AlgebraBasis(ambient=2, basis=[np.eye(2, dtype=complex), unit(2, 0, 1)],
                         unital=True)
        with pytest.raises(StructurePreconditionError):
            center_and_minimal_central_idempotents(A)

    def test_non_unital_rejected(self):
        A = generate_algebra([np.diag([1.0, 0.0]).astype(complex)])
        with pytest.raises(StructurePreconditionError):
            center_and_minimal_central_idempotents(A)


class TestAlgOfLattice:
    def test_trivial_lattice(self):
        L = SubspaceLattice.generate(2, [])
        assert alg_of_lattice(L).dim == 4

    def test_single_line_gives_upper_triangular(self):
        L = SubspaceLattice.generate(2, [Subspace.span_of_basis_vector(2, 0)])
        A = alg_of_lattice(L)
        assert A.dim == 3
        assert A.in_span(unit(2, 0, 1)) and not A.in_span(unit(2, 1, 0))

    def test_boolean_lattice_gives_diagonal(self):
        L = SubspaceLattice.generate(
            2, [Subspace.span_of_basis_vector(2, 0), Subspace.span_of_basis_vector(2, 1)]
        )
        A = alg_of_lattice(L)
        assert A.dim == 2
        assert A.in_span(np.diag([1.0, 0.0])) and A.in_span(np.diag([0.0, 1.0]))

    def test_alg_lat_alg_stability(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 5))
            subs = [Subspace.from_spanning(
                rng.standard_normal((n, int(rng.integers(1, n)))), ambient=n)
                for _ in range(2)]
            L = SubspaceLattice.generate(n, subs)
            A = alg_of_lattice(L)
            # the invariant lattice of alg L contains L, and alg of any larger
            # family inside lat(alg L) reproduces alg L
            assert span_equal(alg_of_lattice(L), A)
            for V in L.members:
                for b in A.basis:
                    resid = (np.eye(n) - V.projector()) @ b @ V.frame
                    assert operator_norm(resid) < 1e-8 * max(1.0, operator_norm(b))


class TestIsReflexive:
    def test_non_reflexive_example(self):
        A = AlgebraBasis(ambient=2, basis=[np.eye(2, dtype=complex), unit(2, 0, 1)],
                         unital=True)
        L = SubspaceLattice.generate(2, [Subspace.span_of_basis_vector(2, 0)])
        assert is_reflexive(A, L) is False

    def test_full_algebra_reflexive(self):
        A = generate_algebra([unit(2, 0, 1), unit(2, 1, 0)])
        L = SubspaceLattice.generate(2, [])
        assert is_reflexive(A, L) is True

    def test_diagonal_reflexive(self):
        A = generate_algebra([np.diag([1.0, 0.0]).astype(complex),
                              np.diag([0.0, 1.0]).astype(complex)])
        L = SubspaceLattice.generate(
            2, [Subspace.span_of_basis_vector(2, 0), Subspace.span_of_basis_vector(2, 1)]
        )
        assert is_reflexive(A, L) is True

    def test_invalid_witness_rejected(self):
        A = generate_algebra([np.diag([1.0, 0.0]).astype(complex), unit(2, 0, 1)])
        bad = SubspaceLattice.generate(
            2, [Subspace.from_spanning(np.array([[1.0], [1.0]]))]
        )
        with pytest.raises(InvalidWitnessError):
            is_reflexive(A, bad)


class TestLattice:
    def test_generate_closes(self):
        L = SubspaceLattice.generate(3, [
            Subspace.span_of_basis_vector(3, 0),
            Subspace.from_spanning(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),
        ])
        L.validate()
        assert any(s.dim == 0 for s in L.members)
        assert any(s.dim == 3 for s in L.members)


def generator_sets(rng):
    """(generators, unital) pairs: two random elements each of semisimple, digraph and
    degenerate non-unital algebras, then sets with one generator scaled by 1e-8 or 1e8."""

    def elements(basis, count=2):
        return [sum(c * b for c, b in zip(rng.standard_normal(len(basis)), basis))
                for _ in range(count)]

    sets = []
    for _ in range(3):
        sets.append((elements(random_semisimple_algebra(rng, max_dim=5)[0].basis), True))
        n = int(rng.integers(3, 6))
        S = random_invertible(n, rng, max_cond=20)
        units = digraph_algebra(random_digraph(n, rng)).basis
        sets.append(([S @ g @ np.linalg.inv(S) for g in elements(units)], True))
        literal = block_algebra_basis([(int(rng.integers(1, 3)), 1), (1, 2)], degenerate_dim=2)
        S = random_invertible(literal.ambient, rng, max_cond=20)
        sets.append(([S @ g @ np.linalg.inv(S) for g in elements(literal.basis)], False))
    for scale in (1e-8, 1e8):
        for gens, unital in sets[:3]:
            sets.append(([scale * gens[0], *gens[1:]], unital))
    return sets


class TestGeneratorsAct:
    def test_closure_matches_degree_doubling_reference(self, rng):
        for gens, unital in generator_sets(rng):
            A = generate_algebra(gens, unital=unital)
            # the algebra does not depend on the generators' scales; the reference's
            # first span cuts relative to the largest, so it gets them normalised
            want = pairwise_generate_algebra(
                [g / np.linalg.norm(g) for g in gens], unital=unital
            )
            assert A.dim == want.dim
            assert span_equal(A, want)
            assert A.unital == want.unital
            A.validate()
            F = A.frame()
            assert np.abs(F.conj().T @ F - np.eye(A.dim)).max() <= 1e-12
            assert len(A.generators) == len(gens)

    def test_commutant_and_invariance_from_generators(self, rng):
        used = 0
        for gens, unital in generator_sets(rng):
            A = generate_algebra(gens, unital=unital)
            plain = AlgebraBasis(ambient=A.ambient, basis=A.basis, unital=A.unital)
            used += 0 < len(A.generators) < A.dim
            C, want = commutant(A), commutant(plain)
            assert C.dim == want.dim and span_equal(C, want)
            subs = sample_invariant_subspaces(A, count=6, seed=1)
            assert all(invariant(V, plain) for V in subs)
            others = [random_subspace(A.ambient, k, rng) for k in range(1, A.ambient)]
            assert [invariant(V, A) for V in others] == [invariant(V, plain) for V in others]
        assert used >= 12

    def test_m8_works_from_two_generators(self, monkeypatch):
        n = 8
        clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
        shift = np.roll(np.eye(n, dtype=complex), 1, axis=0)
        products, rows = [], []
        wrap_products, wrap_rows = algebra._generator_products, algebra.sylvester_system

        def counting_products(G, N):
            products.append(len(G) * N.shape[1])
            return wrap_products(G, N)

        def counting_rows(lefts, rights):
            S = wrap_rows(lefts, rights)
            rows.append(S.shape[0])
            return S

        monkeypatch.setattr(algebra, "_generator_products", counting_products)
        monkeypatch.setattr(algebra, "sylvester_system", counting_rows)
        A = generate_algebra([clock, shift], unital=True)
        assert A.dim == n * n and sum(products) <= 2 * n * n
        assert commutant(A).dim == 1 and sum(rows) <= 2 * n * n

        svd_calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            svd_calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        A.frame()
        assert not svd_calls

    def test_roundoff_generators_are_dropped(self):
        N = np.array([[0, 1], [0, 0]], dtype=complex)
        D = np.diag([1.0, 0.0]).astype(complex)
        cases = [
            ([1e-12 * D], False, 0),
            ([np.eye(2), 1e-13 * N], False, 1),
            ([1e-13 * N], True, 1),
            ([1e-3 * D, 1e-11 * N], False, 2),
        ]
        for gens, unital, dim in cases:
            A = generate_algebra(gens, unital=unital)
            want = pairwise_generate_algebra(gens, unital=unital)
            assert A.dim == want.dim == dim
            assert span_equal(A, want)
            A.validate()
        assert radical(generate_algebra([np.eye(2), 1e-13 * N])).dim == 0

    def test_validate_rejects_generator_outside_span(self):
        A = generate_algebra([np.diag([1.0, 2.0])], unital=True)
        A.validate()
        N = np.array([[0, 1], [0, 0]], dtype=complex)
        for basis in (A.basis, ()):
            stray = AlgebraBasis(ambient=2, basis=basis, generators=(N,))
            with pytest.raises(MalformedInputError, match="generator"):
                stray.validate()
