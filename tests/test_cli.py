import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reduction_lab import algebra, modules
from reduction_lab.algebra import AlgebraBasis, bicommutant, commutant, span_equal
from reduction_lab.cli import SEED_ENV_VAR, _matrix_to_json, analysis_report, build_parser, main
from reduction_lab.errors import NumericalDegeneracyError
from reduction_lab.gallery import Digraph, a_lambda, digraph_algebra, truncated_graph_example
from reduction_lab.linalg import operator_norm
from reduction_lab.modules import projection_constant_estimate
from reduction_lab.sampling import block_algebra_basis, random_invertible, random_semisimple_algebra
from reduction_lab.tolerance import DEFAULT_TOL


def write_spec(path, dimension, generators, unital):
    def encode(M):
        return [[[float(np.real(z)), float(np.imag(z))] for z in row] for row in M]

    path.write_text(
        json.dumps(
            {
                "dimension": dimension,
                "generators": [encode(g) for g in generators],
                "unital": unital,
            }
        )
    )


def child_env(**overrides):
    """The caller's environment with overrides applied.

    A subprocess must inherit ``PYTHONPATH`` and the rest, so that it finds
    the package whether or not it is installed.
    """
    return {**os.environ, **overrides}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def m2_spec(tmp_path):
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    e21 = e12.T.copy()
    path = tmp_path / "m2.json"
    write_spec(path, 2, [e12, e21], unital=False)
    return path


@pytest.fixture
def triangular_spec(tmp_path):
    path = tmp_path / "ut.json"
    gens = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.array([[0.0, 1.0], [0.0, 0.0]])]
    write_spec(path, 2, [g.astype(complex) for g in gens], unital=False)
    return path


class TestAnalyze:
    def test_full_matrix_algebra(self, capsys, m2_spec):
        code, out, _ = run(capsys, ["analyze", str(m2_spec)])
        assert code == 0
        report = json.loads(out)
        assert report["radical_dimension"] == 0
        assert report["reduction_property"]["verdict"] is True
        assert report["wedderburn_profile"] == [[2, 1]]
        assert report["projection_constant_lower_bound"] == pytest.approx(1.0)
        assert report["bicommutant_equals_algebra"] is True

    def test_triangular_witness(self, capsys, triangular_spec):
        code, out, _ = run(capsys, ["analyze", str(triangular_spec)])
        assert code == 0
        report = json.loads(out)
        assert report["reduction_property"]["verdict"] is False
        cert = report["reduction_property"]["certificate"]
        assert "uncomplemented_subspace_frame" in cert
        frame = np.asarray(cert["uncomplemented_subspace_frame"], dtype=float)
        assert frame.shape == (2, 1, 2)
        assert report["wedderburn_profile"] is None

    def test_empty_generators_unital(self, capsys, tmp_path):
        path = tmp_path / "scalars.json"
        write_spec(path, 3, [], unital=True)
        code, out, _ = run(capsys, ["analyze", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["reduction_property"]["verdict"] is True
        assert report["wedderburn_profile"] == [[1, 3]]

    def test_missing_file_exit_one(self, capsys, tmp_path):
        code, _, err = run(capsys, ["analyze", str(tmp_path / "nope.json")])
        assert code == 1 and "error" in err

    def test_bad_json_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["analyze", str(path)])
        assert code == 1 and "error" in err

    def test_shape_mismatch_exit_one(self, capsys, tmp_path):
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps({"dimension": 3, "generators": [[[[0, 0]]]], "unital": True}))
        code, _, err = run(capsys, ["analyze", str(path)])
        assert code == 1 and "error" in err

    def test_json_roundtrip_byte_identical(self, capsys, m2_spec):
        _, out, _ = run(capsys, ["analyze", str(m2_spec)])
        parsed = json.loads(out)
        again = json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n"
        assert again == out

    def test_deterministic_modulo_timing(self, capsys, m2_spec):
        _, out1, _ = run(capsys, ["analyze", str(m2_spec), "--seed", "7"])
        _, out2, _ = run(capsys, ["analyze", str(m2_spec), "--seed", "7"])
        assert out1 == out2
        assert "timing_seconds" not in json.loads(out1)

    def test_real_m3_tensor_i5_splits(self, capsys, tmp_path):
        # a real algebra: the random commutant element has complex conjugate
        # eigenvalues of multiplicity five, which must cluster as such
        path = tmp_path / "m3xi5.json"
        shift = np.roll(np.eye(3), 1, axis=0)
        gens = [np.kron(np.diag([1.0, 2.0, 3.0]), np.eye(5)), np.kron(shift, np.eye(5))]
        write_spec(path, 15, gens, unital=True)
        code, out, err = run(capsys, ["analyze", str(path), "--seed", "4"])
        assert code == 0, err
        assert json.loads(out)["wedderburn_profile"] == [[3, 5]]

    def test_text_format(self, capsys, m2_spec):
        code, out, _ = run(capsys, ["analyze", str(m2_spec), "--format", "text"])
        assert code == 0
        assert "reduction property:     yes" in out

    def test_tolerance_override_in_spec_file(self, capsys, tmp_path):
        path = tmp_path / "loose.json"
        path.write_text(json.dumps({
            "dimension": 2,
            "generators": [[[[0, 0], [1, 0]], [[0, 0], [0, 0]]]],
            "unital": True,
            "tolerance": {"eq_eps": 1e-6, "rank_eps": 1e-9},
        }))
        code, out, _ = run(capsys, ["analyze", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["radical_dimension"] == 1

    @pytest.mark.parametrize(
        "tolerance",
        [{"eq_eps": 0}, 5, {"rank_eps": "tight"}, {"eq_eps": [1e-8]}, {"rank_eps": None}],
        ids=["zero", "not-an-object", "string", "list", "null"],
    )
    def test_bad_tolerance_in_spec_file_exit_one(self, capsys, tmp_path, tolerance):
        path = tmp_path / "bad-tol.json"
        path.write_text(json.dumps(
            {"dimension": 2, "generators": [], "unital": True, "tolerance": tolerance}
        ))
        code, _, err = run(capsys, ["analyze", str(path)])
        assert code == 1 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "fields",
        [{"unital": "false"}, {"unital": 0}, {"unital": None}, {"dimension": 2.5},
         {"dimension": 2.0}, {"dimension": True}, {"dimension": "2"},
         {"dimension": None}],
        ids=["unital-string", "unital-number", "unital-null", "dimension-fraction",
             "dimension-float", "dimension-bool", "dimension-string", "dimension-null"],
    )
    def test_spec_types_are_not_coerced_exit_one(self, capsys, tmp_path, fields):
        # "unital": "false" once read as true, and the unitisation was
        # analysed with exit 0; 2.5 and true once read as dimensions 2 and 1
        e12 = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
        path = tmp_path / "typed.json"
        spec = {"dimension": 2, "generators": [e12], "unital": False, **fields}
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 1 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize(
        "flags",
        [["--tol", "-1"], ["--rank-tol", "2"], ["--tol", "nan"], ["--tol", "inf"], ["--rank-tol", "0"]],
        ids=["negative", "rank-above-one", "nan", "inf", "rank-zero"],
    )
    def test_bad_tolerance_flag_exit_one(self, capsys, m2_spec, flags):
        for argv in (["analyze", str(m2_spec)], ["gallery", "a_lambda"], ["selftest", "--quick"]):
            code, _, err = run(capsys, [*argv, *flags])
            assert code == 1 and err.startswith("error: bad tolerance")


def record_calls(monkeypatch, fn, first_args):
    """Append the first argument of every call of ``fn`` to ``first_args``.

    ``fn`` is replaced in every ``reduction_lab`` namespace that binds it, so
    calls made inside its own module are seen too.
    """

    def wrapper(*args, **kwargs):
        first_args.append(args[0])
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("reduction_lab"):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)


class TestAnalysisReport:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: truncated_graph_example(4, 0.5),
            lambda: a_lambda(2.0),
            lambda: block_algebra_basis([(2, 1), (1, 2)], degenerate_dim=1),
        ],
        ids=["truncated_graph_example(4, 0.5)", "a_lambda(2.0)", "M2+C2+0_1"],
    )
    def test_radical_and_unit_computed_once(self, monkeypatch, make):
        # one structure pass: one commutant, of A itself, and one draw, whose
        # Burnside count certifies the yes; no trace form, no unit solve (the
        # unit is read from the decomposition) and no Hom solve (the labels
        # carry each copy's Hom); every later stage reads the certificate
        A = make()
        radical_args, unit_args, commutant_args, hom_args = [], [], [], []
        record_calls(monkeypatch, algebra.radical, radical_args)
        record_calls(monkeypatch, modules.algebra_identity_element, unit_args)
        record_calls(monkeypatch, algebra.commutant, commutant_args)
        record_calls(monkeypatch, modules.intertwiners, hom_args)
        report = analysis_report(A, seed=42, tol=DEFAULT_TOL)
        assert report["reduction_property"]["verdict"] is True
        assert radical_args == [] and unit_args == [] and hom_args == []
        assert len(commutant_args) == 1 and commutant_args[0] is A

    def test_no_analysis_solves_the_commutant_once(self, monkeypatch):
        # the chain digraph's draw gives one piece, C^4, with dim End = 1 but
        # 16 > 10 = dim A: the trace form decides, and the report reads the
        # certificate's commutant
        A = digraph_algebra(Digraph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        radical_args, commutant_args = [], []
        record_calls(monkeypatch, algebra.radical, radical_args)
        record_calls(monkeypatch, algebra.commutant, commutant_args)
        report = analysis_report(A, seed=42, tol=DEFAULT_TOL)
        assert report["reduction_property"]["verdict"] is False
        assert report["commutant_dimension"] == 1
        assert radical_args == [A]
        assert [B is A for B in commutant_args] == [True, False]

    def test_m16_analyze_peak_memory(self, tmp_path):
        # a fresh process, so that the peak is this analysis's and not the
        # test run's; the unit's n^6 least-squares system once took 1.3 GiB
        n = 16
        path = tmp_path / "m16.json"
        clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
        write_spec(path, n, [clock, np.roll(np.eye(n, dtype=complex), 1, axis=0)], True)
        script = (
            "import contextlib, io, resource, sys\n"
            "from reduction_lab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['analyze', sys.argv[1]])\n"
            "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True,
            text=True,
            env=child_env(OPENBLAS_NUM_THREADS="2"),
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        code, maxrss_kib = map(int, proc.stdout.split())
        assert code == 0
        assert maxrss_kib * 1024 < 2**29  # 0.5 GiB

    def test_bicommutant_at_the_reach_edge(self, capsys):
        # the closed form A'' = A (no annihilated summand) where the solved
        # bicommutant keeps too few directions at its rank cut
        argv = ["gallery", "graph_truncation", "--k", "4", "--decay", "0.005", "--seed", "42"]
        code, out, err = run(capsys, argv)
        assert code == 0, err
        assert json.loads(out)["bicommutant_equals_algebra"] is True

    def test_bicommutant_closed_form_matches_solve(self, rng):
        with_degenerate = 0
        for _ in range(60):
            A, _, degenerate = random_semisimple_algebra(rng, max_dim=6, allow_degenerate=True)
            with_degenerate += degenerate > 0
            report = analysis_report(A, seed=42, tol=DEFAULT_TOL)
            assert report["bicommutant_equals_algebra"] == span_equal(A, bicommutant(A))
            assert report["commutant_dimension"] == commutant(A).dim
        assert with_degenerate >= 10

    def test_invariant_under_basis_scale_change_and_unitary(self):
        rng = np.random.default_rng(3)
        cases = [random_semisimple_algebra(rng, max_dim=6, allow_degenerate=True) for _ in range(15)]
        for A, blocks, degenerate in cases:
            n, d = A.ambient, A.dim
            R = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            variants = [
                list(A.basis),
                [1e-6 * b for b in A.basis],
                [1e6 * b for b in A.basis],
                list(np.tensordot(R, np.asarray(A.basis), 1)),
                [U @ b @ U.conj().T for b in A.basis],
            ]
            profile = [list(b) for b in blocks]
            conditions = []
            for basis in variants:
                B = AlgebraBasis(ambient=n, basis=basis, unital=A.unital)
                report = analysis_report(B, seed=42, tol=DEFAULT_TOL)
                cert = report["reduction_property"]["certificate"]
                assert report["reduction_property"]["verdict"] is True
                assert cert["blocks"] == report["wedderburn_profile"] == profile
                assert cert["degenerate_dimension"] == degenerate
                conditions.append(report["similarity_condition"])
            assert max(conditions) <= (1 + 1e-6) * min(conditions)


class TestGallery:
    def test_a_lambda_bound(self, capsys):
        code, out, _ = run(capsys, ["gallery", "a_lambda", "--lambda", "3"])
        assert code == 0
        report = json.loads(out)
        assert report["projection_constant_lower_bound"] >= 3.0
        assert report["projection_constant_lower_bound"] == pytest.approx(np.sqrt(10.0))

    def test_digraph_asymmetric(self, capsys):
        code, out, _ = run(capsys, ["gallery", "digraph", "--edges", "1>2"])
        assert code == 0
        report = json.loads(out)
        assert report["reduction_property"]["verdict"] is False

    @pytest.mark.parametrize("nodes", ["-1", "0"])
    def test_digraph_node_count_below_one_is_malformed(self, capsys, nodes):
        code, out, err = run(capsys, ["gallery", "digraph", "--nodes", nodes])
        assert code == 1 and out == ""
        assert err.startswith("error: a digraph needs at least one node")

    def test_graph_truncation_profile(self, capsys):
        code, out, _ = run(
            capsys,
            ["gallery", "graph_truncation", "--k", "3", "--decay", "0.3"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["wedderburn_profile"] == [[3, 2]]

    @pytest.mark.parametrize(
        "k, decay",
        [
            (4, 0.5), (4, 0.2), (4, 0.1), (4, 0.02), (4, 0.01), (4, 0.005),
            (4, 0.004), (4, 0.003), (4, 0.002), (6, 0.1),
        ],
    )
    def test_graph_truncation_condition(self, capsys, k, decay):
        # the condition of S = diag(T^1/2, decay^((k+1)/2) T^-1/2), which
        # carries the algebra onto {diag(b, b)}
        code, out, err = run(
            capsys,
            ["gallery", "graph_truncation", "--k", str(k), "--decay", str(decay)],
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["radical_dimension"] == 0
        assert report["wedderburn_profile"] == [[k, 2]]
        assert report["similarity_condition"] == pytest.approx(
            decay ** (-(k - 1) / 2), rel=1e-6
        )

    def test_graph_truncation_condition_with_one_blas_thread(self):
        argv = ["gallery", "graph_truncation", "--k", "4", "--decay", "0.02"]
        proc = subprocess.run(
            [sys.executable, "-m", "reduction_lab", *argv],
            capture_output=True,
            text=True,
            env=child_env(OPENBLAS_NUM_THREADS="1"),
        )
        assert proc.returncode == 0, proc.stderr
        condition = json.loads(proc.stdout)["similarity_condition"]
        assert condition == pytest.approx(0.02**-1.5, rel=1e-6)

    def test_graph_truncation_breakdown_names_stage(self, capsys):
        # far past the reach at k = 6 no draw splits C^n and the trace form
        # loses rank: the no it would give is refused with its stage and margin
        code, out, err = run(
            capsys, ["gallery", "graph_truncation", "--k", "6", "--decay", "1e-05"]
        )
        assert code == 2 and out == ""
        assert err.startswith("error: stage 'radical': the witness is not invariant (residual")

    @pytest.mark.parametrize("k, decay", [(4, "0.0003"), (6, "0.008")])
    def test_graph_truncation_past_the_trace_form(self, capsys, k, decay):
        # where the trace form loses rank the draw still certifies a yes: the
        # analysis reports it, or stops at the final check with its margin
        argv = ["gallery", "graph_truncation", "--k", str(k), "--decay", decay]
        code, out, err = run(capsys, argv)
        if code == 0:
            assert json.loads(out)["wedderburn_profile"] == [[k, 2]]
        else:
            assert code == 2 and out == ""
            assert err.startswith("error: stage 'final-check': conjugated span is not *-closed (defect")

    @pytest.mark.parametrize(
        "k, decay, seeds", [(4, 1e-4, (0, 3, 5, 14)), (6, 0.005, (5, 7, 8, 9, 16))]
    )
    def test_graph_truncation_estimate_reads_the_balanced_basis(self, k, decay, seeds):
        # the seeds whose projection-constant gate broke while the split
        # candidates were written in the unbalanced piece basis: each is a yes
        # now, or stops at the final check with its margin
        A = truncated_graph_example(k, decay)
        for seed in seeds:
            try:
                report = analysis_report(A, seed, DEFAULT_TOL)
            except NumericalDegeneracyError as exc:
                assert str(exc).startswith("stage 'final-check'"), (seed, str(exc))
            else:
                assert report["wedderburn_profile"] == [[k, 2]], seed

    @pytest.mark.parametrize("k, decay", [(4, 0.005), (4, 0.003), (4, 0.002), (6, 0.05), (6, 0.02)])
    def test_graph_truncation_reach_is_free_of_the_seed(self, k, decay):
        # every analysis seed 0-19 reaches a yes with its similarity
        A = truncated_graph_example(k, decay)
        for seed in range(20):
            report = analysis_report(A, seed, DEFAULT_TOL)
            assert report["similarity_condition"] == pytest.approx(
                decay ** (-(k - 1) / 2), rel=1e-6
            ), seed

    @pytest.mark.parametrize("decay", [0.5, 0.2, 0.1, 0.02])
    def test_graph_truncation_bound_is_closed_form(self, decay):
        # the balanced graph submodule between the two copies reaches
        # (kappa + 1/kappa) / 2, Wielandt's bound for the similarity of
        # condition kappa = decay^(-3/2)
        kappa = decay**-1.5
        bound, _ = projection_constant_estimate(truncated_graph_example(4, decay), seed=42)
        assert bound == pytest.approx((kappa + 1 / kappa) / 2, rel=1e-6)

    def test_graph_truncation_bound_grows(self):
        bounds = [
            projection_constant_estimate(truncated_graph_example(4, d), seed=42)[0]
            for d in (0.5, 0.3, 0.2, 0.1, 0.05, 0.02)
        ]
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_graph_truncation_bound_free_of_threads_seed_and_scale(self):
        # k = 6 at decay 0.1, (kappa + 1/kappa) / 2 for kappa = 10^2.5, with
        # 1 and 2 BLAS threads, at two analysis seeds and three basis scales
        script = (
            "from reduction_lab.algebra import AlgebraBasis\n"
            "from reduction_lab.gallery import truncated_graph_example\n"
            "from reduction_lab.modules import projection_constant_estimate\n"
            "A = truncated_graph_example(6, 0.1)\n"
            "for seed in (1, 2):\n"
            "    for s in (1e-6, 1.0, 1e6):\n"
            "        B = AlgebraBasis(A.ambient, [s * b for b in A.basis], unital=True)\n"
            "        print(projection_constant_estimate(B, seed=seed)[0])\n"
        )
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=child_env(OPENBLAS_NUM_THREADS=threads),
                timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            bounds = [float(v) for v in proc.stdout.split()]
            assert bounds == pytest.approx([158.11546] * 6, rel=1e-6)

    @pytest.mark.parametrize("decay", ["1e-05", "5e-06", "2e-06"])
    def test_non_invariant_no_witness_is_a_breakdown(self, capsys, decay):
        # far below the reach no draw splits C^n, the trace form loses rank
        # and the radical's range is not invariant: the no is checked and
        # refused, not reported
        code, out, err = run(capsys, ["gallery", "graph_truncation", "--k", "4", "--decay", decay])
        assert code == 2 and out == ""
        assert err.startswith("error: stage 'radical': the witness is not invariant (residual")

    def test_csl_masks(self, capsys):
        code, out, _ = run(capsys, ["gallery", "csl", "--masks", "10,01"])
        assert code == 0
        report = json.loads(out)
        assert report["reduction_property"]["verdict"] is True

    def test_non_reflexive(self, capsys):
        code, out, _ = run(capsys, ["gallery", "non_reflexive"])
        assert code == 0
        assert json.loads(out)["radical_dimension"] == 1

    def test_unknown_edges_syntax_exit_one(self, capsys):
        code, _, err = run(capsys, ["gallery", "digraph", "--edges", "1-2"])
        assert code == 1 and "error" in err

    def test_structural_failure_exit_two(self, capsys):
        code, _, err = run(capsys, ["gallery", "graph_truncation", "--k", "3", "--decay", "1.5"])
        assert code == 2 and "error" in err


class TestSelftest:
    def test_quick_selftest_passes(self, capsys):
        code, out, _ = run(capsys, ["selftest", "--quick", "--seed", "42"])
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 8

    def test_alternate_seed(self, capsys):
        code, out, _ = run(capsys, ["selftest", "--quick", "--seed", "7"])
        assert code == 0
        assert "FAIL" not in out


class TestEntryPoints:
    def test_module_entry_point(self, m2_spec):
        proc = subprocess.run(
            [sys.executable, "-m", "reduction_lab", "analyze", str(m2_spec)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["reduction_property"]["verdict"] is True

    def test_env_seed_respected(self, m2_spec, monkeypatch):
        env_run = subprocess.run(
            [sys.executable, "-m", "reduction_lab", "analyze", str(m2_spec)],
            capture_output=True,
            text=True,
            env=child_env(**{SEED_ENV_VAR: "7"}),
        )
        flag_run = subprocess.run(
            [sys.executable, "-m", "reduction_lab", "analyze", str(m2_spec), "--seed", "7"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert env_run.returncode == 0, env_run.stderr
        assert flag_run.returncode == 0, flag_run.stderr
        assert env_run.stdout == flag_run.stdout

        # The M2 report does not depend on the seed, so the parser is checked
        # directly: only there does an ignored variable show.
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        assert build_parser().parse_args(["analyze", "x.json"]).seed == 42
        monkeypatch.setenv(SEED_ENV_VAR, "7")
        assert build_parser().parse_args(["analyze", "x.json"]).seed == 7
        assert build_parser().parse_args(["analyze", "x.json", "--seed", "3"]).seed == 3

    def test_malformed_env_seed_exit_one(self, capsys, m2_spec, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "abc")
        code, _, err = run(capsys, ["analyze", str(m2_spec)])
        assert code == 1
        assert "error" in err and SEED_ENV_VAR in err
        assert "Traceback" not in err

    def test_parser_built_once_per_seed_default(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "5")
        assert build_parser() is build_parser()
        monkeypatch.setenv(SEED_ENV_VAR, "6")
        assert build_parser().parse_args(["selftest"]).seed == 6

    @pytest.mark.parametrize(
        "argv, last_line",
        [
            (["projection_constant_survey.py", "--lambdas", "2",
              "--decays", "0.5", "--amplification", "2"], "0.50"),
            (["digraph_census.py", "--nodes", "3", "--cb-samples", "5",
              "--amplification", "2"], "3      29          5          5     29"),
            (["mn_walls.py", "3"], "3"),
            (["mn_walls.py", "--central", "3"], "3"),
            (["truncation_reach.py", "--k", "3", "--decays", "0.5", "--seeds", "2"],
             "3      0.5    2/2    -"),
        ],
        ids=[
            "projection_constant_survey", "digraph_census", "mn_walls", "mn_walls_central",
            "truncation_reach",
        ],
    )
    def test_scripts_run(self, argv, last_line):
        # both scripts call into the estimate and decision paths; tiny sizes
        script = Path(__file__).resolve().parents[1] / "scripts" / argv[0]
        proc = subprocess.run(
            [sys.executable, str(script), *argv[1:]],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1].strip().startswith(last_line)

    def test_benchmark_reports_against_a_dump(self, tmp_path):
        # the 48 benchmark reports, which carry no timings, dumped and then
        # compared with that dump, with one whose profile and similarity
        # condition of one case were moved, and with ones whose bound alone
        # moved within and beyond the 1e-9 relative gate
        script = Path(__file__).resolve().parents[1] / "scripts" / "benchmark_reports.py"
        script = [sys.executable, str(script)]
        dump = subprocess.run(script, capture_output=True, text=True, env=child_env())
        assert dump.returncode == 0, dump.stderr
        reports = json.loads(dump.stdout)
        assert len(reports) == 48 and not any("timing_seconds" in r for r in reports.values())
        path = tmp_path / "dump.json"
        path.write_text(dump.stdout)
        same = subprocess.run([*script, str(path)], capture_output=True, text=True, env=child_env())
        assert same.returncode == 0, same.stderr
        assert same.stdout.splitlines() == [
            "similarity_condition: largest relative difference 0",
            "projection_constant_lower_bound: largest relative difference 0",
            "other fields that differ: 0",
        ]
        case = reports["projection-bound/1/M2xI2"]
        case["similarity_condition"] *= 1 + 1e-9
        case["wedderburn_profile"] = [[2, 1]]
        path.write_text(json.dumps(reports))
        moved = subprocess.run([*script, str(path)], capture_output=True, text=True, env=child_env())
        assert moved.returncode == 1, moved.stderr
        assert moved.stdout.splitlines() == [
            "similarity_condition: largest relative difference 1e-09",
            "projection_constant_lower_bound: largest relative difference 0",
            "other fields that differ: 1",
            "  projection-bound/1/M2xI2/wedderburn_profile",
        ]
        for moved, code in ((1e-10, 0), (1e-8, 1)):
            drifted = json.loads(dump.stdout)
            drifted["projection-bound/1/M2xI2"]["projection_constant_lower_bound"] *= 1 + moved
            path.write_text(json.dumps(drifted))
            drift = subprocess.run(
                [*script, str(path)], capture_output=True, text=True, env=child_env()
            )
            assert drift.returncode == code, drift.stderr
            assert drift.stdout.splitlines() == [
                "similarity_condition: largest relative difference 0",
                f"projection_constant_lower_bound: largest relative difference {moved:.3g}",
                "other fields that differ: 0",
            ]


class TestBatchedSummandLoops:
    def test_c6_analyze_halves_direct_svd_calls(self, capsys, monkeypatch, tmp_path):
        # counted as the estimate's minimiser guard counts, on C^6 as a conjugated
        # clock: 158 direct numpy.linalg.svd calls before the per-pair and
        # per-candidate loops were stacked.  operator_norm's own SVD is left out:
        # it used to run inside numpy.linalg.norm, where it was not counted either.
        rng = np.random.default_rng(11)
        S = random_invertible(6, rng, max_cond=20)
        clock = np.diag(np.exp(2j * np.pi * np.arange(6) / 6))
        path = tmp_path / "c6.json"
        write_spec(path, 6, [S @ clock @ np.linalg.inv(S)], unital=True)
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            if sys._getframe(1).f_code is not operator_norm.__code__:
                calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        code, out, _ = run(capsys, ["analyze", str(path), "--seed", "42"])
        assert code == 0
        assert json.loads(out)["wedderburn_profile"] == [[1, 1]] * 6
        assert len(calls) < 158 / 2


def load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchPairs:
    SPEC = [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "pc_bound_gmean", "better": "higher", "bound": 0.02},
    ]

    @staticmethod
    def runs(parent_wall, change_wall, rounds):
        def record(seed, wall, r):
            return {"seed": seed, "wall_s": wall, "pc_bound_gmean": 2.0, "rounds": r,
                    "peak_rss_mb": 40.0 + 0.02 * r}

        pairs = list(enumerate(zip(parent_wall, change_wall, rounds), 1))
        return {
            "algebra-ladder": {
                "parent": [record(i, p, r) for i, (p, _, r) in pairs],
                "change": [record(i, c, 2 * r) for i, (_, c, r) in pairs],
            }
        }

    def test_summary_of_synthetic_runs(self):
        bench = load_script("bench_pairs")
        parent = [1.0, 1.2, 0.9, 1.1, 1.05, 0.95, 1.0, 1.15, 0.85, 1.0]
        change = [w - 0.2 for w in parent]
        change[3] = 1.3  # one pair lost
        out = bench.summarise(self.runs(parent, change, range(100, 110)), self.SPEC,
                              ("algebra-ladder", "wall_s"))
        wall = out["summary"]["algebra-ladder"]["wall_s"]
        assert wall["parent"] == parent and wall["change"] == change
        assert wall["parent_median"] == 1.0 and wall["change_median"] == pytest.approx(0.8)
        assert wall["parent_quartiles"] == pytest.approx([0.9625, 1.0, 1.0875])
        assert wall["pairs_won_by_change"] == 9
        assert wall["relative_change_of_median"] == pytest.approx(-0.2)
        assert wall["within_bound"]
        flat = out["summary"]["algebra-ladder"]["pc_bound_gmean"]
        assert flat["pairs_won_by_change"] == 0 and flat["within_bound"]
        gain = out["claimed_gain"]
        assert gain["pairs"] == 10 and gain["pairs_won_by_change"] == 9
        assert gain["median_difference"] == pytest.approx(0.2)
        assert gain["parent_interquartile_distance"] == pytest.approx(0.125)
        assert gain["met"]
        fit = out["peak_rss_fit"]["algebra-ladder"]
        assert fit["runs"] == 20 and fit["intercept_mb"] == pytest.approx(40.0)
        assert fit["per_round_kib"] == pytest.approx(20.48) and fit["max_residual_mb"] < 1e-9

    def test_claim_needs_nine_pairs_in_ten_and_the_interquartile_distance(self):
        bench = load_script("bench_pairs")
        parent = [1.0, 1.2, 0.9, 1.1, 1.05, 0.95, 1.0, 1.15, 0.85, 1.0]
        two_lost = [w - 0.2 for w in parent]
        two_lost[3] = two_lost[5] = 1.3
        small = [w - 0.01 for w in parent]
        for change in (two_lost, small):
            out = bench.summarise(self.runs(parent, change, range(10)), self.SPEC,
                                  ("algebra-ladder", "wall_s"))
            assert not out["claimed_gain"]["met"]
        assert "claimed_gain" not in bench.summarise(self.runs(parent, small, range(10)),
                                                     self.SPEC, None)

    def test_metrics_outside_their_bounds_and_an_unmet_claim_exit_one(
        self, monkeypatch, tmp_path, capsys
    ):
        # main() with the runs faked: the change's wall is 30% slower, past
        # the 25% bound, and the claimed gain on it is not met
        bench = load_script("bench_pairs")
        spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec["end_to_end"]]

        def fake_run(tree, workload, seed, seconds, threads, trace):
            slow = 1.3 if tree == bench.ROOT else 1.0
            metrics = {name: {"value": 2.0} for name in names}
            metrics["wall_s"] = {"value": slow * (1.0 + 0.01 * seed)}
            info = {"rounds": 100 + seed, "case_median_s": {}}
            result = {"attempted": 10, "correct": True, "failed": 0, "metrics": metrics}
            return {"info": info, "result": result}

        monkeypatch.setattr(bench, "run_bench", fake_run)
        monkeypatch.setattr(bench, "unpack", lambda commit, dest: "0000000")
        out = tmp_path / "bench.json"
        argv = ["bench_pairs.py", "--pairs", "algebra-ladder=3", "--claim",
                "algebra-ladder/wall_s", "--out", str(out)]
        monkeypatch.setattr(sys, "argv", argv)
        assert bench.main() == 1
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in err if " outside its bound " in line] == [
            "algebra-ladder/wall_s"
        ]
        assert any(line.startswith("claim algebra-ladder/wall_s not met: 0 of 3") for line in err)
        want = bench.shortfalls(json.loads(out.read_text()))
        assert len(want) == 2 and err[-2:] == want
        # the same runs as their own parent: every metric within its bound, no claim
        monkeypatch.setattr(bench, "run_bench", lambda tree, *a: fake_run("parent", *a))
        monkeypatch.setattr(sys, "argv", argv[:3] + argv[5:])
        assert bench.main() == 0
        assert bench.shortfalls(json.loads(out.read_text())) == []


class TestMatrixJson:
    @staticmethod
    def per_entry(M):
        return [[[float(np.real(z)), float(np.imag(z))] for z in row] for row in np.asarray(M)]

    def test_stacked_conversion_matches_per_entry(self):
        # the report's matrices, as the per-entry conversion wrote them, byte
        # for byte: a T_4 no-certificate, signed zeros and subnormals, and a
        # real integer matrix
        A = digraph_algebra(Digraph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        ok, cert = modules.has_reduction_property(A)
        assert not ok
        tiny = np.array(
            [[complex(-0.0, 5e-324), complex(1e-310, -0.0)], [complex(-0.0, -0.0), 2.5e-320 + 0j]]
        )
        for M in (cert.radical_element, cert.witness.frame, tiny, np.arange(6).reshape(2, 3)):
            got, want = (
                json.dumps(x, sort_keys=True, separators=(",", ":"))
                for x in (_matrix_to_json(M), self.per_entry(M))
            )
            assert got == want
        assert json.dumps(_matrix_to_json(tiny)).count("-0.0") == 4


class TestLayerTrace:
    def test_traced_names_resolve(self, monkeypatch):
        # the benchmark's per-layer trace looks these names up to wrap them:
        # one renamed or removed in the package stops the traced run
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import layertrace

        for layer, names in layertrace.TRACED.items():
            module = importlib.import_module(f"reduction_lab.{layer}")
            for name in names:
                assert callable(getattr(module, name, None)), f"{layer}.{name}"
        for name in layertrace.LAPACK:
            assert callable(getattr(np.linalg, name, None)), f"numpy.linalg.{name}"


class TestBenchmarkCases:
    def test_workload_reports_pass_the_benchmark_checks(self, capsys, monkeypatch, tmp_path):
        # every case of both benchmark workloads at workload seed 1, run
        # through the CLI and the benchmark's own report checks, so that a
        # change the benchmark would refuse fails here first
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads
        from checks import check_report

        problems = []
        for name in sorted(workloads.WORKLOADS):
            (tmp_path / name).mkdir()
            for case in workloads.build(name, 1, tmp_path / name):
                code, out, err = run(capsys, list(case.argv))
                assert code == 0, f"{case.name}: {err}"
                problems += check_report(case, json.loads(out))
        assert problems == []

    def test_chain_reports_keep_bicommutant_unequal(self, capsys, monkeypatch, tmp_path):
        # T6 and T8 are noes with a scalar commutant, whose commutant the
        # report solves from a zero Sylvester system: null_space returns I,
        # all of M_n, which is not T_n
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads

        for case in workloads.build("algebra-ladder", 1, tmp_path):
            if case.name in ("T6", "T8"):
                code, out, err = run(capsys, list(case.argv))
                assert code == 0, f"{case.name}: {err}"
                report = json.loads(out)
                assert not report["reduction_property"]["verdict"]
                assert report["commutant_dimension"] == 1
                assert report["bicommutant_equals_algebra"] is False

    def test_projection_bound_barrier_members(self, capsys, monkeypatch, tmp_path):
        # the projection-bound cases at workload seed 1: every free member of
        # trunc-k4 and a_lambda is certified at its start point and never
        # reaches the barrier; M2xI2 sends at most its four graph candidates
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads

        members = []
        barrier = modules.least_psd_shift

        def counting(F0, F):
            members.append(len(F0))
            return barrier(F0, F)

        monkeypatch.setattr(modules, "least_psd_shift", counting)
        for case in workloads.build("projection-bound", 1, tmp_path):
            members.clear()
            code, _, err = run(capsys, list(case.argv))
            assert code == 0, f"{case.name}: {err}"
            assert sum(members) <= (4 if case.name == "M2xI2" else 0), case.name
