"""The report checks have teeth: each rejects a deliberately corrupted report.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from checks import check_report  # noqa: E402
from reduction_lab import cli  # noqa: E402


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Real reports of small cases, one per kind of check."""
    workdir = tmp_path_factory.mktemp("specs")
    rng = np.random.default_rng(7)
    cases = [
        workloads.full_matrix(3, rng, workdir),
        workloads.chain(4, rng, workdir),
        workloads.diagonal(3, rng, workdir, zeros=1),
        workloads.a_lambda(2.0),
    ]
    out = {}
    for case in cases:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(list(case.argv)) == 0
        out[case.name] = (case, json.loads(buf.getvalue()))
    return out


def corrupted(reports, name, corrupt):
    case, report = reports[name]
    bad = copy.deepcopy(report)
    corrupt(bad, case)
    return check_report(case, bad)


def test_real_reports_pass(reports):
    for case, report in reports.values():
        assert check_report(case, report) == []


def test_profile_off_by_one(reports):
    def corrupt(r, _):
        r["wedderburn_profile"][0][0] += 1

    assert corrupted(reports, "M3", corrupt)


def test_radical_dimension_off_by_one(reports):
    def corrupt(r, _):
        r["radical_dimension"] += 1

    for name in ("M3", "T4", "C3+0_1"):
        assert corrupted(reports, name, corrupt)


def test_bound_above_condition(reports):
    def corrupt(r, _):
        r["projection_constant_lower_bound"] = r["similarity_condition"] * 1.001

    assert corrupted(reports, "C3+0_1", corrupt)


def test_a_lambda_bound_off_by_1e_6(reports):
    def corrupt(r, _):
        r["projection_constant_lower_bound"] += 1e-6

    assert corrupted(reports, "a_lambda-2", corrupt)


def test_witness_not_invariant(reports):
    def corrupt(r, case):
        # the last conjugated coordinate line is not invariant under T_4
        v = case.expect.conjugator[:, -1:]
        v = v / np.linalg.norm(v)
        frame = r["reduction_property"]["certificate"]["uncomplemented_subspace_frame"]
        frame[:] = [[[float(z.real), float(z.imag)]] for z in v[:, 0]]

    assert corrupted(reports, "T4", corrupt)
