"""Tests of the benchmark's answer checks and layer counts, on inputs
small enough to run in a second.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from hldecomp import decomposition, functional_oracle  # noqa: E402

RANK8_NODES = (2, 3, 4, 5, 7)
RANK8_GAMMA = (1, 3, 4, 4, 3, 2, 1, 0)


def rank8_calls(seed):
    return workloads.lattice_calls(seed, n=8, nodes=RANK8_NODES)


def reference_of(results):
    return {res["key"]: workloads.decode(res["text"])[1] for res in results}


@pytest.fixture(scope="module")
def rank8():
    return [workloads.run_calls(rank8_calls(seed)) for seed in (0, 1)]


def test_lattice_answers_do_not_depend_on_the_seed(rank8):
    first, second = rank8
    ref = reference_of(first)
    polys = ref["0,1,1,1,1,0,1,0"]
    assert polys[RANK8_GAMMA] == {4: 2, 5: 1}
    assert workloads.score("lattice_rank12", second, ref) == (len(polys), 0)
    calls = [rank8_calls(seed)[0][1] for seed in (0, 1)]
    assert calls[0] != calls[1] and sorted(calls[0]) == sorted(calls[1])


def test_corrupted_reference_is_a_failure(rank8):
    first, second = rank8
    ref = reference_of(first)
    ref["0,1,1,1,1,0,1,0"][RANK8_GAMMA] = {4: 2}
    attempted, failed = workloads.score("lattice_rank12", second, ref)
    assert failed == 1 and attempted == len(ref["0,1,1,1,1,0,1,0"])
    del ref["0,1,1,1,1,0,1,0"][RANK8_GAMMA]
    assert workloads.score("lattice_rank12", second, ref)[1] == 1


def test_known_answer_catches_a_wrong_reference(rank8):
    # the reference agrees with the result, but gamma 0 must give 1
    polys = reference_of(rank8[0])["0,1,1,1,1,0,1,0"]
    zero = (0,) * 8
    polys[zero] = {0: 2}
    assert workloads.gamma_zero_failures((0,) * 8, polys) == {zero}


def test_raising_call_fails_all_its_jobs(rank8):
    ref = reference_of(rank8[0])

    def boom():
        raise ArithmeticError("inconsistent")

    results = workloads.run_calls([("0,1,1,1,1,0,1,0", [RANK8_GAMMA], boom)])
    assert results[0]["error"] == "ArithmeticError: inconsistent"
    jobs = len(ref["0,1,1,1,1,0,1,0"])
    assert workloads.score("lattice_rank12", results, ref) == (jobs, jobs)


def test_tensor_square_check_on_the_vector_representation():
    results = workloads.run_calls(workloads.tensor_calls(2, lam=(2, 0)))
    ref = reference_of(results)
    assert ref == {"2,0": {(0, 0): {0: 1}, (1, 0): {1: 1}}}
    assert workloads.score("oracle_tensor_square", results, ref)[1] == 0
    polys = dict(ref["2,0"])
    polys[(1, 0)] = {1: 2}
    assert workloads.tensor_square_failures((2, 0), polys) == {(0, 0), (1, 0)}


def test_trace_counts_and_restores_the_library(rank8):
    calls = rank8_calls(0)
    with tracing.traced() as spans:
        results = workloads.run_calls(calls)
    assert decomposition.multiplicity.__module__ == "hldecomp.polytope_count"
    assert not hasattr(decomposition.multiplicity, "__wrapped__")
    m = tracing.layer_metrics(spans, len(calls[0][1]))
    polys = reference_of(results)["0,1,1,1,1,0,1,0"]
    assert m["root_system.gammas"] == len(polys)
    assert m["multipartition.kept"] == m["polytope_count.polytopes"] > 0
    assert m["polytope_count.lattice_points"] == sum(
        sum(p.values()) for p in polys.values())
    assert m["functional_oracle.grades"] == 0
    assert set(m) | {"trace.overhead_s"} == set(tracing.PER_LAYER)


def test_trace_counts_on_the_dual_side():
    lam = (2, 0)
    calls = workloads.tensor_calls(0, lam=lam)
    with tracing.traced() as spans:
        workloads.run_calls(calls)
    m = tracing.layer_metrics(spans, 2)
    xi = {root: 2 for root in ((1, 1), (1, 2), (2, 2))}
    grades = sum(len(functional_oracle.grade_window(lam, g, "full", xi))
                 for g in calls[0][1])
    assert m["functional_oracle.grades"] == grades
    assert m["functional_oracle.rows"] == (m["functional_oracle.rows_join"]
                                           + m["functional_oracle.rows_pole"]
                                           + m["functional_oracle.rows_interval"])
    assert m["polytope_count.polytopes"] == 0
