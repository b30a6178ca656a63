"""Self-tests of the benchmark: inputs, metric reduction, gate and tracing.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import metrics  # noqa: E402
import pipeline  # noqa: E402
from bench import pass_count  # noqa: E402
from pipeline import BOUND_REL_TOL, independent_value, judge, run_instance  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import OMRF_SHAPES, PANELS, Instance, random_omrf_problem, warmup_instance  # noqa: E402

from owasdp.location import LocationInstance, build_lifted  # noqa: E402
from owasdp.omrf import evaluate_ordered_median  # noqa: E402
from owasdp.relaxation import build_sparse  # noqa: E402


def _fingerprint(inst: Instance) -> str:
    problem = inst.problem
    if inst.is_location:
        return repr((problem.points, problem.variant, problem.k, problem.trim))
    functions = [(str(f.numerator), str(f.denominator)) for f in problem.functions]
    weights = [str(w) for w in problem.weights.entries]
    return repr((functions, weights))


@pytest.mark.parametrize("workload", sorted(PANELS))
def test_panel_is_deterministic(workload):
    first = PANELS[workload]()
    again = PANELS[workload]()
    assert [i.id for i in first] == [i.id for i in again]
    assert [_fingerprint(i) for i in first] == [_fingerprint(i) for i in again]


@pytest.mark.parametrize("pattern", sorted(OMRF_SHAPES))
def test_omrf_generator_is_deterministic_for_a_seed(pattern):
    shape = OMRF_SHAPES[pattern][1]
    one = random_omrf_problem(np.random.default_rng(5), pattern, *shape)
    two = random_omrf_problem(np.random.default_rng(5), pattern, *shape)
    other = random_omrf_problem(np.random.default_rng(6), pattern, *shape)
    assert _fingerprint(Instance("a", one, None)) == _fingerprint(Instance("b", two, None))
    assert _fingerprint(Instance("a", one, None)) != _fingerprint(Instance("c", other, None))


def test_entry_script_names_every_panel():
    import run

    assert set(run.WORKLOAD_NAMES) == set(PANELS)


def test_panel_sizes():
    assert len(PANELS["ladder-l2"]()) == 24
    assert len(PANELS["omrf-patterns"]()) == 24
    assert len(PANELS["demo-l3-r2"]()) == 1


def _row(name, status, iterations, bound, certified, failures, **extra):
    row = {
        "instance": name,
        "location": True,
        "status": status,
        "iterations": iterations,
        "bound": bound,
        "certified": certified,
        "failures": failures,
        "eps_obj": None,
        "point_gap": None,
        "y_dim": 10,
        "eq_rows": 4,
        "psd_blocks": 2,
        "cone_dim": 9,
        "max_block": 3,
        "nnz": 30,
        "block_cube": 35,
        "lift_vars": 5,
        "lift_constraints": 6,
        "dres": 1e-9,
        "flat": None,
        "feasible": None,
    }
    row.update(extra)
    return row


def _hand_rows():
    return [
        _row("a", "optimal", 10, 1.0, 1.0, [], eps_obj=0.0, point_gap=0.0, flat=True, feasible=True),
        _row("b", "near_optimal", 20, 0.5, 1.2, [], eps_obj=0.5, point_gap=0.2, flat=False, feasible=True),
        _row("c", "near_optimal", 30, 0.9, 1.0, ["bound_above_reference"], eps_obj=0.1,
             point_gap=0.0, flat=False, feasible=False, dres=3e-6),
        _row("d", "numerical_failure", 40, None, None, ["no_y"], dres=2e-5, location=False),
    ]


def _values(reduced):
    return {name: metric["value"] for name, metric in reduced.items()}


def test_end_to_end_reduction_on_hand_rows():
    got = _values(metrics.end_to_end(_hand_rows(), [0.1, 0.4, 0.2, 0.3], 1.5, 100.0))
    assert got["run_s"] == pytest.approx(1.0)
    assert got["instance_s.p50"] == pytest.approx(0.25)
    assert got["instance_s.count"] == 4
    assert got["setup_s"] == 1.5
    assert got["peak_rss_mb"] == 100.0
    assert got["optimal_share"] == 0.25
    assert got["failed_share"] == 0.5
    assert got["usable_share"] == 0.5
    assert got["eps_obj.p50"] == pytest.approx(0.1)
    assert got["eps_obj.max"] == 0.5
    assert got["point_gap.p50"] == 0.0


def test_per_layer_reduction_on_hand_rows():
    seconds = {"solver.solve": 5.0, "relaxation.build_sparse": 0.5, "oracle.grid_search": 2.0}
    got = _values(metrics.per_layer(_hand_rows(), seconds, 1234, 0.01))
    assert got["solver.solve_s"] == 5.0
    assert got["solver.iterations"] == 100
    assert got["solver.s_per_iter"] == pytest.approx(0.05)
    assert got["solver.kkt_dim"] == 4 * 14
    assert got["solver.block_cube_work"] == 100 * 35
    assert got["solver.status.optimal"] == 1
    assert got["solver.status.near_optimal"] == 2
    assert got["solver.status.numerical_failure"] == 1
    assert got["solver.dres.max"] == 2e-5
    assert got["relaxation.y_dim"] == 40
    assert got["relaxation.max_block"] == 3
    assert got["location.lift_vars"] == 15
    assert got["omrf.lift_vars"] == 5
    assert got["extract.flat_share"] == pytest.approx(1 / 3)
    assert got["extract.feasible_share"] == pytest.approx(2 / 3)
    assert got["oracle.search_s"] == 2.0
    assert got["oracle.evaluations"] == 1234
    assert got["trace.overhead_s"] == 0.01


def _judged(bound, certified=2.0, independent=None, oracle=2.0):
    inst = Instance("x", LocationInstance(points=((0.0, 0.0), (1.0, 0.0))), 2)
    row = {
        "bound": bound,
        "certified": certified,
        "independent": certified if independent is None else independent,
        "in_region": certified is not None,
        "extract_error": None,
    }
    judge(row, inst, oracle)
    return row


def test_gate_flags_a_bound_above_the_reference():
    tolerance = BOUND_REL_TOL * 3.0
    assert _judged(2.0 + 10 * tolerance)["failures"] == ["bound_above_reference"]
    assert _judged(2.0 + 0.5 * tolerance)["failures"] == []
    assert _judged(1.5)["failures"] == []


def test_gate_uses_the_better_of_oracle_and_extracted_point():
    row = _judged(1.9, certified=1.8, oracle=2.0)
    assert row["reference"] == 1.8
    assert row["failures"] == ["bound_above_reference"]
    assert row["eps_obj"] == pytest.approx(0.1 / 1.8)


def test_gate_flags_missing_solution_and_value_mismatch():
    assert _judged(None, certified=None)["failures"] == ["no_y"]
    assert _judged(1.0, certified=2.0, independent=2.1)["failures"] == ["certified_mismatch"]


def test_independent_value_agrees_with_the_package_evaluators():
    rng = np.random.default_rng(3)
    anchors = tuple(map(tuple, rng.random((6, 2))))
    variants = [
        ("weber", {}), ("center", {}), ("kcentrum", {"k": 2}), ("trimmed", {"trim": (1, 2)}),
        ("range", {}), ("general", {"position_lambda": tuple(rng.uniform(-1, 1, 6))}),
    ]
    for variant, params in variants:
        for tau in [(2, 1), (3, 1)]:
            problem = LocationInstance(points=anchors, variant=variant, norm_tau=tau, **params)
            inst = Instance("loc", problem, 2)
            for point in rng.uniform(-1, 2, (5, 2)):
                assert independent_value(inst, point) == pytest.approx(
                    problem.objective_value(point), rel=1e-12, abs=1e-12
                )
    for inst in PANELS["omrf-patterns"]():
        d = len(inst.problem.universe)
        for point in rng.uniform(-2, 2, (5, d)):
            assert independent_value(inst, point) == pytest.approx(
                evaluate_ordered_median(inst.problem, point), rel=1e-12, abs=1e-12
            )


def test_gate_flags_a_certified_value_off_the_independent_one(monkeypatch):
    """The gate fires on an OMRF row whose certified value is wrong."""
    inst = next(i for i in PANELS["omrf-patterns"]() if i.id == "kcentrum-0")
    honest = run_instance(inst, Tracer(False))
    judge(honest, inst, honest["certified"])
    assert "certified_mismatch" not in honest["failures"]

    real = pipeline.extract_point

    def off_by_a_little(*args, **kwargs):
        solution = real(*args, **kwargs)
        return type(solution)(
            point=solution.point,
            certified_value=solution.certified_value + 1e-6,
            sdp_bound=solution.sdp_bound,
            feasibility_residual=solution.feasibility_residual,
            feasible=solution.feasible,
        )

    monkeypatch.setattr(pipeline, "extract_point", off_by_a_little)
    wrong = run_instance(inst, Tracer(False))
    judge(wrong, inst, honest["certified"])
    assert "certified_mismatch" in wrong["failures"]


def test_pass_count_depends_only_on_the_run_length():
    assert pass_count("ladder-l2", 40) == 2
    assert pass_count("omrf-patterns", 40) == 2
    assert pass_count("demo-l3-r2", 40) == 1
    assert pass_count("ladder-l2", 1) == 1


def test_tracer_records_nested_spans_only_when_enabled():
    tracer = Tracer(True)
    with tracer.span("outer", "i1"):
        with tracer.span("inner", "i1") as inner:
            pass
    records = tracer.records()
    assert [(r["name"], r["parent"]) for r in records] == [("outer", None), ("inner", 0)]
    assert all(r["instance"] == "i1" and r["end"] >= r["start"] for r in records)
    assert tracer.total("inner") == inner.seconds

    quiet = Tracer(False)
    with quiet.span("outer", "i1") as span:
        pass
    assert quiet.spans == [] and span.seconds >= 0.0


def test_pipeline_spans_every_layer_call():
    tracer = Tracer(True)
    row = run_instance(warmup_instance(), tracer)
    names = [s["name"] for s in tracer.records()]
    assert names == [
        "pipeline",
        "location.build_lifted",
        "relaxation.build_sparse",
        "solver.solve",
        "extract.rank_check",
        "extract.extract_point",
    ]
    assert all(s["parent"] == 0 for s in tracer.records()[1:])
    assert row["status"] in ("optimal", "near_optimal")
    assert row["certified"] == pytest.approx(row["independent"], rel=1e-12)
    assert row["total_s"] >= row["solve_s"] > 0.0


def test_demo_relaxation_size():
    (demo,) = PANELS["demo-l3-r2"]()
    sdp = build_sparse(build_lifted(demo.problem), demo.order)
    assert sdp.y_dim == 7832
    assert len(sdp.psd_blocks) == 180
    assert len(sdp.equalities) == 720
    assert math.isclose(demo.golden, 8.729976)


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder-l2", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
