"""The benchmark's own checks, on the two coarsest levels of each workload."""

import copy
import json

import numpy as np
import pytest

import run
import tracing
import workloads

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
REFERENCE = workloads.load_reference()


def small(name, level=1):
    """The named workload cut down to its two coarsest levels (sweep: one coarse mesh)."""
    if name == "sweep-nitsche-p2":
        return workloads.Sweep(name, mesh_level=level)
    scheme = "dg" if "sipdg" in name else "n"
    return workloads.Ladder(name, scheme, levels=2)


SMALL = [small("ladder-nitsche-p1"), small("ladder-sipdg-p1"),
         small("sweep-nitsche-p2", 0), small("sweep-nitsche-p2", 1)]


def run_main(monkeypatch, capsys, workload, trace):
    monkeypatch.setitem(workloads.WORKLOADS, workload.name, workload)
    code = run.main(["--workload", workload.name, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)])
    return code, capsys.readouterr().out.strip().splitlines()


def measured(workload, reference=REFERENCE, trace=False):
    bench = run.Run(workload, 3, reference, tracing.Tracer() if trace else None)
    bench.measure(bench.setup(), 0.0, trace)
    return bench


def test_benchmark_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: f"{w.name}")
def test_end_to_end_result(monkeypatch, capsys, workload):
    code, lines = run_main(monkeypatch, capsys, workload, trace=0)
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == workload.operations()
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: f"{w.name}")
def test_per_layer_result(monkeypatch, capsys, workload):
    code, lines = run_main(monkeypatch, capsys, workload, trace=1)
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] is True
    assert result["attempted"] == 2 * workload.operations()  # one untraced, one traced
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for name, unit in expected.items():
        if unit == "s" and name != "trace.overhead_s":
            assert metrics[name]["value"] > 0, name
        if unit == "count":
            assert isinstance(metrics[name]["value"], int) and metrics[name]["value"] > 0, name
    assert metrics["solver.indefinite_detected"]["value"] == 1.0
    trace_file = workloads.OUT / f"trace-{workload.name}-seed7.json"
    spans = json.loads(trace_file.read_text())["spans"]
    assert all({"name", "start", "end", "parent", "self_s"} <= set(s) for s in spans)


def test_counts_repeat_and_match_reference():
    workload = small("ladder-sipdg-p1")
    counts = [measured(workload, trace=True).per_layer() for _ in range(2)]
    levels = REFERENCE["workloads"][workload.name]["levels"][:2]
    for per_layer in counts:
        assert per_layer["assembly.nnz"][0] == sum(lv["nnz"] for lv in levels)
        assert per_layer["solver.cg_iterations"][0] == sum(lv["cg_iterations"] for lv in levels)
        assert per_layer["solver.cg_iterations_finest"][0] == levels[-1]["cg_iterations"]
    assert counts[0]["mesh.edges"] == counts[1]["mesh.edges"]


def test_error_off_reference_is_counted():
    reference = copy.deepcopy(REFERENCE)
    level = reference["workloads"]["ladder-nitsche-p1"]["levels"][0]
    level["err_energy"] *= 1.0 + 2.0 * reference["rel_tolerance"]
    bench = measured(small("ladder-nitsche-p1"), reference)
    assert bench.attempted == 2 and len(bench.failures) == 1  # failed_frac 0.5
    assert bench.failures[0].startswith("err_energy")


def test_error_within_tolerance_passes():
    reference = copy.deepcopy(REFERENCE)
    case = reference["workloads"]["sweep-nitsche-p2"]["mesh_levels"]["0"][0]
    case["err_L2"] *= 1.0 + 0.5 * reference["rel_tolerance"]
    assert measured(small("sweep-nitsche-p2", 0), reference).failures == []


def test_eoc_outside_window_is_counted():
    reference = copy.deepcopy(REFERENCE)
    reference["workloads"]["ladder-sipdg-p1"]["eoc_window"]["l2"] = [2.5, 3.0]
    bench = measured(small("ladder-sipdg-p1"), reference)
    assert len(bench.failures) == 1 and "EOC" in bench.failures[0]


def test_nonzero_exit_fails_every_level():
    workload = small("ladder-nitsche-p1")
    bench = run.Run(workload, 0, REFERENCE)
    state = bench.setup()
    workload.problem = "no_such_problem"  # robinfem study exits with 1
    bench.measure(state, 0.0, False)
    assert bench.failures == ["robinfem study exited with 1"] * 2


def test_unexpected_exception_fails_every_level(monkeypatch):
    bench = run.Run(small("ladder-sipdg-p1"), 0, REFERENCE)
    state = bench.setup()

    def broken(*args, **kwargs):
        raise RuntimeError("forced")

    monkeypatch.setattr(state["rf"].study, "assemble", broken)
    bench.measure(state, 0.0, False)
    assert bench.attempted == 2 and len(bench.failures) == 2


def test_indefinite_case_must_raise(monkeypatch):
    workload = small("sweep-nitsche-p2", 0)
    bench = run.Run(workload, 0, REFERENCE, tracing.Tracer())
    state = bench.setup()
    rf = state["rf"]
    real_solve = rf.solver.solve

    def solve_without_detection(system, config=None):
        try:
            return real_solve(system, config)
        except rf.IndefiniteMatrix:
            return np.zeros(len(system.rhs)), rf.SolveReport(iterations=0, residual=1.0, wall_time=0.0)

    monkeypatch.setattr(rf.solver, "solve", solve_without_detection)
    bench.measure(state, 0.0, True)
    assert bench.attempted == 10
    assert bench.failures == ["gamma=100.0 did not raise IndefiniteMatrix"] * 2
    assert bench.per_layer()["solver.indefinite_detected"][0] == 0.0


def test_seed_permutes_the_sweep():
    workload = small("sweep-nitsche-p2", 0)
    rf = workloads.import_robinfem()
    orders = [tuple(workload.prepare(rf, seed)["order"]) for seed in range(8)]
    assert orders[0] == tuple(workload.prepare(rf, 0)["order"])
    assert all(sorted(order) == sorted(workload.cases) for order in orders)
    assert len({order.index(workload.indefinite) for order in orders}) > 1


def test_missing_source_exits_without_result(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(workloads, "SRC", tmp_path / "src")
    code = run.main(["--workload", "ladder-sipdg-p1", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_tolerance_is_above_the_solver_spread():
    spread = max(REFERENCE["observed_solver_spread"].values())
    assert REFERENCE["rel_tolerance"] >= 10 * spread


def test_outermost_and_self_times():
    tracer = tracing.Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("a"):
                pass
    outer = tracing.outermost(tracer.spans, "a")
    assert [s["id"] for s in outer] == [0]
    own = tracing.self_times(tracer.spans)
    assert own[0] == pytest.approx(tracing.duration(tracer.spans[0]) - tracing.duration(tracer.spans[1]))
