"""Command-line interface, exercised in process through console_main,
and once as a process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import robinfem.cli
import robinfem.study
from robinfem import IndefiniteMatrix, NotConverged, RobinFemError, read_mesh
from robinfem.cli import console_main
from robinfem.study import CSV_HEADER


def test_list_problems(capsys):
    assert console_main(["list-problems"]) == 0
    out = capsys.readouterr().out
    for name in ("sinsin", "sqrt_singular", "radial_exp", "linear_patch"):
        assert name in out


def test_study_writes_outputs(tmp_path, capsys):
    csv = tmp_path / "table.csv"
    svg = tmp_path / "plot.svg"
    code = console_main(
        [
            "study",
            "--problem", "sinsin",
            "--levels", "2",
            "--csv", str(csv),
            "--svg", str(svg),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "level 0" in out and "level 1" in out
    assert "eoc_E=" in out
    assert csv.read_text().splitlines()[0] == CSV_HEADER
    assert svg.read_text().count("<polyline ") == 2


def test_study_mesh_out_is_finest_level(tmp_path, capsys):
    mesh_out = tmp_path / "finest.mesh"
    code = console_main(
        ["study", "--problem", "linear_patch", "--levels", "2", "--mesh-out", str(mesh_out)]
    )
    assert code == 0
    assert read_mesh(mesh_out).n_triangles == 2 * 8 * 8  # square grid 4 * 2**1


def test_study_mesh_out_builds_each_level_once(tmp_path, monkeypatch, capsys):
    built = []
    for module in (robinfem.study, robinfem.cli):  # wherever a mesh could be rebuilt
        if hasattr(module, "level_mesh"):
            level_mesh = module.level_mesh
            monkeypatch.setattr(module, "level_mesh", lambda d, lvl, f=level_mesh: built.append(lvl) or f(d, lvl))
    mesh_out = tmp_path / "finest.mesh"
    assert console_main(["study", "--problem", "sinsin", "--levels", "3", "--mesh-out", str(mesh_out)]) == 0
    assert built == [0, 1, 2]
    assert read_mesh(mesh_out).n_triangles == 6 * 16**2  # disk rings 4 * 2**2


def test_single_writes_outputs(tmp_path, capsys):
    mesh_out = tmp_path / "m.mesh"
    mat_out = tmp_path / "a.txt"
    sol_out = tmp_path / "x.txt"
    code = console_main(
        [
            "single",
            "--problem", "linear_patch",
            "--scheme", "dg",
            "--degree", "2",
            "--mesh-out", str(mesh_out),
            "--matrix-out", str(mat_out),
            "--solution-out", str(sol_out),
        ]
    )
    assert code == 0
    assert "err_L2=" in capsys.readouterr().out
    assert mesh_out.read_text().startswith("meshfmt 1\n")
    first = mat_out.read_text().splitlines()[0].split()
    assert len(first) == 3 and first[0] == "0"
    assert len(sol_out.read_text().splitlines()) > 0


def test_dense_solver_flag(capsys):
    code = console_main(
        ["single", "--problem", "sinsin", "--solver", "dense", "--epsilon", "0.5"]
    )
    assert code == 0
    assert "err_E=" in capsys.readouterr().out


def test_unknown_problem_is_config_error(capsys):
    assert console_main(["single", "--problem", "nope"]) == 1
    assert "error" in capsys.readouterr().err


def test_invalid_parameter_is_config_error(capsys):
    # SIP penalty needs gamma > 0
    code = console_main(["single", "--problem", "sinsin", "--scheme", "dg", "--gamma", "0"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_bad_flags_exit_1():
    with pytest.raises(SystemExit) as err:
        console_main(["study", "--problem", "sinsin", "--degree", "7"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        console_main(["unknown-command"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        console_main(["study"])  # --problem is required
    assert err.value.code == 1


def test_solver_failure_exits_2(capsys):
    # gamma far above the coercivity threshold makes the system indefinite
    code = console_main(
        ["single", "--problem", "sinsin", "--gamma", "100", "--solver", "dense"]
    )
    assert code == 2
    assert "solver failure" in capsys.readouterr().err


def test_unwritable_output_is_io_error(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "out.csv"
    code = console_main(
        ["study", "--problem", "linear_patch", "--levels", "2", "--csv", str(target)]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["single", "--mesh-out", ""],
    ["single", "--solution-out", ""],
    ["single", "--matrix-out", ""],
    ["study", "--levels", "2", "--csv", ""],
    ["study", "--levels", "2", "--svg", ""],
    ["study", "--levels", "2", "--mesh-out", ""],
], ids=lambda argv: f"{argv[0]} {argv[-2]}")
def test_an_empty_output_path_exits_1(tmp_path, monkeypatch, capsys, argv):
    # unchecked, an empty path wrote nothing and the command exited 0; checked only when written,
    # it exited 1 after the solves, with their reports on stdout
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    assert console_main(argv[:1] + ["--problem", "linear_patch"] + argv[1:]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1] == "robinfem: error: a path must not be empty, got ''"
    assert [p.name for p in tmp_path.iterdir()] == ["work"] and list((tmp_path / "work").iterdir()) == []


def test_epsilon_and_tol_flags(capsys):
    code = console_main(
        [
            "single",
            "--problem",
            "sinsin",
            "--epsilon",
            "0.001",
            "--tol",
            "1e-8",
        ]
    )
    assert code == 0
    assert "err_E=" in capsys.readouterr().out


def test_mesh_without_triangles_exits_1(tmp_path, monkeypatch, capsys):
    import robinfem.study

    path = tmp_path / "empty.mesh"
    path.write_text("meshfmt 1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 0\n")
    monkeypatch.setattr(robinfem.study, "level_mesh", lambda domain, level: read_mesh(path))
    code = console_main(["single", "--problem", "sinsin"])
    assert code == 1
    err = capsys.readouterr().err
    assert "mesh has no triangles" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "error", [RobinFemError, *RobinFemError.__subclasses__()], ids=lambda cls: cls.__name__
)
def test_every_library_error_maps_to_its_exit_code(error, monkeypatch, capsys):
    def fail(domain, level):
        raise error("boom")

    monkeypatch.setattr(robinfem.study, "level_mesh", fail)  # the first step of every level
    code = console_main(["study", "--problem", "sinsin", "--levels", "2"])
    solver_failure = error in (NotConverged, IndefiniteMatrix)
    assert code == (2 if solver_failure else 1)
    kind = "solver failure" if solver_failure else "error"
    assert capsys.readouterr().err.splitlines() == [f"robinfem: {kind}: boom"]


def _run_as_process(*args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "robinfem.cli", *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_negative_level_exits_1_without_a_traceback():
    result = _run_as_process("single", "--problem", "sinsin", "--level", "-1")
    assert result.returncode == 1
    assert result.stderr.splitlines() == ["robinfem: error: level must be a nonnegative integer, got -1"]


@pytest.mark.parametrize(
    "solver, gamma, expected",
    [
        ("cg", "0", "the Robin weight 1/epsilon overflows at epsilon=1e-320 and gamma=0"),
        ("dense", "0", "the Robin weight 1/epsilon overflows at epsilon=1e-320 and gamma=0"),
        # gamma > 0, but 1/(eps + gamma*h_E) still overflows; only the edges know h_E
        ("cg", "1e-310", "the Robin weight 1/(epsilon + gamma*h_E) overflows at epsilon=1e-320, "
                         "gamma=1e-310 and h_E=0.261"),
    ],
    ids=["cg", "dense", "tiny-gamma"],
)
def test_overflowing_robin_weight_exits_1_without_a_traceback(solver, gamma, expected):
    result = _run_as_process(
        "single", "--problem", "sinsin", "--epsilon", "1e-320", "--gamma", gamma, "--solver", solver
    )
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert "RuntimeWarning" not in result.stderr
    assert result.stderr.splitlines() == [f"robinfem: error: {expected}"]


def test_dense_solve_above_the_direct_limit_exits_1():
    # SIPDG P1 on the level-3 square has 6,144 dofs: the dense matrix alone would take 302 MB
    result = _run_as_process("single", "--problem", "linear_patch", "--scheme", "dg", "--level", "3", "--solver", "dense")
    assert result.returncode == 1
    assert result.stderr.splitlines() == ["robinfem: error: the dense solve is limited to 5000 dofs, got 6144"]


@pytest.mark.parametrize("gamma", ["10", "100"])
def test_largest_epsilon_with_large_gamma_is_indefinite_without_warnings(gamma):
    # eps*gamma*h_E overflows, but the Robin weights do not: the verdict is the indefinite matrix
    result = _run_as_process("single", "--problem", "sinsin", "--epsilon", "1e308", "--gamma", gamma)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr and "RuntimeWarning" not in result.stderr
    assert result.stderr.splitlines() == ["robinfem: solver failure: matrix has a nonpositive diagonal entry"]


def test_tolerance_below_machine_epsilon_exits_1(capsys):
    code = console_main(["study", "--problem", "sinsin", "--levels", "2", "--tol", "1e-300"])
    assert code == 1
    assert "rel_tolerance" in capsys.readouterr().err
