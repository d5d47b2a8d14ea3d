"""Study driver and the CSV/SVG/solution writers."""

import dataclasses
import gc
import math
import os
import stat

import numpy as np
import pytest
import scipy.sparse as sp

from robinfem import (
    DegenerateSequence,
    InvalidParameter,
    Method,
    Scheme,
    SolverConfig,
    SolverMethod,
    StudyConfig,
    eoc,
    generate_disk_mesh,
    read_mesh,
    run_convergence,
    run_single,
    write_csv,
    write_matrix,
    write_mesh,
    write_svg,
)
from robinfem.study import CSV_HEADER


@pytest.fixture(scope="module")
def sinsin_reports():
    config = StudyConfig(
        problem="sinsin",
        scheme=Scheme(Method.NITSCHE, degree=1, epsilon=1.0, gamma=0.1),
        levels=3,
    )
    return run_convergence(config)


def test_run_convergence_reports(sinsin_reports):
    reports = sinsin_reports
    assert [r.level for r in reports] == [0, 1, 2]
    hs = [r.h_max for r in reports]
    assert hs == sorted(hs, reverse=True)
    assert reports[0].eoc_energy is None and reports[0].eoc_l2 is None
    for r in reports[1:]:
        assert r.eoc_energy is not None and r.eoc_l2 is not None
    errs = [r.err_energy for r in reports]
    assert errs == sorted(errs, reverse=True)
    assert 0.5 <= reports[-1].eoc_energy <= 1.5


def test_study_config_validation():
    fields = dict(problem="sinsin", scheme=Scheme(Method.NITSCHE), levels=2, solver=SolverConfig())
    for field, value, message in [("levels", 1, "at least 2 levels"), ("scheme", "x", "scheme must be a Scheme"),
                                  ("scheme", Method.NITSCHE, "scheme must be a Scheme"),
                                  ("solver", "cg", "solver must be a SolverConfig"),
                                  ("solver", SolverMethod.DENSE, "solver must be a SolverConfig")]:
        with pytest.raises(InvalidParameter, match=message):
            StudyConfig(**{**fields, field: value})


@pytest.mark.parametrize("name", [42, ["sinsin"], "nope"], ids=["int", "list", "unknown"])
def test_study_config_refuses_an_unknown_problem(name):
    # a bad name used to be accepted here and fail only once the study ran
    with pytest.raises(InvalidParameter, match="unknown problem"):
        StudyConfig(name, Scheme(Method.NITSCHE))


def test_run_single_and_run_convergence_refuse_what_they_cannot_run():
    with pytest.raises(InvalidParameter, match="unknown problem"):
        run_single(["sinsin"], Scheme(Method.NITSCHE))
    with pytest.raises(InvalidParameter, match="the study config must be a StudyConfig"):
        run_convergence("sinsin")


@pytest.mark.parametrize("scheme, solver, message", [
    ("n", None, "scheme must be a Scheme"),
    (Scheme(Method.NITSCHE), "dense", "the solver config must be a SolverConfig"),
    (Scheme(Method.NITSCHE), SolverMethod.DENSE, "the solver config must be a SolverConfig"),
])
def test_run_single_rejects_a_mistyped_scheme_or_solver(scheme, solver, message):
    with pytest.raises(InvalidParameter, match=message):
        run_single("sinsin", scheme, 0, solver)


def test_csv_format(tmp_path, sinsin_reports):
    path = tmp_path / "table.csv"
    write_csv(sinsin_reports, path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(sinsin_reports)
    # first data row has no rates yet: two trailing empty fields
    assert lines[1].endswith(",,")
    for lineno, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert len(fields) == 7
        assert int(fields[0]) == lineno
        float(fields[1]), int(fields[2]), float(fields[3]), float(fields[4])
    second = lines[2].split(",")
    assert abs(float(second[5]) - sinsin_reports[1].eoc_energy) < 1e-9
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")


def test_csv_is_byte_reproducible(tmp_path, sinsin_reports):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(sinsin_reports, a)
    write_csv(sinsin_reports, b)
    assert a.read_bytes() == b.read_bytes()
    assert not list(tmp_path.glob("*.tmp"))


def test_write_ignores_stale_tmp_directory(tmp_path, sinsin_reports):
    path = tmp_path / "table.csv"
    (tmp_path / "table.csv.tmp").mkdir()
    write_csv(sinsin_reports, path)
    assert path.read_text().splitlines()[0] == CSV_HEADER
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv", "table.csv.tmp"]
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


def test_failed_write_leaves_no_temp_file(tmp_path, sinsin_reports, monkeypatch):
    mesh = generate_disk_mesh(2)
    writers = {  # every artifact writer
        "table.csv": lambda path: write_csv(sinsin_reports, path),
        "plot.svg": lambda path: write_svg(sinsin_reports, path),
        "out.mesh": lambda path: write_mesh(mesh, path),
        "matrix.txt": lambda path: write_matrix(sp.identity(3, format="csr"), path),
        "solution.txt": lambda path: run_single("linear_patch", Scheme(Method.NITSCHE), solution_out=path),
    }

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    for name, write in writers.items():
        for old in (None, b"old bytes\n"):  # no target, then a target that must keep its bytes
            target = tmp_path / name
            if old is not None:
                target.write_bytes(old)
            with pytest.raises(OSError, match="rename refused"):
                write(target)
            assert list(tmp_path.iterdir()) == ([] if old is None else [target]), name
            if old is not None:
                assert target.read_bytes() == old, name
                target.unlink()


def test_write_leaves_the_umask_alone(tmp_path, sinsin_reports, monkeypatch):
    # the temporary file is created with mode 0o666, so the kernel applies the umask; setting the
    # process umask to read it would open a window in which other threads create files 0o666 or 0o777
    umask = os.umask(0)
    os.umask(umask)

    def refuse(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", refuse)
    path = tmp_path / "table.csv"
    write_csv(sinsin_reports, path)
    assert path.read_text().splitlines()[0] == CSV_HEADER
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
    assert list(tmp_path.iterdir()) == [path]


def _path_calls(sinsin_reports):
    """Each reader and writer of a path, given path in its place."""
    mesh = generate_disk_mesh(2)
    return {
        "read_mesh": read_mesh,
        "write_mesh": lambda path: write_mesh(mesh, path),
        "write_matrix": lambda path: write_matrix(sp.identity(3, format="csr"), path),
        "write_csv": lambda path: write_csv(sinsin_reports, path),
        "write_svg": lambda path: write_svg(sinsin_reports, path),
        "solution dump": lambda path: run_single("linear_patch", Scheme(Method.NITSCHE), solution_out=path),
    }


@pytest.mark.parametrize("case, path", [
    (case, path)
    for case in ("read_mesh", "write_mesh", "write_matrix", "write_csv", "write_svg", "solution dump")
    for path in (None, 3.5, 7)
    # read_mesh would open an int as a file descriptor: tested on a pipe below; None is no dump in run_single
    if not (case == "read_mesh" and path == 7 or case == "solution dump" and path is None)
])
def test_a_path_that_is_not_a_path_is_rejected(tmp_path, sinsin_reports, monkeypatch, case, path):
    # unchecked, each raised TypeError
    monkeypatch.chdir(tmp_path)
    with pytest.raises(InvalidParameter, match="path must be a str, bytes or os.PathLike"):
        _path_calls(sinsin_reports)[case](path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("path", ["", b""], ids=["str", "bytes"])
@pytest.mark.parametrize("case", ["read_mesh", "write_mesh", "write_matrix", "write_csv", "write_svg", "solution dump",
                                  "mesh dump", "study mesh dump"])
def test_an_empty_path_is_rejected(tmp_path, sinsin_reports, monkeypatch, case, path):
    # unchecked, run_single and run_convergence skipped an empty path, and a writer created and
    # deleted a temporary file in the parent of the working directory, then raised FileNotFoundError
    calls = _path_calls(sinsin_reports)
    calls["mesh dump"] = lambda path: run_single("linear_patch", Scheme(Method.NITSCHE), mesh_out=path)
    calls["study mesh dump"] = lambda path: run_convergence(StudyConfig("linear_patch", Scheme(Method.NITSCHE), 2), path)
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    with pytest.raises(InvalidParameter, match="a path must not be empty"):
        calls[case](path)
    assert [p.name for p in tmp_path.iterdir()] == ["work"] and list((tmp_path / "work").iterdir()) == []


def test_run_single_checks_both_dump_paths_before_it_solves(tmp_path, monkeypatch):
    # unchecked, this call solved, wrote nothing and raised nothing
    monkeypatch.chdir(tmp_path)
    for mesh_out, solution_out in (("", 0), ("mesh.txt", 0), ("", "solution.txt")):
        with pytest.raises(InvalidParameter, match="a path must"):
            run_single("linear_patch", Scheme(Method.NITSCHE), mesh_out=mesh_out, solution_out=solution_out)
    assert list(tmp_path.iterdir()) == []


def test_read_mesh_refuses_a_file_descriptor(tmp_path):
    # unchecked, read_mesh(fd) read the mesh from the pipe and closed the descriptor
    path = tmp_path / "one.mesh"
    write_mesh(generate_disk_mesh(2), path)
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, path.read_bytes())
        os.close(write_end)
        with pytest.raises(InvalidParameter, match="path must be a str"):
            read_mesh(read_end)
        assert os.read(read_end, 10) == b"meshfmt 1\n"  # still open, and unread
    finally:
        os.close(read_end)


def test_paths_may_be_str_bytes_or_path_like(tmp_path):
    mesh = generate_disk_mesh(2)
    for path in (str(tmp_path / "a.mesh"), os.fsencode(tmp_path / "b.mesh"), tmp_path / "c.mesh"):
        write_mesh(mesh, path)
        assert read_mesh(path).n_vertices == mesh.n_vertices
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.mesh", "b.mesh", "c.mesh"]


@pytest.mark.parametrize("reports", [None, 3], ids=["None", "int"])
@pytest.mark.parametrize("writer", [write_csv, write_svg])
def test_reports_that_are_not_iterable_are_rejected(tmp_path, writer, reports):
    # unchecked, list(reports) raised TypeError
    with pytest.raises(InvalidParameter, match="reports must be a sequence of ErrorReport"):
        writer(reports, tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


def test_svg_contents(tmp_path, sinsin_reports):
    path = tmp_path / "plot.svg"
    write_svg(sinsin_reports, path)
    text = path.read_text()
    assert text.startswith("<svg ")
    assert text.count("<polyline ") == 2  # energy and L2 curves
    assert text.count("<line ") == 2  # slope-1 and slope-2 references
    assert "#1f77b4" in text and "#d62728" in text
    assert "stroke-dasharray" in text
    write_svg(sinsin_reports, tmp_path / "plot2.svg")
    assert path.read_bytes() == (tmp_path / "plot2.svg").read_bytes()
    with pytest.raises(InvalidParameter):
        write_svg(sinsin_reports[:1], tmp_path / "bad.svg")


_UNPLOTTABLE = [
    ("err_energy", 0.0),
    ("err_l2", -1e-3),
    ("err_energy", math.nan),
    ("err_l2", math.inf),
    ("h_max", 0.0),
    ("h_max", -0.1),
    ("h_max", math.nan),
    ("h_max", "middle"),  # the middle level's h, so two levels share it
]
# valid ladders (h, error) on which a slope-p reference line, 0.7 err_0 (h / h_0)^p, underflows to 0
_UNDERFLOWING = {
    "tiny errors": [(1.0, 1e-310), (1e-5, 3e-311), (1e-10, 1e-311)],
    "wide h": [(1e300, 1e300), (1.0, 1.0), (1e-300, 1e-300)],
}


@pytest.mark.parametrize(
    "level, field, value",
    [(level, field, value) for level in (0, 2) for field, value in _UNPLOTTABLE]
    + [pytest.param(None, "ladder", ladder, id=name) for name, ladder in _UNDERFLOWING.items()],
)
def test_svg_rejects_what_it_cannot_plot(tmp_path, sinsin_reports, field, value, level):
    # no log-log plot shows these: the typed error comes before any file is written
    reports = [dataclasses.replace(r) for r in sinsin_reports]
    if field == "ladder":  # every level's h and both errors
        for r, (h, error) in zip(reports, value):
            r.h_max, r.err_energy, r.err_l2 = h, error, error
        eoc([(r.h_max, r.err_energy) for r in reports])  # which eoc accepts
    else:
        if value == "middle":
            value = reports[1].h_max
        setattr(reports[level], field, value)
    with pytest.raises(DegenerateSequence):
        write_svg(reports, tmp_path / "bad.svg")
    assert not (tmp_path / "bad.svg").exists()


@pytest.mark.parametrize("writer", [write_csv, write_svg], ids=["csv", "svg"])
@pytest.mark.parametrize("item", [None, "report", (0.5, 0.1)], ids=["None", "str", "tuple"])
def test_the_writers_refuse_an_item_that_is_not_an_error_report(tmp_path, sinsin_reports, writer, item):
    # unchecked, each ends in an AttributeError on the missing field
    with pytest.raises(InvalidParameter, match="must be a ErrorReport"):
        writer([*sinsin_reports, item], tmp_path / "bad")
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("matrix", [None, "abc"], ids=["None", "str"])
def test_write_matrix_refuses_what_is_not_a_matrix(tmp_path, matrix):
    # scipy's conversion raises ValueError on these
    with pytest.raises(InvalidParameter, match="must be a 2-d array of numbers"):
        write_matrix(matrix, tmp_path / "bad.txt")
    assert not (tmp_path / "bad.txt").exists()


@pytest.mark.parametrize("order", [[2, 1, 0], [0, 2, 1]])  # ascending h, then non-monotone h
def test_svg_rejects_mesh_sizes_that_do_not_decrease(tmp_path, sinsin_reports, order):
    # the plot reads coarsest first, as eoc does
    with pytest.raises(DegenerateSequence):
        write_svg([sinsin_reports[i] for i in order], tmp_path / "bad.svg")
    assert not (tmp_path / "bad.svg").exists()


def test_run_single_writes_artifacts(tmp_path):
    mesh_path = tmp_path / "out.mesh"
    sol_path = tmp_path / "solution.txt"
    mesh, system, solution, report = run_single(
        "linear_patch",
        Scheme(Method.NITSCHE, degree=1, epsilon=1.0),
        level=0,
        mesh_out=mesh_path,
        solution_out=sol_path,
    )
    assert report.err_l2 < 1e-9  # linear solution reproduced exactly
    clone = read_mesh(mesh_path)
    assert clone.n_vertices == mesh.n_vertices
    lines = sol_path.read_text().splitlines()
    assert len(lines) == system.dofmap.n_dofs
    for i, line in enumerate(lines):
        idx, val = line.split()
        assert int(idx) == i
        assert math.isfinite(float(val))
    np.testing.assert_allclose(
        [float(l.split()[1]) for l in lines], solution, rtol=1e-15
    )
    assert not list(tmp_path.glob("*.tmp"))


def test_run_single_levels_pick_mesh_size():
    mesh0, _, _, _ = run_single("linear_patch", Scheme(Method.NITSCHE))
    mesh1, _, _, _ = run_single("linear_patch", Scheme(Method.NITSCHE), level=1)
    assert mesh1.n_triangles == 4 * mesh0.n_triangles
    assert mesh0.n_triangles == 2 * 4 * 4


def test_each_ladder_level_is_released_before_the_next(monkeypatch):
    import robinfem.study
    from robinfem.assembly import _MEMO, assemble

    gc.collect()
    before, live = len(_MEMO), []

    def counting_assemble(*args):
        system = assemble(*args)
        live.append(len(_MEMO) - before)  # meshes whose assembly memo is alive
        return system

    monkeypatch.setattr(robinfem.study, "assemble", counting_assemble)
    run_convergence(StudyConfig(problem="sinsin", scheme=Scheme(Method.NITSCHE), levels=4))
    assert len(live) == 4 and max(live) <= 1
