"""Study driver and the CSV/SVG/solution writers."""

import gc
import math
import os
import stat

import numpy as np
import pytest

from robinfem import (
    InvalidParameter,
    Method,
    Scheme,
    StudyConfig,
    read_mesh,
    run_convergence,
    run_single,
    write_csv,
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
    with pytest.raises(InvalidParameter):
        StudyConfig(problem="sinsin", scheme=Scheme(Method.NITSCHE), levels=1)


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
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        write_csv(sinsin_reports, tmp_path / "table.csv")
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
    from robinfem.assembly import _SPACES, assemble

    gc.collect()
    before, live = len(_SPACES), []

    def counting_assemble(*args):
        system = assemble(*args)
        live.append(len(_SPACES) - before)  # meshes whose assembly memo is alive
        return system

    monkeypatch.setattr(robinfem.study, "assemble", counting_assemble)
    run_convergence(StudyConfig(problem="sinsin", scheme=Scheme(Method.NITSCHE), levels=4))
    assert len(live) == 4 and max(live) <= 1
