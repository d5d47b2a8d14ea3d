import math

import numpy as np
import pytest

from robinfem import (
    DegenerateProjection,
    NotOnBoundary,
    generate_disk_mesh,
    skin_diagnostics,
    unit_disk,
    unit_square,
)


def test_disk_signed_distance_exact():
    disk = unit_disk()
    assert disk.signed_distance(np.array([0.0, 0.0])) == -1.0
    assert disk.signed_distance(np.array([2.0, 0.0])) == 1.0
    pts = np.array([[0.5, 0.0], [0.0, -1.0], [3.0, 4.0]])
    np.testing.assert_allclose(disk.signed_distance(pts), [-0.5, 0.0, 4.0], atol=1e-15)


def test_square_signed_distance():
    sq = unit_square()
    assert sq.signed_distance(np.array([0.5, 0.5])) == -0.5
    assert sq.signed_distance(np.array([0.5, 0.0])) == 0.0
    # outside a corner: Euclidean distance to the corner point
    d = sq.signed_distance(np.array([1.3, 1.4]))
    assert abs(d - math.hypot(0.3, 0.4)) < 1e-15
    assert abs(sq.signed_distance(np.array([-0.2, 0.5])) - 0.2) < 1e-15


def test_disk_projection():
    disk = unit_disk()
    np.testing.assert_allclose(disk.project(np.array([0.8, 0.0])), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(disk.project(np.array([0.0, 1.1])), [0.0, 1.0], atol=1e-15)
    p = disk.project(np.array([0.6, 0.6]))
    np.testing.assert_allclose(p, [1 / math.sqrt(2)] * 2, atol=1e-14)


def test_projection_rejects_points_outside_tube():
    disk = unit_disk()
    with pytest.raises(DegenerateProjection):
        disk.project(np.array([0.0, 0.0]))
    with pytest.raises(DegenerateProjection):
        unit_square().project(np.array([0.5, 0.5]))


def test_projection_lands_on_boundary():
    rng = np.random.default_rng(7)
    disk = unit_disk()
    theta = rng.uniform(0.0, 2 * np.pi, 200)
    r = rng.uniform(0.55, 1.4, 200)
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    proj = disk.project(pts)
    assert np.max(np.abs(disk.signed_distance(proj))) <= 1e-14


def test_projection_idempotent_and_round_trip():
    rng = np.random.default_rng(21)
    disk = unit_disk()
    theta = rng.uniform(0.0, 2 * np.pi, 100)
    r = rng.uniform(0.6, 1.3, 100)
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    proj = disk.project(pts)
    np.testing.assert_allclose(disk.project(proj), proj, atol=1e-12)
    d = disk.signed_distance(pts)
    rebuilt = proj + d[:, None] * disk.normal(proj)
    assert np.max(np.abs(rebuilt - pts)) <= 1e-12


def test_square_round_trip_on_side_interiors():
    # points whose projection hits a side interior (corners have no
    # well-defined normal, so the round-trip only makes sense here)
    sq = unit_square()
    pts = np.array([[0.5, 0.1], [0.5, 1.2], [-0.3, 0.5], [0.97, 0.5]])
    proj = sq.project(pts)
    d = sq.signed_distance(pts)
    rebuilt = proj + d[:, None] * sq.normal(proj)
    assert np.max(np.abs(rebuilt - pts)) <= 1e-12


def test_square_interior_tie_is_lexicographic():
    sq = unit_square()
    # equidistant from bottom and left: choose the smaller boundary point
    p = sq.project(np.array([0.25, 0.25]))
    np.testing.assert_allclose(p, [0.0, 0.25], atol=1e-15)
    # the same tie arbitrarily close to the corner
    np.testing.assert_array_equal(sq.project(np.array([1e-301, 1e-301])), [0.0, 1e-301])


def test_square_normal_field_matches_the_projection():
    # inside the square and beside its sides, the side that project moves
    # a point onto is the side whose normal the field gives there
    sq = unit_square()
    rng = np.random.default_rng(11)
    t = np.arange(1, 32) / 64  # dyadic, so 1 - t is exact and the diagonal ties are exact
    pts = np.concatenate([
        rng.uniform(0.01, 0.99, (400, 2)),
        np.column_stack([t, t]), np.column_stack([1.0 - t, 1.0 - t]),  # diagonal ties
        np.column_stack([t, 1.0 - t]), np.column_stack([1.0 - t, t]),
        np.column_stack([-0.5 * t, 0.5 + t]), np.column_stack([0.5 - t, 1.0 + 0.5 * t]),  # outside
    ])
    np.testing.assert_array_equal(sq.normal(sq.project(pts)), sq.normal_field(pts))
    # ties break left, bottom, top, right
    np.testing.assert_array_equal(sq.normal_field(np.column_stack([t, t])), np.tile([-1.0, 0.0], (31, 1)))
    np.testing.assert_array_equal(sq.normal_field(np.column_stack([t, 1.0 - t])), np.tile([-1.0, 0.0], (31, 1)))
    np.testing.assert_array_equal(sq.normal_field(np.array([0.75, 0.25])), [0.0, -1.0])
    np.testing.assert_array_equal(sq.normal_field(np.array([0.75, 0.75])), [0.0, 1.0])


def test_square_corner_normals_follow_the_tie_order():
    sq = unit_square()
    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    expected = [[-1.0, 0.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 1.0]]
    np.testing.assert_array_equal(sq.normal(corners), expected)
    np.testing.assert_array_equal(sq.normal(sq.project(corners)), expected)


def test_disk_normal_field_is_radial_everywhere():
    disk = unit_disk()
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2.0, 2.0, (3, 7, 2))
    nu = disk.normal_field(pts)
    assert nu.shape == pts.shape
    np.testing.assert_array_equal(nu, pts / np.hypot(pts[..., 0], pts[..., 1])[..., None])
    ring = pts[0] / np.linalg.norm(pts[0], axis=1)[:, None]
    np.testing.assert_array_equal(disk.normal(ring), disk.normal_field(ring))


def test_normals():
    disk = unit_disk()
    np.testing.assert_allclose(disk.normal(np.array([0.0, -1.0])), [0.0, -1.0], atol=1e-15)
    np.testing.assert_allclose(disk.normal(np.array([1.0, 0.0])), [1.0, 0.0], atol=1e-15)
    sq = unit_square()
    np.testing.assert_allclose(sq.normal(np.array([0.3, 0.0])), [0.0, -1.0], atol=1e-15)
    np.testing.assert_allclose(sq.normal(np.array([1.0, 0.7])), [1.0, 0.0], atol=1e-15)
    with pytest.raises(NotOnBoundary):
        disk.normal(np.array([0.5, 0.5]))


def test_normal_unit_length():
    rng = np.random.default_rng(3)
    disk = unit_disk()
    theta = rng.uniform(0.0, 2 * np.pi, 100)
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    norms = np.linalg.norm(disk.normal(pts), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-14)


def test_skin_diagnostics_against_chord_geometry():
    # boundary chords of the ring mesh subtend angle 2*alpha with
    # alpha = pi/(6N); the deepest sampled point is the chord midpoint
    disk = unit_disk()
    for rings in (2, 4, 8):
        mesh = generate_disk_mesh(rings)
        diag = skin_diagnostics(disk, mesh)
        alpha = math.pi / (6 * rings)
        sagitta = 1.0 - math.cos(alpha)
        assert abs(diag.max_abs_distance - sagitta) < 1e-13
        assert abs(diag.max_tstar - sagitta) < 1e-13
        # normal deviation at the outermost gauss node of the chord
        t0 = 0.5 * (1.0 - 0.9061798459386640)  # 5-point rule endpoint
        phi = math.atan((1.0 - 2.0 * t0) * math.tan(alpha))
        expected = 2.0 * math.sin(phi / 2.0)
        assert abs(diag.max_normal_deviation - expected) < 1e-12


def test_skin_diagnostics_square_is_exact():
    from robinfem import generate_square_mesh

    diag = skin_diagnostics(unit_square(), generate_square_mesh(3))
    assert diag.max_abs_distance <= 1e-14
    assert diag.max_normal_deviation <= 1e-12
    assert diag.max_tstar <= 1e-14


def test_skin_bounds_along_refinement():
    disk = unit_disk()
    for rings in (4, 8, 16, 32):
        mesh = generate_disk_mesh(rings)
        diag = skin_diagnostics(disk, mesh)
        assert diag.max_abs_distance <= mesh.h_max**2 / 4
        assert diag.max_normal_deviation <= mesh.h_max
