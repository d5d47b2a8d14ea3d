"""Analytic geometry of the exact smooth domains.

Signed distance, orthogonal projection onto the boundary, and one outward
unit normal field for each of the two supported domains (unit disk, unit
square): radial on the disk, the nearest side's on the square, extended
off the boundary so that boundary data can be evaluated on an inscribed
polygon.  Plus the boundary-skin diagnostics measured on such polygonal
meshes: how far the polygon boundary strays from the true boundary and how
much the facet normals deviate from the exact ones.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateProjection, InvalidParameter, NotOnBoundary, as_array, check_type
from .felib import edge_rule

__all__ = [
    "DomainKind",
    "Domain",
    "SkinDiagnostics",
    "unit_disk",
    "unit_square",
    "skin_diagnostics",
]

_ON_BOUNDARY_TOL = 1e-12
# half-width of the tube around the boundary inside which the projection is single-valued
_PROJECTION_TUBE = 0.5


class DomainKind(Enum):
    UNIT_DISK = "unit_disk"
    UNIT_SQUARE = "unit_square"


@dataclass(frozen=True)
class Domain:
    """Analytic domain with closed-form distance, projection and normal field."""

    kind: DomainKind

    def __post_init__(self):
        check_type(self.kind, DomainKind, "the domain kind")

    def signed_distance(self, points):
        """Signed distance to the boundary, (..., 2) -> (...): negative inside, zero on it."""
        pts = _points(points)
        x, y = pts[..., 0], pts[..., 1]
        if self.kind is DomainKind.UNIT_DISK:
            return np.hypot(x, y) - 1.0
        dx = np.maximum(-x, x - 1.0)
        dy = np.maximum(-y, y - 1.0)
        outside = np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0))
        inside = np.minimum(np.maximum(dx, dy), 0.0)
        return outside + inside

    def project(self, points):
        """Orthogonal projection onto the boundary, (..., 2) -> (..., 2), for points in the tube."""
        pts = _points(points)
        if np.any(np.abs(self.signed_distance(pts)) >= _PROJECTION_TUBE):
            raise DegenerateProjection(
                f"point outside the projection tube |d| < {_PROJECTION_TUBE}"
            )
        nu = self.normal_field(pts)
        if self.kind is DomainKind.UNIT_DISK:
            return nu
        # inside, move onto the nearest side; on or outside the square, clamp
        onto_side = np.where(nu != 0.0, 0.5 * (nu + 1.0), pts)
        outside = np.any((pts <= 0.0) | (pts >= 1.0), axis=-1, keepdims=True)
        return np.where(outside, np.clip(pts, 0.0, 1.0), onto_side)

    def normal(self, points):
        """Outward unit normal at points on the boundary, (..., 2) -> (..., 2)."""
        d = np.abs(self.signed_distance(points))
        if np.any(d > _ON_BOUNDARY_TOL):
            raise NotOnBoundary(f"point at signed distance {np.max(d):.3e} from the boundary")
        return self.normal_field(points)

    def normal_field(self, points):
        """Outward unit normal extended off the boundary, (..., 2) -> (..., 2).

        Radial on the disk.  On the square, the normal of the nearest side;
        ties break left, bottom, top, right, the order of the boundary
        points that project picks, which is lexicographic.
        """
        pts = _points(points)
        x, y = pts[..., 0], pts[..., 1]
        if self.kind is DomainKind.UNIT_DISK:
            return pts / np.hypot(x, y)[..., None]
        return _SIDE_NORMALS[np.argmin(np.stack([x, y, 1.0 - y, 1.0 - x]), axis=0)]


def _points(points):
    """points as a float array (..., 2); InvalidParameter unless they are real with a last axis of 2."""
    pts = as_array(points, "biuf", "points must be real")
    if pts.ndim == 0 or pts.shape[-1] != 2:
        raise InvalidParameter(f"points must have a last axis of length 2, got shape {pts.shape}")
    return pts.astype(float, copy=False)


# outward normals of the square's sides: left, bottom, top, right
_SIDE_NORMALS = np.array([[-1.0, 0.0], [0.0, -1.0], [0.0, 1.0], [1.0, 0.0]])


def unit_disk():
    return Domain(DomainKind.UNIT_DISK)


def unit_square():
    return Domain(DomainKind.UNIT_SQUARE)


@dataclass(frozen=True)
class SkinDiagnostics:
    """Measured gap between the polygonal and the exact boundary.

    max_abs_distance     : max |d(x)| over boundary-edge quadrature points
    max_normal_deviation : max |nu_h - nu(proj(x))| over the same points
    max_tstar            : max |x - proj(x)|, the inverse-projection shift
    """

    max_abs_distance: float
    max_normal_deviation: float
    max_tstar: float


def skin_diagnostics(domain, mesh):
    """Sample boundary edges of a mesh against the exact domain boundary."""
    from .mesh import Mesh  # mesh imports this module

    check_type(domain, Domain, "domain")
    check_type(mesh, Mesh, "mesh")
    edges = mesh.boundary_edges
    pts = mesh.edge_points(edges, edge_rule(8).points)  # (q, E, 2)
    dist = domain.signed_distance(pts)
    proj = domain.project(pts)
    nu = domain.normal(proj)
    return SkinDiagnostics(
        max_abs_distance=float(np.max(np.abs(dist))),
        max_normal_deviation=float(np.max(np.linalg.norm(edges.normal - nu, axis=-1))),
        max_tstar=float(np.max(np.linalg.norm(pts - proj, axis=-1))),
    )
