"""Exception types raised across the library, and the guards of integer,
typed, array and path arguments and of function values."""

import numbers
import os

import numpy as np

__all__ = [
    "RobinFemError",
    "InvalidParameter",
    "DegenerateProjection",
    "NotOnBoundary",
    "NonManifoldMesh",
    "FormatError",
    "UnsupportedOrder",
    "SchemeMismatch",
    "MissingExactSolution",
    "NotConverged",
    "IndefiniteMatrix",
    "TooLarge",
    "DegenerateSequence",
]


def is_count(value, minimum):
    """Whether value is an integer (not a whole float or a bool) of at least minimum."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= minimum


def check_type(value, kind, name):
    """Raise InvalidParameter, naming value as name, unless it is a kind."""
    if not isinstance(value, kind):
        raise InvalidParameter(f"{name} must be a {kind.__name__}, got {value!r}")


def as_path(path):
    """os.fspath of a str, bytes or os.PathLike path; InvalidParameter for anything
    else, so that an int is never opened as a file descriptor."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise InvalidParameter(f"a path must be a str, bytes or os.PathLike, got {path!r}")
    return os.fspath(path)


def as_array(values, kinds, rule):
    """values as an array of a dtype kind in kinds, else InvalidParameter
    saying rule; numpy refuses ragged rows."""
    try:
        array = np.asarray(values)
    except ValueError:
        raise InvalidParameter(f"{rule}, given in rows of equal length") from None
    if array.size and array.dtype.kind not in kinds:
        raise InvalidParameter(f"{rule}, got {array.dtype} values")
    return array


def values_at(func, x, shape=(), what="problem data"):
    """func(x, y) at the points x (..., 2), broadcast to x.shape[:-1] + shape;
    raises InvalidParameter, naming func as what, unless it is callable and
    its values are real and broadcast so."""
    if not callable(func):
        raise InvalidParameter(f"{what} must be callable, got {func!r}")
    shape = x.shape[:-1] + shape
    values = as_array(func(x[..., 0], x[..., 1]), "biuf", f"{what} must be real")
    try:
        return np.broadcast_to(values.astype(float, copy=False), shape)
    except ValueError:
        raise InvalidParameter(f"{what} of shape {values.shape} does not broadcast to the points' {shape}") from None


class RobinFemError(Exception):
    """Base class for all library errors."""


class InvalidParameter(RobinFemError):
    """A constructor or generator argument is outside its admissible range."""


class DegenerateProjection(RobinFemError):
    """Boundary projection is undefined at this point (e.g. disk center)."""


class NotOnBoundary(RobinFemError):
    """A point expected on the domain boundary is not on it."""


class NonManifoldMesh(RobinFemError):
    """An edge is shared by more than two triangles, or its two triangles
    walk it the same way (they overlap)."""


class FormatError(RobinFemError):
    """Mesh file violates the expected text format."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnsupportedOrder(RobinFemError):
    """Requested quadrature order has no tabulated rule."""


class SchemeMismatch(RobinFemError):
    """Operation is not defined for the given scheme."""


class MissingExactSolution(RobinFemError):
    """Problem data has no exact solution to compare against."""


class _SolverFailure:
    """The relative residual history of a failed solve, as ``residual_history``;
    a mixin, so that each solver failure stays a direct RobinFemError subclass."""

    def __init__(self, message, residual_history=None):
        self.residual_history = list(residual_history or [])
        super().__init__(message)


class NotConverged(_SolverFailure, RobinFemError):
    """Iterative solver exhausted its iteration budget."""


class IndefiniteMatrix(_SolverFailure, RobinFemError):
    """Matrix is not positive definite (coercivity failure, gamma too large).

    Carries the CG residual history accumulated before detection, if any.
    """


class TooLarge(RobinFemError):
    """Problem dimension exceeds the limit of a dense code path."""


class DegenerateSequence(RobinFemError):
    """Error sequence unusable for convergence-order computation."""
