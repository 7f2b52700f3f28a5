"""Exception types shared across the package."""

from __future__ import annotations


class AffineSurfaceError(Exception):
    """Base class for all package-specific errors."""


class DomainError(AffineSurfaceError):
    """A point lies outside the coordinate chart of a field or map."""


class UnknownModelError(AffineSurfaceError, KeyError):
    """Requested catalog model name does not exist."""


class InvalidParameterError(AffineSurfaceError, ValueError):
    """A model or operation parameter is outside its admissible set."""


class NoMetricError(AffineSurfaceError):
    """The model carries no compatible metric."""


class ClassificationInconclusiveError(AffineSurfaceError):
    """No verdict: the chart's Gamma does not factor as a normal form
    predicts, or the witness leaves a residual above the tolerance."""


class ParamOutOfDomainError(AffineSurfaceError, ValueError):
    """Closed-form curve evaluated outside its parameter domain."""


class InvalidIVPError(AffineSurfaceError, ValueError):
    """Initial value problem data is malformed (wrong chart, zero span)."""


class DegenerateFitError(AffineSurfaceError):
    """Orbit has no hyperbola equation (vanishing angular momentum)."""


class NotTangentError(AffineSurfaceError, ValueError):
    """Ambient vector fails the tangency constraint of the surface."""


class DifferentiationFailureError(AffineSurfaceError):
    """Numeric chart differentiation failed near a domain boundary."""


class NotNullGeodesicError(AffineSurfaceError):
    """Spray base curve is not a null geodesic within tolerance."""


class BadNormalizationError(AffineSurfaceError):
    """Spray seed vector violates its inner-product normalization."""


class FrameDegenerateError(AffineSurfaceError):
    """Parallel frame lost linear independence during transport."""


class LiftAmbiguityError(AffineSurfaceError):
    """Angle unwrapping step exceeded the continuity cap."""


class IntegrationError(AffineSurfaceError):
    """Numerical integration failed in a way that has no status verdict."""
