"""Named canonical models.

The catalog provides the canonical locally symmetric charts the rest of the
package refers to by name, together with compatible metrics where one
exists.  The Lorentz half-plane model ``L2`` carries the metric
g = (x1)**(-2) diag(-1, 1), which equals its Ricci tensor; a vector
(xi1, xi2) is timelike when |xi1| > |xi2| (g(xi, xi) < 0) and spacelike when
|xi1| < |xi2|.  The Riemannian half-plane model ``H2`` carries
g = (x1)**(-2) diag(1, 1).  The ``pseudosphere`` chart carries
g = diag(-1, cosh(u)**2) on coordinates (u, v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import InvalidParameterError, NoMetricError, UnknownModelError
from .fields import ChristoffelField
from .lorentz import l2_metric

__all__ = [
    "NamedModel",
    "MODEL_NAMES",
    "get_model",
    "model_metric",
    "parse_model_spec",
    "format_model_spec",
]


@dataclass(frozen=True)
class NamedModel:
    """A catalog entry: canonical chart plus optional metric and flags."""

    name: str
    field: ChristoffelField
    complete: bool
    metric: Callable[[tuple], np.ndarray] | None = None
    c: Fraction | None = None


def _h2_metric(p) -> np.ndarray:
    s = 1.0 / float(p[0]) ** 2
    return np.array([[s, 0.0], [0.0, s]])


def _pseudosphere_metric(p) -> np.ndarray:
    u = float(p[0])
    return np.array([[-1.0, 0.0], [0.0, math.cosh(u) ** 2]])


def _pseudosphere_gamma(u: float, v: float) -> tuple:
    return (0.0, 0.0, 0.0, math.tanh(u), math.cosh(u) * math.sinh(u), 0.0)


def _pseudosphere_dgamma(u: float, v: float) -> tuple:
    sech2 = 1.0 / math.cosh(u) ** 2
    return (
        (0.0, 0.0),
        (0.0, 0.0),
        (0.0, 0.0),
        (sech2, 0.0),
        (math.cosh(2.0 * u), 0.0),
        (0.0, 0.0),
    )


def _s3t_gamma(x1: float, x2: float) -> tuple:
    return (0.0, 0.0, 0.0, 0.0, x1, 0.0)


def _s3t_dgamma(x1: float, x2: float) -> tuple:
    return ((0.0, 0.0),) * 4 + ((1.0, 0.0), (0.0, 0.0))


MODEL_NAMES = ("S1", "S2", "S3", "S3~", "S4", "S5", "H2", "L2", "pseudosphere", "flat")

# Built once: every lookup of a name shares one field and the exact tables
# that field keeps.
_STATIC = {
    "S1": NamedModel(
        "S1", ChristoffelField.type_a((-1, 0, Fraction(-1, 2), 0, 0, 0), name="S1"), False
    ),
    "S2": NamedModel(
        "S2", ChristoffelField.type_a((0, 0, Fraction(-1, 2), 0, 0, 0), name="S2"), True
    ),
    "S3": NamedModel(
        "S3", ChristoffelField.type_a((-1, 0, 0, 0, -1, 0), name="S3"), False
    ),
    "S3~": NamedModel(
        "S3~",
        ChristoffelField.analytic(_s3t_gamma, _s3t_dgamma, name="S3~", locally_symmetric=True),
        True,
    ),
    "S5": NamedModel(
        "S5", ChristoffelField.type_b((-1, 1, 0, Fraction(-1, 2), 0, 0), name="S5"), True
    ),
    "H2": NamedModel(
        "H2",
        ChristoffelField.type_b((-1, 0, 0, -1, 1, 0), name="H2"),
        True,
        metric=_h2_metric,
    ),
    "L2": NamedModel(
        "L2",
        ChristoffelField.type_b((-1, 0, 0, -1, -1, 0), name="L2"),
        False,
        metric=l2_metric,
    ),
    "pseudosphere": NamedModel(
        "pseudosphere",
        ChristoffelField.analytic(
            _pseudosphere_gamma, _pseudosphere_dgamma, name="pseudosphere",
            locally_symmetric=True,
        ),
        True,
        metric=_pseudosphere_metric,
    ),
    "flat": NamedModel(
        "flat", ChristoffelField.type_a((0, 0, 0, 0, 0, 0), name="flat"), True
    ),
}


def get_model(name: str, c: Fraction | int | str | None = None) -> NamedModel:
    """Look up a canonical model by name.

    The one-parameter family ``S4`` requires its nonzero parameter ``c``
    and is built anew for each call; every other name rejects a parameter
    and returns the one shared entry of that name.
    """
    if name == "S4":
        if c is None:
            raise InvalidParameterError("model S4 needs its parameter c")
        c = Fraction(c)
        if c == 0:
            raise InvalidParameterError("model S4 requires c != 0")
        field = ChristoffelField.type_b((-1, 0, 0, c, 0, 0), name=f"S4:c={c}")
        return NamedModel("S4", field, True, c=c)
    if c is not None:
        raise InvalidParameterError(f"model {name!r} takes no parameter")
    try:
        return _STATIC[name]
    except KeyError:
        raise UnknownModelError(name) from None


def model_metric(name: str, c=None) -> Callable[[tuple], np.ndarray]:
    """Compatible metric of a named model, as a point -> 2x2 array callable."""
    model = get_model(name, c)
    if model.metric is None:
        raise NoMetricError(f"model {name!r} carries no compatible metric")
    return model.metric


def parse_model_spec(spec: str) -> NamedModel:
    """Parse a model string such as ``"L2"`` or ``"S4:c=-3/4"``."""
    if ":" in spec:
        base, _, rest = spec.partition(":")
        key, _, val = rest.partition("=")
        if base != "S4" or key != "c" or not val:
            raise InvalidParameterError(f"malformed model spec {spec!r}")
        try:
            c = Fraction(val)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidParameterError(f"bad rational {val!r} in model spec") from exc
        return get_model("S4", c)
    return get_model(spec)


def format_model_spec(model: NamedModel) -> str:
    if model.name == "S4":
        return f"S4:c={model.c}"
    return model.name
