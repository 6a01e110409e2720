"""Parameter types for the Dini family D_{a,nu} and its normalized form w_{a,nu}."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class Order:
    """Real order nu of a Bessel function of the first kind.

    Requires a finite nu > -1 so that every series coefficient Gamma(n + nu + 1)
    has positive argument.
    """

    nu: float

    def __post_init__(self) -> None:
        nu = float(self.nu)
        if not -1.0 < nu < math.inf:  # also rejects NaN
            raise DomainError("nu must be finite" if nu == math.inf else "nu must exceed -1")
        object.__setattr__(self, "nu", nu)


def _as_nu(order: Order | float) -> float:
    """Validated nu from an Order or a bare float."""
    return order.nu if isinstance(order, Order) else Order(order).nu


def _as_a(a: float) -> float:
    """Validated a: positive and finite."""
    a = float(a)
    if not 0.0 < a < math.inf:  # also rejects NaN
        raise DomainError("a must be finite" if a == math.inf else "a must be positive")
    return a


@dataclass(frozen=True)
class DiniFamily:
    """The pair (a, nu) defining D_{a,nu}(x) = (a - nu) J_nu(x) + x J'_nu(x).

    A finite a > 0 keeps w_{a,nu} normalized with all Dini zeros real, and the
    coupling gamma = a - nu satisfies gamma + nu = a >= 0, the Landau
    monotonicity precondition.  ``nu`` accepts an Order or a bare float
    and is stored as the validated float.
    """

    a: float
    nu: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _as_a(self.a))
        object.__setattr__(self, "nu", _as_nu(self.nu))
