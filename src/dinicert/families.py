"""Parameter types for the Dini family D_{a,nu} and its normalized form w_{a,nu}."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class Order:
    """Real order nu of a Bessel function of the first kind.

    Requires nu > -1 so that every series coefficient Gamma(n + nu + 1)
    has positive argument.
    """

    nu: float

    def __post_init__(self) -> None:
        nu = float(self.nu)
        if not nu > -1.0:  # also rejects NaN
            raise DomainError("nu must exceed -1")
        object.__setattr__(self, "nu", nu)


def _as_nu(order: Order | float) -> float:
    """Validated nu from an Order or a bare float."""
    return order.nu if isinstance(order, Order) else Order(order).nu


@dataclass(frozen=True)
class DiniFamily:
    """The pair (a, nu) defining D_{a,nu}(x) = (a - nu) J_nu(x) + x J'_nu(x).

    a > 0 keeps w_{a,nu} normalized with all Dini zeros real, and the
    coupling gamma = a - nu satisfies gamma + nu = a >= 0, the Landau
    monotonicity precondition.  ``nu`` accepts an Order or a bare float
    and is stored as the validated float.
    """

    a: float
    nu: float

    def __post_init__(self) -> None:
        a = float(self.a)
        if not a > 0.0:
            raise DomainError("a must be positive")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "nu", _as_nu(self.nu))
