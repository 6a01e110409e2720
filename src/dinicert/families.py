"""Parameter types for the Dini family D_{a,nu} and its normalized form w_{a,nu},
and the frozen record that every parameter and result type derives from."""

from __future__ import annotations

import math

from .errors import DomainError

_set = object.__setattr__  # writes past _Record.__setattr__


class _Record:
    """Frozen record: its fields are its ``__init__``'s parameters.  Eq,
    hash, repr and ``__match_args__`` cover the public ones (no leading
    underscore), whose values ``_key`` holds; assignment and ``del`` raise
    AttributeError.  ``__init__`` stores ``__dict__`` in one call: literally
    in the types built per zero or per call, else through ``_store``.  It
    replaces the frozen dataclass, whose module, ``inspect`` and exec-compiled
    methods cost every start: a fresh ``import dinicert`` fell from 64 to
    53 ms (a bare interpreter: 39 ms; no bytecode written, median of 25 on a
    2-core Xeon VM)."""

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls.__match_args__ = tuple(k for k in code.co_varnames[1:code.co_argcount] if k[0] != "_")

    def _store(self, values: dict) -> None:
        """Store ``values``, the ``locals()`` of an ``__init__`` whose
        parameters are all public and that binds no other name."""
        values = dict(values)  # a copy: a tracer writes self back into locals()
        del values["self"]
        values["_key"] = tuple(values.values())
        _set(self, "__dict__", values)

    def __setstate__(self, state: dict) -> None:
        """Load a pickled ``__dict__``.  A state pickled by the frozen
        dataclasses has no ``_key``; it is formed from the public fields."""
        state = dict(state)
        if "_key" not in state:
            state["_key"] = tuple(state[k] for k in self.__match_args__)
        _set(self, "__dict__", state)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join([f"{k}={v!r}" for k, v in zip(self.__match_args__, self._key)])
        return f"{type(self).__qualname__}({fields})"


class Order(_Record):
    """Real order nu of a Bessel function of the first kind.

    Requires a finite nu > -1 so that every series coefficient Gamma(n + nu + 1)
    has positive argument.
    """

    def __init__(self, nu: float) -> None:
        nu = float(nu)
        if not -1.0 < nu < math.inf:  # also rejects NaN
            raise DomainError("nu must be finite" if nu == math.inf else "nu must exceed -1")
        _set(self, "__dict__", {"nu": nu, "_key": (nu,)})


def _as_nu(order: Order | float) -> float:
    """Validated nu from an Order or a bare float."""
    return order.nu if isinstance(order, Order) else Order(order).nu


def _as_a(a: float) -> float:
    """Validated a: positive and finite."""
    a = float(a)
    if not 0.0 < a < math.inf:  # also rejects NaN
        raise DomainError("a must be finite" if a == math.inf else "a must be positive")
    return a


class DiniFamily(_Record):
    """The pair (a, nu) defining D_{a,nu}(x) = (a - nu) J_nu(x) + x J'_nu(x).

    A finite a > 0 keeps w_{a,nu} normalized with all Dini zeros real, and the
    coupling gamma = a - nu satisfies gamma + nu = a >= 0, the Landau
    monotonicity precondition.  ``nu`` accepts an Order or a bare float
    and is stored as the validated float.
    """

    def __init__(self, a: float, nu: Order | float) -> None:
        a, nu = _as_a(a), _as_nu(nu)
        _set(self, "__dict__", {"a": a, "nu": nu, "_key": (a, nu)})
