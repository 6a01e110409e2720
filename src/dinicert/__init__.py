"""dinicert: certified numerics for Dini-function zeros and unit-disk
starlikeness certificates of Bessel-derived function families."""

__version__ = "0.1.0"

from .errors import DomainError, NumericFailure, PoleError
from .families import DiniFamily, Order
from .bessel import (
    bessel_j,
    oracle_closed_form,
    w_eval,
    w_prime_eval,
)
from .zeros import (
    ZeroEntry,
    ZeroTable,
    dini_eval,
    find_zeros,
    ismail_lower_bound,
)
from .criterion import (
    CriticalOrder,
    SumCriterion,
    critical_equation,
    critical_order,
    evaluate_criterion,
    sum_closed,
)
from .certify import (
    CertReport,
    FactorizationCheck,
    certify,
    factorization_check,
    starlike_sample,
)

__all__ = [
    "__version__",
    "DomainError", "NumericFailure", "PoleError",
    "DiniFamily", "Order",
    "bessel_j", "oracle_closed_form", "w_eval", "w_prime_eval",
    "ZeroEntry", "ZeroTable", "dini_eval", "find_zeros", "ismail_lower_bound",
    "CriticalOrder", "SumCriterion", "critical_equation", "critical_order",
    "evaluate_criterion", "sum_closed",
    "CertReport", "FactorizationCheck", "certify", "factorization_check",
    "starlike_sample",
]
