"""dinicert: certified numerics for Dini-function zeros and unit-disk
starlikeness certificates of Bessel-derived function families."""

__version__ = "0.1.0"

from .errors import DomainError, NumericFailure, PoleError
from .families import DiniFamily, Order
from .bessel import (
    bessel_j,
    bessel_j_prime,
    oracle_closed_form,
    w_eval,
    w_prime_eval,
)
from .zeros import (
    ZeroEntry,
    ZeroTable,
    dini_eval,
    dini_prime,
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
    sum_truncated,
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
    "bessel_j", "bessel_j_prime", "oracle_closed_form",
    "w_eval", "w_prime_eval",
    "ZeroEntry", "ZeroTable", "dini_eval", "dini_prime", "find_zeros",
    "ismail_lower_bound",
    "CriticalOrder", "SumCriterion", "critical_equation", "critical_order",
    "evaluate_criterion", "sum_closed", "sum_truncated",
    "CertReport", "FactorizationCheck", "certify", "factorization_check",
    "starlike_sample",
]
