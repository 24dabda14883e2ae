"""Orders of quadratic-field integers mod odd primes and conductor indices.

The package splits into arithmetic primitives (modarith), the adapted
polynomial recurrences and their identity fuzzing (cheby), the named
pass/fail/n-a checks every report carries (checks), quadratic integers and
their matrix embedding (quadint), the order bounds themselves
(ordersolver), the conductor index machinery (conductor), fundamental
units (units), naive cross-checking scans (oracle), and the command line
front end (cli), which only renders reports.
"""

from .cheby import (
    ChebyPair,
    ChebyParams,
    IdentityTally,
    compose_t,
    compose_u,
    eval_fast,
    run_identity_trials,
    t_exact,
    t_seq,
    u_odd_closed_form,
    u_prev_exact,
    u_seq,
)
from .checks import FAIL, NA, PASS, Check, check, failed_names
from .conductor import (
    ConductorReport,
    MultiplicativeBound,
    PrimeBound,
    PrimePowerBound,
    bound_full,
    bound_multiplicative,
    bound_prime_power,
    n_of_f,
    reduce_f,
)
from .modarith import (
    Factorization,
    factorize,
    is_prime,
    legendre,
    require_odd_prime,
    sqrt_mod,
)
from .oracle import (
    DEFAULT_CAP,
    OracleResult,
    oracle_n_of_f,
    oracle_order_mod_p,
    oracle_q_of_p,
)
from .ordersolver import (
    ChainResult,
    DivisorBound,
    OrderReport,
    analyze,
    bound_norm1,
    bound_norm_minus1,
    build_chain_s1,
    build_chain_s_minus1,
    divisor_bound,
    ell_symbol,
    q_of_p,
    table_check,
)
from .quadint import Mat2, QuadInt
from .units import fundamental_unit, is_unit

__version__ = "0.1.0"

__all__ = [
    "ChebyPair",
    "ChebyParams",
    "IdentityTally",
    "compose_t",
    "compose_u",
    "eval_fast",
    "run_identity_trials",
    "t_exact",
    "t_seq",
    "u_odd_closed_form",
    "u_prev_exact",
    "u_seq",
    "FAIL",
    "NA",
    "PASS",
    "Check",
    "check",
    "failed_names",
    "ConductorReport",
    "MultiplicativeBound",
    "PrimeBound",
    "PrimePowerBound",
    "bound_full",
    "bound_multiplicative",
    "bound_prime_power",
    "n_of_f",
    "reduce_f",
    "Factorization",
    "factorize",
    "is_prime",
    "legendre",
    "require_odd_prime",
    "sqrt_mod",
    "DEFAULT_CAP",
    "OracleResult",
    "oracle_n_of_f",
    "oracle_order_mod_p",
    "oracle_q_of_p",
    "ChainResult",
    "DivisorBound",
    "OrderReport",
    "analyze",
    "bound_norm1",
    "bound_norm_minus1",
    "build_chain_s1",
    "build_chain_s_minus1",
    "divisor_bound",
    "ell_symbol",
    "q_of_p",
    "table_check",
    "Mat2",
    "QuadInt",
    "fundamental_unit",
    "is_unit",
    "__version__",
]
