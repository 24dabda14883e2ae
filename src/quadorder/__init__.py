"""Orders of quadratic-field integers mod odd primes and conductor indices.

The package splits into arithmetic primitives (modarith), the adapted
polynomial recurrences and their identity fuzzing (cheby), the named
pass/fail/n-a checks every report carries (checks), quadratic integers and
their matrix embedding (quadint), the order bounds themselves
(ordersolver), the conductor index machinery (conductor), fundamental
units (units), naive cross-checking scans (oracle), and the command line
front end (cli), which only renders reports.
"""

from .conductor import (
    ConductorReport,
    bound_full,
    bound_multiplicative,
    bound_prime_power,
    n_of_f,
)
from .ordersolver import OrderReport, analyze, divisor_bound, q_of_p
from .quadint import QuadInt
from .units import fundamental_unit

__version__ = "0.1.0"

__all__ = [
    "QuadInt",
    "analyze",
    "OrderReport",
    "q_of_p",
    "divisor_bound",
    "bound_full",
    "ConductorReport",
    "n_of_f",
    "bound_prime_power",
    "bound_multiplicative",
    "fundamental_unit",
    "__version__",
]
