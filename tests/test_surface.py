"""The package's import surface: what the root exports, and what the benchmark tracer binds."""

import importlib
import runpy
from pathlib import Path

import pytest

import quadorder
import quadorder.cli  # noqa: F401  (the benchmark worker imports it before tracing)
from quadorder import cheby

ENTRY_POINTS = [
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

MODULE_ONLY = {
    "cheby": [
        "ChebyPair", "ChebyParams", "IdentityTally", "compose_t", "compose_u", "eval_fast",
        "run_identity_trials", "t_exact", "t_seq", "u_odd_closed_form", "u_prev_exact",
        "u_seq",
    ],
    "checks": ["FAIL", "NA", "PASS", "Check", "check", "failed_names"],
    "conductor": ["MultiplicativeBound", "PrimeBound", "PrimePowerBound", "reduce_f"],
    "modarith": [
        "Factorization", "factorize", "is_prime", "legendre", "require_odd_prime", "sqrt_mod",
    ],
    "oracle": [
        "DEFAULT_CAP", "OracleResult", "oracle_n_of_f", "oracle_order_mod_p", "oracle_q_of_p",
    ],
    "ordersolver": [
        "ChainResult", "DivisorBound", "build_chain_s1", "build_chain_s_minus1", "table_check",
    ],
    "quadint": ["Mat2"],
    "units": ["is_unit"],
}

# analyze is the one route to a unit's order bound, and its mode strings have one spelling
DELETED_FROM_ORDERSOLVER = [
    "bound_norm1", "bound_norm_minus1", "_unit_ell", "ell_symbol", "NORM_PLUS_ONE",
    "NORM_MINUS_ONE",
]

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def test_root_exports_the_entry_points():
    assert quadorder.__all__ == ENTRY_POINTS
    assert all(hasattr(quadorder, name) for name in ENTRY_POINTS)


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in MODULE_ONLY.items() for n in names]
)
def test_other_names_import_from_their_module(module, name):
    assert hasattr(importlib.import_module(f"quadorder.{module}"), name)
    assert not hasattr(quadorder, name)


@pytest.mark.parametrize("name", DELETED_FROM_ORDERSOLVER)
def test_deleted_names_are_absent(name):
    assert not hasattr(quadorder.ordersolver, name)


@pytest.fixture(scope="module")
def tracer_tables():
    # run from its source text, so no bytecode is written next to it
    return runpy.run_path(str(TRACER))


def test_every_traced_function_resolves(tracer_tables):
    spanned = [t for targets in tracer_tables["SPANS"].values() for t in targets]
    for mod_name, attr in spanned + list(tracer_tables["COUNTED_FUNCTIONS"].values()):
        assert callable(getattr(getattr(quadorder, mod_name), attr)), (mod_name, attr)


def test_every_counted_method_is_defined_on_its_class(tracer_tables):
    for cls_name, attr in tracer_tables["COUNTED_METHODS"].values():
        assert callable(vars(getattr(quadorder.quadint, cls_name))[attr]), (cls_name, attr)


def test_every_traced_cache_reports_its_info(tracer_tables):
    for mod_name, attr in tracer_tables["CACHES"].values():
        info = getattr(getattr(quadorder, mod_name), attr).cache_info()
        assert info.maxsize is not None, (mod_name, attr)


def test_deep_certificate_call():
    # perfbench/deep.py certifies an index through this call; u_{n-1}(1; -1) is F_n
    assert cheby.eval_fast(cheby.ChebyParams(1, -1, 1000), 15).u_prev == 610
    assert cheby.eval_fast(cheby.ChebyParams(1, -1, 5), 5).u_prev == 0
