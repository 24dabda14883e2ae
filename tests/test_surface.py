"""The package's import surface: what the root exports, and what the benchmark tracer binds."""

import dataclasses
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
        "run_identity_trials", "t_exact", "u_odd_closed_form", "u_prev_exact",
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

# both factoring tables come from one unsegmented sieve, _odd_prime_flags
DELETED_FROM_MODARITH = ["_SEGMENT"]

# the step-by-step recurrence walkers are the tests' own reference (tests/test_cheby.py)
MOVED_TO_TESTS_FROM_CHEBY = ["u_seq", "t_seq", "_seq"]

# records that only carry results: field order is the order of the order/conductor
# JSON results, and the defaults are part of each constructor
RECORDS = {
    ("checks", "Check"): (("name", "status", "note"), {"note": ""}),
    ("cheby", "ChebyPair"): (("n", "t", "u_prev"), {}),
    ("cheby", "IdentityTally"): (("name", "passed", "total", "first_failure"),
                                 {"first_failure": ""}),
    ("ordersolver", "ChainResult"): (("ell", "chain", "stop_reason"), {}),
    ("ordersolver", "OrderReport"): (
        ("p", "x", "s", "ell", "mode", "bound_n", "half_bound_applies", "chain", "table_checks"),
        {},
    ),
    ("ordersolver", "DivisorBound"): (("k", "n", "preimage", "checks"), {}),
    ("conductor", "PrimeBound"): (("p", "k", "q_p", "contribution"), {}),
    ("conductor", "MultiplicativeBound"): (("f", "g", "n_f", "n_g", "n_fg", "side_conditions"),
                                           {}),
    ("conductor", "PrimePowerBound"): (
        ("p", "k", "f", "q_p", "n_f", "lhs", "rhs", "side_conditions", "checks"), {"checks": ()},
    ),
    ("conductor", "ConductorReport"): (("f", "f0", "n_exact", "bound", "per_prime", "notes"), {}),
    ("oracle", "OracleResult"): (("value", "cap"), {}),
}

# value types that do work when made: QuadInt caches its norm and trace (and the
# benchmark tracer counts that __post_init__), Factorization and ChebyParams
# validate, and Mat2 is the naive cross-route
DATACLASSES = [("quadint", "QuadInt"), ("quadint", "Mat2"), ("modarith", "Factorization"),
               ("cheby", "ChebyParams")]

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


@pytest.mark.parametrize("name", DELETED_FROM_MODARITH)
def test_deleted_names_are_absent_from_modarith(name):
    assert not hasattr(quadorder.modarith, name)


@pytest.mark.parametrize("name", MOVED_TO_TESTS_FROM_CHEBY)
def test_moved_walkers_are_absent_from_cheby(name):
    assert not hasattr(cheby, name)


@pytest.mark.parametrize("module, name", list(RECORDS))
def test_result_records_are_named_tuples(module, name):
    cls = getattr(importlib.import_module(f"quadorder.{module}"), name)
    fields, defaults = RECORDS[module, name]
    assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls)
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    record = cls(*range(len(fields)))
    with pytest.raises(AttributeError):
        setattr(record, fields[0], -1)
    assert record._asdict() == dict(zip(fields, range(len(fields))))


@pytest.mark.parametrize("module, name", DATACLASSES)
def test_value_types_stay_dataclasses(module, name):
    assert dataclasses.is_dataclass(getattr(importlib.import_module(f"quadorder.{module}"), name))


def test_quadint_construction_stays_countable():
    # the tracer's quadint.construct counter wraps this method on the class itself
    assert "__post_init__" in quadorder.quadint.QuadInt.__dict__


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
