"""The package's surface: what the root exports, what the benchmark tracer binds, and
what no command reaches, each unreached function with its reason."""

import ast
import copy
import dataclasses
import importlib
import os
import pickle
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import quadorder
import quadorder.cli  # noqa: F401  (the benchmark worker imports it before tracing)
from quadorder import cheby, cli
from conftest import package_caches
from test_cli import CONTRACT, GOLDEN_SWEEP
from test_refusals import DEFS

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
    "conductor": ["MultiplicativeBound", "PrimeBound", "PrimePowerBound"],
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
    "value": ["Value"],
}

# analyze is the one route to a unit's order bound, and its mode strings have one spelling
DELETED_FROM_ORDERSOLVER = [
    "bound_norm1", "bound_norm_minus1", "_unit_ell", "ell_symbol", "NORM_PLUS_ONE",
    "NORM_MINUS_ONE", "_extend_chain",
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
        ("p", "k", "f", "q_p", "n_f", "lhs", "rhs", "side_conditions", "checks"), {},
    ),
    ("conductor", "ConductorReport"): (("f", "f0", "n_exact", "bound", "per_prime", "notes"), {}),
    ("oracle", "OracleResult"): (("value", "cap"), {}),
}

# value types that do work when made: QuadInt caches its norm and trace (and the
# benchmark tracer counts that __post_init__), Factorization and ChebyParams
# validate, and Mat2 is the naive cross-route.  Each maps to its fields, the
# arguments of one value and of an unequal one, that value's repr, and the
# arguments it refuses with their messages.
VALUE_TYPES = {
    ("quadint", "QuadInt"): (
        ("a", "b", "d"), (3, 2, 2), (3, 2, 3), "QuadInt(a=3, b=2, d=2)",
        {(1, 1, 1): "the radicand must be a square-free integer other than 0 and 1",
         (1, 1, 12): "the radicand 12 is not square-free",
         (1, 2, 5): "for d == 1 (mod 4) the two coordinates must have equal parity"},
    ),
    ("quadint", "Mat2"): (
        ("e00", "e01", "e10", "e11"), (1, 2, 3, 4), (1, 2, 4, 3),
        "Mat2(e00=1, e01=2, e10=3, e11=4)", {},
    ),
    ("modarith", "Factorization"): (
        ("base", "factors"), (12, ((2, 2), (3, 1))), (18, ((2, 1), (3, 2))),
        "Factorization(base=12, factors=((2, 2), (3, 1)))",
        {(10, ((2, 1), (3, 1))): "factor product does not reproduce the base"},
    ),
    ("cheby", "ChebyParams"): (
        ("x", "s", "modulus"), (3, 2, 7), (3, 2, None), "ChebyParams(x=3, s=2, modulus=7)",
        {(3, 0): "s must be nonzero", (3, 1, 1): "modulus must be at least 2"},
    ),
}

ROOT = Path(__file__).parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
DEEP = ROOT / "perfbench" / "deep.py"

# Why a function that no command reaches is kept. The first two are computed from
# perfbench's sources, never chosen: the tracer's tables, and deep.py's module.name
# references (a class's covers its __init__).
PERFBENCH = "perfbench binds it"
DEEP_CALLS = "deep calls it"
CROSS_ROUTE = "test cross-route"
VALUE_TYPE = "value-type contract"
AT_IMPORT = "runs at import"
ENTRY_POINT = "console entry point"
LIBRARY_API = "library API: "  # and the call it serves, which README.md names


# Every src/ function that no command of the ledger enters, by module.Qualname. The
# table only shrinks: an entry whose function is reached or gone fails the ledger.
UNREACHED = {
    "cheby.ChebyParams.__init__": DEEP_CALLS,
    "cheby.compose_t": PERFBENCH,
    "cheby.compose_u": PERFBENCH,
    "cheby.eval_fast": PERFBENCH,
    "cheby.t_exact": PERFBENCH,
    "cheby.u_prev_exact": PERFBENCH,
    "cli.entry": ENTRY_POINT,
    "conductor.MultiplicativeBound.holds": LIBRARY_API + "bound_multiplicative",
    "conductor.PrimePowerBound.holds": LIBRARY_API + "bound_prime_power",
    "conductor._lift_diagnostics": LIBRARY_API + "bound_prime_power",
    "conductor._shared_with_b": LIBRARY_API + "bound_multiplicative",
    "conductor.bound_multiplicative": LIBRARY_API + "bound_multiplicative",
    "conductor.bound_prime_power": LIBRARY_API + "bound_prime_power",
    "conductor.n_of_f": PERFBENCH,
    "modarith.legendre": PERFBENCH,
    "modarith.sqrt_mod": PERFBENCH,
    "oracle.oracle_q_of_p": DEEP_CALLS,
    "ordersolver.build_chain_s1": PERFBENCH,
    "ordersolver.build_chain_s_minus1": PERFBENCH,
    "ordersolver.divisor_bound": PERFBENCH,
    "ordersolver.table_check": LIBRARY_API + "table_check",
    "quadint.Mat2.__init__": CROSS_ROUTE,
    "quadint.Mat2.__mod__": CROSS_ROUTE,
    "quadint.Mat2.__mul__": CROSS_ROUTE,
    "quadint.Mat2.__pow__": CROSS_ROUTE,
    "quadint.Mat2.det": CROSS_ROUTE,
    "quadint.Mat2.identity": CROSS_ROUTE,
    "quadint.Mat2.trace": CROSS_ROUTE,
    "quadint.QuadInt.__mul__": PERFBENCH,
    "quadint.QuadInt.__pow__": CROSS_ROUTE,
    "quadint.QuadInt.embed": CROSS_ROUTE,
    "quadint.QuadInt.in_order": CROSS_ROUTE,
    "quadint.QuadInt.one": CROSS_ROUTE,
    "value.Value.__delattr__": VALUE_TYPE,
    "value.Value.__eq__": VALUE_TYPE,
    "value.Value.__hash__": VALUE_TYPE,
    "value.Value.__init_subclass__": AT_IMPORT,
    "value.Value.__reduce__": VALUE_TYPE,
    "value.Value.__repr__": VALUE_TYPE,
    "value.Value.__setattr__": VALUE_TYPE,
}

# the ledger's commands: every CONTRACT row, and the JSON forms of three more
LEDGER_COMMANDS = [command.split() for command, _, _ in CONTRACT] + [
    GOLDEN_SWEEP + ["--format", "json"],
    "identities --trials 5 --json".split(),
    "fundunit --d 94 --json".split(),
]


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


@pytest.mark.parametrize("module, name", list(VALUE_TYPES))
def test_value_types_keep_their_contract(module, name):
    cls = getattr(importlib.import_module(f"quadorder.{module}"), name)
    fields, args, other_args, text, refusals = VALUE_TYPES[module, name]
    value = cls(*args)
    assert cls(**dict(zip(fields, args))) == value and hash(cls(*args)) == hash(value)
    assert value != cls(*other_args) and value != args
    assert repr(value) == text
    for attr in cls.__slots__:  # QuadInt's norm and trace_x too
        with pytest.raises(AttributeError):
            setattr(value, attr, 0)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for made in copies + [copy.copy(value), copy.deepcopy(value)]:
        assert type(made) is cls and made == value and repr(made) == text
        assert [getattr(made, attr) for attr in cls.__slots__] == [
            getattr(value, attr) for attr in cls.__slots__
        ]
    for bad, message in refusals.items():
        with pytest.raises(ValueError) as info:
            cls(*bad)
        assert str(info.value) == message


def test_quadint_construction_stays_countable(monkeypatch):
    # the tracer's quadint.construct counter wraps this method on the class itself,
    # so every QuadInt made, by arithmetic or by copying, runs it exactly once
    QuadInt = quadorder.quadint.QuadInt
    assert "__post_init__" in QuadInt.__dict__
    calls = []
    post_init = QuadInt.__post_init__

    def counted(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(QuadInt, "__post_init__", counted)
    alpha = QuadInt(1, 1, 2)
    made = [alpha, alpha * alpha, alpha**3, copy.copy(alpha), copy.deepcopy(alpha),
            pickle.loads(pickle.dumps(alpha))]
    assert len(calls) == len(made) and all(c is m for c, m in zip(calls, made))


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    # compared with what the interpreter loaded before the import, since some
    # interpreters load inspect at start-up; dataclasses costs inspect's import
    code = ("import sys; before = set(sys.modules); import quadorder.cli; "
            "quadorder.cli.build_parser(); print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(Path(quadorder.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "quadorder.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


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


def test_package_caches_finds_every_cache():
    # found, not listed, so that a new cache is cleared too
    found = {f"{cache.__module__}.{cache.__qualname__}" for cache in package_caches()}
    assert found == {
        "quadorder.modarith.factorize", "quadorder.ordersolver.q_of_p",
        "quadorder.conductor._entry_index", "quadorder.quadint._check_radicand",
        "quadorder.modarith._first_window", "quadorder.modarith._window_products",
        "quadorder.cli._conductor_tail",
    }
    assert len(package_caches()) == len(found)


def _entered(capsys):
    """The (file, first line) of every src/ def that a ledger command entered."""
    # every cache is cleared first, so that no answer kept by an earlier test hides a body
    for cache in package_caches():
        cache.cache_clear()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in LEDGER_COMMANDS:
            cli.main(argv)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    # a comprehension or lambda may share a def's first line, but not its name
    return {(c.co_filename, c.co_firstlineno) for c in codes
            if DEFS.get((c.co_filename, c.co_firstlineno), "").rpartition(".")[2] == c.co_name}


def _computed_reasons(tracer_tables):
    """PERFBENCH for every def the tracer binds, else DEEP_CALLS for every one deep.py names."""
    names = set(DEFS.values())
    bound = {(module, attr): f"{module}.{attr}"
             for targets in tracer_tables["SPANS"].values() for module, attr in targets}
    bound.update({target: ".".join(target)
                  for target in tracer_tables["COUNTED_FUNCTIONS"].values()})
    bound.update({(cls, attr): f"quadint.{cls}.{attr}"
                  for cls, attr in tracer_tables["COUNTED_METHODS"].values()})
    unresolved = [target for target, name in bound.items() if name not in names]
    assert not unresolved, f"the tracer binds what src/ does not define: {unresolved}"
    tree = ast.parse(DEEP.read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "quadorder"
               for alias in node.names}
    called = {f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules}
    called |= {f"{name}.__init__" for name in called}
    reasons = dict.fromkeys(called & names, DEEP_CALLS)
    reasons.update(dict.fromkeys(bound.values(), PERFBENCH))
    return reasons


def test_every_unreached_function_has_its_reason(capsys, tracer_tables):
    entered = _entered(capsys)
    unreached = {name for key, name in DEFS.items() if key not in entered}
    computed = _computed_reasons(tracer_tables)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    served = {name: reason.removeprefix(LIBRARY_API) for name, reason in UNREACHED.items()
              if reason.startswith(LIBRARY_API)}
    found = {
        "no command reaches it, and it has no entry": sorted(unreached - UNREACHED.keys()),
        "reached or no longer defined": sorted(UNREACHED.keys() - unreached),
        "its reason is not the computed one": sorted(
            name for name, reason in UNREACHED.items()
            if (name in computed or reason in (PERFBENCH, DEEP_CALLS))
            and reason != computed.get(name)
        ),
        "README.md does not name the call it serves": sorted(
            name for name, call in served.items() if not re.search(rf"\b{call}\b", readme)
        ),
    }
    problems = {why: names for why, names in found.items() if names}
    assert not problems, problems
