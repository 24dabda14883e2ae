"""Every refusal in the library, one row each: the call, its arguments and the whole text.

A refusal is a ValueError, which cli.main turns into exit 2 and one "error: " line.
The ledger beside the table reads src/quadorder with ast. It fails when no row
reaches a `raise ValueError`, and when the package raises a type other than
ValueError (a refusal), AssertionError (an invariant) or Value's two
AttributeErrors (immutability). The command line's own refusals are reached by
the exit-2 rows of test_cli.CONTRACT, called outside main's handler.
"""

import ast
import operator
from pathlib import Path
from unittest import mock

import pytest

import quadorder
from quadorder import cli, modarith, ordersolver
from quadorder.cheby import ChebyParams, eval_fast, run_identity_trials, u_odd_closed_form
from quadorder.conductor import (
    bound_full,
    bound_multiplicative,
    bound_prime_power,
    n_of_f,
    reduce_f,
)
from quadorder.modarith import Factorization, factorize, require_odd_prime, sqrt_mod
from quadorder.oracle import oracle_n_of_f
from quadorder.ordersolver import (
    analyze,
    build_chain_s1,
    build_chain_s_minus1,
    divisor_bound,
    q_of_p,
    table_check,
)
from quadorder.quadint import Mat2, QuadInt
from quadorder.units import fundamental_unit
from quadorder.value import Value
from test_cli import CONTRACT

R2 = QuadInt(1, 1, 2)


def _divisor_bound_scanning_3(x, s, p, k):
    """divisor_bound with its preimage scan capped at 3 values; a real input would scan 10^6."""
    with mock.patch.object(ordersolver, "_SCAN_CAP", 3):
        return divisor_bound(x, s, p, k)


def _sqrt_mod_budget_quartered(a, p):
    """sqrt_mod with its non-residue search capped at 0.5 (ln p)^2, a quarter of the real cap."""
    with mock.patch.object(modarith, "_BACH", 0.5):
        return sqrt_mod(a, p)


_CONDUCTOR = "the conductor must be at least 1"
_IMAGINARY = "d = {} < 0: units of imaginary fields are roots of unity, none above 1"
_NO_VANISHING = (
    "no power of alpha has its irrational part divisible by {}: "
    "the cofactor sequence never vanishes there"
)
_NOT_ODD_PRIME = "p = {} is not an odd prime"
_NOT_SQUAREFREE = "the radicand {} is not square-free"
_ZERO_OR_ONE = "the radicand must be a square-free integer other than 0 and 1"

# One row per refusal: the call, its arguments and the whole text of its ValueError.
# Every `raise ValueError` outside cli.py is reached by a row here; the command line's
# own are reached by the exit-2 rows of test_cli.CONTRACT.
REFUSALS = [
    # cheby
    (ChebyParams, (3, 0), "s must be nonzero"),
    (ChebyParams, (3, 1, 1), "modulus must be at least 2"),
    (ChebyParams, (3, 1, -5), "modulus must be at least 2"),
    # the modulus is checked first, so a negative index without one is refused for the modulus
    (eval_fast, (ChebyParams(2, -1), 5), "eval_fast needs a modulus"),
    (eval_fast, (ChebyParams(2, -1), -1), "eval_fast needs a modulus"),
    (eval_fast, (ChebyParams(2, -1, 97), -1), "n must be nonnegative"),
    (u_odd_closed_form, (3, 2, 4), "n must be odd and at least 1"),
    (run_identity_trials, (0, 5), "trials must be at least 1"),
    # conductor
    (reduce_f, (0, 45), "b = 0 is rational; n(f) = 1 for every conductor"),
    (reduce_f, (12, 0), _CONDUCTOR),
    (bound_full, (QuadInt(3, 0, 2), 5), "b = 0 is rational; n(f) = 1 for every conductor"),
    (n_of_f, (R2, 0), _CONDUCTOR),
    (n_of_f, (R2, -3), _CONDUCTOR),
    # 5 divides the norm of 1 + sqrt(6) but not its trace
    (n_of_f, (QuadInt(1, 1, 6), 5), _NO_VANISHING.format(5)),
    (n_of_f, (QuadInt(1, 1, 6), 35), _NO_VANISHING.format(5)),
    # an even conductor with an odd trace and an even norm
    (n_of_f, (QuadInt(1, 1, 17), 2), _NO_VANISHING.format(2)),
    (bound_multiplicative, (R2, 6, 9), "the conductors must be coprime"),
    (bound_prime_power, (R2, 4, 1), _NOT_ODD_PRIME.format(4)),
    (bound_prime_power, (R2, 3, 0), "k must be at least 1"),
    (bound_prime_power, (R2, 3, 1, 0), "the conductor factor must be at least 1"),
    (bound_prime_power, (R2, 3, 1, 6), "p must not divide f"),
    (bound_prime_power, (QuadInt(1, 1, 6), 5, 1), _NO_VANISHING.format(5)),
    # modarith
    *[(require_odd_prime, (p,), _NOT_ODD_PRIME.format(p)) for p in (2, 1, 0, -3, 9, 91)],
    (sqrt_mod, (4, 9), _NOT_ODD_PRIME.format(9)),
    (sqrt_mod, (1, 2), _NOT_ODD_PRIME.format(2)),
    # 5, the least non-residue mod 23, lies past 0.5 (ln 23)^2 = 4.9
    (_sqrt_mod_budget_quartered, (2, 23),
     "no quadratic non-residue mod p = 23 up to 0.5 (ln p)^2 = 4"),
    # psi12, a strong pseudoprime: 14 passes Euler's test, yet Tonelli-Shanks meets an
    # element whose order a prime modulus would not allow
    (modarith._sqrt_mod, (14, 318665857834031151167461, 2),
     _NOT_ODD_PRIME.format(318665857834031151167461)),
    (factorize, (0,), "cannot factor zero"),
    # rho spends its budget on this product of two 39-bit primes, below psi12
    (factorize, (274877906951 * 274878906989,),
     "composite cofactor 75558138618114925580539 exceeds the trial bound 1000000"),
    (Factorization, (10, ((2, 1), (3, 1))), "factor product does not reproduce the base"),
    # oracle
    (oracle_n_of_f, (R2, 0), _CONDUCTOR),
    # ordersolver: analyze and table_check share one gate, in this order
    (analyze, (QuadInt(0, 0, 2), 7), "the norm is zero; no power is invertible"),
    # b = 0 is refused as rational, not as "p must not divide b"
    (analyze, (QuadInt(3, 0, 2), 7),
     "b = 0 is rational; alpha is an integer, with no quadratic order to bound"),
    (analyze, (QuadInt(2, 14, 2), 7), "p must not divide b"),
    (analyze, (QuadInt(1, 1, 6), 5), "p divides the norm; no multiplicative order exists mod p"),
    (analyze, (R2, 9), _NOT_ODD_PRIME.format(9)),
    (analyze, (QuadInt(3, 2, 2), 9), _NOT_ODD_PRIME.format(9)),
    (analyze, (QuadInt(41, 29, 2), 41), "the chain needs x nonzero mod p"),
    (table_check, (QuadInt(1, 1, 6), 5),
     "p divides the norm; no multiplicative order exists mod p"),
    (table_check, (QuadInt(1, 5, 6), 5), "p must not divide b"),
    (table_check, (QuadInt(1, 1, 5), 5),
     "p divides d, so ell = 0 and no exponent p - ell is defined"),
    (build_chain_s1, (2, 7), "p divides x^2 - 4, so no chain is defined"),
    (build_chain_s_minus1, (2, 7), "the norm -1 chain needs p == 1 (mod 4)"),
    (build_chain_s_minus1, (13, 13), "the norm -1 chain needs x nonzero mod p"),
    (build_chain_s_minus1, (1, 13), "the norm -1 chain needs x^2 + 4 to be a residue mod p"),
    (build_chain_s_minus1, (3, 13), "p divides x^2 + 4, so no chain is defined"),
    (divisor_bound, (3, 2, 11, 2), "the preimage route needs norm +1 or -1"),
    (divisor_bound, (3, 1, 7, 0), "k must be at least 1"),
    (divisor_bound, (3, 1, 11, 3), "k must divide p - ell"),
    (divisor_bound, (2, -1, 13, 2), "with norm -1 the divisor must be odd"),
    (divisor_bound, (11, -1, 11, 1), "with norm -1 the trace must be nonzero mod p"),
    (divisor_bound, (2, 1, 7, 1), "p divides x^2 - 4s, so no exponent bound is defined"),
    # the preimage 4 lies past the first 3 values of y, and 11 > 3
    (_divisor_bound_scanning_3, (3, 1, 11, 2),
     "no trace preimage mod p = 11 among the first 3 values of y; the scan stops at that limit"),
    # p | s and p does not divide x: the text is conductor._entry_index's
    (q_of_p, (1, 5, 5), _NO_VANISHING.format(5)),
    (q_of_p, (3, 7, 7), _NO_VANISHING.format(7)),
    # quadint
    *[(QuadInt, (0, 1, d), _ZERO_OR_ONE) for d in (0, 1)],
    *[(QuadInt, (0, 1, d), _NOT_SQUAREFREE.format(d)) for d in (4, 9, 12, 18, -4, 50)],
    (QuadInt, (1, 0, 5), "for d == 1 (mod 4) the two coordinates must have equal parity"),
    (QuadInt, (2, 1, 13), "for d == 1 (mod 4) the two coordinates must have equal parity"),
    # 1000003 * 1000033: square-freeness cannot be decided by trial division
    (QuadInt, (1, 1, 1000036000099),
     "cannot tell whether the radicand 1000036000099 is square-free: "
     "composite cofactor 1000036000099 exceeds the trial bound 1000000"),
    (operator.pow, (R2, -1), "negative powers are not integral in general"),
    (operator.pow, (Mat2(1, 2, 3, 4), -1), "negative matrix powers are not integral in general"),
    (operator.mul, (R2, QuadInt(1, 1, 3)), "cannot multiply integers from different fields"),
    (QuadInt.embed, (QuadInt(0, 0, 2),), "zero has no invertible matrix image"),
    (QuadInt.in_order, (R2, 0), _CONDUCTOR),
    # units: -1, -2, -7 and -15 are valid radicands; what fails is the field
    *[(fundamental_unit, (d,), _IMAGINARY.format(d)) for d in (-1, -2, -7, -15)],
    *[(fundamental_unit, (d,), _ZERO_OR_ONE) for d in (0, 1)],
    *[(fundamental_unit, (d,), _NOT_SQUAREFREE.format(d)) for d in (4, 9, 12, 25, 50)],
    # the period of 10^12 + 39 is 532,572 steps, past the cap of 10^5
    (fundamental_unit, (10**12 + 39,),
     "the continued fraction for d = 1000000000039 did not close its period "
     "within the limit of 100000 steps"),
]


def _row_id(row):
    """The row's call as code: ordersolver.analyze(QuadInt(1, 1, 2), 9), values by their fields."""
    call, args, _ = row
    module = call.__module__.removeprefix("quadorder.").lstrip("_")
    shown = (f"{type(a).__name__}{a._key}" if isinstance(a, Value) else repr(a) for a in args)
    prefix = "" if module == __name__ else f"{module}."
    return f"{prefix}{call.__qualname__}({', '.join(shown)})"


def _refusal(call, args):
    with pytest.raises(ValueError) as info:
        call(*args)
    return info.value


@pytest.mark.parametrize("call, args, message", REFUSALS, ids=map(_row_id, REFUSALS))
def test_refusal(call, args, message):
    assert str(_refusal(call, args)) == message


class _Site:
    """One raise statement of the package: its module, enclosing function, type and lines."""

    def __init__(self, path, scope, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        self.kind = getattr(exc, "id", None)
        self.path, self.lines = path, range(node.lineno, node.end_lineno + 1)
        words = ""
        if isinstance(node.exc, ast.Call) and node.exc.args:
            arg = node.exc.args[0]
            parts = arg.values if isinstance(arg, ast.JoinedStr) else [arg]
            words = "".join(p.value if isinstance(p, ast.Constant) else "{}" for p in parts)
        # no line number, so that moving code does not change the report
        self.name = f"{path.stem}.{'.'.join(scope)}: {' '.join(words.split()[:6])}"


class _Module(ast.NodeVisitor):
    """One module's raise statements and defs, each with the functions and classes around it.

    A def is keyed by its file and first line, the first decorator's when it has
    any, which is its code object's (co_filename, co_firstlineno); its name is
    module.Class.function. test_surface's function ledger reads these defs.
    """

    def __init__(self, path):
        self.path, self.scope, self.sites, self.defs = path, [], [], {}
        self.visit(ast.parse(path.read_text(encoding="utf-8")))

    def visit_FunctionDef(self, node):
        first = node.decorator_list[0].lineno if node.decorator_list else node.lineno
        self.defs[str(self.path), first] = ".".join([self.path.stem, *self.scope, node.name])
        self.visit_ClassDef(node)

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Raise(self, node):
        self.sites.append(_Site(self.path, self.scope, node))


MODULES = [_Module(path) for path in sorted(Path(quadorder.__file__).parent.glob("*.py"))]
SITES = [site for module in MODULES for site in module.sites]
DEFS = {key: name for module in MODULES for key, name in module.defs.items()}


def _raised_at(exc):
    """The site whose lines hold the innermost frame of exc's traceback, or None."""
    tb = exc.__traceback__
    while tb.tb_next:
        tb = tb.tb_next
    path = Path(tb.tb_frame.f_code.co_filename)
    return next((s for s in SITES if s.path == path and tb.tb_lineno in s.lines), None)


def test_every_refusal_site_has_a_row(capsys):
    rows = {_row_id(row): _raised_at(_refusal(*row[:2])) for row in REFUSALS}
    commands = {}
    for command, code, err in CONTRACT:
        if code == 2:  # the command function itself, outside main's handler
            args = cli.build_parser().parse_args(command.split())
            exc = _refusal(args.func, (args,))
            assert f"error: {exc}\n" == err, command
            commands[command] = _raised_at(exc)
    capsys.readouterr()
    # a ValueError from a builtin or the standard library is no refusal of the package's own
    assert [name for name, site in {**rows, **commands}.items() if site is None] == []
    # the library's refusals need a REFUSALS row; the command line's own are reached by CONTRACT
    library, command_line = set(rows.values()), {*rows.values(), *commands.values()}
    missing = [
        s.name
        for s in SITES
        if s.kind == "ValueError" and s not in (command_line if s.path.stem == "cli" else library)
    ]
    assert not missing, f"no row reaches these refusals: {missing}"


def test_the_package_raises_refusals_and_invariants_alone():
    others = [s.name for s in SITES if s.kind not in ("ValueError", "AssertionError")]
    # Value's immutability; anything else would escape main's handlers
    immutability = [
        "value.Value.__setattr__: cannot assign to field {}",
        "value.Value.__delattr__: cannot delete field {}",
    ]
    assert others == immutability, f"raises neither a refusal nor an invariant: {others}"
