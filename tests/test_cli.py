import collections
import csv
import errno
import functools
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import quadorder
from quadorder import cheby, cli, conductor, modarith, ordersolver, quadint
from quadorder.cheby import run_identity_trials
from quadorder.cli import CSV_COLUMNS, build_parser, main, run_sweep
from quadorder.quadint import QuadInt
from quadorder.units import fundamental_unit
from conftest import package_caches


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cli(argv, *flags, **popen_args) -> subprocess.Popen:
    """python [flags] -m quadorder.cli argv in a fresh process importing this package.

    Its stdout is block-buffered even under PYTHONUNBUFFERED, so a short
    output waits for a flush, as it does for a user.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(quadorder.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen(
        [sys.executable, *flags, "-m", "quadorder.cli", *argv], env=env, **popen_args
    )


_IMAGINARY = "error: d = -7 < 0: units of imaginary fields are roots of unity, none above 1\n"

# The command-line contract, one row per case: the command, its exit code and the whole
# of its stderr. Exit 0 writes its report to stdout and nothing else to stderr (a sweep
# only its seed); exit 2 writes nothing to stdout and one "error: " line to stderr.
CONTRACT = [
    ("order --d 2 --alpha 1,1 --p 17 --oracle", 0, ""),
    # general mode with ell = -1: the pair at bound 10200 = 102 * ord(7) is composed
    # from the one at p + 1
    ("order --d 2 --alpha 3,1 --p 101 --oracle", 0, ""),
    ("conductor --d 5 --alpha 1,1 --f 1024 --oracle", 0, ""),  # n(2^k) descends from 3 * 2^k
    ("conductor --d 2 --alpha 1,1 --f 169 --oracle", 0, ""),  # n(13^2) = q(13), below the bound
    # x = 6 shares 3 with f0: residue keys beside class keys
    ("conductor --d 2 --alpha 3,1 --f 45 --oracle", 0, ""),
    # n(11^3) = 605 via the class key of the prime power
    ("conductor --d 5 --alpha 3,1 --f 1331 --oracle", 0, ""),
    ("order --d 2 --alpha 1,1 --p 17 --json", 0, ""),
    ("conductor --d 2 --alpha 1,1 --f 45 --json", 0, ""),
    ("fundunit --d 94", 0, ""),
    # 2^64 - 59, the Miller-Rabin base table's last row, and 2^64 + 13, the twelve-witness path
    ("order --d 2 --alpha 1,1 --p 18446744073709551557", 0, ""),
    ("order --d 2 --alpha 1,1 --p 18446744073709551629", 0, ""),
    # a 90-bit prime with ell = -1: general mode factors p - 1 = 2^2 * 5 * 23 * Q with
    # Q ~ 1.68e24 above psi12, so the window-product table is sieved and walked
    ("order --d 2 --alpha 3,1 --p 772756753307651396436490061", 0, ""),
    ("identities --trials 50 --seed 5", 0, ""),
    ("sweep --d-set -1,-2 --coeff-bound 1 --p-max 10 --f-max 2", 0, "seed 0\n"),
    # every modulus is below the oracle cap pass's cutoffs (p >= 709, f >= 289): no cap pass
    ("sweep --d-set 2 --coeff-bound 1 --p-max 30 --f-max 6 --oracle", 0, "seed 0\n"),
    ("fundunit --d -7", 2, _IMAGINARY),
    ("order --d -7 --fundunit --p 11", 2, _IMAGINARY),
    ("fundunit --d 4", 2, "error: the radicand 4 is not square-free\n"),
    ("sweep --d-set 4", 2, "error: the radicand 4 is not square-free\n"),
    # psi_9, the least strong pseudoprime to every prime base up to 23
    ("order --d 2 --alpha 1,1 --p 3825123056546413051", 2,
     "error: p = 3825123056546413051 is not an odd prime\n"),
    ("order --d 2 --alpha 1,1 --p 9", 2, "error: p = 9 is not an odd prime\n"),
    ("order --d 2 --alpha nope --p 7", 2, 'error: alpha must be given as "a,b"\n'),
    # a negative a after a space is the option's value, as "--alpha=-1,1" is
    ("order --d 2 --alpha -1,1 --p 7", 0, ""),
    ("conductor --d 2 --alpha -1,1 --f 45", 0, ""),
    ("order --d 2 --alpha 1,x --p 17", 2, "error: alpha coefficients must be integers: '1,x'\n"),
    # a zero norm is refused first, then b = 0 as rational (not as "p must not divide
    # b"), then p | b
    ("order --d 2 --alpha 0,0 --p 7", 2, "error: the norm is zero; no power is invertible\n"),
    ("order --d 2 --alpha 3,0 --p 7", 2,
     "error: b = 0 is rational; alpha is an integer, with no quadratic order to bound\n"),
    ("order --d 2 --alpha 3,7 --p 7", 2, "error: p must not divide b\n"),
    ("order --d 2 --alpha 2,14 --p 7", 2, "error: p must not divide b\n"),
    # a parity violation inside the half-integer lattice
    ("order --d 5 --alpha 1,2 --p 7", 2,
     "error: for d == 1 (mod 4) the two coordinates must have equal parity\n"),
    # degenerate (p | x^2 - 4s): the refusal gives q(p)
    ("order --d 5 --alpha 1,1 --p 5", 2,
     "error: ell = 0: p divides x^2 - 4s, so no exponent p - ell is available; "
     "the cofactor sequence first vanishes mod p at index 5\n"),
    ("order --d 7 --alpha 3,2 --p 7", 2,
     "error: ell = 0: p divides x^2 - 4s, so no exponent p - ell is available; "
     "the cofactor sequence first vanishes mod p at index 7\n"),
    # d = 1000003 * 1000033
    ("order --d 1000036000099 --alpha 1,1 --p 101", 2,
     "error: cannot tell whether the radicand 1000036000099 is square-free: "
     "composite cofactor 1000036000099 exceeds the trial bound 1000000\n"),
    ("conductor --d 6 --alpha 1,1 --f 5", 2,
     "error: no power of alpha has its irrational part divisible by 5: "
     "the cofactor sequence never vanishes there\n"),
    ("conductor --d 2 --alpha 1,1 --f 0", 2, "error: the conductor must be at least 1\n"),
    # a rational alpha is refused as such first, whatever f is
    ("conductor --d 2 --alpha 1,0 --f 0", 2,
     "error: b = 0 is rational; n(f) = 1 for every conductor\n"),
    # f = 1031 * 16000000039 * 17000000021 is past rho's budget, and refused with trial
    # division's cofactor text
    ("conductor --d 2 --alpha 1,1 --f 280432001029969000844389", 2,
     "error: composite cofactor 272000000999000000819 exceeds the trial bound 1000000\n"),
    ("identities --trials 0", 2, "error: trials must be at least 1\n"),
    ("sweep --d-set 2,x", 2, "error: --d-set must be a comma list of integers: '2,x'\n"),
    # a list that names no radicand is refused, not swept as an empty grid
    ("sweep --d-set ,", 2, "error: --d-set must be a comma list of integers: ','\n"),
    ("sweep --p-max -1", 2, "error: sweep bounds must be nonnegative\n"),
    ("fundunit --d 1000000007", 2,
     "error: the fundamental unit for d = 1000000007 has a coordinate past the 4300-digit "
     "output limit\n"),
    # the claimed bound 2(p + 1) = 2000008 sets the oracle's cap at 4000026 steps, so the
    # scan is refused before it starts
    ("order --d 2 --alpha 1,1 --p 1000003 --oracle", 2,
     "error: the oracle cross-check of alpha = 1 + 1*sqrt(2) at p = 1000003 would take up "
     "to 4000026 steps, above its limit of 1000000\n"),
    # the output is opened before the grid, so nothing is written to stderr before the error
    ("sweep --d-set 2 --coeff-bound 1 --output /nonexistent/rows.csv", 2,
     "error: cannot write the output file /nonexistent/rows.csv: No such file or directory\n"),
]


@pytest.mark.parametrize("command, code, err", CONTRACT, ids=[row[0] for row in CONTRACT])
def test_command_line_contract(capsys, command, code, err):
    got_code, out, got_err = run(capsys, *command.split())
    assert (got_code, got_err) == (code, err)
    assert bool(out) == (code == 0)


def test_square_root_at_psi12_refuses_p_as_not_prime(capsys):
    # is_prime accepts psi12; the norm +1 chain's first root, of x + 2 = 14, then meets what
    # no prime modulus allows, and p is refused by name rather than by a Python error
    psi12 = 318665857834031151167461
    assert run(capsys, "order", "--d", "35", "--alpha", "6,1", "--p", str(psi12)) == (
        2, "", f"error: p = {psi12} is not an odd prime\n"
    )


def test_sweep_out_of_memory_exits_2(capsys, monkeypatch):
    # a grid too large to list its primes is refused, not reported as a counterexample
    def no_memory(limit):
        raise MemoryError

    modarith._first_window()  # cached first: the radicand check factors d through its sieve
    monkeypatch.setattr(modarith, "_odd_prime_flags", no_memory)
    code, out, err = run(capsys, "sweep", "--p-max", "1000000000000000")
    assert (code, out, err) == (2, "", "seed 0\nerror: out of memory for these inputs\n")


def _cap_address_space():
    """Cap the calling process's address space at 1.5 GB, as `ulimit -v 1500000` does."""
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024, hard))


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="no address-space limit here")
def test_sweep_whose_sieve_cannot_be_allocated_writes_one_error_line():
    # primes below 10^10 need a 5 GB sieve; its allocation fails in the capped child alone, and
    # stderr holds no SystemError line above the error
    argv = ["sweep", "--d-set", "2", "--coeff-bound", "1", "--p-max", "10000000000", "--f-max", "1"]
    proc = _cli(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                preexec_fn=_cap_address_space)
    assert proc.communicate(timeout=60) == ("", "seed 0\nerror: out of memory for these inputs\n")
    assert proc.returncode == 2


# norms +1 and -1 (both classes of d mod 4), general norms, and d < 0
_DRAW_ALPHAS = ["2 1,1", "3 2,1", "5 1,1", "5 3,1", "13 5,1", "6 3,2", "-1 1,1", "-3 1,1",
                "-7 1,3", "-5 2,1"]


def _large_inputs(seed: int):
    """Seeded commands at primes of 30 to 256 bits, 64-bit prime conductors and d < 10^12."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)

    def alpha():
        d, ab = rng.choice(_DRAW_ALPHAS).split()
        return ["--d", d, "--alpha", ab]

    for bits in (30, 45, 62, 80, 96, 128, 192, 256):
        p = sympy.nextprime(rng.getrandbits(bits - 1) | 1 << bits - 1)
        yield ["order", *alpha(), "--p", str(p)]
    for _ in range(4):
        f = sympy.nextprime(rng.getrandbits(63) | 1 << 63)
        yield ["conductor", *alpha(), "--f", str(f)]
    for _ in range(4):
        d = rng.randrange(2, 10**12)
        while max(sympy.factorint(d).values()) > 1:
            d = rng.randrange(2, 10**12)
        yield ["fundunit", "--d", str(d)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_large_inputs_exit_0_or_2_quickly(capsys, seed):
    # an answer or a refusal, each within 2 s: never a counterexample, an exception or a hang
    for argv in _large_inputs(seed):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 2.0, argv
        if code == 0:
            assert out and err == "", argv
        else:
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_order_text(capsys):
    code, out, err = run(capsys, "order", "--d", "2", "--alpha", "1,1", "--p", "17")
    assert code == 0
    assert "norm_minus_one" in out
    assert "[pass]" in out


def test_order_json_schema(capsys):
    code, out, _ = run(capsys, "order", "--d", "2", "--alpha", "1,1", "--p", "17", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"command", "inputs", "results", "pass"}
    assert payload["command"] == "order"
    assert payload["pass"] is True
    names = [r["name"] for r in payload["results"]]
    assert "bound_n" in names and "ell" in names
    assert out.endswith("\n")


def test_order_with_oracle(capsys):
    code, out, _ = run(
        capsys, "order", "--d", "2", "--alpha", "1,1", "--p", "17", "--oracle", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    by_name = {r["name"]: r for r in payload["results"]}
    assert by_name["oracle_order"]["value"] == 16
    assert by_name["oracle order divides n"]["status"] == "pass"


@pytest.mark.parametrize(
    "d, alpha, p, claim, order",
    [
        ("2", "3,2", "17", "n", 8),
        ("2", "1,1", "17", "n", 16),
        ("2", "1,1", "13", "2(p-ell)", 28),
        ("6", "1,1", "7", "bound", 24),
        # odd orders: the scan finds them through its test against alpha^-1
        ("2", "-3,2", "13", "n", 7),
        ("2", "-1,3", "13", "bound", 21),
        ("5", "-3,1", "13", "n", 7),
    ],
)
def test_order_oracle_divides(capsys, d, alpha, p, claim, order):
    # the oracle check names the claim of the report's mode
    code, out, _ = run(capsys, "order", "--d", d, "--alpha", alpha, "--p", p, "--oracle")
    assert code == 0
    assert f"[pass] oracle order divides {claim}" in out
    assert f"oracle order: {order}" in out


@pytest.mark.parametrize(
    "argv",
    [
        # 2 * bound + 10 is about 9 * 10^18 steps here
        ["order", "--d", "2", "--alpha", "1,1", "--p", str(2**61 - 1), "--oracle"],
        ["conductor", "--d", "2", "--alpha", "1,1", "--f", "1000003", "--oracle"],
    ],
)
def test_oracle_over_budget_exits_2_quickly(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert f"above its limit of {quadorder.oracle.DEFAULT_CAP}" in err
    assert "alpha = 1 + 1*sqrt(2) at " in err


def test_sweep_oracle_over_budget_exits_2_before_any_scan(capsys, monkeypatch):
    # every row's cap is checked before the first scan, and the refusal names the row
    scans = []
    monkeypatch.setattr(quadorder.oracle, "oracle_order_mod_p", lambda *a: scans.append(a))
    monkeypatch.setattr(quadorder.oracle, "oracle_n_of_f", lambda *a: scans.append(a))
    t0 = time.perf_counter()
    code, out, err = run(
        capsys, "sweep", "--d-set", "2", "--coeff-bound", "1", "--p-max", "1200",
        "--f-max", "0", "--oracle"
    )
    assert time.perf_counter() - t0 < 0.5
    assert code == 2
    assert out == ""
    assert scans == []
    assert "alpha = 0 + -1*sqrt(2) at p = 709 would take up to 1005370 steps" in err
    assert f"above its limit of {quadorder.oracle.DEFAULT_CAP}" in err


@pytest.mark.parametrize("cap, answers", [(42, True), (41, False)])
def test_oracle_default_cap_edge(capsys, monkeypatch, cap, answers):
    # the order at p = 17 claims n = 16, so its scan needs a cap of 2 * 16 + 10 = 42 steps
    monkeypatch.setattr(quadorder.oracle, "DEFAULT_CAP", cap)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "order", "--d", "2", "--alpha", "1,1", "--p", "17", "--oracle")
    assert time.perf_counter() - t0 < 0.1
    if answers:
        assert (code, err) == (0, "")
        assert "oracle order: 16\n" in out
    else:
        assert (code, out) == (2, "")
        assert err == (
            "error: the oracle cross-check of alpha = 1 + 1*sqrt(2) at p = 17 would take up to "
            "42 steps, above its limit of 41\n"
        )


def test_order_degenerate_61_bit_prime_exits_2_quickly(capsys):
    # p = 2^61 - 1 divides d, so ell = 0 and q(p) = p: the closed-form check
    # behind it must not walk p/2 terms
    p = str(2**61 - 1)
    t0 = time.perf_counter()
    code, _, err = run(capsys, "order", "--d", p, "--alpha", "1,1", "--p", p)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert f"index {p}" in err


def test_order_fundunit_source(capsys):
    code, out, _ = run(capsys, "order", "--d", "13", "--fundunit", "--p", "29", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["inputs"]["a"] == 3 and payload["inputs"]["b"] == 1


def test_conductor_json(capsys):
    code, out, _ = run(capsys, "conductor", "--d", "2", "--alpha", "1,1", "--f", "45", "--json")
    assert code == 0
    payload = json.loads(out)
    by_name = {r["name"]: r for r in payload["results"]}
    assert by_name["n_exact"]["value"] == 12
    assert by_name["bound"]["value"] == 36
    assert payload["pass"] is True


def test_conductor_even_f(capsys):
    code, out, _ = run(capsys, "conductor", "--d", "2", "--alpha", "1,1", "--f", "12", "--json")
    assert code == 0
    payload = json.loads(out)
    by_name = {r["name"]: r for r in payload["results"]}
    assert by_name["bound"]["value"] is None


def test_conductor_with_oracle(capsys):
    code, out, _ = run(
        capsys, "conductor", "--d", "2", "--alpha", "1,1", "--f", "45", "--oracle", "--json"
    )
    payload = json.loads(out)
    by_name = {r["name"]: r for r in payload["results"]}
    assert by_name["oracle_n"]["value"] == 12
    assert code == 0


def test_conductor_refuses_unfactorable_p_minus_ell_quickly(capsys):
    # q(p) for 1 + sqrt(2) needs p - 1 = 2 * 1000003 * 1000121 factored,
    # which is beyond the trial bound: a quick exit 2, not a scan of ~p steps
    p = 2 * 1000003 * 1000121 + 1
    t0 = time.perf_counter()
    code, _, err = run(capsys, "conductor", "--d", "2", "--alpha", "1,1", "--f", str(p))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "trial bound" in err


@pytest.fixture
def wrong_oracle_n(monkeypatch):
    # an oracle that is off by one makes every conductor cross-check a counterexample
    real = quadorder.oracle.oracle_n_of_f

    def off_by_one(alpha, f, cap):
        found = real(alpha, f, cap)
        return found._replace(value=found.value + 1)

    monkeypatch.setattr(quadorder.oracle, "oracle_n_of_f", off_by_one)


def test_conductor_oracle_mismatch_exits_1(capsys, wrong_oracle_n):
    argv = ["conductor", "--d", "2", "--alpha", "1,1", "--f", "45", "--oracle"]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "[fail] oracle n(f) == n_exact" in out
    assert "result: CHECK FAILURE" in out
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_sweep_oracle_mismatch_exits_1(capsys, wrong_oracle_n):
    code, out, _ = run(
        capsys, "sweep", "--d-set", "2", "--coeff-bound", "1", "--p-max", "8",
        "--f-max", "3", "--oracle"
    )
    assert code == 1
    failed = [row for row in csv.DictReader(io.StringIO(out)) if row["pass"] == "false"]
    assert failed
    for row in failed:
        assert row["kind"] == "conductor"
        assert row["checks_failed"] == "1"
        assert row["failed_names"] == "oracle n(f) == n_exact"


@pytest.fixture
def wrong_oracle_order(monkeypatch):
    # an oracle that is off by one makes the order cross-checks counterexamples
    real = quadorder.oracle.oracle_order_mod_p

    def off_by_one(alpha, p, cap):
        found = real(alpha, p, cap)
        return found._replace(value=found.value + 1)

    monkeypatch.setattr(quadorder.oracle, "oracle_order_mod_p", off_by_one)


def test_order_oracle_mismatch_exits_1(capsys, wrong_oracle_order):
    argv = ["order", "--d", "2", "--alpha", "1,1", "--p", "17", "--oracle"]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "[fail] oracle order divides n" in out
    assert "result: CHECK FAILURE" in out
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_sweep_order_oracle_mismatch_exits_1(capsys, wrong_oracle_order):
    code, out, _ = run(
        capsys, "sweep", "--d-set", "2", "--coeff-bound", "1", "--p-max", "20",
        "--f-max", "3", "--oracle"
    )
    assert code == 1
    failed = [row for row in csv.DictReader(io.StringIO(out)) if row["pass"] == "false"]
    assert failed
    claims = {"norm_plus_one": "n", "norm_minus_one": "n",
              "norm_minus_one_diagnostic": "2(p-ell)", "general": "bound"}
    for row in failed:
        assert row["kind"] == "order"
        assert row["checks_failed"] == "1"
        assert row["failed_names"] == f"oracle order divides {claims[row['mode']]}"


def test_fundunit_text(capsys):
    code, out, _ = run(capsys, "fundunit", "--d", "2")
    assert code == 0
    assert "1 + 1*sqrt(2)" in out
    assert "norm: -1" in out


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int -> str digit limit"
)
def test_fundunit_refuses_past_the_output_limit(capsys):
    # the unit of 10^9 + 7 has coordinates of 6,382 and 6,377 digits; the refusal names d
    # and the limit before anything is rendered, in every command that prints it
    limit = sys.get_int_max_str_digits()
    argvs = [
        ["fundunit", "--d", "1000000007"],
        ["fundunit", "--d", "1000000007", "--json"],
        ["order", "--d", "1000000007", "--fundunit", "--p", "101"],
        ["conductor", "--d", "1000000007", "--fundunit", "--f", "3", "--json"],
    ]
    try:
        sys.set_int_max_str_digits(4300)
        for argv in argvs:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == (
                "error: the fundamental unit for d = 1000000007 has a coordinate past "
                "the 4300-digit output limit\n"
            )
        # the check is exact: a limit of the longest coordinate's length prints it
        sys.set_int_max_str_digits(0)
        eps = fundamental_unit(10**9 + 7)
        digits = max(len(str(eps.a)), len(str(eps.b)))
        assert digits == 6382
        sys.set_int_max_str_digits(digits)
        code, out, _ = run(capsys, "fundunit", "--d", "1000000007")
        assert code == 0 and f"fundamental unit: {eps}" in out
        sys.set_int_max_str_digits(digits - 1)
        assert run(capsys, "fundunit", "--d", "1000000007")[0] == 2
    finally:
        sys.set_int_max_str_digits(limit)


def test_identities_command(capsys):
    code, out, _ = run(capsys, "identities", "--trials", "25", "--seed", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert len(payload["results"]) == 7
    for tally in payload["results"]:
        assert tally["passed"] == tally["total"] == 25
    # the draw ranges are fixed, and still reported
    assert payload["inputs"] == {
        "trials": 25, "seed": 1, "x_bound": 50, "s_bound": 20, "mn_bound": 40,
    }


def test_identity_trials_deterministic():
    a = run_identity_trials(30, seed=7)
    b = run_identity_trials(30, seed=7)
    assert [(t.name, t.passed, t.total) for t in a] == [(t.name, t.passed, t.total) for t in b]
    assert all(t.passed == 30 for t in a)


def test_sweep_csv_shape(capsys):
    code, out, err = run(
        capsys, "sweep", "--d-set", "2", "--coeff-bound", "2", "--p-max", "12", "--f-max", "4"
    )
    assert code == 0
    assert "seed 0" in err
    lines = out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows, "the small grid still produces rows"
    assert {row["kind"] for row in rows} == {"order", "conductor"}
    assert all(row["pass"] == "true" for row in rows)


def test_sweep_reproducible(capsys):
    args = ["sweep", "--d-set", "2,5", "--coeff-bound", "2", "--p-max", "10", "--f-max", "3",
            "--seed", "9"]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_sweep_json_format(capsys):
    code, out, _ = run(
        capsys, "sweep", "--d-set", "3", "--coeff-bound", "1", "--p-max", "8",
        "--f-max", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "sweep"
    assert payload["pass"] is True
    assert all(set(CSV_COLUMNS) == set(row) for row in payload["results"])


@pytest.mark.parametrize("with_oracle", [False, True])
def test_sweep_rows_follow_the_csv_columns(with_oracle):
    rows = list(run_sweep([2, 5], 1, 20, 4, 0, with_oracle))
    assert {row["kind"] for row in rows} == {"order", "conductor"}
    for row in rows:
        assert tuple(row) == tuple(CSV_COLUMNS)


def test_sweep_streams_rows_made_before_an_assertion(capsys, monkeypatch):
    argv = ["sweep", "--d-set", "2", "--coeff-bound", "1", "--p-max", "8", "--f-max", "3"]
    code, full, _ = run(capsys, *argv)
    assert code == 0
    lines = full.splitlines(keepends=True)
    # alpha = -sqrt(2) at f = 2; b < 0, so this call builds the report its conjugate reuses
    failing = next(i for i, line in enumerate(lines) if line.startswith("conductor,2,0,-1,,2,"))
    assert 1 < failing < len(lines) - 1
    real = conductor.bound_full

    def fails_at_one_input(alpha, f):
        if (alpha.a, alpha.b, f) == (0, -1, 2):
            raise AssertionError("injected")
        return real(alpha, f)

    monkeypatch.setattr(conductor, "bound_full", fails_at_one_input)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "assertion failure: injected" in err
    # the header and every row before that row were already written
    assert out == "".join(lines[:failing])


def _unshared_rows(d_set, coeff_bound, p_max, f_max, seed, with_oracle):
    """The sweep's rows with every alpha building its own reports, conjugates included."""
    rng = random.Random(seed)
    primes = [p for p in range(3, p_max) if modarith.is_prime(p)]
    coeffs = range(-coeff_bound, coeff_bound + 1)
    rows = []
    for d, a, b in itertools.product(sorted(set(d_set)), coeffs, coeffs):
        if b == 0:
            continue
        try:
            alpha = QuadInt(a, b, d)
        except ValueError:
            continue
        jobs = [(ordersolver.analyze, p) for p in primes]
        jobs += [(conductor.bound_full, f) for f in range(1, f_max + 1)]
        for build, modulus in jobs:
            try:
                report = build(alpha, modulus)
            except ValueError:
                continue
            row = cli._row(alpha, cli._row_part(alpha, report), rng, with_oracle)
            rows.append(dict(zip(CSV_COLUMNS, row)))
    return rows


@pytest.mark.parametrize("with_oracle", [False, True])
@pytest.mark.parametrize("seed", [0, 1])
def test_sweep_rows_equal_an_unshared_reference(seed, with_oracle):
    grid = ([-3, -1, 2, 3, 5, 13], 3, 60, 30, seed, with_oracle)
    expected = _unshared_rows(*grid)
    assert any(row["b"] > 0 for row in expected)
    assert list(run_sweep(*grid)) == expected


@pytest.fixture
def builds(monkeypatch):
    """Every report the grid builds, as (builder name, alpha, modulus), in call order."""
    built = []

    def counted(build):
        def wrapper(alpha, modulus):
            built.append((build.__name__, alpha, modulus))
            return build(alpha, modulus)
        return wrapper

    monkeypatch.setattr(ordersolver, "analyze", counted(ordersolver.analyze))
    monkeypatch.setattr(conductor, "bound_full", counted(conductor.bound_full))
    return built


def test_default_sweep_builds_each_conjugate_pairs_reports_once(builds):
    args = build_parser().parse_args(["sweep"])
    d_set = [int(tok) for tok in args.d_set.split(",")]
    rows = run_sweep(d_set, args.coeff_bound, args.p_max, args.f_max, args.seed)
    assert sum(1 for _ in rows) == 31464
    built = collections.Counter((name, a.d, a.a, abs(a.b), modulus) for name, a, modulus in builds)
    assert set(built.values()) == {1}  # once per (d, a, |b|) and modulus
    assert collections.Counter(name for name, *_ in built) == {"analyze": 4680, "bound_full": 11700}


@pytest.mark.parametrize("with_oracle", [False, True])
def test_oracle_sweep_builds_the_reports_the_plain_sweep_does(builds, with_oracle):
    # grid-oracle's grid: p < 100 and f <= 20 are below both cutoffs, so its cap pass builds none
    rows = list(run_sweep([2, 3, 5], 2, 100, 20, 0, with_oracle))
    assert len(rows) == 2174
    assert collections.Counter(name for name, *_ in builds) == {"analyze": 600, "bound_full": 500}


def test_sweep_oracle_cap_pass_builds_only_past_the_cutoffs(capsys, builds):
    # an order claim is at most p^2 - 1 and n(f) at most 6f^2, so a claim's cap 2c + 10 can
    # exceed the oracle's budget only from p = 709 and f = 289 on; the pass runs on the call
    run_sweep([2, 3, 5], 1, 702, 288, 0, True)  # p = 701 and f = 288 are the largest moduli
    assert builds == []
    run_sweep([2, 3, 5], 1, 0, 289, 0, True)
    assert {modulus for *_, modulus in builds} == {289}
    builds.clear()
    code, out, err = run(
        capsys, "sweep", "--d-set", "2", "--coeff-bound", "1", "--p-max", "720",
        "--f-max", "0", "--oracle"
    )
    assert (code, out) == (2, "")
    assert {modulus for *_, modulus in builds} == {709, 719}
    assert "alpha = 0 + -1*sqrt(2) at p = 709 would take up to 1005370 steps" in err


def test_sweep_streams_its_moduli():
    # no job per conductor is held: the first row of a 300,000-conductor grid costs little
    tracemalloc.start()
    try:
        next(run_sweep([2], 1, 3, 300000, 0, False))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_default_sweep_builds_each_conjugate_pairs_row_part_once(monkeypatch):
    built = collections.Counter()
    real_part = cli._row_part

    def counted_part(alpha, report, plain):
        part = real_part(alpha, report, plain)
        name, modulus = part[1][:2]  # a part holds its claim
        built[alpha.d, alpha.a, abs(alpha.b), name, modulus] += 1
        return part

    redraws = []
    real_chain = ordersolver._unit_chain

    def counted_chain(x, s, ell, p, rng):
        if rng is not None:  # the sweep's re-draw; the reports' own chains take no rng
            redraws.append((x, s, p))
        return real_chain(x, s, ell, p, rng)

    monkeypatch.setattr(cli, "_row_part", counted_part)
    monkeypatch.setattr(ordersolver, "_unit_chain", counted_chain)
    args = build_parser().parse_args(["sweep"])
    d_set = [int(tok) for tok in args.d_set.split(",")]
    rows, by_sign = 0, collections.Counter()
    for row in run_sweep(d_set, args.coeff_bound, args.p_max, args.f_max, args.seed):
        # each chain row re-draws its own chain, from its x and s, while it is made,
        # and no other row does
        assert redraws == ([(row["x"], row["s"], row["p"])] if row["m"] is not None else [])
        by_sign[row["b"] > 0] += len(redraws)
        redraws.clear()
        rows += 1
    assert rows == 31464
    assert set(built.values()) == {1}  # once per (d, a, |b|) and modulus
    assert sum(built.values()) == 15732
    assert by_sign == {False: 166, True: 166}


def _frozen(value) -> bool:
    """value is a tuple of frozen values all the way down, or a scalar."""
    if isinstance(value, tuple):
        return all(_frozen(v) for v in value)
    return value is None or isinstance(value, (int, str))


def test_oracle_sweep_makes_each_claim_once_per_order_part(monkeypatch):
    # a part holds its claim, so oracle and chain rows make none of their own; a conductor
    # part takes its claim from its tail's memo entry, and neither is changed once made
    claimed, parts, tails = [], [], []
    real_claim, real_part, real_tail = cli._claim, cli._row_part, cli._conductor_tail

    def counted_claim(report):
        claimed.append(report)
        return real_claim(report)

    def kept_part(alpha, report, *plain):
        parts.append(real_part(alpha, report, *plain))
        return parts[-1]

    def kept_tail(*key):
        tails.append(real_tail(*key))
        return tails[-1]

    monkeypatch.setattr(cli, "_claim", counted_claim)
    monkeypatch.setattr(cli, "_row_part", kept_part)
    monkeypatch.setattr(cli, "_conductor_tail", kept_tail)
    rows = list(run_sweep([2, 3, 5], 2, 100, 20, 0, True))  # grid-oracle's grid
    assert len(rows) == 2174
    assert len(claimed) == 593 == sum(part[1][0] == "p" for part in parts)
    assert len(tails) == len(parts) - 593 == 494
    assert all(type(part) is tuple and _frozen(part) for part in parts)
    assert all(type(tail) is tuple and _frozen(tail) for tail in tails)


def test_conductor_claims_share_one_check_tuple_per_outcome(monkeypatch):
    # the product bound's check is absent, passing or failing, so reports and memo
    # entries share those tuples rather than each building a Check of its own
    r2 = QuadInt(1, 1, 2)
    assert conductor.bound_full(r2, 45).checks is conductor.bound_full(r2, 15).checks
    unclaimed = conductor.bound_full(r2, 4)
    assert unclaimed.bound is None and unclaimed.checks == ()
    tails = []
    real_tail = cli._conductor_tail

    def kept_tail(*key):
        tails.append(real_tail(*key))
        return tails[-1]

    monkeypatch.setattr(cli, "_conductor_tail", kept_tail)
    list(run_sweep([2, 3, 5], 6, 3, 60, 0))  # the default grid's conductor half
    assert tails
    assert len({id(claim[2]) for _, claim, _ in tails}) <= 3


def test_oracle_sweep_scans_once_per_row_on_its_own_alpha(monkeypatch):
    scans = []

    def recorded(scan):
        def wrapper(alpha, modulus, cap):
            scans.append((alpha.d, alpha.a, alpha.b, modulus))
            return scan(alpha, modulus, cap)
        return wrapper

    monkeypatch.setattr(quadorder.oracle, "oracle_order_mod_p",
                        recorded(quadorder.oracle.oracle_order_mod_p))
    monkeypatch.setattr(quadorder.oracle, "oracle_n_of_f", recorded(quadorder.oracle.oracle_n_of_f))
    rows = run_sweep([2, 3, 5], 2, 60, 12, 0, True)
    assert scans == []  # the cap pass scans nothing
    for row in rows:
        modulus = row["p"] if row["kind"] == "order" else row["f"]
        own = (row["d"], row["a"], row["b"], modulus)
        # a degenerate order row has no bound to scan to
        assert scans == ([] if row["kind"] == "order" and row["bound"] is None else [own])
        scans.clear()


def _sweep_csv_rows(capsys, *extra):
    """Exit code and the CSV rows of a small sweep, keyed by kind, a, b and modulus."""
    argv = ["sweep", "--d-set", "2", "--coeff-bound", "1", "--p-max", "20", "--f-max", "4"]
    code, out, _ = run(capsys, *argv, *extra)
    rows = list(csv.DictReader(io.StringIO(out)))
    return code, {(r["kind"], r["a"], r["b"], r["p"] or r["f"]): r for r in rows}


def _fails_alone(rows, case, failed: str) -> None:
    """Only the row of case fails, on the check named; its conjugate's row passes."""
    kind, a, b, modulus = case
    assert rows[case]["pass"] == "false"
    assert rows[case]["failed_names"] == failed
    assert rows[kind, a, str(-int(b)), modulus]["pass"] == "true"
    assert [key for key, row in rows.items() if row["pass"] != "true"] == [case]


def test_sweep_wrong_oracle_answer_fails_only_its_own_row(capsys, monkeypatch):
    real = quadorder.oracle.oracle_order_mod_p

    def wrong_at_one_alpha(alpha, p, cap):
        result = real(alpha, p, cap)
        if (alpha.a, alpha.b, p) == (1, 1, 17):  # b > 0: its conjugate's part was made first
            return result._replace(value=result.value + 1)
        return result

    monkeypatch.setattr(quadorder.oracle, "oracle_order_mod_p", wrong_at_one_alpha)
    code, rows = _sweep_csv_rows(capsys, "--oracle")
    assert code == 1
    _fails_alone(rows, ("order", "1", "1", "17"), "oracle order divides n")
    assert rows["order", "1", "1", "17"]["oracle"] == "17"
    assert rows["order", "1", "-1", "17"]["oracle"] == "16"


def _redraw_one_link_long(monkeypatch, d, a, b, p):
    """The sweep's chain re-draw for d, a, b at p gives one link too many."""
    current = []
    real_row, real_chain = cli._row, ordersolver._unit_chain

    def tracked_row(alpha, part, rng, with_oracle):
        current[:] = [alpha]
        return real_row(alpha, part, rng, with_oracle)

    def longer_at_one_alpha(x, s, ell, modulus, rng):
        result = real_chain(x, s, ell, modulus, rng)
        # only the sweep's own re-draw passes an rng, and only a _row re-draws
        if rng is not None and (current[0].d, current[0].a, current[0].b, modulus) == (d, a, b, p):
            return result._replace(chain=result.chain + (0,))
        return result

    monkeypatch.setattr(cli, "_row", tracked_row)
    monkeypatch.setattr(ordersolver, "_unit_chain", longer_at_one_alpha)


def test_sweep_chain_redraw_mismatch_fails_only_its_own_row(capsys, monkeypatch):
    _redraw_one_link_long(monkeypatch, 2, 1, 1, 17)
    code, rows = _sweep_csv_rows(capsys)
    assert code == 1
    _fails_alone(rows, ("order", "1", "1", "17"), "chain length is root independent")
    row, conjugate = rows["order", "1", "1", "17"], rows["order", "1", "-1", "17"]
    assert int(row["m_random"]) == int(row["m"]) + 1
    assert conjugate["m_random"] == conjugate["m"]


def _csv_cell(value) -> str:
    """A JSON row value as its CSV cell: null blank, booleans in lower case."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("case", ["plain", "oracle", "redraw fails at b > 0"])
def test_sweep_csv_lines_render_its_json_rows(capsys, monkeypatch, case, seed):
    # a conjugate's line is its pair's text around its own b; a b > 0 row whose own
    # re-draw fails would show a reused line as passing
    if case.startswith("redraw"):
        _redraw_one_link_long(monkeypatch, 2, 1, 1, 17)
    argv = ["sweep", "--d-set", "-1,2,5,13", "--coeff-bound", "2", "--p-max", "40",
            "--f-max", "12", "--seed", seed] + (["--oracle"] if case == "oracle" else [])
    renders, real_cells, tails = collections.Counter(), cli._cells, []
    cli._conductor_tail.cache_clear()  # so that this sweep renders every conductor tail it shows

    def counted_cells(row):
        if len(row) == len(CSV_COLUMNS) and row[3] is None:  # b unset: an order pair's cells
            renders[row[:3] + row[4:8]] += 1  # s tells |b| apart
        elif len(row) < len(CSV_COLUMNS):  # the tail of one memo entry, shared by its key's rows
            tails.append(row)  # held, so that no later tuple takes its id
            renders[id(row)] += 1
        return real_cells(row)

    monkeypatch.setattr(cli, "_cells", counted_cells)
    code, csv_out, _ = run(capsys, *argv)
    json_code, json_out, _ = run(capsys, *argv, "--format", "json")
    rows = json.loads(json_out)["results"]
    assert code == json_code == (1 if case.startswith("redraw") else 0)
    assert csv_out.splitlines() == [",".join(CSV_COLUMNS)] + [
        ",".join(_csv_cell(row[name]) for name in CSV_COLUMNS) for row in rows
    ]
    assert any(row["b"] > 0 and row["m"] is not None for row in rows)
    failed = [(row["d"], row["a"], row["b"], row["p"]) for row in rows if not row["pass"]]
    assert failed == ([(2, 1, 1, 17)] if case.startswith("redraw") else [])
    # each order pair's text, and each memo entry's tail, is rendered at most once, and only
    # where no row scans the oracle
    assert set(renders.values()) == (set() if case == "oracle" else {1})


def test_sweep_output_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys, "sweep", "--d-set", "2", "--coeff-bound", "1", "--p-max", "8",
        "--f-max", "2", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    data = target.read_bytes()
    assert b"\r" not in data
    text = data.decode("utf-8")
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_sweep_unwritable_output_exits_2_before_the_grid(tmp_path, capsys):
    target = tmp_path / "missing" / "rows.csv"
    t0 = time.perf_counter()
    code, out, err = run(capsys, "sweep", "--output", str(target))
    assert time.perf_counter() - t0 < 0.5  # the default grid takes about a second
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert "seed" not in err
    assert not target.parent.exists()


def test_sweep_with_oracle_small(capsys):
    code, out, _ = run(
        capsys, "sweep", "--d-set", "2", "--coeff-bound", "1", "--p-max", "8",
        "--f-max", "3", "--oracle"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    order_rows = [r for r in rows if r["kind"] == "order" and r["oracle"]]
    assert order_rows
    for row in order_rows:
        assert int(row["bound"]) % int(row["oracle"]) == 0


@pytest.mark.parametrize(
    "argv, text",
    [
        (["sweep", "--p-max", "-1"], "sweep bounds must be nonnegative"),
        (["order", "--d", "2", "--alpha", "1,x", "--p", "17"],
         "alpha coefficients must be integers: '1,x'"),
        (["identities", "--trials", "0"], "trials must be at least 1"),
        (["sweep", "--d-set", "2,x"], "--d-set must be a comma list of integers: '2,x'"),
    ],
)
def test_bad_arguments_exit_2_with_one_error_line(argv, text):
    # a subprocess, so the test sees the whole of stderr and any traceback
    proc = _cli(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.communicate(timeout=60) == ("", f"error: {text}\n")
    assert proc.returncode == 2


@pytest.mark.parametrize("p_max", ["0", "1"])
def test_sweep_below_the_first_prime_writes_only_conductor_rows(capsys, p_max):
    code, out, _ = run(
        capsys, "sweep", "--d-set", "2", "--coeff-bound", "1", "--p-max", p_max, "--f-max", "3"
    )
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 0 and rows
    assert {row["kind"] for row in rows} == {"conductor"}


def test_sweep_reads_a_negative_d_set_as_a_value(capsys):
    # "-1,-2" looks like an option to argparse unless the parser is told otherwise
    grid = ["--coeff-bound", "1", "--p-max", "10", "--f-max", "2"]
    spaced = run(capsys, "sweep", "--d-set", "-1,-2", *grid)
    glued = run(capsys, "sweep", "--d-set=-1,-2", *grid)
    assert spaced == glued
    assert spaced[0] == 0
    assert {row["d"] for row in csv.DictReader(io.StringIO(spaced[1]))} == {"-1", "-2"}


def test_sweep_help_documents_csv(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    out = capsys.readouterr().out
    assert "CSV columns" in out
    for col in ("kind", "tightness", "failed_names"):
        assert col in out


def test_help_documents_exit_codes_and_env(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "exit codes" in out
    # factoring has one fixed trial bound; no environment variable moves it
    assert "QUADORDER_TRIAL_BOUND" not in out


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["order", "--d", "2", "--alpha", "1,1", "--p", "7"])
    assert args.p == 7


@pytest.mark.parametrize(
    "argv, first_line",
    [
        (["sweep"], b"kind,d,a,b,"),
        (["order", "--d", "2", "--alpha", "1,1", "--p", "17"], None),
    ],
)
def test_closed_pipe_exits_2_without_a_traceback(argv, first_line):
    # the reader goes after one line, or before any; exit 1 stays reserved for counterexamples
    proc = _cli(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if first_line is not None:
        assert proc.stdout.readline().startswith(first_line)
    proc.stdout.close()
    err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 2
    assert "Traceback" not in err
    assert err.splitlines()[-1] == "error: the output pipe was closed"


def test_closed_pipe_shared_with_stderr_exits_2():
    # 2>&1: the "error: " line itself meets the closed pipe, and the exit code must survive it
    proc = _cli(["sweep", "--coeff-bound", "3"], stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    assert proc.stdout.readline() == b"seed 0\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
@pytest.mark.parametrize(
    "argv, stdout_full",
    [
        (["order", "--d", "2", "--alpha", "1,1", "--p", "17"], True),
        (["sweep", "--d-set", "2", "--coeff-bound", "1", "--p-max", "20", "--f-max", "4",
          "--output", "/dev/full"], False),
    ],
)
def test_failed_output_write_exits_2_without_a_traceback(argv, stdout_full):
    # a full device is no counterexample: one "error: " line and exit 2, as for a closed pipe
    with open("/dev/full", "wb") as full:
        proc = _cli(argv, stdout=full if stdout_full else subprocess.DEVNULL,
                    stderr=subprocess.PIPE, text=True)
        err = proc.communicate(timeout=60)[1]
    assert proc.returncode == 2
    assert "Traceback" not in err
    assert err.splitlines()[-1] == f"error: cannot write the output: {os.strerror(errno.ENOSPC)}"


@pytest.mark.parametrize(
    "argv",
    [
        ["order", "--d", "13", "--fundunit", "--p", "29", "--json"],
        ["conductor", "--d", "2", "--alpha", "1,1", "--f", "45", "--json"],
        ["sweep", "--d-set", "2", "--coeff-bound", "1", "--p-max", "20", "--f-max", "4"],
        ["identities", "--trials", "200", "--seed", "5"],
    ],
)
def test_output_unchanged_under_optimize(argv):
    # python -O strips assert statements; the invariants must not lean on them
    def stdout(*flags):
        proc = _cli(argv, *flags, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out = proc.communicate(timeout=60)[0]
        assert proc.returncode == 0, flags
        return out

    plain = stdout()
    assert plain and plain == stdout("-O")


GOLDEN_SWEEP = ["sweep", "--d-set", "2,5", "--coeff-bound", "2", "--p-max", "30", "--f-max", "12",
                "--oracle"]


# frozen sha256 of stdout: the README's output bytes change only on purpose
GOLDEN_DIGESTS = [
    (["order", "--d", "2", "--alpha", "1,1", "--p", "17", "--oracle"],
     "681242365263da8d63f95fb0c00bc681034938ec0bb1a6b55769fc80e697141b"),
    (["order", "--d", "2", "--alpha", "1,1", "--p", "17", "--oracle", "--json"],
     "ec7e475b5dc9ea3b4dbcd6e25bb8e82c2595981575430b39bb4513730b8b38b8"),
    (["order", "--d", "13", "--fundunit", "--p", "29"],
     "65553213909a4cced48db3d09305050e160f7e0e6589e7f38ba0cc03bfeb0280"),
    (["order", "--d", "13", "--fundunit", "--p", "29", "--json"],
     "782bd8eea08466ac12f0198c63b72a99aa29acac7fbc5ea00478954966bec61e"),
    (["conductor", "--d", "2", "--alpha", "1,1", "--f", "45", "--oracle"],
     "c7e9c96bac8f7a4644a2a63c5b8cd6d4390249bcb8010306d81a71293e3ea9ac"),
    (["conductor", "--d", "2", "--alpha", "1,1", "--f", "45", "--oracle", "--json"],
     "290561e4f9bc61c507bc81097d2efd15eca1e51475195e24c6d31154bb4ffc42"),
    (["fundunit", "--d", "94"],
     "3918da88f83485b98831d7cb66bfa7a0326ed1581a7296abef7e82534e808fed"),
    (["fundunit", "--d", "94", "--json"],
     "56f14eec13db0a2e0eda3de8fd92b995dad5625077b0af59df4ac1194137ab9c"),
    (["identities", "--trials", "2000", "--seed", "5"],
     "464b7679f15d0eaf820b9828e72de12a2bffa1870c508cd725beba094b2f74a3"),
    (["identities", "--trials", "2000", "--seed", "5", "--json"],
     "cf1b39d007b903552ea8180b8e3aeb6774be9562177c3db0088a3eae619cbb36"),
    (GOLDEN_SWEEP,
     "fc9fb22ac48eec146c97d218f852f93cbd72b50f36174c0d101ac49c4071b7de"),
    (GOLDEN_SWEEP + ["--format", "json"],
     "1cd5d056f4920ee04f6fe3ddc3efdbe7a69cef86310fe5d1eafb16a5738cd181"),
    # one row per report shape the rows above leave out: norm +1 with the
    # half bound and both recorded rows, general with ell = -1 and 1, the
    # norm -1 diagnostic, and an even conductor sharing a factor with b
    (["order", "--d", "3", "--alpha", "2,1", "--p", "13", "--oracle"],
     "55a3de70a4e248f3fbe3e330ba6a57aba8032fa95b17e04d558d54339871e049"),
    (["order", "--d", "3", "--alpha", "2,1", "--p", "13", "--oracle", "--json"],
     "fd697f926db5b40ee56edd052af8a54f74f484c558bf5c968109ba401fc1d2d1"),
    (["order", "--d", "2", "--alpha", "3,1", "--p", "5", "--oracle"],
     "5c7d76997f92d785ff1d19cf684659c10dba33daf673f91ee7573ef036d9a4fa"),
    (["order", "--d", "2", "--alpha", "3,1", "--p", "5", "--oracle", "--json"],
     "9e3f44ccf80dee56d32baf3c90fac9bce66cd281e5def3510c20c605a74b89c4"),
    (["order", "--d", "2", "--alpha", "3,1", "--p", "17", "--oracle"],
     "0b159e7bde9d16c4ab2852ad143681c4cb009384f9eb095f59190f6ae61605ea"),
    (["order", "--d", "2", "--alpha", "3,1", "--p", "17", "--oracle", "--json"],
     "77a05c8c4fd176e9de09b174be99c46d9d416eb1476c2b422c24908bcc44d905"),
    (["order", "--d", "2", "--alpha", "1,1", "--p", "7", "--oracle"],
     "6f2a13856be0cc91c78b727d9ea67be61d31ea08ea0011a53b26d1485f0b5a58"),
    (["order", "--d", "2", "--alpha", "1,1", "--p", "7", "--oracle", "--json"],
     "af057b63f6c61720f85ca67bfcf189f55f27c1a3987bf5248dbc5bc3adadc72e"),
    (["conductor", "--d", "2", "--alpha", "1,2", "--f", "12", "--oracle"],
     "b86853643614c837f85831da97e7d9ca1d4e05a13462ce536044ccd8bc77f797"),
    (["conductor", "--d", "2", "--alpha", "1,2", "--f", "12", "--oracle", "--json"],
     "1b904c259f90e94a10794a1bfa7d35dca8839d39ede162788711d17a7af22ec5"),
    # the golden sweep's grid without the oracle: conjugate rows share their rendered line
    (GOLDEN_SWEEP[:-1],
     "382ed258ef0d3ec156961e2b5c0c80177a30d8e7822b04a6f037e71b307073e4"),
    (GOLDEN_SWEEP[:-1] + ["--format", "json"],
     "845355ea115eb26d990c90859f9403b4ba72ad2d505392eaf85f5ff1ba858c31"),
    # the default grid with the oracle: 8,788 order scans with caps up to about 2*10^4
    (["sweep", "--oracle"],
     "65608e8d4e19f7c0b6606c55167dc65cf329c61f910ee342fad16afdb1f933f5"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_DIGESTS)
def test_readme_commands_golden_bytes(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("maxsize", [0, 1, 16])
def test_golden_sweep_bytes_hold_when_the_tail_memo_evicts(capsys, monkeypatch, maxsize):
    # the golden sweep shows 44 distinct conductor tails, more than these memos hold, so
    # its rows are also made after evictions, which no full-size memo meets
    digests = {tuple(argv): digest for argv, digest in GOLDEN_DIGESTS}
    evicting = functools.lru_cache(maxsize=maxsize)(cli._conductor_tail.__wrapped__)
    monkeypatch.setattr(cli, "_conductor_tail", evicting)
    for argv in (GOLDEN_SWEEP[:-1], GOLDEN_SWEEP, GOLDEN_SWEEP[:-1] + ["--format", "json"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digests[tuple(argv)], argv
        assert evicting.cache_info().misses > maxsize  # more tails than the memo holds
        evicting.cache_clear()


def test_conductor_json_nests_records_as_objects(capsys):
    # beside the digest: a record inside a report field is a JSON object keyed by its
    # fields, not the list json.dump would silently make of a NamedTuple
    code, out, _ = run(capsys, "conductor", "--d", "2", "--alpha", "1,1", "--f", "45", "--json")
    assert code == 0
    results = {entry["name"]: entry for entry in json.loads(out)["results"]}
    assert results["per_prime"]["value"] == [
        {"p": 3, "k": 2, "q_p": 4, "contribution": 12},
        {"p": 5, "k": 1, "q_p": 3, "contribution": 3},
    ]
    assert results["notes"]["value"] == []


def test_sweep_computes_each_conductor_tail_once(capsys):
    # a conductor row's cells from ell on, and their text, are a function of f0, n_exact
    # and bound: the default sweep's 11,280 conductor parts, from 913 distinct reports,
    # show 601 such tails, and the memo computes each once
    for cached in package_caches():
        cached.cache_clear()
    code, _, _ = run(capsys, "sweep")
    assert code == 0
    reports = set()
    for d, a, b in itertools.product((2, 3, 5), range(-6, 7), range(-6, 0)):  # b < 0 builds
        try:
            alpha = QuadInt(a, b, d)
        except ValueError:
            continue
        for f in range(1, 61):
            try:
                reports.add(conductor.bound_full(alpha, f))
            except ValueError:
                continue
    info = cli._conductor_tail.cache_info()
    assert len(reports) == 913
    assert info.misses == len({report[1:4] for report in reports}) == 601
    assert info.hits >= 10_000 and info.hits + info.misses == 11_280
    assert info.maxsize is not None and info.maxsize > len(reports)


def test_sweep_factors_each_argument_once(capsys):
    for cached in package_caches():
        cached.cache_clear()
    body = modarith.factorize.__wrapped__.__code__
    factored = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is body:
            factored[frame.f_locals["n"]] += 1

    sys.setprofile(profile)
    try:
        code, _, _ = run(capsys, *GOLDEN_SWEEP)
    finally:
        sys.setprofile(None)
    assert code == 0
    assert factored and max(factored.values()) == 1, factored.most_common(3)
    assert modarith.factorize.cache_info().misses == len(factored)


def _cold_work(capsys, monkeypatch, *argv):
    # the work of one command from empty caches: _lucas calls, through every module that
    # binds it, with their ladder length (the bit lengths of the indices they evaluate),
    # and is_prime calls; returns the exit code, stderr and the counts
    for cached in package_caches():
        cached.cache_clear()
    calls = collections.Counter()

    def counted(*args):
        calls["_lucas"] += 1
        calls["bits"] += args[2].bit_length()
        return lucas(*args)

    def proved(n):
        calls["is_prime"] += 1
        return is_prime(n)

    lucas, is_prime = cheby._lucas, modarith.is_prime
    for module in (cheby, conductor, ordersolver, quadint):
        monkeypatch.setattr(module, "_lucas", counted)
    monkeypatch.setattr(modarith, "is_prime", proved)
    code, _, err = run(capsys, *argv)
    return code, err, calls


def _cold_lucas_calls(capsys, monkeypatch, *argv):
    code, _, calls = _cold_work(capsys, monkeypatch, "sweep", *argv)
    assert code == 0
    return calls["_lucas"], calls["bits"]


def test_sweep_conductor_work_is_pinned(capsys, monkeypatch):
    # the conductor half of the default grid, cold: n(f) is the lcm of prime-power
    # indices cached by PGL(2) class; one descent mod the whole f0 took 27,784
    # terms, and residue keys 10,741
    assert 0 < _cold_lucas_calls(capsys, monkeypatch, "--p-max", "3")[0] <= 4_300


def test_default_sweep_work_is_pinned(capsys, monkeypatch):
    # the whole default grid, cold: each report runs one ladder and doubles up to
    # its other indices, and q(p) is cached by class (22,101 terms and 2,275 q(p)
    # descents when each index had its own ladder and q(p) was keyed by residues);
    # the general-mode pair at (p + 1) * ord(s) is composed from the one at p + 1
    # over ord(s)'s bits (56,324 ladder bits when it had a full ladder of its own)
    calls, ladder = _cold_lucas_calls(capsys, monkeypatch)
    assert 0 < calls <= 11_300
    assert 0 < ladder <= 47_000
    # every vanishing index, q(p) included, is computed and cached by _entry_index alone
    assert ordersolver.q_of_p.cache_info().misses == 0
    assert conductor._entry_index.cache_info().misses <= 3_504


def test_default_sweep_primality_work_is_pinned(capsys, monkeypatch):
    # _entry_index takes its primes from factorize, which proved them: 5,294 is_prime
    # calls when it looked q(p) up through q_of_p's require_odd_prime
    code, _, calls = _cold_work(capsys, monkeypatch, "sweep")
    assert code == 0
    assert 0 < calls["is_prime"] <= 4_800


def test_order_degenerate_computes_the_index_once(capsys, monkeypatch):
    # analyze looks q(7) up under its PGL(2) class key and the message asks q_of_p for it
    # with raw residues: one cache entry serves both (two computations and 9 _lucas calls
    # when q_of_p kept its own cache)
    code, err, calls = _cold_work(capsys, monkeypatch, "order", "--d", "7", "--alpha", "3,2",
                                  "--p", "7")
    assert code == 2
    assert err == (
        "error: ell = 0: p divides x^2 - 4s, so no exponent p - ell is available; "
        "the cofactor sequence first vanishes mod p at index 7\n"
    )
    assert conductor._entry_index.cache_info().misses == 1
    assert 0 < calls["_lucas"] <= 5
