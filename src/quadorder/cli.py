"""Command line surface: single-case reports, grid sweeps, identity fuzzing.

Exit codes are strict: 0 means every asserted congruence held, 1 means a
mathematical assertion failed (a reportable counterexample), 2 means the
inputs broke a precondition, the output could not be written (a closed
pipe, a full device) or memory ran out, and main writes its one "error: "
line.  JSON output always has the shape {command, inputs, results, pass};
CSV sweeps write a mandatory header, then each row of a fixed column set
as it is made.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from contextlib import nullcontext
from functools import lru_cache
from itertools import compress, count, product

from . import conductor, modarith, oracle, ordersolver, quadint, units
from .cheby import _MN_BOUND, _S_BOUND, _X_BOUND, run_identity_trials
from .checks import FAIL, PASS, check, failed_names
from .quadint import QuadInt

CSV_COLUMNS = (
    "kind d a b p f x s ell mode m m_random bound n_exact f0 oracle tightness "
    "checks_passed checks_failed failed_names pass"
).split()


def _printable_unit(d: int) -> QuadInt:
    """The fundamental unit of d, refused if a coordinate is too long for int -> str."""
    eps = units.fundamental_unit(d)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and max(abs(eps.a), abs(eps.b)) >= 10**limit:
        raise ValueError(
            f"the fundamental unit for d = {d} has a coordinate past the "
            f"{limit}-digit output limit"
        )
    return eps


def _alpha_from_args(args: argparse.Namespace) -> QuadInt:
    if args.fundunit:
        return _printable_unit(args.d)
    text = args.alpha
    parts = [tok.strip() for tok in text.split(",")]
    if len(parts) != 2:
        raise ValueError('alpha must be given as "a,b"')
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValueError(f"alpha coefficients must be integers: {text!r}") from exc
    return QuadInt(a, b, args.d)


def _emit(as_json: bool, command, inputs, results, ok, lines, stream=None) -> int:
    """Write the JSON payload, or else the text lines; return the exit code."""
    stream = stream or sys.stdout
    if as_json:
        payload = {"command": command, "inputs": inputs, "results": results, "pass": ok}
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    else:
        for line in lines:
            stream.write(line + "\n")
    return 0 if ok else 1


def _named(**values) -> list[dict]:
    return [{"name": name, "value": value} for name, value in values.items()]


def _plain(value):
    """value with every record in it as a dict, since json.dump writes a NamedTuple as a list."""
    if hasattr(value, "_asdict"):
        return {name: _plain(v) for name, v in value._asdict().items()}
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


def _fields(report, *skip: str) -> list[dict]:
    """The report's own fields as named results, in field order, less those skipped."""
    return _named(**{name: _plain(v) for name, v in report._asdict().items() if name not in skip})


def _claim(report) -> tuple[str, int, int | None, str, tuple]:
    """The report's modulus name and value, claimed index, oracle check's name and own checks."""
    if isinstance(report, ordersolver.OrderReport):
        what = {"general": "bound", "norm_minus_one_diagnostic": "2(p-ell)"}.get(report.mode, "n")
        return "p", report.p, report.bound_n, f"oracle order divides {what}", report.table_checks
    return ("f", report.f) + _conductor_tail(*report[1:4], False)[1]


def _steps(claimed: int) -> int:
    return 2 * claimed + 10  # the oracle's step cap for a claimed order or index


def _oracle_cap(alpha: QuadInt, claim) -> int | None:
    """The oracle's step cap for the claim, if any; refused above oracle.DEFAULT_CAP."""
    name, modulus, claimed, _, _ = claim
    cap = None if claimed is None else _steps(claimed)
    if cap is not None and cap > oracle.DEFAULT_CAP:
        raise ValueError(
            f"the oracle cross-check of alpha = {alpha} at {name} = {modulus} would take up to "
            f"{cap} steps, above its limit of {oracle.DEFAULT_CAP}"
        )
    return cap


def _checks(alpha: QuadInt, claim, with_oracle: bool) -> tuple[list, int | None]:
    """The report's own checks, plus the oracle's cross-check when asked; and the oracle's value."""
    name, modulus, claimed, check_name, own = claim
    checks = list(own)
    cap = _oracle_cap(alpha, claim) if with_oracle else None
    if cap is None:  # no oracle asked, or a degenerate order report with no bound to scan to
        return checks, None
    if name == "p":
        found = oracle.oracle_order_mod_p(alpha, modulus, cap).value
        checks.append(check(check_name, found is not None and claimed % found == 0))
    else:
        found = oracle.oracle_n_of_f(alpha, modulus, cap).value
        checks.append(check(check_name, found == claimed, f"oracle {found}"))
    return checks, found


def _emit_case(args, alpha: QuadInt, modulus: dict, checks, results: list, lines: list) -> int:
    """Emit one case: the alpha line, the lines given, then each check as a line and an entry."""
    lines = [f"alpha = {alpha}  (d={alpha.d}, norm {alpha.norm}, x = {alpha.trace_x})", *lines]
    for c in checks:
        results.append({"name": c.name, "status": c.status, "note": c.note})
        note = f"  ({c.note})" if c.note else ""
        lines.append(f"  [{c.status:>4}] {c.name}{note}")
    ok = not failed_names(checks)
    lines.append("result: " + ("all checks pass" if ok else "CHECK FAILURE"))
    inputs = {"d": alpha.d, "a": alpha.a, "b": alpha.b, **modulus, "oracle": bool(args.oracle)}
    return _emit(args.json, args.command, inputs, results, ok, lines)


def cmd_order(args: argparse.Namespace) -> int:
    alpha = _alpha_from_args(args)
    report = ordersolver.analyze(alpha, args.p)
    if report.mode == "degenerate":
        raise ValueError(
            "ell = 0: p divides x^2 - 4s, so no exponent p - ell is available; "
            "the cofactor sequence first vanishes mod p at index "
            f"{ordersolver.q_of_p(report.x, report.s, report.p)}"
        )
    checks, found = _checks(alpha, _claim(report), args.oracle)
    results = _fields(report, "p", "table_checks", "chain")  # the chain follows, with its m
    lines = [f"p = {report.p}, ell = {report.ell}, mode {report.mode}"]
    chain = report.chain
    if chain is not None:
        results.append(
            {"name": "chain", "value": list(chain.chain), "stop_reason": chain.stop_reason,
             "m": chain.m}
        )
        lines.append(f"chain {list(chain.chain)} m={chain.m} stop {chain.stop_reason}")
    lines.append(f"bound: alpha^{report.bound_n} == 1 mod p  (n = {report.bound_n})")
    if report.half_bound_applies:
        lines.append(f"half bound: alpha^{report.bound_n // 2} == -1 mod p")
    if args.oracle:
        results += _named(oracle_order=found)
        lines.append(f"oracle order: {found}")
    return _emit_case(args, alpha, {"p": report.p}, checks, results, lines)


def cmd_conductor(args: argparse.Namespace) -> int:
    alpha = _alpha_from_args(args)
    report = conductor.bound_full(alpha, args.f)
    checks, oracle_n = _checks(alpha, _claim(report), args.oracle)
    results = _fields(report, "f")
    if args.oracle:
        results += _named(oracle_n=oracle_n)
    bound_text = report.bound if report.bound is not None else "not claimed"
    lines = [
        f"f = {report.f}, reduced f0 = {report.f0}",
        *(f"note: {note}" for note in report.notes),
        *(f"  p = {t.p} k = {t.k}: q(p) = {t.q_p}, contribution {t.contribution}"
          for t in report.per_prime),
        f"n(f) = {report.n_exact}, bound {bound_text}",
    ]
    return _emit_case(args, alpha, {"f": args.f}, checks, results, lines)


def cmd_fundunit(args: argparse.Namespace) -> int:
    eps = _printable_unit(args.d)
    results = _named(fundamental_unit=str(eps), a=eps.a, b=eps.b, norm=eps.norm, r=eps.r)
    lines = [f"fundamental unit: {eps}", f"norm: {eps.norm}", f"representation class: r = {eps.r}"]
    # fundamental_unit asserts that the norm is +-1, so the claim always holds
    return _emit(args.json, "fundunit", {"d": args.d}, results, True, lines)


def cmd_identities(args: argparse.Namespace) -> int:
    tallies = run_identity_trials(args.trials, args.seed)
    inputs = {
        "trials": args.trials, "seed": args.seed,
        "x_bound": _X_BOUND, "s_bound": _S_BOUND, "mn_bound": _MN_BOUND,
    }
    ok = all(t.passed == t.total for t in tallies)
    lines = [f"seed {args.seed}", f"trials {args.trials}"]
    for t in tallies:
        failure = f"  first failure at {t.first_failure}" if t.first_failure else ""
        lines.append(f"{t.name}: {t.passed}/{t.total}{failure}")
    lines.append("all identities hold" if ok else "IDENTITY FAILURE")
    return _emit(args.json, "identities", inputs, [t._asdict() for t in tallies], ok, lines)


def _tally(checks) -> tuple:
    """The last four cells: how many checks passed and failed, the failed names, and pass."""
    passed, failed = 0, []
    for c in checks:
        passed += c.status == PASS
        if c.status == FAIL:
            failed.append(c.name)
    return passed, len(failed), ";".join(failed), not failed


def _tightness(claimed, bound) -> str | None:
    return None if claimed is None or bound is None else f"{claimed / bound:.6f}"


@lru_cache(maxsize=8192)  # the default sweep's 11,280 conductor parts show 601 distinct tails
def _conductor_tail(f0: int, n_exact: int, bound: int | None, plain: bool) -> tuple:
    """A conductor row's cells from ell on, its claim from the index on, and if plain their text."""
    checks = conductor.ConductorReport(0, f0, n_exact, bound, (), ()).checks  # reads n_exact, bound
    cells = (None,) * 4 + (bound, n_exact, f0, None, _tightness(n_exact, bound), *_tally(checks))
    return cells, (n_exact, "oracle n(f) == n_exact", checks), plain and ",".join(_cells(cells))


def _row_part(alpha: QuadInt, report, plain: bool = False) -> tuple:
    """(cells conjugates share, b unset; claim; chain; in a plain sweep, the text each side of b).

    The text is None for a chain part, whose rows re-draw their own chains.
    """
    d, a, x, s = alpha.d, alpha.a, alpha.trace_x, alpha.norm
    if isinstance(report, conductor.ConductorReport):  # equal tails are made once
        f = report.f
        cells, claim, tail = _conductor_tail(*report[1:4], plain)
        text = (f"conductor,{d},{a},", f",,{f},{x},{s},{tail}\n") if plain else None
        return ("conductor", d, a, None, None, f, x, s) + cells, ("f", f) + claim, None, text
    claim, chain = _claim(report), report.chain  # tightness: the oracle's order, set by _row
    cells = ("order", d, a, None, report.p, None, x, s, report.ell, report.mode, chain and chain.m,
             None, report.bound_n, None, None, None, None, *_tally(claim[-1]))
    text = _cells(cells) if plain and chain is None else None
    return cells, claim, chain, text and (",".join(text[:3]) + ",", "," + ",".join(text[4:]) + "\n")


def _row(alpha: QuadInt, part, rng: random.Random, with_oracle: bool) -> tuple:
    """alpha's row in CSV_COLUMNS order: the shared cells, then its own b, oracle and re-draw."""
    shared, claim, chain, _ = part
    if not (with_oracle or chain):
        return shared[:3] + (alpha.b,) + shared[4:]
    checks, found = _checks(alpha, claim, with_oracle)
    # the chain's start and ell are what its builder passed, so only the roots differ
    m_random = chain and ordersolver._extend_chain(chain.chain[0], chain.ell, claim[1], rng).m
    if chain is not None:
        checks.append(check("chain length is root independent", m_random == chain.m))
    tightness = _tightness(found, shared[12]) if claim[0] == "p" else shared[16]  # over bound
    return (*shared[:3], alpha.b, *shared[4:11], m_random, *shared[12:15], found, tightness,
            *_tally(checks))


def _cells(row) -> list[str]:
    return ["" if v is None else "true" if v is True else "false" if v is False else str(v)
            for v in row]


def _grid_reports(d_set, coeff_bound: int, primes, conductors, plain: bool):
    """(alpha, its _row_part) for every grid case that meets its preconditions, in row order.

    alpha = a + b*sqrt(d) and its conjugate share x and s, and so every report
    and every refusal: conjugation fixes 1 mod p, and f | b_n is one test for
    both. The b < 0 member keeps the part of each report, and its conjugate,
    later in the same (d, a), yields that again.
    """
    jobs = ((ordersolver.analyze, primes), (conductor.bound_full, conductors))
    coeffs = range(-coeff_bound, coeff_bound + 1)
    for d, a in product(sorted(set(d_set)), coeffs):
        kept = {}  # |b| -> the parts of a - |b|*sqrt(d), until its conjugate takes them
        for b in filter(None, coeffs):
            try:
                alpha = QuadInt(a, b, d)
            except ValueError:
                continue
            if b > 0:
                yield from ((alpha, part) for part in kept.pop(b))
                continue
            parts = kept[-b] = []
            for build, moduli in jobs:
                for modulus in moduli:
                    try:
                        report = build(alpha, modulus)
                    except ValueError:
                        continue
                    parts.append(_row_part(alpha, report, plain))
                    yield alpha, parts[-1]


def _sweep(d_set, coeff_bound, p_max, f_max, with_oracle: bool, plain: bool):
    """A deterministic grid's (alpha, part) pairs, made as read; text parts only if plain.

    Iteration is lexicographic in (d, a, b), with order rows over odd primes
    below p_max and conductor rows over f up to f_max; cases that break a
    precondition are skipped. Conjugates share their reports, and their rows
    but for b, the oracle scan and the chain re-draw; a plain sweep (CSV with
    no oracle) renders each pair's text once. With the oracle, a first pass
    on the call refuses an over-budget grid before any scan, naming its row;
    it visits only the moduli whose claims can exceed the cap, as an order
    claim is at most p^2 - 1 (see analyze) and n(f) <= 6f^2 (see conductor),
    so p >= 709 and f >= 289.
    """
    primes = list(compress(range(1, p_max, 2), modarith._odd_prime_flags(p_max)))
    if with_oracle:
        # a pass of its own: holding every report for the rows would raise peak memory
        over_p = [p for p in primes if _steps(p * p - 1) > oracle.DEFAULT_CAP]
        f_cut = next(f for f in count(1) if _steps(6 * f * f) > oracle.DEFAULT_CAP)
        over_f = range(f_cut, f_max + 1)  # the cap grows with f, so those past it are one range
        for alpha, part in _grid_reports(d_set, coeff_bound, over_p, over_f, False):
            _oracle_cap(alpha, part[1])
    return _grid_reports(d_set, coeff_bound, primes, range(1, f_max + 1), plain)


def run_sweep(d_set, coeff_bound: int, p_max: int, f_max: int, seed: int,
              with_oracle: bool = False):
    """The sweep's rows, each a dict keyed by CSV_COLUMNS; the seed only feeds the chain re-draw."""
    rng, pairs = random.Random(seed), _sweep(d_set, coeff_bound, p_max, f_max, with_oracle, False)
    return (dict(zip(CSV_COLUMNS, _row(alpha, part, rng, with_oracle))) for alpha, part in pairs)


def cmd_sweep(args: argparse.Namespace) -> int:
    refusal = f"--d-set must be a comma list of integers: {args.d_set!r}"
    try:
        d_set = [int(tok) for tok in args.d_set.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(refusal) from exc
    if not d_set:  # "," names no radicand
        raise ValueError(refusal)
    for d in d_set:
        quadint._check_radicand(d)
    if min(args.coeff_bound, args.p_max, args.f_max) < 0:
        raise ValueError("sweep bounds must be nonnegative")
    try:  # open the output before the grid, so a bad path costs nothing
        out = (
            nullcontext(sys.stdout) if args.output == "-"
            else open(args.output, "w", encoding="utf-8", newline="")
        )
    except OSError as exc:
        raise ValueError(f"cannot write the output file {args.output}: {exc.strerror}") from exc
    grid = (d_set, args.coeff_bound, args.p_max, args.f_max, args.seed, args.oracle)
    with out as stream:
        print(f"seed {args.seed}", file=sys.stderr)
        if args.format == "json":  # "pass" sorts before "results", so every row comes first
            rows = list(run_sweep(*grid))
            inputs = dict(zip("d_set coeff_bound p_max f_max seed oracle".split(), grid))
            return _emit(True, "sweep", inputs, rows, all(r["pass"] for r in rows), (), stream)
        pairs = _sweep(*grid[:4], args.oracle, not args.oracle)  # a refused grid writes no header
        rng, ok = random.Random(args.seed), True
        stream.write(",".join(CSV_COLUMNS) + "\n")
        for alpha, part in pairs:
            if part[3]:  # the pair's text around its own b
                ok &= part[0][-1]
                stream.write(part[3][0] + str(alpha.b) + part[3][1])
            else:
                row = _row(alpha, part, rng, args.oracle)
                ok &= row[-1]
                stream.write(",".join(_cells(row)) + "\n")
        return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadorder",
        description="Orders of quadratic integers mod p, conductor indices, and their bounds.",
        epilog=(
            "exit codes: 0 all asserted congruences held, 1 a mathematical "
            "assertion failed, 2 bad usage, an unmet precondition, an unwritable output or "
            "too little memory."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_alpha(p: argparse.ArgumentParser) -> None:
        p.add_argument("--d", type=int, required=True, help="square-free radicand")
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--alpha", type=str, help='coefficients "a,b"')
        group.add_argument(
            "--fundunit", action="store_true", help="use the fundamental unit of d"
        )

    order = sub.add_parser("order", help="order bound of alpha mod an odd prime")
    add_alpha(order)
    order.add_argument("--p", type=int, required=True, help="odd prime modulus")
    order.add_argument("--oracle", action="store_true", help="cross-check the exact order")
    order.add_argument("--json", action="store_true")
    order.set_defaults(func=cmd_order)

    cond = sub.add_parser("conductor", help="least power landing in the conductor-f order")
    add_alpha(cond)
    cond.add_argument("--f", type=int, required=True, help="conductor, at least 1")
    cond.add_argument("--oracle", action="store_true", help="cross-check by exact powers")
    cond.add_argument("--json", action="store_true")
    cond.set_defaults(func=cmd_conductor)

    sweep = sub.add_parser(
        "sweep",
        help="grid dataset of order and conductor rows",
        epilog="CSV columns: " + ", ".join(CSV_COLUMNS),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sweep.add_argument("--d-set", type=str, default="2,3,5", help="comma list of radicands")
    sweep.add_argument("--coeff-bound", type=int, default=6, help="max |a|, |b|")
    sweep.add_argument("--p-max", type=int, default=100, help="primes below this")
    sweep.add_argument("--f-max", type=int, default=60, help="conductors up to this")
    sweep.add_argument("--seed", type=int, default=0, help="seed for alternate chain roots")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--output", type=str, default="-", help="path, or - for stdout")
    sweep.add_argument("--oracle", action="store_true", help="add oracle columns")
    sweep.set_defaults(func=cmd_sweep)

    ident = sub.add_parser("identities", help="exact fuzzing of the polynomial identities")
    ident.add_argument("--trials", type=int, default=1000)
    ident.add_argument("--seed", type=int, default=0)
    ident.add_argument("--json", action="store_true")
    ident.set_defaults(func=cmd_identities)

    fund = sub.add_parser("fundunit", help="fundamental unit of the field of sqrt(d)")
    fund.add_argument("--d", type=int, required=True)
    fund.add_argument("--json", action="store_true")
    fund.set_defaults(func=cmd_fundunit)

    for command in sub.choices.values():  # so "--alpha -1,1" and "--d-set -1,-2" are values
        command._negative_number_matcher = re.compile(r"-\d")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, where it is caught, not at exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # the output is gone: point stdout at devnull so the exit flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        closed = isinstance(exc, BrokenPipeError)
        why = "the output pipe was closed" if closed else f"cannot write the output: {exc.strerror}"
        try:
            print(f"error: {why}", file=sys.stderr, flush=True)
        except OSError:  # stderr went to the same dead output (2>&1)
            os.dup2(devnull, sys.stderr.fileno())
        return 2
    except MemoryError:  # a grid too large to list its primes is a refusal, not a counterexample
        print("error: out of memory for these inputs", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
