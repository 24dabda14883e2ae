"""Command line surface: single-case reports, grid sweeps, identity fuzzing.

Exit codes are strict: 0 means every asserted congruence held, 1 means a
mathematical assertion failed (a reportable counterexample), 2 means the
inputs broke a precondition.  JSON output always has the shape
{command, inputs, results, pass}; CSV sweeps emit a fixed column set
with a mandatory header.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass

from . import conductor, modarith, oracle, ordersolver, quadint, units
from .cheby import (
    ChebyParams,
    compose_t,
    compose_u,
    t_exact,
    u_odd_closed_form,
    u_prev_exact,
)
from .ordersolver import FAIL, PASS, check
from .quadint import QuadInt

CSV_COLUMNS = [
    "kind",
    "d",
    "a",
    "b",
    "p",
    "f",
    "x",
    "s",
    "ell",
    "mode",
    "m",
    "m_random",
    "bound",
    "n_exact",
    "f0",
    "oracle",
    "tightness",
    "checks_passed",
    "checks_failed",
    "failed_names",
    "pass",
]


def _alpha_from_args(args: argparse.Namespace) -> QuadInt:
    if getattr(args, "fundunit", False):
        return units.fundamental_unit(args.d)
    text = args.alpha
    parts = [tok.strip() for tok in text.split(",")]
    if len(parts) != 2:
        raise ValueError('alpha must be given as "a,b"')
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValueError(f"alpha coefficients must be integers: {text!r}") from exc
    return QuadInt(a, b, args.d)


def _print_payload(payload: dict, stream) -> None:
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _check_entries(checks) -> list[dict]:
    return [{"name": c.name, "status": c.status, "note": c.note} for c in checks]


def _render_checks(checks, stream) -> None:
    for c in checks:
        note = f"  ({c.note})" if c.note else ""
        stream.write(f"  [{c.status:>4}] {c.name}{note}\n")


def cmd_order(args: argparse.Namespace) -> int:
    alpha = _alpha_from_args(args)
    p = args.p
    modarith.require_odd_prime(p)
    x, s = alpha.trace_x, alpha.norm
    clean = s != 0 and alpha.b % p != 0 and s % p != 0
    if clean and ordersolver.ell_symbol(x, s, p) == 0:
        q = ordersolver.q_of_p(x, s, p)
        print(
            "ell = 0: p divides x^2 - 4s, so no exponent p - ell is available; "
            f"the cofactor sequence first vanishes mod p at index {q}",
            file=sys.stderr,
        )
        return 2
    report = ordersolver.analyze(alpha, p)
    oracle_value = None
    if args.oracle:
        cap = 2 * report.bound_n + 10
        found = oracle.oracle_order_mod_p(alpha, p, cap)
        if found.value is None:
            print(f"oracle found no order below {cap}", file=sys.stderr)
            return 1
        oracle_value = found.value
        report = ordersolver.analyze(alpha, p, oracle_order=oracle_value)
    ok = report.passed
    if args.json:
        results: list[dict] = [
            {"name": "x", "value": report.x},
            {"name": "s", "value": report.s},
            {"name": "ell", "value": report.ell},
            {"name": "mode", "value": report.mode},
            {"name": "bound_n", "value": report.bound_n},
            {"name": "half_bound_applies", "value": report.half_bound_applies},
        ]
        if report.chain is not None:
            results.append(
                {
                    "name": "chain",
                    "value": list(report.chain.chain),
                    "stop_reason": report.chain.stop_reason,
                    "m": report.chain.m,
                }
            )
        if oracle_value is not None:
            results.append({"name": "oracle_order", "value": oracle_value})
        results.extend(_check_entries(report.table_checks))
        _print_payload(
            {
                "command": "order",
                "inputs": {
                    "d": alpha.d,
                    "a": alpha.a,
                    "b": alpha.b,
                    "p": p,
                    "oracle": bool(args.oracle),
                },
                "results": results,
                "pass": ok,
            },
            sys.stdout,
        )
    else:
        out = sys.stdout
        out.write(f"alpha = {alpha}  (d={alpha.d}, norm {s}, x = {x})\n")
        out.write(f"p = {p}, ell = {report.ell}, mode {report.mode}\n")
        if report.chain is not None:
            out.write(
                f"chain {list(report.chain.chain)} m={report.chain.m} "
                f"stop {report.chain.stop_reason}\n"
            )
        if report.bound_n is not None:
            out.write(f"bound: alpha^{report.bound_n} == 1 mod p  (n = {report.bound_n})\n")
        if report.half_bound_applies:
            out.write(f"half bound: alpha^{report.bound_n // 2} == -1 mod p\n")
        if oracle_value is not None:
            out.write(f"oracle order: {oracle_value}\n")
        _render_checks(report.table_checks, out)
        out.write("result: " + ("all checks pass\n" if ok else "CHECK FAILURE\n"))
    return 0 if ok else 1


def cmd_conductor(args: argparse.Namespace) -> int:
    alpha = _alpha_from_args(args)
    if args.f < 1:
        raise ValueError("the conductor must be at least 1")
    report = conductor.bound_full(alpha, args.f)
    checks = []
    oracle_n = None
    if report.bound is not None:
        checks.append(check("n_exact <= bound", report.holds))
    if args.oracle:
        cap = 2 * report.n_exact + 10
        found = oracle.oracle_n_of_f(alpha, args.f, cap)
        oracle_n = found.value
        checks.append(
            check(
                "oracle n(f) == n_exact",
                found.value == report.n_exact,
                f"oracle {found.value}",
            )
        )
    ok = all(c.status != FAIL for c in checks)
    if args.json:
        results: list[dict] = [
            {"name": "f0", "value": report.f0},
            {"name": "n_exact", "value": report.n_exact},
            {"name": "bound", "value": report.bound},
            {
                "name": "per_prime",
                "value": [
                    {"p": t.p, "k": t.k, "q_p": t.q_p, "contribution": t.contribution}
                    for t in report.per_prime
                ],
            },
            {"name": "notes", "value": list(report.notes)},
        ]
        if args.oracle:
            results.append({"name": "oracle_n", "value": oracle_n})
        results.extend(_check_entries(checks))
        _print_payload(
            {
                "command": "conductor",
                "inputs": {
                    "d": alpha.d,
                    "a": alpha.a,
                    "b": alpha.b,
                    "f": args.f,
                    "oracle": bool(args.oracle),
                },
                "results": results,
                "pass": ok,
            },
            sys.stdout,
        )
    else:
        out = sys.stdout
        out.write(f"alpha = {alpha}  (d={alpha.d}, norm {alpha.norm}, x = {alpha.trace_x})\n")
        out.write(f"f = {report.f}, reduced f0 = {report.f0}\n")
        for note in report.notes:
            out.write(f"note: {note}\n")
        for t in report.per_prime:
            out.write(
                f"  p = {t.p} k = {t.k}: q(p) = {t.q_p}, contribution {t.contribution}\n"
            )
        bound_text = report.bound if report.bound is not None else "not claimed"
        out.write(f"n(f) = {report.n_exact}, bound {bound_text}\n")
        _render_checks(checks, out)
        out.write("result: " + ("all checks pass\n" if ok else "CHECK FAILURE\n"))
    return 0 if ok else 1


def cmd_fundunit(args: argparse.Namespace) -> int:
    eps = units.fundamental_unit(args.d)
    ok = units.is_unit(eps)
    if args.json:
        _print_payload(
            {
                "command": "fundunit",
                "inputs": {"d": args.d},
                "results": [
                    {"name": "fundamental_unit", "value": str(eps)},
                    {"name": "a", "value": eps.a},
                    {"name": "b", "value": eps.b},
                    {"name": "norm", "value": eps.norm},
                    {"name": "r", "value": eps.r},
                ],
                "pass": ok,
            },
            sys.stdout,
        )
    else:
        print(f"fundamental unit: {eps}")
        print(f"norm: {eps.norm}")
        print(f"representation class: r = {eps.r}")
    return 0 if ok else 1


@dataclass(frozen=True)
class IdentityTally:
    name: str
    passed: int
    total: int
    first_failure: str = ""


def run_identity_trials(
    trials: int,
    seed: int,
    x_bound: int = 50,
    s_bound: int = 20,
    mn_bound: int = 40,
) -> list[IdentityTally]:
    """Exact-equality fuzzing of the polynomial identities.

    Each trial draws x, a nonzero s, indices m and n, an odd index, and a
    transport modulus, then evaluates both sides of every identity over
    the integers.  Any mismatch is recorded with the offending tuple.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if x_bound < 1 or s_bound < 1 or mn_bound < 1:
        raise ValueError("bounds must be at least 1")
    rng = random.Random(seed)
    names = [
        "norm: (x^2-4s)*u(n-1)^2 == t(n)^2 - 4*s^n",
        "doubling: t(n)^2 == t(2n) + 2*s^n",
        "compose t: t(mn) == t_n(t_m(x;s); s^m)",
        "compose u: u(mn-1) == u(m-1)(t_n; s^n)*u(n-1)",
        "u(n-1) divides u(mn-1)",
        "transport: mu | u(n-1) implies mu | u(mn-1)",
        "odd closed form matches the recurrence",
    ]
    passed = {name: 0 for name in names}
    first = {name: "" for name in names}
    for _ in range(trials):
        x = rng.randint(-x_bound, x_bound)
        s = rng.randint(1, s_bound) * rng.choice((-1, 1))
        m = rng.randint(1, mn_bound)
        n = rng.randint(1, mn_bound)
        odd = 2 * rng.randint(0, (mn_bound - 1) // 2) + 1
        mu = rng.randint(2, 50)
        where = f"x={x} s={s} m={m} n={n} odd={odd} mu={mu}"
        params = ChebyParams(x, s)
        u_n = u_prev_exact(x, s, n)
        t_n = t_exact(x, s, n)
        u_mn = u_prev_exact(x, s, m * n)
        outcomes = {}
        outcomes[names[0]] = (x * x - 4 * s) * u_n * u_n == t_n * t_n - 4 * s**n
        outcomes[names[1]] = t_n * t_n == t_exact(x, s, 2 * n) + 2 * s**n
        lhs_t, rhs_t = compose_t(m, n, params)
        outcomes[names[2]] = lhs_t == rhs_t
        lhs_u, rhs_u = compose_u(m, n, params)
        outcomes[names[3]] = lhs_u == rhs_u
        outcomes[names[4]] = u_mn == 0 if u_n == 0 else u_mn % u_n == 0
        outcomes[names[5]] = u_n % mu != 0 or u_mn % mu == 0
        outcomes[names[6]] = u_odd_closed_form(params, odd) == u_prev_exact(x, s, odd)
        for name, ok in outcomes.items():
            if ok:
                passed[name] += 1
            elif not first[name]:
                first[name] = where
    return [IdentityTally(name, passed[name], trials, first[name]) for name in names]


def cmd_identities(args: argparse.Namespace) -> int:
    tallies = run_identity_trials(
        args.trials, args.seed, args.x_bound, args.s_bound, args.mn_bound
    )
    ok = all(t.passed == t.total for t in tallies)
    if args.json:
        _print_payload(
            {
                "command": "identities",
                "inputs": {
                    "trials": args.trials,
                    "seed": args.seed,
                    "x_bound": args.x_bound,
                    "s_bound": args.s_bound,
                    "mn_bound": args.mn_bound,
                },
                "results": [
                    {
                        "name": t.name,
                        "passed": t.passed,
                        "total": t.total,
                        "first_failure": t.first_failure,
                    }
                    for t in tallies
                ],
                "pass": ok,
            },
            sys.stdout,
        )
    else:
        print(f"seed {args.seed}")
        print(f"trials {args.trials}")
        for t in tallies:
            line = f"{t.name}: {t.passed}/{t.total}"
            if t.first_failure:
                line += f"  first failure at {t.first_failure}"
            print(line)
        print("all identities hold" if ok else "IDENTITY FAILURE")
    return 0 if ok else 1


@dataclass(frozen=True)
class SweepConfig:
    d_set: tuple[int, ...]
    coeff_bound: int
    p_max: int
    f_max: int
    seed: int
    fmt: str
    output: str
    with_oracle: bool

    def __post_init__(self) -> None:
        if self.coeff_bound < 0 or self.p_max < 0 or self.f_max < 0:
            raise ValueError("sweep bounds must be nonnegative")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")


def _odd_primes_below(limit: int) -> list[int]:
    return [p for p in range(3, limit) if modarith.is_prime(p)]


def _row_skeleton(kind: str, alpha: QuadInt) -> dict:
    return {
        "kind": kind,
        "d": alpha.d,
        "a": alpha.a,
        "b": alpha.b,
        "p": None,
        "f": None,
        "x": alpha.trace_x,
        "s": alpha.norm,
        "ell": None,
        "mode": None,
        "m": None,
        "m_random": None,
        "bound": None,
        "n_exact": None,
        "f0": None,
        "oracle": None,
        "tightness": None,
        "checks_passed": 0,
        "checks_failed": 0,
        "failed_names": "",
        "pass": True,
    }


def _finish_row(row: dict, checks) -> dict:
    row["checks_passed"] = sum(1 for c in checks if c.status == PASS)
    row["checks_failed"] = sum(1 for c in checks if c.status == FAIL)
    row["failed_names"] = ";".join(c.name for c in checks if c.status == FAIL)
    row["pass"] = row["checks_failed"] == 0
    return row


def _order_row(alpha: QuadInt, p: int, rng: random.Random, with_oracle: bool) -> dict | None:
    try:
        report = ordersolver.analyze(alpha, p)
    except ValueError:
        return None
    row = _row_skeleton("order", alpha)
    row["p"] = p
    row["ell"] = report.ell
    row["mode"] = report.mode
    row["bound"] = report.bound_n
    checks = list(report.table_checks)
    if report.chain is not None:
        row["m"] = report.chain.m
        rebuilt = (
            ordersolver.build_chain_s1(report.x, p, rng)
            if report.s == 1
            else ordersolver.build_chain_s_minus1(report.x, p, rng)
        )
        row["m_random"] = rebuilt.m
        checks.append(check("chain length is root independent", rebuilt.m == report.chain.m))
    if with_oracle and report.bound_n is not None:
        cap = 2 * report.bound_n + 10
        found = oracle.oracle_order_mod_p(alpha, p, cap)
        row["oracle"] = found.value
        checks.append(
            check(
                "oracle order divides bound",
                found.value is not None and report.bound_n % found.value == 0,
            )
        )
        if found.value is not None:
            row["tightness"] = f"{found.value / report.bound_n:.6f}"
    return _finish_row(row, checks)


def _conductor_row(alpha: QuadInt, f: int, with_oracle: bool) -> dict | None:
    try:
        report = conductor.bound_full(alpha, f)
    except ValueError:
        return None
    row = _row_skeleton("conductor", alpha)
    row["f"] = f
    row["f0"] = report.f0
    row["n_exact"] = report.n_exact
    row["bound"] = report.bound
    checks = []
    if report.bound is not None:
        checks.append(check("n_exact <= bound", report.holds))
        row["tightness"] = f"{report.n_exact / report.bound:.6f}"
    if with_oracle:
        cap = 2 * report.n_exact + 10
        found = oracle.oracle_n_of_f(alpha, f, cap)
        row["oracle"] = found.value
        checks.append(check("oracle n(f) == n_exact", found.value == report.n_exact))
    return _finish_row(row, checks)


def run_sweep(config: SweepConfig) -> list[dict]:
    """Deterministic grid of order and conductor rows.

    Iteration is lexicographic in (d, a, b), with order rows over odd
    primes below p_max and conductor rows over f up to f_max; cases that
    break a precondition are skipped rather than reported as failures.
    The rng only feeds the alternate-root chain rebuild, so a fixed seed
    reproduces the dataset byte for byte.
    """
    rng = random.Random(config.seed)
    rows: list[dict] = []
    primes = _odd_primes_below(config.p_max)
    for d in sorted(set(config.d_set)):
        bound = config.coeff_bound
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                if b == 0:
                    continue
                try:
                    alpha = QuadInt(a, b, d)
                except ValueError:
                    continue
                for p in primes:
                    row = _order_row(alpha, p, rng, config.with_oracle)
                    if row is not None:
                        rows.append(row)
                for f in range(1, config.f_max + 1):
                    row = _conductor_row(alpha, f, config.with_oracle)
                    if row is not None:
                        rows.append(row)
    return rows


def _write_sweep_csv(rows: list[dict], stream) -> None:
    stream.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        cells = []
        for col in CSV_COLUMNS:
            value = row[col]
            if value is None:
                cells.append("")
            elif isinstance(value, bool):
                cells.append("true" if value else "false")
            else:
                cells.append(str(value))
        stream.write(",".join(cells) + "\n")


def cmd_sweep(args: argparse.Namespace) -> int:
    d_set = tuple(int(tok) for tok in args.d_set.split(",") if tok.strip())
    for d in d_set:
        quadint._check_radicand(d)
    config = SweepConfig(
        d_set=d_set,
        coeff_bound=args.coeff_bound,
        p_max=args.p_max,
        f_max=args.f_max,
        seed=args.seed,
        fmt=args.format,
        output=args.output,
        with_oracle=bool(args.oracle),
    )
    print(f"seed {config.seed}", file=sys.stderr)
    rows = run_sweep(config)
    ok = all(row["pass"] for row in rows)
    if config.output == "-":
        stream = sys.stdout
        close = False
    else:
        stream = open(config.output, "w", encoding="utf-8", newline="")
        close = True
    try:
        if config.fmt == "csv":
            _write_sweep_csv(rows, stream)
        else:
            _print_payload(
                {
                    "command": "sweep",
                    "inputs": {
                        "d_set": list(config.d_set),
                        "coeff_bound": config.coeff_bound,
                        "p_max": config.p_max,
                        "f_max": config.f_max,
                        "seed": config.seed,
                        "oracle": config.with_oracle,
                    },
                    "results": rows,
                    "pass": ok,
                },
                stream,
            )
    finally:
        if close:
            stream.close()
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadorder",
        description="Orders of quadratic integers mod p, conductor indices, and their bounds.",
        epilog=(
            "exit codes: 0 all asserted congruences held, 1 a mathematical "
            "assertion failed, 2 bad usage or an unmet precondition.  "
            f"{modarith.TRIAL_BOUND_ENV} overrides the factoring trial bound "
            f"(default {modarith.DEFAULT_TRIAL_BOUND})."
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
    ident.add_argument("--x-bound", type=int, default=50)
    ident.add_argument("--s-bound", type=int, default=20)
    ident.add_argument("--mn-bound", type=int, default=40)
    ident.add_argument("--json", action="store_true")
    ident.set_defaults(func=cmd_identities)

    fund = sub.add_parser("fundunit", help="fundamental unit of the field of sqrt(d)")
    fund.add_argument("--d", type=int, required=True)
    fund.add_argument("--json", action="store_true")
    fund.set_defaults(func=cmd_fundunit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
