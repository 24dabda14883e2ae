"""Spans and counters recorded around the package's public functions.

The wrappers live here, in the benchmark, not in the package: install()
replaces every binding of a traced function in every quadorder module
(``from .cheby import eval_fast`` binds it separately in ordersolver and
conductor), and uninstall() puts the originals back.  Spans are kept in
flat arrays in memory and written out only at the end of a run.
"""

from __future__ import annotations

import itertools
import sys
import time
from array import array

# span name -> (module, attribute) of every function traced as that layer span
SPANS = {
    "cli.main": [("cli", "main")],
    "ordersolver.analyze": [("ordersolver", "analyze")],
    "ordersolver.chain": [
        ("ordersolver", "build_chain_s1"),
        ("ordersolver", "build_chain_s_minus1"),
    ],
    "ordersolver.q_of_p": [("ordersolver", "q_of_p")],
    "ordersolver.divisor_bound": [("ordersolver", "divisor_bound")],
    "conductor.bound_full": [("conductor", "bound_full")],
    "conductor.n_of_f": [("conductor", "n_of_f")],
    "cheby.eval_fast": [("cheby", "eval_fast")],
    "cheby.exact": [
        ("cheby", "u_prev_exact"),
        ("cheby", "t_exact"),
        ("cheby", "compose_t"),
        ("cheby", "compose_u"),
        ("cheby", "u_odd_closed_form"),
    ],
    "modarith.is_prime": [("modarith", "is_prime")],
    "modarith.factorize": [("modarith", "factorize")],
    "units.fundamental_unit": [("units", "fundamental_unit")],
    "oracle.order_mod_p": [("oracle", "oracle_order_mod_p")],
    "oracle.n_of_f": [("oracle", "oracle_n_of_f")],
}

# counted only: they are called too often, or too briefly, for a span each
COUNTED_FUNCTIONS = {
    "modarith.legendre": ("modarith", "legendre"),
    "modarith.sqrt_mod": ("modarith", "sqrt_mod"),
}
COUNTED_METHODS = {
    "quadint.construct": ("QuadInt", "__post_init__"),
    "quadint.mul": ("QuadInt", "__mul__"),
}

# lru_caches whose hit ratio is read after the run
CACHES = {
    "ordersolver.q_of_p": ("ordersolver", "q_of_p"),
    "conductor.entry_index": ("conductor", "_entry_index"),
    "quadint.check_radicand": ("quadint", "_check_radicand"),
}

ORACLE_SPANS = ("oracle.order_mod_p", "oracle.n_of_f")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self._counters: dict[str, object] = {}
        self.errors: dict[tuple[str, str], int] = {}
        self.oracle_steps = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        ids, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end,
        )
        stack, errors, clock = self._stack, self.errors, time.perf_counter_ns
        on_return = self._count_oracle_steps if name in ORACLE_SPANS else None

        def wrapper(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                key = (name, type(exc).__name__)
                errors[key] = errors.get(key, 0) + 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        # a C-level counter keeps the cost per call small on hot methods
        tick = self._counters[name] = itertools.count().__next__

        def wrapper(*args):
            tick()
            return fn(*args)

        return wrapper

    def take_counts(self) -> dict[str, int]:
        """Calls per counted name; read once, after the run.

        Each tick returns the number of earlier calls, so one more tick
        returns the total.
        """
        return {name: tick() for name, tick in self._counters.items()}

    def _count_oracle_steps(self, result) -> None:
        # a scan that found nothing walked its whole cap
        self.oracle_steps += result.value if result.value is not None else result.cap

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "quadorder" or n.startswith("quadorder.")
        ]
        pkg = sys.modules["quadorder"]
        for name, targets in SPANS.items():
            for mod_name, attr in targets:
                original = getattr(getattr(pkg, mod_name), attr)
                self._rebind(modules, original, self._spanned(name, original))
        for name, (mod_name, attr) in COUNTED_FUNCTIONS.items():
            original = getattr(getattr(pkg, mod_name), attr)
            self._rebind(modules, original, self._counted(name, original))
        for name, (cls_name, attr) in COUNTED_METHODS.items():
            cls = getattr(pkg.quadint, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._counted(name, original))
            self._undo.append((cls, attr, original))

    def _rebind(self, modules, original, wrapper) -> None:
        found = False
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))
                    found = True
        if not found:
            raise RuntimeError(f"no module binds {original!r}")

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- results -----------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per span name; self excludes child spans."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPANS}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i] / 1e9
            row["self_s"] += (dur[i] - child[i]) / 1e9
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}"
                    f"\t{self.span_start[i]}\t{self.span_end[i]}\n"
                )


def cache_hit_ratios(pkg) -> dict[str, float]:
    out = {}
    for name, (mod_name, attr) in CACHES.items():
        info = getattr(getattr(pkg, mod_name), attr).cache_info()
        looked_up = info.hits + info.misses
        out[name] = info.hits / looked_up if looked_up else 0.0
    return out
