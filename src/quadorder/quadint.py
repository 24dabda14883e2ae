from __future__ import annotations

from functools import lru_cache

from .cheby import _lucas
from .modarith import factorize
from .value import Value


@lru_cache(maxsize=256)
def _check_radicand(d: int) -> None:
    if d in (0, 1):
        raise ValueError("the radicand must be a square-free integer other than 0 and 1")
    try:
        fac = factorize(abs(d))
    except ValueError as exc:
        raise ValueError(f"cannot tell whether the radicand {d} is square-free: {exc}") from exc
    if not fac.is_squarefree():
        raise ValueError(f"the radicand {d} is not square-free")


class Mat2(Value):
    __slots__ = _fields = ("e00", "e01", "e10", "e11")

    def __init__(self, e00: int, e01: int, e10: int, e11: int) -> None:
        self._set(e00, e01, e10, e11)

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    @property
    def trace(self) -> int:
        return self.e00 + self.e11

    @property
    def det(self) -> int:
        return self.e00 * self.e11 - self.e01 * self.e10

    def __mul__(self, other: "Mat2") -> "Mat2":
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.e00 * other.e00 + self.e01 * other.e10,
            self.e00 * other.e01 + self.e01 * other.e11,
            self.e10 * other.e00 + self.e11 * other.e10,
            self.e10 * other.e01 + self.e11 * other.e11,
        )

    def __pow__(self, n: int) -> "Mat2":
        if n < 0:
            raise ValueError("negative matrix powers are not integral in general")
        result, base, k = Mat2.identity(), self, n
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __mod__(self, m: int) -> "Mat2":
        return Mat2(self.e00 % m, self.e01 % m, self.e10 % m, self.e11 % m)


class QuadInt(Value):
    """a + b*sqrt(d), or (a + b*sqrt(d))/2 with a == b (mod 2) when d == 1 (mod 4)."""

    # norm and trace_x are read many times per alpha, so __post_init__ computes them once
    __slots__ = ("a", "b", "d", "norm", "trace_x")
    _fields = ("a", "b", "d")

    def __init__(self, a: int, b: int, d: int) -> None:
        self._set(a, b, d)
        self.__post_init__()  # the benchmark tracer counts constructions by this method

    def __post_init__(self) -> None:
        _check_radicand(self.d)
        if self.d % 4 == 1 and (self.a + self.b) % 2:
            raise ValueError(
                "for d == 1 (mod 4) the two coordinates must have equal parity"
            )
        n = self.a * self.a - self.b * self.b * self.d
        object.__setattr__(self, "norm", n // 4 if self.r == 1 else n)
        object.__setattr__(self, "trace_x", self.a if self.r == 1 else 2 * self.a)

    @classmethod
    def one(cls, d: int) -> "QuadInt":
        return cls(2, 0, d) if d % 4 == 1 else cls(1, 0, d)

    @property
    def r(self) -> int:
        return self.d % 4

    def __mul__(self, other: "QuadInt") -> "QuadInt":
        if not isinstance(other, QuadInt):
            return NotImplemented
        if other.d != self.d:
            raise ValueError("cannot multiply integers from different fields")
        a1, b1, a2, b2, d = self.a, self.b, other.a, other.b, self.d
        if self.r == 1:
            # numerators stay even because both factors have equal-parity pairs
            return QuadInt((a1 * a2 + b1 * b2 * d) // 2, (a1 * b2 + a2 * b1) // 2, d)
        return QuadInt(a1 * a2 + b1 * b2 * d, a1 * b2 + a2 * b1, d)

    def __pow__(self, n: int) -> "QuadInt":
        """n-th power from (t_n, u_{n-1}) of the trace/norm pair, in O(log n) steps."""
        if n < 0:
            raise ValueError("negative powers are not integral in general")
        t, u = _lucas(self.trace_x, self.norm, n)
        if self.r == 1:
            return QuadInt(t, u * self.b, self.d)
        return QuadInt(t // 2, u * self.b, self.d)

    def embed(self) -> Mat2:
        """Image in the 2x2 integer matrices; trace and determinant match."""
        if self.norm == 0:
            raise ValueError("zero has no invertible matrix image")
        if self.r == 1:
            q = (self.d - 1) // 4
            return Mat2((self.a + self.b) // 2, self.b, q * self.b, (self.a - self.b) // 2)
        return Mat2(self.a, self.b, self.b * self.d, self.a)

    def in_order(self, f: int) -> bool:
        """Membership in the order of conductor f, which comes down to f | b."""
        if f < 1:
            raise ValueError("the conductor must be at least 1")
        return self.b % f == 0

    def __str__(self) -> str:
        core = f"{self.a} + {self.b}*sqrt({self.d})"
        return f"({core})/2" if self.r == 1 else core
