"""Exact dense univariate polynomial arithmetic over Python's big integers.

Coefficients are stored ascending by degree (``coeffs[i]`` multiplies ``x**i``)
with trailing zeros stripped, so the zero polynomial is the empty tuple and
otherwise the leading coefficient is nonzero.  Values are immutable and safe
to share between threads; every operation returns a new ``Poly``.

Multiplication is schoolbook: the degrees in play here are at most a few
hundred, where exactness matters and asymptotics do not.

Powers are not computed by multiplying.  Every closed form is a power of a
small polynomial, and ``p**k`` is built coefficient by coefficient by J.C.P.
Miller's recurrence (Knuth, TAOCP Vol. 2, §4.7).  Write p = x^s·r with
r_0 != 0 and m = deg r, and let a = r^k.  Then r·a' = k·r'·a, since
a' = k·r^(k-1)·r'.  Comparing the coefficients of x^(j-1) gives a_0 = r_0^k and

    j·r_0·a_j = Σ_{i=1..min(j,m)} ((k+1)·i - j)·r_i·a_(j-i),   j = 1..m·k.

The right-hand side is j·r_0 times the integer a_j, so the division is exact;
``__pow__`` checks that it is.  Each coefficient costs m products of a
coefficient of r by one of a, O(m·deg) in all, where repeated squaring makes
O(deg²) products of two large coefficients.
"""

from __future__ import annotations

import itertools
import json
import operator
from typing import Iterable


class Poly:
    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = [operator.index(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> int:
        """Coefficient of x**i (0 beyond the stored degree)."""
        if i < 0:
            raise IndexError("negative exponent")
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == Poly((other,)).coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                body = xpow if mag == 1 else f"{mag}{xpow}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = (first_sign if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Poly":
        if isinstance(value, Poly):
            return value
        if isinstance(value, int):
            return Poly((value,))
        return NotImplemented

    def __add__(self, other) -> "Poly":
        q = Poly._coerce(other)
        if q is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, q.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Poly":
        q = Poly._coerce(other)
        if q is NotImplemented:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other) -> "Poly":
        q = Poly._coerce(other)
        if q is NotImplemented:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other) -> "Poly":
        q = Poly._coerce(other)
        if q is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, q.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        """self**k by Miller's recurrence (see the module docstring).

        Each a_j comes from the m coefficients before it, and each division
        by j·r_0 is checked to be exact.
        """
        k = operator.index(k)
        if k < 0:
            raise ValueError("polynomial power must be nonnegative")
        if k == 0:
            return Poly.ONE
        if not self.coeffs:
            return Poly.ZERO
        s = self.zero_root_multiplicity()
        r = self.coeffs[s:]
        r0, m = r[0], len(r) - 1
        a = [r0**k]
        for j in range(1, m * k + 1):
            acc = 0
            for i in range(1, min(j, m) + 1):
                acc += ((k + 1) * i - j) * r[i] * a[j - i]
            q, rem = divmod(acc, j * r0)
            if rem:
                raise ArithmeticError(f"inexact division in Miller's recurrence at x^{j}")
            a.append(q)
        return Poly([0] * (s * k) + a)

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def taylor_shift(self, s: int) -> "Poly":
        """The polynomial y -> self(y + s), exactly; the roots move by -s.

        self(y + s) = g(y/s + 1) with g(t) = self(s*t), and the shift by 1 is
        repeated synthetic division, which needs additions only: each pass is
        a running sum that itertools.accumulate does without a Python-level
        loop.  The final division by s**i is exact.
        """
        s = operator.index(s)
        if not s or len(self.coeffs) < 2:
            return self
        powers = list(itertools.accumulate([1] + [s] * self.degree, operator.mul))
        b = [c * w for c, w in zip(self.coeffs, powers)][::-1]
        for m in range(len(b), 1, -1):
            b[:m] = itertools.accumulate(b[:m])
        return Poly(c // w for c, w in zip(reversed(b), powers))

    # -- evaluation ----------------------------------------------------------

    def eval_exact(self, t):
        """Horner evaluation; exact for int and Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    # -- zero root ------------------------------------------------------------

    def zero_root_multiplicity(self) -> int:
        """Multiplicity of the root at 0: lowest index with nonzero coefficient."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no root multiplicities")
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        raise AssertionError("unreachable: normalized nonzero polynomial")

    def deflate_zero(self) -> "Poly":
        """Divide out x**zero_root_multiplicity exactly."""
        return Poly(self.coeffs[self.zero_root_multiplicity():])

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        """JSON form {"coeffs": [...]} with coefficients as decimal strings.

        Strings avoid 64-bit truncation in consumers that parse numbers into
        machine integers.
        """
        return json.dumps({"coeffs": [str(c) for c in self.coeffs]})

    @classmethod
    def from_json(cls, text: str) -> "Poly":
        obj = json.loads(text)
        if not isinstance(obj, dict) or "coeffs" not in obj:
            raise ValueError("expected an object with a 'coeffs' field")
        return cls(int(c) for c in obj["coeffs"])


Poly.ZERO = Poly()
Poly.ONE = Poly((1,))
Poly.X = Poly((0, 1))


def binomial_power(n: int) -> Poly:
    """(1 + x)**n with exact binomial coefficients.

    C(n, k+1) = C(n, k)·(n-k)/(k+1), exactly, up to the middle of the row,
    and the rest is the mirror image.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    row = [1]
    for k in range(n // 2):
        row.append(row[-1] * (n - k) // (k + 1))
    return Poly(row + row[: (n + 1) // 2][::-1])
