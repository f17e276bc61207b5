"""Exact arithmetic for real quadratic surds (p + q*sqrt(r)) / s.

The sharp thresholds of the pinching estimates all live in real quadratic
fields (Q(sqrt(19)), Q(sqrt(3)), Q(sqrt(6)), Q(sqrt(105))), so a single
canonical-form class with integer components is enough to state and verify
them with no rounding at all.  Arithmetic is closed as long as operands stay
in one field (or one side is rational); anything else raises instead of
silently degrading to floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering

from .errors import ExactnessError

Rational = int | Fraction


def _squarefree_split(n: int) -> tuple[int, int]:
    """Write n = m*m*d with d square-free; returns (m, d).  Requires n >= 0.

    Trial division by k stops once the unsplit part c is a square or c < k^3, when c has at
    most two prime factors left: then only a prime square is not square-free.
    """
    if n < 0:
        raise ValueError("radicand must be nonnegative")
    m, d, c, k = 1, 1, n, 2
    square = math.isqrt(c) ** 2 == c
    while not square and k * k * k <= c:
        if c % k == 0:
            while c % (k * k) == 0:
                c //= k * k
                m *= k
            if c % k == 0:
                c //= k
                d *= k
            square = math.isqrt(c) ** 2 == c
        k += 1
    root = math.isqrt(c)
    return (m * root, d) if root * root == c and c else (m, d * c)


def _is_square(x: Fraction) -> bool:
    if x < 0:
        return False
    return (
        math.isqrt(x.numerator) ** 2 == x.numerator
        and math.isqrt(x.denominator) ** 2 == x.denominator
    )


def _fraction_sqrt(x: Fraction) -> Fraction:
    return Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))


@total_ordering
class QuadraticSurd:
    """Canonical exact representation of (p + q*sqrt(r)) / s.

    Invariants: integers p, q, r, s with s > 0, r square-free, r = 0 iff
    q = 0, and gcd(p, q, s) = 1.  Comparisons within one field are exact
    integer arithmetic; distinct square-free radicands generate distinct
    fields, whose values never coincide, so refined integer intervals for
    sqrt(r) always separate them.
    """

    __slots__ = ("p", "q", "r", "s", "_bracket")

    def __init__(self, p: int, q: int = 0, r: int = 0, s: int = 1):
        if s == 0:
            raise ZeroDivisionError("surd denominator is zero")
        if r < 0:
            raise ValueError("radicand must be nonnegative")
        # fold square parts of the radicand into q, then rational radicands into p
        if q != 0 and r > 1:
            m, d = _squarefree_split(r)
            q, r = q * m, d
        self._store(p, q, r, s)

    @classmethod
    def _of(cls, p: int, q: int, r: int, s: int) -> "QuadraticSurd":
        """(p + q*sqrt(r))/s for s != 0 and r already 0, 1 or square-free: no split."""
        out = object.__new__(cls)
        out._store(p, q, r, s)
        return out

    def _store(self, p: int, q: int, r: int, s: int) -> None:
        if r == 1:
            p, q, r = p + q, 0, 0
        if q == 0 or r == 0:
            q, r = 0, 0
        if s < 0:
            p, q, s = -p, -q, -s
        g = math.gcd(math.gcd(abs(p), abs(q)), s)
        if g > 1:
            p, q, s = p // g, q // g, s // g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticSurd is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, x: Rational) -> "QuadraticSurd":
        f = Fraction(x)
        return cls(f.numerator, 0, 0, f.denominator)

    @classmethod
    def from_fractions(cls, a: Fraction, b: Fraction, r: int) -> "QuadraticSurd":
        """Value a + b*sqrt(r) with rational a, b."""
        a, b = Fraction(a), Fraction(b)
        s = math.lcm(a.denominator, b.denominator)
        return cls(a.numerator * (s // a.denominator), b.numerator * (s // b.denominator), r, s)

    @classmethod
    def sqrt_rational(cls, x: Rational) -> "QuadraticSurd":
        """Exact square root of a nonnegative rational."""
        f = Fraction(x)
        if f < 0:
            raise ValueError("square root of negative rational")
        # sqrt(n/d) = sqrt(n d)/d, and coprime n, d have coprime square-free parts
        (mn, rn), (md, rd) = _squarefree_split(f.numerator), _squarefree_split(f.denominator)
        return cls._of(0, mn * md, rn * rd, f.denominator)

    # -- basic queries -------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def rational_part(self) -> Fraction:
        return Fraction(self.p, self.s)

    def surd_part(self) -> Fraction:
        """Coefficient of sqrt(r)."""
        return Fraction(self.q, self.s)

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ExactnessError(f"{self!r} is irrational")
        return Fraction(self.p, self.s)

    def __float__(self) -> float:
        return (self.p + self.q * math.sqrt(self.r)) / self.s

    def __bool__(self) -> bool:
        return not (self.p == 0 and self.q == 0)

    def __repr__(self) -> str:
        return f"QuadraticSurd({self.p}, {self.q}, {self.r}, {self.s})"

    def __str__(self) -> str:
        return self.expression()

    def expression(self) -> str:
        """Human-readable exact form, e.g. '(14 - sqrt(19))/12'."""
        if self.q == 0:
            return str(self.p) if self.s == 1 else f"{self.p}/{self.s}"
        root = f"sqrt({self.r})" if abs(self.q) == 1 else f"{abs(self.q)}*sqrt({self.r})"
        if self.p == 0:
            num = root if self.q > 0 else f"-{root}"
        else:
            num = f"{self.p} {'+' if self.q > 0 else '-'} {root}"
        if self.s == 1:
            return num
        return f"({num})/{self.s}"

    # -- coercion ------------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "QuadraticSurd | None":
        if isinstance(x, QuadraticSurd):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadraticSurd.from_rational(x)
        return None

    def _common_radicand(self, other: "QuadraticSurd") -> int:
        if self.q == 0:
            return other.r
        if other.q == 0:
            return self.r
        if self.r == other.r:
            return self.r
        raise ExactnessError(
            f"radicands {self.r} and {other.r} generate different fields"
        )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        r = self._common_radicand(o)
        return QuadraticSurd._of(
            self.p * o.s + o.p * self.s,
            self.q * o.s + o.q * self.s,
            r,
            self.s * o.s,
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadraticSurd._of(-self.p, -self.q, self.r, self.s)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        r = self._common_radicand(o)
        return QuadraticSurd._of(
            self.p * o.p + self.q * o.q * r,
            self.p * o.q + self.q * o.p,
            r,
            self.s * o.s,
        )

    __rmul__ = __mul__

    def _inverse(self) -> "QuadraticSurd":
        # 1/((p + q*sqrt(r))/s) = s*(p - q*sqrt(r)) / (p^2 - q^2 r)
        norm = self.p * self.p - self.q * self.q * self.r
        if norm == 0:
            raise ZeroDivisionError("division by zero surd")
        return QuadraticSurd._of(self.s * self.p, -self.s * self.q, self.r, norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self._inverse()

    def __abs__(self):
        return -self if self._sign() < 0 else self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = QuadraticSurd(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- exact sign and comparison --------------------------------------------

    def _sign(self) -> int:
        """Exact sign of the value (s > 0 by canonical form)."""
        p, q, r = self.p, self.q, self.r
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return (q > 0) - (q < 0)
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        # opposite signs: compare p^2 against q^2 r
        lhs, rhs = p * p, q * q * r
        if lhs == rhs:
            return 0  # unreachable for square-free r > 1, kept for safety
        if p > 0:
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1

    def _interval(self, bits: int) -> tuple[int, int, int]:
        """Integers lo, hi, den > 0 with lo/den <= value <= hi/den, sqrt(r) bounded to 2^-bits."""
        root = math.isqrt(self.r << 2 * bits)
        base = (self.p << bits) + self.q * root
        lo, hi = (base, base + self.q) if self.q >= 0 else (base + self.q, base)
        return lo, hi, self.s << bits

    def _compare(self, other) -> int:
        o = self._coerce(Fraction(other) if isinstance(other, float) else other)
        if o is None:
            raise TypeError(f"cannot compare QuadraticSurd with {type(other)!r}")
        if self.q == 0 or o.q == 0 or self.r == o.r:
            return (self - o)._sign()
        # distinct square-free radicands: values can never be equal, so
        # interval refinement always separates them
        for bits in (64, 128, 256, 512, 1024):
            lo1, hi1, den1 = self._interval(bits)
            lo2, hi2, den2 = o._interval(bits)
            if hi1 * den2 < lo2 * den1:
                return -1
            if hi2 * den1 < lo1 * den2:
                return 1
        raise ExactnessError(f"cannot separate {self!r} and {other!r}")

    def _side(self, x) -> int:
        """1 if x > self, -1 if x < self, when the float bracket decides it; else 0.

        The bracket lo <= value <= hi is _interval(64) rounded outward, built
        once.  A float, int or Fraction x is at least as near to its correctly
        rounded float(x) as to lo or hi, so float(x) beyond one puts x beyond it.
        """
        if not isinstance(x, (float, int, Fraction)):
            return 0
        try:
            x = float(x)
        except OverflowError:  # a rational beyond the float range
            return 0
        try:
            lo, hi = self._bracket
        except AttributeError:
            lo, hi, den = self._interval(64)
            try:
                # int / int rounds correctly, as float(Fraction(lo, den)) does
                lo, hi = math.nextafter(lo / den, -math.inf), math.nextafter(hi / den, math.inf)
            except OverflowError:
                lo, hi = -math.inf, math.inf
            object.__setattr__(self, "_bracket", (lo, hi))
        if hi < x < math.inf:
            return 1
        return -1 if -math.inf < x < lo else 0

    def __eq__(self, other):
        if not isinstance(other, (QuadraticSurd, float, int, Fraction)):
            return NotImplemented
        if self._side(other):
            return False
        try:
            return self._compare(other) == 0
        except ExactnessError:
            return False

    def __lt__(self, other):
        if side := self._side(other):
            return side > 0
        return self._compare(other) < 0

    def __hash__(self):
        if self.q == 0:
            return hash(Fraction(self.p, self.s))
        return hash((self.p, self.q, self.r, self.s))

    # -- exact square root (denesting) ----------------------------------------

    def sqrt(self) -> "QuadraticSurd":
        """Exact square root, when it exists in a quadratic field.

        Rational inputs always succeed.  For a + b*sqrt(r) the classic
        denesting criterion applies: a^2 - b^2 r must be a rational square.
        Raises ExactnessError when the root does not denest.
        """
        if self._sign() < 0:
            raise ValueError("square root of negative surd")
        if self.q == 0:
            return QuadraticSurd.sqrt_rational(Fraction(self.p, self.s))
        a = Fraction(self.p, self.s)
        b = Fraction(self.q, self.s)
        disc = a * a - b * b * self.r
        if disc < 0 or not _is_square(disc):
            raise ExactnessError(f"sqrt({self}) does not denest")
        n = _fraction_sqrt(disc)
        # the root is c + d sqrt(r) with c^2 = (a +- n)/2 and 2 c d = b; with
        # c > 0 it may be the negative one (1 - sqrt2 for 3 - 2 sqrt2), hence abs
        for half in ((a + n) / 2, (a - n) / 2):
            if half <= 0:
                continue
            if _is_square(half):
                u = _fraction_sqrt(half)
                return abs(QuadraticSurd.from_fractions(u, b / (2 * u), self.r))
        raise ExactnessError(f"sqrt({self}) does not denest")

    # -- decimal output --------------------------------------------------------

    def _floor_scaled(self, digits: int) -> int:
        """Exact floor(value * 10^digits)."""
        scale = 10**digits
        a = self.p * scale
        b = self.q * scale
        if b == 0:
            return a // self.s
        t = b * b * self.r
        u = math.isqrt(t) if b > 0 else -math.isqrt(t) - 1
        # numerator a + b*sqrt(r) lies in the open interval (a+u, a+u+1)
        n0 = (a + u) // self.s
        if (a + u + 1) <= (n0 + 1) * self.s:
            return n0
        # the interval straddles the multiple (n0+1)*s: settle exactly
        m = (n0 + 1) * self.s - a  # compare b*sqrt(r) against integer m
        bigger = (t > m * m) if (b > 0 and m >= 0) else (b > 0 or (t < m * m and m < 0))
        return n0 + 1 if bigger else n0

    def decimal(self, digits: int = 15) -> str:
        """Decimal expansion truncated toward -infinity to `digits` places."""
        n = self._floor_scaled(digits)
        sign = "-" if n < 0 else ""
        n = abs(n)
        whole, frac = divmod(n, 10**digits)
        return f"{sign}{whole}.{frac:0{digits}d}"

    def enclosure(self, digits: int = 15) -> tuple[str, str]:
        """Decimal strings lo <= value <= hi, one last-place unit apart."""
        n = self._floor_scaled(digits)
        scale = 10**digits

        def fmt(k: int) -> str:
            sign = "-" if k < 0 else ""
            whole, frac = divmod(abs(k), scale)
            return f"{sign}{whole}.{frac:0{digits}d}"

        return fmt(n), fmt(n + 1)


EXACT_TYPES = (int, Fraction, QuadraticSurd)


def coerce(*xs) -> tuple:
    """The arguments in one arithmetic, so a formula can be written once.

    When every argument is exact (int, Fraction or QuadraticSurd) surds stay
    as they are and the rest become Fractions; otherwise every argument
    becomes a float.
    """
    for x in xs:
        if not isinstance(x, EXACT_TYPES):
            return tuple(map(float, xs))
    return tuple(x if isinstance(x, QuadraticSurd) else Fraction(x) for x in xs)


def sqrt(x):
    """Square root in the arithmetic of x: math.sqrt for floats, else exact.

    Exact roots denest where they can and raise ExactnessError where they
    cannot (see QuadraticSurd.sqrt).
    """
    if isinstance(x, float):
        return math.sqrt(x)
    return x.sqrt() if isinstance(x, QuadraticSurd) else QuadraticSurd.sqrt_rational(x)
