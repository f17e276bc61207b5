"""Exact arithmetic for real quadratic surds (p + q*sqrt(r)) / s.

The sharp thresholds of the pinching estimates all live in real quadratic
fields (Q(sqrt(19)), Q(sqrt(3)), Q(sqrt(6)), Q(sqrt(105))), so a single
class with integer components is enough to state and verify them with no
rounding at all.  A radicand is kept as given, never factored: sqrt(12) stays
sqrt(12).  Two radicands r1, r2 generate one field iff r1*r2 is a square,
which one isqrt settles.  Arithmetic is closed as long as operands stay in
one field (or one side is rational); anything else raises instead of
silently degrading to floats.  Every order question (sign, comparison across
fields, the floor behind a decimal) is settled one way: integer enclosures
of the value, refined by doubling their precision until they decide.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering

from .errors import ExactnessError

Rational = int | Fraction


def _is_square(x: Rational) -> bool:
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
    """Exact representation of (p + q*sqrt(r)) / s.

    Invariants: integers p, q, r, s with s > 0, r = 0 iff q = 0, r otherwise
    any non-square integer (a square radicand folds into p), and
    gcd(p, q, s) = 1.  One value has many representations, sqrt(12) and
    2*sqrt(3) say, so equality is decided by comparison, never by components,
    and an irrational surd hashes the trace and norm of its minimal
    polynomial, which every representation shares.  Radicands r1, r2 give
    one field iff isqrt(r1*r2)^2 = r1*r2.  Within one field a comparison is
    the sign of the difference; every sign, cross-field comparison and
    decimal floor is settled by _refine on integer enclosures of the values.
    """

    __slots__ = ("p", "q", "r", "s", "_bracket")

    def __init__(self, p: int, q: int = 0, r: int = 0, s: int = 1):
        if s == 0:
            raise ZeroDivisionError("surd denominator is zero")
        if r < 0:
            raise ValueError("radicand must be nonnegative")
        if q == 0:
            r = 0
        elif (root := math.isqrt(r)) * root == r:
            p, q, r = p + q * root, 0, 0
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
        s, (p, q) = common_denominator((Fraction(a), Fraction(b)))
        return cls(p, q, r, s)

    @classmethod
    def sqrt_rational(cls, x: Rational) -> "QuadraticSurd":
        """Exact square root of a nonnegative rational."""
        f = Fraction(x)
        if f < 0:
            raise ValueError("square root of negative rational")
        # sqrt(n/d) = sqrt(n d)/d
        return cls(0, 1, f.numerator * f.denominator, f.denominator)

    # -- basic queries -------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ExactnessError(f"{self!r} is irrational")
        return Fraction(self.p, self.s)

    def __float__(self) -> float:
        try:
            return (self.p + self.q * math.sqrt(self.r)) / self.s
        except OverflowError:  # a component beyond the float range
            lo, _, den = self._interval(64)
            return lo / den  # int / int rounds correctly

    def __bool__(self) -> bool:
        return not (self.p == 0 and self.q == 0)

    def __repr__(self) -> str:
        return f"QuadraticSurd({self.p}, {self.q}, {self.r}, {self.s})"

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

    __str__ = expression

    # -- coercion ------------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "QuadraticSurd | None":
        if isinstance(x, QuadraticSurd):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadraticSurd.from_rational(x)
        return None

    def _aligned(self, o: "QuadraticSurd") -> tuple[int, "QuadraticSurd"]:
        """A radicand r and o rewritten over it, so self and o are both (p + q*sqrt(r))/s.

        Radicands r1 != r2 share a field iff r1*r2 = m^2, and then
        sqrt(r2) = (m/r1) sqrt(r1); otherwise raises ExactnessError.
        """
        if self.q == 0 or o.q == 0 or self.r == o.r:
            return self.r or o.r, o
        r = self.r
        m = math.isqrt(r * o.r)
        if m * m != r * o.r:
            raise ExactnessError(f"radicands {r} and {o.r} generate different fields")
        return r, QuadraticSurd(o.p * r, o.q * m, r, o.s * r)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        r, o = self._aligned(o)
        return QuadraticSurd(
            self.p * o.s + o.p * self.s,
            self.q * o.s + o.q * self.s,
            r,
            self.s * o.s,
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadraticSurd(-self.p, -self.q, self.r, self.s)

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
        r, o = self._aligned(o)
        return QuadraticSurd(
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
        return QuadraticSurd(self.s * self.p, -self.s * self.q, self.r, norm)

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

    # -- exact sign and comparison --------------------------------------------

    def _interval(self, bits: int) -> tuple[int, int, int]:
        """Integers lo, hi, den > 0 with lo/den <= value <= hi/den, sqrt(r) bounded to 2^-bits."""
        root = math.isqrt(self.r << 2 * bits)
        base = (self.p << bits) + self.q * root
        lo, hi = (base, base + self.q) if self.q >= 0 else (base + self.q, base)
        return lo, hi, self.s << bits

    def _sign(self) -> int:
        """Exact sign: the side of 0 that the value's enclosure moves to."""
        if self.q == 0:
            return (self.p > 0) - (self.p < 0)
        return _refine(lambda lo, hi, den: 1 if lo >= 0 else -1 if hi <= 0 else None, self)

    def _compare(self, other) -> int:
        o = self._coerce(Fraction(other) if isinstance(other, float) else other)
        if o is None:
            raise TypeError(f"cannot compare QuadraticSurd with {type(other)!r}")
        if self.q == 0 or o.q == 0 or _is_square(self.r * o.r):
            return (self - o)._sign()

        # different fields: the values never coincide, so the enclosures separate
        def separated(lo1, hi1, den1, lo2, hi2, den2):
            return -1 if hi1 * den2 < lo2 * den1 else 1 if hi2 * den1 < lo1 * den2 else None

        return _refine(separated, self, o)

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
        return not self._side(other) and self._compare(other) == 0

    def __lt__(self, other):
        if side := self._side(other):
            return side > 0
        return self._compare(other) < 0

    def __hash__(self):
        if self.q == 0:
            return hash(Fraction(self.p, self.s))
        # the minimal polynomial x^2 - 2 (p/s) x + (p^2 - q^2 r)/s^2 is one per value
        p, q, r, s = self.p, self.q, self.r, self.s
        return hash((Fraction(p, s), Fraction(p * p - q * q * r, s * s)))

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
        """Exact floor(value * 10^digits): the floor both ends of the enclosure share."""
        scale = 10**digits

        def shared_floor(lo, hi, den):
            return n if (n := lo * scale // den) == hi * scale // den else None

        return _refine(shared_floor, self)

    def decimal(self, digits: int = 15) -> str:
        """Decimal expansion truncated toward -infinity to `digits` places."""
        return self.enclosure(digits)[0]

    def enclosure(self, digits: int = 15) -> tuple[str, str]:
        """Decimal strings lo <= value <= hi, one last-place unit apart."""
        n = self._floor_scaled(digits)
        scale = 10**digits

        def fmt(k: int) -> str:
            sign = "-" if k < 0 else ""
            whole, frac = divmod(abs(k), scale)
            return f"{sign}{whole}.{frac:0{digits}d}"

        return fmt(n), fmt(n + 1)


def _refine(decide, *xs: QuadraticSurd):
    """decide's first answer other than None as the enclosures of xs narrow.

    decide gets lo, hi, den of each x._interval(bits), for bits = 64, 128, 256, ...
    An irrational lies strictly inside its shrinking enclosure and is never 0, an
    integer after scaling, or equal to an irrational of another field, so each use ends.
    """
    bits = 64
    while (answer := decide(*(n for x in xs for n in x._interval(bits)))) is None:
        bits *= 2
    return answer


def common_denominator(xs) -> tuple:
    """(D, numerators): the rationals xs as integers over D, the lcm of their denominators."""
    den = math.lcm(*(x.denominator for x in xs))
    return den, tuple(x.numerator * (den // x.denominator) for x in xs)


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


def is_finite(x) -> bool:
    """True for every exact value, and for a float that is neither infinite nor NaN."""
    return isinstance(x, EXACT_TYPES) or math.isfinite(x)


def sqrt(x):
    """Square root in the arithmetic of x: math.sqrt for floats, else exact.

    Exact roots denest where they can and raise ExactnessError where they
    cannot (see QuadraticSurd.sqrt).
    """
    if isinstance(x, float):
        return math.sqrt(x)
    return x.sqrt() if isinstance(x, QuadraticSurd) else QuadraticSurd.sqrt_rational(x)
