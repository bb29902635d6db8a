"""Exact arithmetic: rationals, dense polynomials in z, rational functions,
and the library's one linear-system kernel.

Everything is built on fractions.Fraction and Python integers and is
bit-exact; no floats appear anywhere on the computational path.  Every
linear system, the first-passage systems over Z[w] and the rational systems
at z = 1 alike, goes through one fraction-free Bareiss elimination on
integer coefficient lists.  All values are immutable after
construction and every operation is a pure function, so concurrent use is
safe without locking.
"""
from __future__ import annotations

from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from math import lcm
from typing import Iterable, List, Optional, Sequence, Tuple, Union

Coeff = Union[Fraction, int, str]

# Largest exponent magnitude accepted in a decimal string such as "4e-3":
# Fraction("1e999999999") would first build an integer with a billion digits.
MAX_DECIMAL_EXPONENT = 1000


def as_fraction(x: Coeff) -> Fraction:
    """Coerce an int, Fraction, "p/q" string or decimal string to Fraction.

    Decimal strings are read exactly ("0.4" -> 2/5).  Floats are rejected:
    Fraction(0.4) would capture the binary approximation, which silently
    breaks exactness.  A decimal exponent beyond MAX_DECIMAL_EXPONENT in
    magnitude raises ValueError.

    This is the one conversion from text.  Plain ASCII "d+", "d+/d+" and
    "d+.d+" strings are read with int(); every other string (signs, spaces,
    underscores, exponents, other digits) goes to Fraction(str), so the
    accepted grammar, the values and the exceptions are those of the running
    interpreter's Fraction.
    """
    if isinstance(x, str):
        head, sep, tail = x.partition("/" if "/" in x else ".")
        if x.isascii() and head.isdigit() and (tail.isdigit() or not sep):
            if not sep:
                return Fraction(int(head))
            if sep == "/":
                return Fraction(int(head), int(tail))
            scale = 10 ** len(tail)
            return Fraction(int(head) * scale + int(tail), scale)
        _check_exponent(x)
    elif isinstance(x, Fraction):
        return x
    elif isinstance(x, float):
        raise TypeError("floats are not exact; pass a string, int or Fraction")
    return Fraction(x)


def _check_exponent(x: str) -> None:
    """Raise ValueError when the decimal exponent of x exceeds
    MAX_DECIMAL_EXPONENT in magnitude; anything else passes."""
    _, e, exp = x.lower().rpartition("e")
    digits = exp.strip().lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdecimal() and (len(digits) > 6
                                     or int(digits) > MAX_DECIMAL_EXPONENT):
        raise ValueError(f"exponent of {x[:40]!r} exceeds "
                         f"{MAX_DECIMAL_EXPONENT} in magnitude")


class Polynomial:
    """Dense polynomial in z; coeffs[k] is the coefficient of z^k.

    Trailing zero coefficients are trimmed, so the zero polynomial has an
    empty coefficient tuple and every other polynomial has a nonzero leading
    coefficient.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coeff] = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: Tuple[Fraction, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: Union["Polynomial", Coeff]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            s = as_fraction(other)
            return Polynomial([c * s for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return Polynomial()
        # convolve the denominator-cleared integers: one Fraction per result
        # coefficient instead of one per term
        (a, da), (b, db) = self._integers(), other._integers()
        d = da * db
        return Polynomial([Fraction(c, d) for c in _cross(a, b, [], [])])

    def _integers(self) -> Tuple[List[int], int]:
        """(integer coefficients, d) with self = integers / d, d the lcm of
        the coefficient denominators."""
        # Star-args and tuple() get a list, not a generator: from a
        # generator, CPython builds the tuple by resizing, and every such
        # tuple ends up on the interpreter's tuple free lists, which only a
        # full garbage collection empties.
        d = lcm(*[c.denominator for c in self.coeffs])
        return [c.numerator * (d // c.denominator) for c in self.coeffs], d

    def __rmul__(self, other: Coeff) -> "Polynomial":
        return self.__mul__(other)

    def __divmod__(self, other: "Polynomial") -> Tuple["Polynomial", "Polynomial"]:
        """Euclidean division; other must be nonzero."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = other.coeffs
        lead = dn[-1]
        dq = len(rem) - len(dn)
        if dq < 0:
            return Polynomial(), self
        quot = [Fraction(0)] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + len(dn) - 1] / lead
            quot[k] = c
            if c != 0:
                for m, d in enumerate(dn):
                    rem[k + m] -= c * d
        return Polynomial(quot), Polynomial(rem)

    def eval(self, x: Coeff) -> Fraction:
        """Horner evaluation at an exact point."""
        x = as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return Polynomial([c / lead for c in self.coeffs])


ZERO = Polynomial()
ONE = Polynomial([1])
Z = Polynomial([0, 1])


def exact_div(a: Polynomial, b: Polynomial) -> Polynomial:
    """Division known to be remainder-free; raises if it is not."""
    q, r = divmod(a, b)
    if not r.is_zero():
        raise ArithmeticError("inexact polynomial division")
    return q


def _poly_pow(p: Polynomial, k: int) -> Polynomial:
    """p^k by repeated squaring."""
    out = ONE
    while k:
        if k & 1:
            out = out * p
        k >>= 1
        if k:
            p = p * p
    return out


# Prime modulus of the coprimality proof in poly_gcd (a Mersenne prime).
GCD_PRIME = 2 ** 61 - 1


def _mod_image(p: Polynomial) -> Optional[List[int]]:
    """Coefficients of p reduced mod GCD_PRIME, or None when a denominator
    is divisible by GCD_PRIME.

    This is the image of p with its denominators cleared, up to a unit
    factor, which changes no gcd degree; it never builds the cleared
    integers.
    """
    out = []
    for c in p.coeffs:
        d = c.denominator % GCD_PRIME
        if not d:
            return None
        out.append(c.numerator * pow(d, -1, GCD_PRIME) % GCD_PRIME)
    return out


def _coprime_mod_p(a: List[int], b: List[int]) -> bool:
    """True when the images a, b (nonzero leading coefficients mod p) have a
    constant gcd in GF(p)[z]."""
    while len(b) > 1:
        inv = pow(b[-1], -1, GCD_PRIME)
        db = len(b) - 1
        while len(a) >= len(b):
            f = a[-1] * inv % GCD_PRIME
            if f:
                shift = len(a) - len(b)
                for m in range(db):
                    a[shift + m] = (a[shift + m] - f * b[m]) % GCD_PRIME
            a.pop()
            while a and not a[-1]:
                a.pop()
        if not a:
            return False
        a, b = b, a
    return True


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over the rationals.

    Coprime inputs, the common case, are proved coprime in GF(p)[z]: if a
    and b reduce mod p without losing degree and their images there have a
    constant gcd, so does the pair over Q (Brown 1971).  Otherwise the gcd
    comes from the Euclidean algorithm over the rationals.
    """
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd undefined for two zero polynomials")
    if a and b:
        ia, ib = _mod_image(a), _mod_image(b)
        if ia and ib and ia[-1] and ib[-1] and _coprime_mod_p(ia, ib):
            return ONE
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    return a.monic()


class RationalFunction:
    """Reduced quotient of two polynomials in canonical form.

    Canonical means: numerator and denominator share no nonconstant factor,
    and the denominator's constant term is 1.  The scaling is always possible
    here because every denominator that arises is det(I - zQ), whose constant
    term is 1, and reduction cannot introduce a root at z = 0.  Canonical
    form makes equality structural, so __eq__ compares coefficient tuples.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Polynomial, denominator: Polynomial = ONE):
        if denominator.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if numerator.is_zero():
            self.numerator = ZERO
            self.denominator = ONE
            return
        g = poly_gcd(numerator, denominator)
        if g.degree > 0:
            numerator = exact_div(numerator, g)
            denominator = exact_div(denominator, g)
        c0 = denominator.coeff(0)
        if c0 == 0:
            raise ValueError("non-expandable at z=0: denominator constant term is 0")
        if c0 != 1:
            numerator = numerator * (1 / c0)
            denominator = denominator * (1 / c0)
        self.numerator = numerator
        self.denominator = denominator

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.numerator == other.numerator
                and self.denominator == other.denominator)

    def __hash__(self) -> int:
        return hash((self.numerator, self.denominator))

    def __repr__(self) -> str:
        return f"RationalFunction({self.numerator!r}, {self.denominator!r})"

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.numerator * other.numerator,
                                self.denominator * other.denominator)

    @classmethod
    def _canonical(cls, numerator: Polynomial,
                   denominator: Polynomial) -> "RationalFunction":
        """Wrap a pair already known to be canonical, with no gcd."""
        out = object.__new__(cls)
        out.numerator = numerator
        out.denominator = denominator
        return out

    def __pow__(self, k: int) -> "RationalFunction":
        """k-th power by binary powering of numerator and denominator.

        N^k / D^k needs no reduction: gcd(N, D) = 1 gives gcd(N^k, D^k) = 1,
        and D(0) = 1 gives D^k(0) = 1.
        """
        if k < 0:
            raise ValueError("negative powers not supported")
        return RationalFunction._canonical(_poly_pow(self.numerator, k),
                                           _poly_pow(self.denominator, k))

    def derivative(self) -> "RationalFunction":
        """Quotient-rule derivative, re-canonicalized."""
        n, d = self.numerator, self.denominator
        return RationalFunction(n.derivative() * d - n * d.derivative(), d * d)

    def eval(self, x: Coeff) -> Fraction:
        x = as_fraction(x)
        dv = self.denominator.eval(x)
        if dv == 0:
            raise ZeroDivisionError(f"pole at evaluation point z={x}")
        return self.numerator.eval(x) / dv

    def series(self, terms: int) -> List[Fraction]:
        """Maclaurin coefficients c_0..c_{terms-1}.

        Uses the linear recurrence c_k = n_k - sum_{m=1..min(k, deg d)}
        d_m * c_{k-m}, valid because the canonical denominator has constant
        term 1.
        """
        if terms < 0:
            raise ValueError("terms must be >= 0")
        d = self.denominator.coeffs
        out: List[Fraction] = []
        for k in range(terms):
            c = self.numerator.coeff(k)
            for m in range(1, min(k, len(d) - 1) + 1):
                c -= d[m] * out[k - m]
            out.append(c)
        return out

    def render(self, decimal: bool = False) -> str:
        """Text form "(n0 + n1*z + ...) / (1 + d1*z + ...)"."""
        return (f"({_poly_text(self.numerator, decimal)})"
                f" / ({_poly_text(self.denominator, decimal)})")


def _pow10_exponent(den: int) -> Optional[int]:
    """If den = 2^a * 5^b, smallest k with den | 10^k, else None."""
    a = 0
    while den % 2 == 0:
        den //= 2
        a += 1
    b = 0
    while den % 5 == 0:
        den //= 5
        b += 1
    return max(a, b) if den == 1 else None


def _digits(n: int) -> str:
    """Decimal text of an integer of any size.  str() refuses integers longer
    than sys.get_int_max_str_digits(), a limit that still guards parsing;
    the decimal module has no such limit."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def decimal_string(x: Fraction) -> Optional[str]:
    """Exact decimal expansion, or None when it does not terminate."""
    k = _pow10_exponent(x.denominator)
    if k is None:
        return None
    digits = _digits(abs(x.numerator) * 10 ** k // x.denominator)
    sign = "-" if x < 0 else ""
    if k == 0:
        return f"{sign}{digits}"
    digits = digits.rjust(k + 1, "0")
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


def format_rational(x: Fraction, decimal: bool = False, annotate: bool = True) -> str:
    """Render a Fraction as "p/q", or in decimal mode as an exact decimal
    when one exists, falling back to "p/q (~0.123457)" so a rounded value
    never masquerades as exact.  annotate=False drops the parenthetical
    (used inside polynomial strings).
    """
    if decimal:
        s = decimal_string(x)
        if s is not None:
            return s
    elif x.denominator == 1:
        return _digits(x.numerator)
    frac = f"{_digits(x.numerator)}/{_digits(x.denominator)}"
    if decimal and annotate:
        return f"{frac} (~{_approx(x)})"
    return frac


# Rounds to the 6 significant digits of the hint, at any exponent.
_HINT = Context(prec=6, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _approx(x: Fraction) -> str:
    """x to 6 significant digits as f"{float(x):.6g}" prints it.  A value
    that a float cannot hold (past the largest float, or nonzero but
    rounding to 0.0) is rounded by exact decimal division instead."""
    try:
        f = float(x)
        if f or not x:
            return f"{f:.6g}"
    except OverflowError:
        pass
    q = _HINT.divide(Decimal(x.numerator), Decimal(x.denominator))
    return f"{q.normalize(_HINT):.6g}"


def _poly_text(p: Polynomial, decimal: bool) -> str:
    if p.is_zero():
        return "0"
    parts: List[str] = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            term = format_rational(mag, decimal, annotate=False)
        else:
            base = "z" if k == 1 else f"z^{k}"
            if mag == 1:
                term = base
            else:
                term = f"{format_rational(mag, decimal, annotate=False)}*{base}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts)


def _trim(cs: List[int]) -> List[int]:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _cross(p: List[int], x: List[int], q: List[int], y: List[int]) -> List[int]:
    """Coefficients of p*x - q*y for integer coefficient lists."""
    out = [0] * max(len(p) + len(x), len(q) + len(y), 1)
    for i, c in enumerate(p):
        if c:
            for k, d in enumerate(x, i):
                out[k] += c * d
    for i, c in enumerate(q):
        if c:
            for k, d in enumerate(y, i):
                out[k] -= c * d
    return _trim(out)


def _div_exact(a: List[int], b: List[int]) -> List[int]:
    """Exact quotient a / b of integer coefficient lists; b[0] must be nonzero.

    The quotient comes from the low-degree end as a power series.  When b[0]
    is 1, as for every pivot of a first-passage system in w, no integer
    division happens at all; otherwise each quotient coefficient is an exact
    divmod by b[0].  The high-degree coefficients of a then have to match
    b * quotient, or the division was not exact.
    """
    if not a:
        return a
    b0 = b[0]
    db = len(b) - 1
    dq = len(a) - 1 - db
    if dq < 0:
        raise ArithmeticError("inexact polynomial division")
    q = []
    for i in range(dq + 1):
        c = a[i]
        for m in range(1, min(i, db) + 1):
            c -= b[m] * q[i - m]
        if b0 != 1:
            c, r = divmod(c, b0)
            if r:
                raise ArithmeticError("inexact polynomial division")
        q.append(c)
    for i in range(dq + 1, len(a)):
        c = a[i]
        for m in range(i - dq, min(i, db) + 1):
            c -= b[m] * q[i - m]
        if c:
            raise ArithmeticError("inexact polynomial division")
    return q


def _bareiss(aug: List[List[List[int]]],
             forward: bool = False) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free elimination over Z[w], in place (Bareiss 1968).

    aug is an m-row matrix of trimmed integer coefficient lists, with m or
    m + 1 columns.  The pivot at step k is the first row at or below k with
    a nonzero entry in column k.  Every division by the previous pivot is
    exact; it needs a nonzero constant term, which every nonzero pivot has on
    a constant system.  For I - wA row k always qualifies, because its pivot
    is the k-th leading principal minor, whose constant term is 1.  Columns
    left of the pivot are not updated: they hold only zeros and copies of
    the pivot.  Raises ArithmeticError on a singular system.

    By default this is Gauss-Jordan: every row is updated at every step.  On
    an m x (m+1) augmented system unknown a equals last_column[a] / det, with
    det the determinant up to the sign of the row swaps.  On an m x m matrix
    the last step has nothing right of its pivot to update: unknown a < m-1
    of the leading (m-1) x m system is last_column[a] / aug[m-2][m-2], and
    det is the determinant of the whole matrix.  With forward set only the
    rows below each pivot are updated, which is all a caller needing one
    unknown pays for: aug[k][k] is then the (k+1)-th leading principal minor
    and aug[k][c], c > k, the same minor with column k replaced by column c.
    Either way the result is (last_column, det), det being the last pivot.
    """
    m = len(aug)
    prev = [1]
    for k in range(m):
        swap = next((r for r in range(k, m) if aug[r][k]), None)
        if swap is None:
            raise ArithmeticError("singular linear system")
        aug[k], aug[swap] = aug[swap], aug[k]
        top = aug[k]
        piv = top[k]
        for r in range(k + 1 if forward else 0, m):
            if r == k:
                continue
            row = aug[r]
            ark = row[k]
            for c in range(k + 1, len(top)):
                row[c] = _div_exact(_cross(piv, row[c], ark, top[c]), prev)
        prev = piv
    return [row[-1] for row in aug], prev


def solve_linear_system(rows: Sequence[Sequence[Fraction]],
                        rhs: Sequence[Fraction]) -> List[Fraction]:
    """Exact solution of rows * x = rhs by the integer Bareiss kernel.

    Each equation is scaled by the lcm of its denominators, and the integer
    system is eliminated fraction-free with row pivoting.  Raises
    ArithmeticError on a singular matrix.
    """
    aug = []
    for row, b in zip(rows, rhs):
        eq = [*row, b]
        d = lcm(*[e.denominator for e in eq])
        aug.append([_trim([e.numerator * (d // e.denominator)]) for e in eq])
    nums, det = _bareiss(aug)
    return [Fraction(num[0], det[0]) if num else Fraction(0) for num in nums]
