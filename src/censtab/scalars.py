"""Exact scalar arithmetic over the two supported base fields: Q and GF(p).

A rational scalar is a `fractions.Fraction` (always in lowest terms with a
positive denominator, so equal values have identical representations); a
prime-field scalar is an int in [0, p).  A :class:`FieldSpec` bundles the
arithmetic, parsing and formatting for its scalars; it never wraps the
values themselves, which keeps inner loops cheap.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import FieldMismatch, ParseError, ScalarTooLong

# [0-9], not \d, which matches every Unicode decimal digit
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_RESIDUE_RE = re.compile(r"[0-9]+")

# The most digits `read` takes in one integer of a literal.  It is the most
# Python converts between str and int by default, so every scalar `format`
# writes reads back, and it bounds the cost of arithmetic on parsed values
# and each denominator of a table.
MAX_LITERAL_DIGITS = 4300
_TOO_LONG = 10**MAX_LITERAL_DIGITS  # the least int with more digits

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3e24 (covers the
# machine-word range we allow for p).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Fractions are immutable, so one zero and one one serve every caller.
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """An exact base field: the rationals (p is None) or GF(p), p prime."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if not isinstance(p, int) or not is_prime(p):
                raise ValueError(f"prime field order must be a prime, got {p!r}")
            if p.bit_length() > 64:
                raise ValueError("prime field order must fit in a machine word")
        self.p = p

    # -- identity ---------------------------------------------------------

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.p == other.p

    def __hash__(self):
        return hash(("FieldSpec", self.p))

    def __repr__(self):
        return "Q" if self.p is None else f"GF({self.p})"

    # -- constants and validation -----------------------------------------

    @property
    def zero(self):
        return _Q_ZERO if self.p is None else 0

    @property
    def one(self):
        return _Q_ONE if self.p is None else 1

    def coerce(self, x):
        """Return x as a canonical scalar of this field.

        Accepts ints for both fields and Fractions for the rationals;
        anything else (including a non-integral Fraction handed to a prime
        field) raises FieldMismatch.
        """
        if self.p is None:
            if isinstance(x, Fraction):
                return x
            if isinstance(x, int):
                return Fraction(x)
        else:
            if isinstance(x, int):
                return x % self.p
        raise FieldMismatch(f"{x!r} is not a scalar of {self!r}")

    # -- arithmetic ---------------------------------------------------------
    # Operands are assumed canonical; results are canonical.  Fraction ops
    # normalize on their own, GF(p) results are reduced here.

    def add(self, x, y):
        return x + y if self.p is None else (x + y) % self.p

    def sub(self, x, y):
        return x - y if self.p is None else (x - y) % self.p

    def mul(self, x, y):
        return x * y if self.p is None else (x * y) % self.p

    def neg(self, x):
        return -x if self.p is None else (-x) % self.p

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError(f"inverse of zero in {self!r}")
        if self.p is None:
            return 1 / Fraction(x)
        return pow(x, -1, self.p)

    # -- text grammar -------------------------------------------------------
    # Rationals: [-]digits[/digits].  Prime field: digits (reduced mod p).
    # Each integer has at most MAX_LITERAL_DIGITS digits.

    def read(self, text: str):
        """The value of a literal, the one reader of the grammar: a reduced
        (numerator, denominator) pair of ints, denominator positive, over Q;
        an int in [0, p) over GF(p).  Surrounding whitespace is ignored.
        Raises ParseError outside the grammar or the digit bound, and
        ZeroDivisionError on a zero denominator.
        """
        t = text.strip()
        limit = MAX_LITERAL_DIGITS
        if len(t) > limit and max(map(len, t.lstrip("-").split("/"))) > limit:
            raise ParseError(f"scalar literal exceeds the limit of {limit} digits per integer")
        if self.p is None:
            m = _RATIONAL_RE.fullmatch(t)
            if m is None:
                raise ParseError(f"bad rational literal {text!r}")
            num, den = m.groups()
            if den is None:
                return int(num), 1
            num, den = int(num), int(den)
            if not den:
                raise ZeroDivisionError(f"zero denominator in {text!r}")
            g = gcd(num, den)
            return (num, den) if g == 1 else (num // g, den // g)
        if not _RESIDUE_RE.fullmatch(t):
            raise ParseError(f"bad GF({self.p}) literal {text!r}")
        return int(t) % self.p

    def parse(self, text: str):
        """The scalar a literal denotes (see `read`)."""
        x = self.read(text)
        if self.p is not None:
            return x
        num, den = x
        return Fraction(num) if den == 1 else Fraction(num, den)

    def format(self, x) -> str:
        if self.p is None:
            n, d = x.numerator, x.denominator  # x is a Fraction or an int
            if d >= _TOO_LONG or abs(n) >= _TOO_LONG:
                raise ScalarTooLong(
                    f"a computed scalar exceeds the limit of {MAX_LITERAL_DIGITS} digits per integer"
                )
            return str(n) if d == 1 else f"{n}/{d}"
        return str(x % self.p)

    # -- sampling -----------------------------------------------------------

    def random_scalar(self, rng):
        """A small random scalar: numerator and denominator bounded by 3."""
        if self.p is None:
            return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return rng.randint(-3, 3) % self.p


RATIONALS = FieldSpec()


def prime_field(p: int) -> FieldSpec:
    return FieldSpec(p)
