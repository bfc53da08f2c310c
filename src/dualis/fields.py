"""Exact scalar arithmetic over the rationals and prime fields.

Scalars are plain values: in characteristic zero ``int`` when integral,
otherwise ``fractions.Fraction``; canonical residues (ints in [0, p)) in
characteristic p.  A rational result with denominator 1 is returned as its
numerator, so integer entries never pay for ``Fraction`` arithmetic.  A
``Field`` object carries the operations so structures can stay field-generic
without wrapping every scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index

from .errors import ValidationError, quoted

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """The rationals (characteristic 0) or a prime field F_p, p < 2**62."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if p == 0:
            return
        if p >= 1 << 62 or not is_prime(p):
            raise ValidationError(f"characteristic must be 0 or a prime < 2**62, got {quoted(p)}")

    # -- canonical constants ------------------------------------------------

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    # -- arithmetic ---------------------------------------------------------

    def add(self, a, b):
        if self.characteristic == 0:
            r = a + b
            return r.numerator if r.denominator == 1 else r
        return (a + b) % self.characteristic

    def sub(self, a, b):
        if self.characteristic == 0:
            r = a - b
            return r.numerator if r.denominator == 1 else r
        return (a - b) % self.characteristic

    def mul(self, a, b):
        if self.characteristic == 0:
            r = a * b
            return r.numerator if r.denominator == 1 else r
        return (a * b) % self.characteristic

    def neg(self, a):
        if self.characteristic == 0:
            return -a
        return (-a) % self.characteristic

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.characteristic == 0:
            r = Fraction(1) / a  # 1 / a would be a float for an int a
            return r.numerator if r.denominator == 1 else r
        return pow(a, -1, self.characteristic)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

    # -- conversions ----------------------------------------------------------

    def from_int(self, n: int):
        if self.characteristic == 0:
            return index(n)
        return n % self.characteristic

    def name(self) -> str:
        return "q" if self.characteristic == 0 else f"fp:{self.characteristic}"


QQ = Field(0)


def GF(p: int) -> Field:
    return Field(p)


def field_from_name(name: str) -> Field:
    """Inverse of Field.name(): "q" or "fp:<p>"."""
    if name == "q":
        return QQ
    if name.startswith("fp:"):
        try:
            p = int(name[3:])
        except ValueError:
            raise ValidationError(f"bad modulus in field spec {quoted(name)}") from None
        return GF(p)
    raise ValidationError(f"unknown field spec {quoted(name)}")
