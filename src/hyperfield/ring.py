"""Commutative ring of hypercomplex numbers with units {1, i, j, ij}.

Unit table: i^2 = -1, j^2 = +1, (ij)^2 = -1, ij = ji.  The ring splits into
two standard-complex sectors through the orthogonal idempotents
J+ = (1+j)/2 and J- = (1-j)/2, which are zero divisors (J+ J- = 0).

Components are floats or ints; arithmetic stays inside the numeric type
supplied, so on ints the ring identities are checked exactly.
``fractions.Fraction`` is used only by idempotents_exact, whose halves have
no integer form.  An element is an immutable 4-tuple (x, y, u, v), built
in C: results skip the Python-level constructor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

_SCALARS = (int, float, Fraction)
_new = tuple.__new__


class Bicomplex(NamedTuple):
    """Element x + i*y + j*u + ij*v of the hypercomplex ring.

    An immutable 4-tuple: it iterates and unpacks as (x, y, u, v), and it
    equals and hashes as a plain tuple of the same components.
    """

    x: object = 0.0
    y: object = 0.0
    u: object = 0.0
    v: object = 0.0

    # numpy scalars would broadcast over the tuple; make them defer to the ring
    __array_ufunc__ = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_complex(z) -> "Bicomplex":
        """Embed a standard complex number (or real scalar) into the ring."""
        if isinstance(z, Bicomplex):
            return z
        if isinstance(z, complex):
            return _new(Bicomplex, (z.real, z.imag, 0.0, 0.0))
        return _new(Bicomplex, (z, 0.0, 0.0, 0.0))

    @staticmethod
    def zero() -> "Bicomplex":
        return ZERO

    @staticmethod
    def one() -> "Bicomplex":
        return ONE

    # -- ring arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self
        e, f, g, h = other
        return _new(Bicomplex, (a + e, b + f, c + g, d + h))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self
        e, f, g, h = other
        return _new(Bicomplex, (a - e, b - f, c - g, d - h))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        a, b, c, d = self
        return _new(Bicomplex, (-a, -b, -c, -d))

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self
        e, f, g, h = other
        # terms grouped so products of opposite idempotents cancel exactly
        return _new(Bicomplex, (
            (a * e + c * g) - (b * f + d * h),
            (a * f + c * h) + (b * e + d * g),
            (a * g + c * e) - (b * h + d * f),
            (a * h + c * f) + (b * g + d * e),
        ))

    __rmul__ = __mul__

    # -- involutions and sector views -------------------------------------

    def conj(self) -> "Bicomplex":
        """Bar conjugation: negates the i- and j-parts.  Multiplicative."""
        a, b, c, d = self
        return _new(Bicomplex, (a, -b, -c, d))

    def plus(self) -> complex:
        """Standard-complex component multiplying J+."""
        x, y, u, v = self
        return complex(x + u, y + v)

    def minus(self) -> complex:
        """Standard-complex component multiplying J-."""
        x, y, u, v = self
        return complex(x - u, y - v)

    # -- predicates / numerics ---------------------------------------------

    def is_zero(self) -> bool:
        return not any(self)  # a number is falsy exactly when it equals 0

    def norm(self) -> float:
        """Euclidean norm of the four components (not the ring modulus)."""
        x, y, u, v = self
        try:
            return math.sqrt(float(x) ** 2 + float(y) ** 2
                             + float(u) ** 2 + float(v) ** 2)
        except OverflowError:  # hypot only where a square overflows, so
            return math.hypot(*map(float, self))  # bits stay put

    def is_close(self, other: "Bicomplex", tol: float = 1e-12) -> bool:
        return (self - other).norm() <= tol

    def to_tuple(self):
        return tuple(self)

    def __repr__(self):
        return f"Bicomplex({self.x!r}, {self.y!r}, {self.u!r}, {self.v!r})"


def _coerce(value):
    if isinstance(value, Bicomplex):
        return value
    if isinstance(value, _SCALARS):
        return _new(Bicomplex, (value, 0, 0, 0))
    if isinstance(value, complex):
        return _new(Bicomplex, (value.real, value.imag, 0.0, 0.0))
    return NotImplemented


ZERO = Bicomplex(0.0, 0.0, 0.0, 0.0)
ONE = Bicomplex(1.0, 0.0, 0.0, 0.0)
I_UNIT = Bicomplex(0.0, 1.0, 0.0, 0.0)
J_UNIT = Bicomplex(0.0, 0.0, 1.0, 0.0)
IJ_UNIT = Bicomplex(0.0, 0.0, 0.0, 1.0)

J_PLUS = Bicomplex(0.5, 0.0, 0.5, 0.0)
J_MINUS = Bicomplex(0.5, 0.0, -0.5, 0.0)


def in_sector(plus: bool, z) -> Bicomplex:
    """(J_PLUS if plus else J_MINUS) * Bicomplex.from_complex(z), bit for bit.

    Bicomplex.__mul__'s float operations with J's zero and half parts
    folded in, so signed zeros and the NaN of inf * 0 come out as the
    product's.  z is a complex or real scalar.
    """
    e, f = (z.real, z.imag) if isinstance(z, complex) else (z, 0.0)
    ze, zf = 0.0 * e + 0.0, 0.0 * f + 0.0
    if plus:
        x, y = (0.5 * e + 0.0) - zf, (0.5 * f + 0.0) + ze
        return _new(Bicomplex, (x, y, x, y))
    return _new(Bicomplex, (0.5 * e - zf, 0.5 * f + ze,
                            (0.0 + -0.5 * e) - zf, (0.0 + -0.5 * f) + ze))


def idempotents_exact():
    """J+ and J- with exact rational components (halves), as Fractions."""
    half = Fraction(1, 2)
    return (Bicomplex(half, 0, half, 0), Bicomplex(half, 0, -half, 0))

