"""Reference routes of the operator algebra that only the tests use.

Equality of algebra elements through normal forms, the commutator of two
polynomials, a polynomial's scalar part, and the property that every
annihilation operator commutes with every creator.  Also the ring-object
routes of the state expansion and the inner product, which the package
replaced by closed forms, and the ring property suite in Fraction
arithmetic, which the package runs on integers.  Last, the ring element
built from its two idempotent sectors and the ring exponential through
them, the oracle for ring.exp_bicomplex.  The package computes none of
these in production; the tests compare its results against them.
"""

import cmath
import math
import operator
import random
from fractions import Fraction
from itertools import combinations_with_replacement

from hypothesis import strategies as st

from hyperfield.operators import (CommutationTable, ModeOp, OperatorPoly,
                                  commutator, normal_order)
from hyperfield.ring import Bicomplex, J_MINUS, J_PLUS, idempotents_exact
from hyperfield.states import TAG_MIRROR, TAG_SYSTEM

SPECIES = ("a1", "b1", "a2", "b2")


RING = st.builds(Bicomplex, *(st.floats(-2.0, 2.0),) * 4)


@st.composite
def small_tables(draw) -> CommutationTable:
    """Lattices of 2 to 9 modes with random rho and, half the time, sigma."""
    zero = Bicomplex.zero()
    rho = tuple(draw(st.one_of(st.just(zero), RING)) for _ in range(4))
    sigma = draw(st.one_of(st.just((zero,) * 4), st.tuples(*(RING,) * 4)))
    return CommutationTable(rho=rho, sigma=sigma,
                            delta_k=draw(st.floats(0.1, 0.5)),
                            N=draw(st.integers(1, 4)), stagger=draw(st.booleans()))


def commutator_with(p: OperatorPoly, q: OperatorPoly) -> OperatorPoly:
    """[p, q] = p q - q p, unordered."""
    return p * q - q * p


def scalar_part(poly: OperatorPoly) -> Bicomplex:
    """Coefficient of the identity word."""
    return poly.terms.get((), Bicomplex.zero())


def polys_equal(p: OperatorPoly, q: OperatorPoly, table: CommutationTable,
                tol: float = 0.0) -> bool:
    """Equality as algebra elements (compares normal forms)."""
    return (normal_order(p, table) - normal_order(q, table)).is_zero(tol)


def pair_commutation_check(table: CommutationTable) -> bool:
    """True iff every annihilation operator commutes with every creator.

    This is the property that lets the evolution exponent factor into
    commuting creation and annihilation parts; it fails whenever a sigma
    coefficient is switched on.
    """
    indices = table.momentum_indices()
    for s_ann in SPECIES:
        for s_cre in SPECIES:
            for i in indices:
                for j in indices:
                    c = commutator(ModeOp(s_ann, i, False),
                                   ModeOp(s_cre, j, True), table)
                    if not c.is_zero():
                        return False
    return True


def expand_exponential_ring(pairs: dict, order: int) -> dict:
    """Amplitudes of the truncated exponential as ring products.

    Each amplitude is sector * Bicomplex.from_complex(scalar / mult), in
    the insertion order of states._expand_exponential.
    """
    amps = {(): Bicomplex.one()}
    for tag, sector in ((TAG_MIRROR, J_PLUS), (TAG_SYSTEM, J_MINUS)):
        labels = {(tag, i, j, flag): z
                  for (i, j), z in pairs.items() for flag in (0, 1)}
        for n in range(1, order + 1):
            for combo in combinations_with_replacement(sorted(labels), n):
                scalar = complex(1.0)
                for name in combo:
                    scalar *= labels[name]
                mult = math.prod(math.factorial(combo.count(name))
                                 for name in set(combo))
                amp = sector * Bicomplex.from_complex(scalar / mult)
                if not amp.is_zero():
                    amps[combo] = amp
    return amps


def inner_ring(left: dict, right: dict) -> Bicomplex:
    """sum_K conj(left_K) right_K, summed as Bicomplex objects."""
    total = Bicomplex.zero()
    for key, amp in left.items():
        if key in right:
            total = total + amp.conj() * right[key]
    return total


def random_rational_element_fraction(rng: random.Random) -> Bicomplex:
    """Four Fractions n/d, n in [-9, 9] drawn before d in [1, 9]."""
    def q() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Bicomplex(q(), q(), q(), q())


def ring_property_suite_fraction(n_checks: int = 10_000, seed: int = 7,
                                 mul_fn=operator.mul) -> dict:
    """verification.ring_property_suite on unscaled Fraction draws.

    Returns {"checks": int, "failures": [names]}, tallied in the same
    order over the same seeded draws.
    """
    def sectors(a: Bicomplex):
        return (a.x + a.u, a.y + a.v, a.x - a.u, a.y - a.v)

    rng = random.Random(seed)
    jp, jm = idempotents_exact()
    failures: list[str] = []
    checks = 0
    idempotents_ok = (mul_fn(jp, jp) == jp and mul_fn(jm, jm) == jm
                      and mul_fn(jp, jm).is_zero()
                      and (jp + jm) == Bicomplex(1, 0, 0, 0))

    def tally(name: str, ok: bool):
        nonlocal checks
        checks += 1
        if not ok and name not in failures:
            failures.append(name)

    while checks < n_checks:
        a = random_rational_element_fraction(rng)
        b = random_rational_element_fraction(rng)
        c = random_rational_element_fraction(rng)
        ab, a_conj = mul_fn(a, b), a.conj()
        tally("mul_associative", mul_fn(ab, c) == mul_fn(a, mul_fn(b, c)))
        tally("mul_commutative", ab == mul_fn(b, a))
        tally("distributive", mul_fn(a, b + c) == ab + mul_fn(a, c))
        tally("conj_multiplicative", ab.conj() == mul_fn(a_conj, b.conj()))
        tally("conj_involutive", a_conj.conj() == a)
        m = mul_fn(a, a_conj)
        tally("modulus_in_real_ij_subring", m.y == 0 and m.u == 0)
        tally("idempotent_algebra", idempotents_ok)
        pr, pi, mr, mi = sectors(ab)
        ar, ai, amr, ami = sectors(a)
        br, bi, bmr, bmi = sectors(b)
        tally("sector_isomorphism",
              pr == ar * br - ai * bi and pi == ar * bi + ai * br
              and mr == amr * bmr - ami * bmi and mi == amr * bmi + ami * bmr)
    return {"checks": checks, "failures": failures}


def from_sectors(plus, minus) -> Bicomplex:
    """The element J+ * plus + J- * minus, from two complex sectors."""
    plus = complex(plus)
    minus = complex(minus)
    return Bicomplex(
        (plus.real + minus.real) / 2.0,
        (plus.imag + minus.imag) / 2.0,
        (plus.real - minus.real) / 2.0,
        (plus.imag - minus.imag) / 2.0,
    )


def exp_ring(a: Bicomplex) -> Bicomplex:
    """Exponential of a general ring element via the idempotent split."""
    return from_sectors(cmath.exp(a.plus()), cmath.exp(a.minus()))
