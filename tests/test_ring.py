import functools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import algebra_reference as ref
from hyperfield import cli
from hyperfield import verification as vf
from hyperfield.ring import (Bicomplex, I_UNIT, IJ_UNIT, J_MINUS, J_PLUS,
                             J_UNIT, idempotents_exact, in_sector)


def rand_elem(rng):
    return Bicomplex(rng.uniform(-2, 2), rng.uniform(-2, 2),
                     rng.uniform(-2, 2), rng.uniform(-2, 2))


class TestUnitTable:
    def test_units(self):
        one = Bicomplex.one()
        assert (J_UNIT * J_UNIT).is_close(one)
        assert (I_UNIT * I_UNIT).is_close(-1 * one)
        assert (IJ_UNIT * IJ_UNIT).is_close(-1 * one)
        assert (I_UNIT * J_UNIT).is_close(IJ_UNIT)
        assert (J_UNIT * I_UNIT).is_close(IJ_UNIT)

    def test_additive_identity_and_inverse(self):
        one = Bicomplex.one()
        assert (one + Bicomplex.zero()).is_close(one)
        assert (J_UNIT + (-J_UNIT)).is_zero()
        assert (Bicomplex(1, 1, 0, 0) + Bicomplex(0, 0, 1, 1)).to_tuple() == (1, 1, 1, 1)


class TestIdempotents:
    def test_projector_algebra(self):
        assert (J_PLUS * J_MINUS).is_zero()
        assert (J_PLUS * J_PLUS).is_close(J_PLUS)
        assert (J_MINUS * J_MINUS).is_close(J_MINUS)
        assert (J_PLUS + J_MINUS).is_close(Bicomplex.one())
        assert (J_PLUS - J_MINUS).is_close(J_UNIT)

    def test_powers_stay_idempotent(self):
        p = J_PLUS
        for _ in range(5):
            p = p * J_PLUS
            assert p.is_close(J_PLUS)

    def test_conjugation_swaps(self):
        assert J_PLUS.conj().is_close(J_MINUS)
        assert J_MINUS.conj().is_close(J_PLUS)

    def test_exact_rational_variants(self):
        jp, jm = idempotents_exact()
        assert (jp * jm).is_zero()
        assert jp * jp == jp
        assert jp + jm == Bicomplex(Fraction(1), 0, Fraction(0), 0)


class TestConjugation:
    def test_component_action(self):
        assert Bicomplex(1, 1, 1, 1).conj().to_tuple() == (1, -1, -1, 1)

    def test_involution_and_homomorphism(self):
        rng = random.Random(3)
        for _ in range(200):
            a, b = rand_elem(rng), rand_elem(rng)
            assert a.conj().conj().is_close(a, 1e-15)
            assert (a * b).conj().is_close(a.conj() * b.conj(), 1e-12)


def modulus(a: Bicomplex) -> Bicomplex:
    """The ring modulus a * conj(a), which lies in the 1/ij subring."""
    return a * a.conj()


class TestModulus:
    def test_real_unit(self):
        assert modulus(Bicomplex.one()).is_close(Bicomplex.one())

    def test_zero_divisor_witness(self):
        assert modulus(Bicomplex(1, 1, 1, 1)).is_zero()

    def test_lies_in_real_ij_subring(self):
        rng = random.Random(5)
        for _ in range(100):
            m = modulus(rand_elem(rng))
            assert m.y == 0 and m.u == 0

    def test_phase_invariance(self):
        rng = random.Random(7)
        for _ in range(100):
            a = rand_elem(rng)
            theta, chi = rng.uniform(-3, 3), rng.uniform(-1, 1)
            # e^{i theta} e^{j chi}
            phase = (Bicomplex(math.cos(theta), math.sin(theta))
                     * Bicomplex(math.cosh(chi), 0.0, math.sinh(chi)))
            rotated = modulus(a * phase)
            assert rotated.is_close(modulus(a),
                                    1e-12 * max(1.0, modulus(a).norm()))


class TestNorm:
    def test_component_above_the_square_overflow(self):
        assert Bicomplex(1e200, 0.0, 0.0, 0.0).norm() == 1e200
        assert Bicomplex(3e200, 4e200, 0.0, 0.0).norm() == pytest.approx(
            5e200, rel=1e-15)

    def test_sum_of_squares_below_it(self):
        assert Bicomplex(0.1, -0.2, 0.3, 0.7).norm() == math.sqrt(
            0.1 ** 2 + (-0.2) ** 2 + 0.3 ** 2 + 0.7 ** 2)


class TestRingAxiomsExact:
    def test_rational_axioms(self):
        rng = random.Random(11)
        for _ in range(300):
            a, b, c = (ref.random_rational_element_fraction(rng)
                       for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


def _product_operands(name):
    """Operands of one product in the suite's first block (default seed)."""
    rng = random.Random(7)
    a, b, c = (vf._random_rational_element(rng) for _ in range(3))
    jp, jm = idempotents_exact()
    return {"ab": (a, b), "(ab)c": (a * b, c), "bc": (b, c),
            "a(bc)": (a, b * c), "ba": (b, a), "a(b+c)": (a, b + c),
            "ac": (a, c), "conj(a)conj(b)": (a.conj(), b.conj()),
            "a conj(a)": (a, a.conj()), "jp jp": (jp, jp),
            "jm jm": (jm, jm), "jp jm": (jp, jm)}[name]


class TestPropertySuite:
    def test_defaults_pass(self):
        rep = vf.ring_property_suite()
        assert rep["checks"] == 10_000
        assert rep["failures"] == []

    def test_cli_defect_product(self, monkeypatch):
        seen = []
        defective = functools.partial(vf.ring_property_suite,
                                      mul_fn=ref._defect_mul)

        def recording(**kwargs):
            seen.append(defective(**kwargs))
            return seen[-1]
        monkeypatch.setattr(vf, "ring_property_suite", recording)
        assert cli.main(["ring-check", "--checks", "500"]) == 1
        [rep] = seen
        assert rep["checks"] == 504
        assert rep["failures"] == ["mul_associative", "idempotent_algebra",
                                   "sector_isomorphism"]

    # Each distinct product of one block, and the properties whose
    # comparisons read it, in tally order.  A defect that changes that
    # product alone must fail exactly those properties, so no comparison
    # can go missing when products are shared.  conj_involutive uses no
    # product, so no defect here can reach it.
    @pytest.mark.parametrize("product, properties", [
        ("ab", ["mul_associative", "mul_commutative", "distributive",
                "conj_multiplicative", "sector_isomorphism"]),
        ("(ab)c", ["mul_associative"]),
        ("bc", ["mul_associative"]),
        ("a(bc)", ["mul_associative"]),
        ("ba", ["mul_commutative"]),
        ("a(b+c)", ["distributive"]),
        ("ac", ["distributive"]),
        ("conj(a)conj(b)", ["conj_multiplicative"]),
        ("a conj(a)", ["modulus_in_real_ij_subring"]),
        ("jp jp", ["idempotent_algebra"]),
        ("jm jm", ["idempotent_algebra"]),
        ("jp jm", ["idempotent_algebra"]),
    ])
    def test_defect_in_one_product_fails_its_properties(self, product,
                                                        properties):
        target = _product_operands(product)
        bump = Bicomplex(0, 1, 1, 0)

        def mul_fn(x, y):
            return x * y + bump if (x, y) == target else x * y
        rep = vf.ring_property_suite(8, mul_fn=mul_fn)
        assert rep["checks"] == 8
        assert rep["failures"] == properties


class TestIntegerRoute:
    """The suite's scaled-integer route against the Fraction reference."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 7, 42])
    @pytest.mark.parametrize("mul_fn", [operator.mul, ref._defect_mul],
                             ids=["product", "cli_defect"])
    def test_verdicts_match_fraction_suite(self, seed, mul_fn):
        rep = vf.ring_property_suite(2000, seed=seed, mul_fn=mul_fn)
        want = ref.ring_property_suite_fraction(2000, seed=seed, mul_fn=mul_fn)
        assert (rep["checks"], rep["failures"]) == (want["checks"],
                                                    want["failures"])

    def test_draws_are_ints_2520_times_the_fraction_draws(self):
        for seed in (1, 2, 3, 7, 42):
            rng, rng_ref = random.Random(seed), random.Random(seed)
            for _ in range(300):
                got = vf._random_rational_element(rng).to_tuple()
                want = ref.random_rational_element_fraction(rng_ref).to_tuple()
                assert all(type(c) is int for c in got)
                assert got == tuple(2520 * q for q in want)

    def test_only_the_idempotents_are_fractions(self):
        jp, jm = idempotents_exact()
        assert jp.to_tuple() == (Fraction(1, 2), 0, Fraction(1, 2), 0)
        assert jm.to_tuple() == (Fraction(1, 2), 0, Fraction(-1, 2), 0)
        assert all(type(c) is Fraction for c in (jp.x, jp.u, jm.x, jm.u))
        operands = []

        def mul_fn(x, y):
            operands.extend((x, y))
            return x * y
        vf.ring_property_suite(80, mul_fn=mul_fn)
        # jp jp, jm jm and jp jm, once each
        assert sum(o in (jp, jm) for o in operands) == 6
        for o in operands:
            if o in (jp, jm):
                assert type(o.x) is type(o.u) is Fraction, o
            else:
                assert all(type(c) is int for c in o.to_tuple()), o


class TestIdempotentDecomposition:
    def test_examples(self):
        assert (J_UNIT.plus(), J_UNIT.minus()) == (1 + 0j, -1 + 0j)
        one = Bicomplex.one()
        assert (one.plus(), one.minus()) == (1 + 0j, 1 + 0j)
        a = Bicomplex(1, 1, 1, 1)
        assert (a.plus(), a.minus()) == (2 + 2j, 0j)

    def test_recomposition(self):
        rng = random.Random(13)
        for _ in range(100):
            a = rand_elem(rng)
            p, m = a.plus(), a.minus()
            assert ref.from_sectors(p, m).is_close(a, 1e-14)

    def test_sector_isomorphism(self):
        rng = random.Random(17)
        for _ in range(100):
            a, b = rand_elem(rng), rand_elem(rng)
            pa, ma = a.plus(), a.minus()
            pb, mb = b.plus(), b.minus()
            pp, pm = (a * b).plus(), (a * b).minus()
            assert abs(pp - pa * pb) < 1e-12
            assert abs(pm - ma * mb) < 1e-12


FINITE = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
ELEMENTS = st.builds(Bicomplex, FINITE, FINITE, FINITE, FINITE)
PROPERTY = settings(derandomize=True, database=None, max_examples=100,
                    deadline=None)


class TestFloatSectorIsomorphism:
    """The float ring is C x C through a -> (a.plus(), a.minus())."""

    @PROPERTY
    @given(ELEMENTS, ELEMENTS)
    def test_plus_sector_is_multiplicative(self, a, b):
        want = a.plus() * b.plus()
        assert abs((a * b).plus() - want) <= 1e-13 * (1.0 + a.norm() * b.norm())

    @PROPERTY
    @given(ELEMENTS, ELEMENTS)
    def test_minus_sector_is_multiplicative(self, a, b):
        want = a.minus() * b.minus()
        assert abs((a * b).minus() - want) <= 1e-13 * (1.0 + a.norm() * b.norm())


SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308,
                           math.inf, -math.inf, math.nan])
# ints past the float range make float conversions raise OverflowError
COMPONENT = st.one_of(SPECIAL, st.floats(), st.floats(-4.0, 4.0),
                      st.integers(-10**6, 10**6),
                      st.fractions(max_denominator=50),
                      st.sampled_from([7, 10**400, -10**400, Fraction(1, 3)]))
SCALAR = st.one_of(COMPONENT, st.complex_numbers(),
                   st.builds(complex, SPECIAL, SPECIAL))


def bits(value):
    """Exact, hashable image of a result: float.hex per float part."""
    if isinstance(value, (Bicomplex, ref.BicomplexReference)):
        return tuple(bits(c) for c in value.to_tuple())
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, complex):
        return ("complex", value.real.hex(), value.imag.hex())
    if isinstance(value, Fraction):
        return ("Fraction", value.numerator, value.denominator)
    return (type(value).__name__, value)


def outcome(fn, *args):
    try:
        return bits(fn(*args))
    except Exception as exc:  # the reference's exception type is the result
        return type(exc)


class TestAgainstFrozenDataclass:
    """The tuple ring gives the frozen dataclass's bits or its exception."""

    UNARY = (operator.neg, lambda a: a.conj(), lambda a: a.plus(),
             lambda a: a.minus(), lambda a: a.norm(), lambda a: a.is_zero(),
             hash)
    BINARY = (operator.add, operator.sub, operator.mul)

    @staticmethod
    def pair(comps):
        return Bicomplex(*comps), ref.BicomplexReference(*comps)

    @settings(derandomize=True, database=None, max_examples=300,
              deadline=None)
    @given(st.tuples(*(COMPONENT,) * 4), st.tuples(*(COMPONENT,) * 4),
           SCALAR)
    def test_same_bits(self, left, right, scalar):
        a, a_ref = self.pair(left)
        b, b_ref = self.pair(right)
        for fn in self.UNARY:
            assert outcome(fn, a) == outcome(fn, a_ref), fn
        for fn in self.BINARY:
            assert outcome(fn, a, b) == outcome(fn, a_ref, b_ref), fn
            assert outcome(fn, b, a) == outcome(fn, b_ref, a_ref), fn
            assert outcome(fn, a, scalar) == outcome(fn, a_ref, scalar), fn
            assert outcome(fn, scalar, a) == outcome(fn, scalar, a_ref), fn
        assert (a == b) == (a_ref == b_ref)
        assert (a == Bicomplex(*left)) == (a_ref == ref.BicomplexReference(*left))
        assert (a == scalar) == (a_ref == scalar)


class TestInSector:
    """in_sector(plus, z) has the bits of J+ or J- times the embedded z."""

    @settings(derandomize=True, database=None, max_examples=300,
              deadline=None)
    @given(st.booleans(), st.one_of(
        st.builds(complex, SPECIAL, SPECIAL), SPECIAL, st.complex_numbers(),
        st.floats(), st.integers(-10**6, 10**6),
        st.sampled_from([10**400, -10**400])))
    def test_same_bits_as_the_ring_product(self, plus, z):
        sector = J_PLUS if plus else J_MINUS
        assert outcome(in_sector, plus, z) == outcome(
            lambda: sector * Bicomplex.from_complex(z))


class TestValueSemantics:
    def test_components_are_read_only(self):
        b = Bicomplex(1.0, 2.0, 3.0, 4.0)
        with pytest.raises(AttributeError):
            b.x = 5.0
        assert b.to_tuple() == (1.0, 2.0, 3.0, 4.0)

    def test_equal_components_equal_values_and_hashes(self):
        a = Bicomplex(0.5, Fraction(1, 3), -2, 0.0)
        b = Bicomplex(0.5, Fraction(1, 3), -2, 0.0)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, Bicomplex(0.5, Fraction(1, 3), -2, 1.0)}) == 2

    def test_tuple_of_its_components(self):
        b = Bicomplex(1.0, 2.0, 3.0, 4.0)
        x, y, u, v = b
        assert (x, y, u, v) == b == (1.0, 2.0, 3.0, 4.0)

    @pytest.mark.parametrize("expr, want", [
        (lambda b: np.float64(2.0) * b, (2.0, 4.0, 6.0, 8.0)),
        (lambda b: np.complex128(1j) * b, (-2.0, 1.0, -4.0, 3.0)),
        (lambda b: np.float64(1.0) + b, (2.0, 2.0, 3.0, 4.0)),
    ], ids=["float64_mul", "complex128_mul", "float64_add"])
    def test_numpy_scalars_defer_to_the_ring(self, expr, want):
        # a tuple would otherwise be broadcast as a length-4 array
        got = expr(Bicomplex(1.0, 2.0, 3.0, 4.0))
        assert isinstance(got, Bicomplex)
        assert got.to_tuple() == want
