"""The production operator routes give the reference routes' exact bits.

Every term of merge_pair, hamiltonian_poly, charge_poly and normal_order
is compared with tests/algebra_reference.py by float.hex of each
component, in insertion order, and so is every vev component, every
commutator of two ladder operators, every Hamiltonian weight, and every
term and value of the lattice field-commutator contraction.  Where a
reference route raises, the production route raises the same error:
UndeterminedByAxioms outside the vacuum fragment, DomainError where a
normal-form coefficient has overflowed.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

import hyperfield.commutators as fc
from hyperfield.errors import DomainError, UndeterminedByAxioms
from hyperfield.modes import FieldParams
from hyperfield.observables import (GeometrySpec, charge_poly,
                                    hamiltonian_poly, hamiltonian_terms)
from hyperfield.operators import (CommutationTable, ModeOp, OperatorPoly,
                                  VacuumRules, commutator, normal_order,
                                  vev)
from hyperfield.ring import Bicomplex, J_MINUS, J_PLUS

import algebra_reference as ref

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf,
           math.nan)
COMPONENT = st.one_of(st.sampled_from(SPECIAL), st.floats(-4.0, 4.0))
FINITE = st.one_of(st.sampled_from(SPECIAL[:4]), st.floats(-4.0, 4.0))
COEFF = st.builds(Bicomplex, *(COMPONENT,) * 4)
RING = st.builds(Bicomplex, *(st.floats(-2.0, 2.0),) * 4)
COMPLEX = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                             allow_infinity=False)
# table entries: ring constants, some embedded from Python complex numbers
ENTRY = st.one_of(st.just(Bicomplex.zero()), RING,
                  COMPLEX.map(Bicomplex.from_complex))
SPECIES = ("a1", "b1", "a2", "b2")
LADDERS = st.builds(ModeOp, st.sampled_from(SPECIES), st.integers(-3, 3),
                    st.booleans())
# per sector: the undaggered annihilation family and the daggered mirror one
FRAGMENT = {True: (("a1", "b1", False), ("a2", "b2", True)),
            False: (("a2", "b2", False), ("a1", "b1", True))}
PROPERTY = settings(derandomize=True, database=None, max_examples=150,
                    deadline=None)


@st.composite
def tables(draw) -> CommutationTable:
    sigma = draw(st.one_of(st.just((Bicomplex.zero(),) * 4),
                           st.tuples(*(ENTRY,) * 4)))
    return CommutationTable(rho=draw(st.tuples(*(ENTRY,) * 4)), sigma=sigma,
                            delta_k=draw(st.floats(0.1, 0.5)),
                            N=draw(st.integers(1, 3)),
                            stagger=draw(st.booleans()))


@st.composite
def fragment_terms(draw) -> tuple:
    """A word of 1 or 2 cross pairs, shuffled, that the vev can evaluate
    in one sector, with a coefficient in that sector."""
    plus = draw(st.booleans())
    ops = []
    for _ in range(draw(st.integers(1, 2))):
        a, b, dagger = draw(st.sampled_from(FRAGMENT[plus]))
        ops += [ModeOp(a, draw(st.integers(0, 1)), dagger),
                ModeOp(b, draw(st.integers(0, 1)), dagger)]
    coeff = draw(st.builds(Bicomplex, *(FINITE,) * 4))
    return (tuple(draw(st.permutations(ops))),
            (J_PLUS if plus else J_MINUS) * coeff)


WORDS = st.lists(LADDERS, min_size=1, max_size=4).map(tuple)
# coefficients in one sector, in both, or special-valued in all components
POLY_COEFF = st.one_of(COEFF, st.builds(lambda j, c: j * c,
                                        st.sampled_from((J_PLUS, J_MINUS)),
                                        COEFF))
POLYS = st.one_of(
    st.dictionaries(WORDS, POLY_COEFF, min_size=1, max_size=4),
    st.lists(fragment_terms(), min_size=1, max_size=4).map(dict)).map(
        OperatorPoly)
RULES = st.one_of(
    st.builds(VacuumRules.constrained_rules, COMPLEX, COMPLEX),
    st.builds(VacuumRules.generic, RING, RING))


def bits(value) -> tuple:
    return tuple(float(c).hex() for c in value.to_tuple())


def term_bits(poly: OperatorPoly) -> list:
    return [(word, bits(coeff)) for word, coeff in poly.terms.items()]


def vev_outcome(fn, poly, rules, table):
    """The bits of a vev, or the type of the error it raised."""
    try:
        return bits(fn(poly, rules, table))
    except (DomainError, UndeterminedByAxioms) as exc:
        return type(exc)


class TestRoutesMatchTheReference:
    @PROPERTY
    @given(st.sampled_from((("a1", "b1"), ("b2", "a2"), ("a1", "a1"))),
           st.integers(-2, 2), st.integers(-2, 2),
           st.one_of(COEFF, COMPLEX, st.floats(allow_nan=True)),
           st.booleans())
    def test_merge_pair(self, pair, k, kp, coeff, dagger):
        # ("a1", "a1") at k == kp is one op given twice: a single word
        assert (term_bits(ref.merged_pair(pair, k, kp, coeff, dagger))
                == term_bits(ref.pair_poly_reference(pair, k, kp, coeff,
                                                     dagger)))

    @PROPERTY
    @given(tables(), POLYS, RULES)
    @example(  # a contraction of the partner with an op it hops over
        CommutationTable(rho=(Bicomplex(0.9, 0.2, 0.1, -0.3),) * 4,
                         delta_k=0.25, N=2),
        OperatorPoly({(ModeOp("a1", 0), ModeOp("a1", 0), ModeOp("b1", 0),
                       ModeOp("b1", 0)): J_PLUS}),
        VacuumRules.generic(Bicomplex(0.3, 0.4, 0.1, -0.2),
                            Bicomplex(-0.1, 0.8, 0.3, 0.05)))
    def test_normal_order_and_vev(self, table, poly, rules):
        assert (term_bits(normal_order(poly, table))
                == term_bits(ref.normal_order_reference(poly, table)))
        assert (vev_outcome(vev, poly, rules, table)
                == vev_outcome(ref.vev_reference, poly, rules, table))

    @PROPERTY
    @given(st.floats(0.2, 2.0), st.floats(0.0, 1.9), st.booleans(),
           st.sampled_from(((-1.0, 1.0), (-2.5, 0.3), (-1e300, 1e300))),
           tables(), st.floats(0.0, 3.0), RULES)
    def test_hamiltonian_and_charge(self, m, g, finite, interval, table, t,
                                    rules):
        params = FieldParams(m=m, gamma=g * m)
        geom = (GeometrySpec("finite_interval", *interval) if finite
                else GeometrySpec("infinite_line"))
        h = hamiltonian_poly(params, geom, table, t)
        assert term_bits(h) == term_bits(
            ref.hamiltonian_poly_reference(params, geom, table, t))
        q = charge_poly(params, table)
        assert term_bits(q) == term_bits(ref.charge_poly_reference(params,
                                                                   table))
        for poly in (h, q):
            assert (vev_outcome(vev, poly, rules, table)
                    == vev_outcome(ref.vev_reference, poly, rules, table))

    def test_vev_of_a_hamiltonian_is_evaluated(self):
        # the bit comparison above also covers vevs that return a value
        table = CommutationTable(delta_k=0.1, N=4, stagger=True)
        h = hamiltonian_poly(FieldParams(m=1.0, gamma=0.5),
                             GeometrySpec("finite_interval", -1.0, 1.0), table)
        rules = VacuumRules.generic(Bicomplex(0.3, 0.4, 0.1, -0.2),
                                    Bicomplex(-0.1, 0.8, 0.3, 0.05))
        got = vev_outcome(vev, h, rules, table)
        assert isinstance(got, tuple)
        assert got == vev_outcome(ref.vev_reference, h, rules, table)


class TestRoutesMatchTheReferenceAtWorkloadSize:
    """The vacuum benchmark's 32-mode staggered finite interval, where
    each two-op pattern recurs hundreds of times in one call."""

    def test_hamiltonian_normal_order_and_vev(self):
        table = CommutationTable(delta_k=0.1, N=16, stagger=True)
        params = FieldParams(m=1.1, gamma=0.6)
        geom = GeometrySpec("finite_interval", -1.2, 1.3)
        h = hamiltonian_poly(params, geom, table, 0.1)
        assert len(h.terms) == 8192
        assert term_bits(h) == term_bits(
            ref.hamiltonian_poly_reference(params, geom, table, 0.1))
        assert (term_bits(normal_order(h, table))
                == term_bits(ref.normal_order_reference(h, table)))
        for rules in (VacuumRules.constrained_rules(0.8 - 0.3j, 0.2 + 1.1j),
                      VacuumRules.generic(Bicomplex(0.3, 0.4, 0.1, -0.2),
                                          Bicomplex(-0.1, 0.8, 0.3, 0.05))):
            got = vev_outcome(vev, h, rules, table)
            assert isinstance(got, tuple)
            assert got == vev_outcome(ref.vev_reference, h, rules, table)


# exact zeros make real phases at x = t = 0, where signed zeros show
POSITION = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-2.0, 2.0))


class TestLatticeContractionMatchesTheReference:
    """Patterns decided once give the every-pair contraction's bits."""

    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("which", ["omega_omega", "pi_pi", "omega_pi"])
    @PROPERTY
    @given(tables(), st.floats(0.6, 2.0), st.floats(0.0, 1.0), POSITION,
           POSITION, st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    @example(  # unstaggered, so index 0 is its own mirror; complex rho, sigma
        CommutationTable(rho=(Bicomplex.from_complex(0.9 + 0.2j),
                              Bicomplex.zero(), Bicomplex(0.1, -0.3, 0.4, 0.2),
                              Bicomplex.from_complex(-0.4 + 0.7j)),
                         sigma=(Bicomplex(0.3, 0.1, -0.2, 0.05),
                                Bicomplex.zero(),
                                Bicomplex.from_complex(-0.2j),
                                Bicomplex(-0.7, 0.0, 0.3, 0.1)),
                         delta_k=0.3, N=2),
        1.3, 0.7, 0.0, -0.8, 0.0)
    def test_terms_and_value(self, which, weighted, table, m, g, x, xp, t):
        args = (which, x, xp, t, FieldParams(m=m, gamma=g * m), table,
                weighted)
        operands = (fc.field_operator_poly(x, t, *args[4:]),
                    fc.momentum_operator_poly(xp, t, *args[4:]))
        terms = [bits(c) for c in fc._contraction_terms(*args)]
        value = bits(fc.lattice_commutator(*args))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fc, "_ladder_poly", ref.ladder_poly_reference)
            assert [term_bits(p) for p in operands] == [
                term_bits(fc.field_operator_poly(x, t, *args[4:])),
                term_bits(fc.momentum_operator_poly(xp, t, *args[4:]))]
            assert terms == [bits(c) for c in
                             ref.contraction_terms_reference(*args)]
            assert value == bits(sum(ref.contraction_terms_reference(*args),
                                     Bicomplex.zero()))


RHO = (Bicomplex(0.9, 0.2, 0.1, -0.3), Bicomplex(-0.4, 0.3, 0.7, 0.05),
       Bicomplex.zero(), Bicomplex(0.4, -0.5, 0.2, 0.1))
SIGMA = (Bicomplex(0.3, 0.1, -0.2, 0.05), Bicomplex.zero(),
         Bicomplex(0.0, -0.2, 0.1, 0.4), Bicomplex(-0.7, 0.0, 0.3, 0.1))


class TestIndexRulesMatchTheMomentumRules:
    """Support decided on lattice indices gives the momentum rules' bits."""

    @pytest.mark.parametrize("sigma", [(Bicomplex.zero(),) * 4, SIGMA],
                             ids=["zero_sigma", "sigma"])
    @pytest.mark.parametrize("stagger", [False, True],
                             ids=["unstaggered", "staggered"])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_commutator_of_every_ordered_pair(self, N, stagger, sigma):
        table = CommutationTable(rho=RHO, sigma=sigma, delta_k=0.3, N=N,
                                 stagger=stagger)
        ops = [ModeOp(s, i, d) for s in SPECIES
               for i in table.momentum_indices() for d in (False, True)]
        pairs = [(o1, o2) for o1 in ops for o2 in ops]
        want = [ref.commutator_reference(o1, o2, table) for o1, o2 in pairs]
        assert ([bits(commutator(o1, o2, table)) for o1, o2 in pairs]
                == [bits(c) for c in want])
        # per site: 3 nonzero entries x 2 orders x 2 dagger combinations
        # for rho, and as many for sigma when it is on
        supported = sum(not c.is_zero() for c in want)
        assert supported == len(table.momentum_indices()) * (
            24 if sigma is SIGMA else 12)

    @pytest.mark.parametrize("t", [0.0, 0.7, 3.0])
    @pytest.mark.parametrize("interval", [(-1.0, 1.0), (-2.5, 0.3),
                                          (-1e300, 1e300)])
    @pytest.mark.parametrize("stagger", [False, True],
                             ids=["unstaggered", "staggered"])
    def test_hamiltonian_terms(self, stagger, interval, t):
        table = CommutationTable(delta_k=0.3, N=3, stagger=stagger)
        params = FieldParams(m=1.1, gamma=0.6)
        for geom in (GeometrySpec("finite_interval", *interval),
                     GeometrySpec("infinite_line")):
            got = [(i, j, w.real.hex(), w.imag.hex())
                   for i, j, w in hamiltonian_terms(params, geom, table, t)]
            want = [(i, j, w.real.hex(), w.imag.hex()) for i, j, w
                    in ref.hamiltonian_terms_reference(params, geom, table, t)]
            assert got == want
            assert got
