import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from hyperfield import operators
from hyperfield.errors import UndeterminedByAxioms
from hyperfield.modes import FieldParams
from hyperfield.observables import GeometrySpec, hamiltonian_poly
from hyperfield.operators import (CommutationTable, ModeOp, OperatorPoly,
                                  VacuumRules, commutator, generic_table,
                                  normal_order, vev)
from hyperfield.ring import Bicomplex, J_MINUS, J_PLUS

from algebra_reference import (anticommutator, commutator_with, merged_pair,
                               pair_commutation_check, polys_equal,
                               small_tables)

ONE = Bicomplex.one()


@pytest.fixture
def table():
    return CommutationTable(
        rho=(Bicomplex(0.9, 0.2, 0.1, -0.3), Bicomplex.zero(),
             Bicomplex.zero(), Bicomplex(0.4, -0.5, 0.2, 0.1)),
        delta_k=0.25, N=4)


class TestCommutator:
    def test_cross_pair_diagonal(self, table):
        c = commutator(ModeOp("a1", 2), ModeOp("b1", 2), table)
        assert c.is_close(table.rho[0] * (1.0 / table.delta_k), 1e-14)

    def test_off_diagonal_vanishes(self, table):
        assert commutator(ModeOp("a1", 2), ModeOp("b1", 3), table).is_zero()

    def test_antisymmetry(self, table):
        c1 = commutator(ModeOp("a1", 1), ModeOp("b1", 1), table)
        c2 = commutator(ModeOp("b1", 1), ModeOp("a1", 1), table)
        assert (c1 + c2).is_zero()

    def test_daggered_pair_conjugated(self, table):
        c = commutator(ModeOp("b2", 0, True), ModeOp("a2", 0, True), table)
        assert c.is_close(table.rho[3].conj() * (1.0 / table.delta_k), 1e-14)

    def test_mixed_dagger_vanishes_with_zero_sigma(self, table):
        assert commutator(ModeOp("a1", 1), ModeOp("b2", -1, True), table).is_zero()

    def test_same_family_vanishes(self, table):
        assert commutator(ModeOp("a1", 1), ModeOp("a1", 1, True), table).is_zero()
        assert commutator(ModeOp("b1", 1), ModeOp("b1", 1, True), table).is_zero()
        assert commutator(ModeOp("a1", 1), ModeOp("a2", 1), table).is_zero()

    def test_sigma_support_on_opposite_momenta(self, table):
        ts = CommutationTable(rho=table.rho, sigma=(Bicomplex(0.3),) * 4,
                              delta_k=0.25, N=4)
        c = commutator(ModeOp("a1", 2), ModeOp("b1", -2, True), ts)
        assert c.is_close(Bicomplex(0.3 / 0.25), 1e-14)
        assert commutator(ModeOp("a1", 2), ModeOp("b1", 2, True), ts).is_zero()


class TestCommutationTable:
    @pytest.mark.parametrize("entry", [0.5 - 0.25j,
                                       lambda k, kp: Bicomplex.one()],
                             ids=["complex", "callable"])
    @pytest.mark.parametrize("field", ["rho", "sigma"])
    def test_entry_that_is_not_bicomplex_raises(self, field, entry):
        entries = (Bicomplex.one(), entry, Bicomplex.zero(), Bicomplex.zero())
        with pytest.raises(TypeError):
            CommutationTable(**{field: entries})


class TestNormalOrder:
    def test_off_diagonal_swap_no_central(self, table):
        poly = OperatorPoly({(ModeOp("b1", 3), ModeOp("a1", 2)): ONE})
        no = normal_order(poly, table)
        assert set(no.terms) == {(ModeOp("a1", 2), ModeOp("b1", 3))}

    def test_diagonal_swap_adds_central(self, table):
        poly = OperatorPoly({(ModeOp("b1", 2), ModeOp("a1", 2)): ONE})
        no = normal_order(poly, table)
        word = (ModeOp("a1", 2), ModeOp("b1", 2))
        assert no.terms[word].is_close(Bicomplex.one())
        assert no.terms[()].is_close(-1.0 * table.rho[0] * (1.0 / table.delta_k), 1e-14)

    def test_fixed_point(self, table):
        word = (ModeOp("a2", 1, True), ModeOp("a1", 0), ModeOp("b1", 2))
        poly = OperatorPoly({word: ONE})
        assert set(normal_order(poly, table).terms) == {word}

    def test_daggers_move_left(self, table):
        poly = OperatorPoly({(ModeOp("a1", 0), ModeOp("b2", 1, True)): ONE})
        no = normal_order(poly, table)
        assert list(no.terms) == [(ModeOp("b2", 1, True), ModeOp("a1", 0))]

    def test_equality_of_algebra_elements(self, table):
        p = OperatorPoly({(ModeOp("a1", 2), ModeOp("b1", 2)): ONE})
        q = (OperatorPoly({(ModeOp("b1", 2), ModeOp("a1", 2)): ONE})
             + OperatorPoly({(): commutator(ModeOp("a1", 2), ModeOp("b1", 2),
                                            table)}))
        assert polys_equal(p, q, table, 1e-14)


class TestAnticommutator:
    def test_definition(self, table):
        ac = anticommutator(ModeOp("a1", 1), ModeOp("b1", 1))
        assert set(ac.terms) == {(ModeOp("a1", 1), ModeOp("b1", 1)),
                                 (ModeOp("b1", 1), ModeOp("a1", 1))}

    def test_normal_ordered_form(self, table):
        ac = anticommutator(ModeOp("a1", 1), ModeOp("b1", 1))
        no = normal_order(ac, table)
        word = (ModeOp("a1", 1), ModeOp("b1", 1))
        assert no.terms[word].is_close(Bicomplex(2.0))
        assert no.terms[()].is_close(-1.0 * table.rho[0] * (1.0 / table.delta_k), 1e-14)
        # same element as 2 b1 a1 + rho1/dk (the swapped presentation)
        swapped = (ModeOp("b1", 1), ModeOp("a1", 1))
        alt = (OperatorPoly({swapped: Bicomplex(2.0)})
               + OperatorPoly({(): table.rho[0] * (1.0 / table.delta_k)}))
        assert polys_equal(no, alt, table, 1e-14)

    def test_same_operator(self, table):
        ac = anticommutator(ModeOp("a1", 1), ModeOp("a1", 1))
        assert ac.terms[(ModeOp("a1", 1), ModeOp("a1", 1))].is_close(Bicomplex(2.0))
        pp = merged_pair(("a1", "a1"), 1, 1, Bicomplex.one())
        assert pp.terms == {(ModeOp("a1", 1), ModeOp("a1", 1)): Bicomplex(2.0)}


class TestAdjoint:
    def test_word_reversal_and_conjugation(self, table):
        c = Bicomplex(0.3, 0.7, -0.2, 0.1)
        poly = OperatorPoly({(ModeOp("a1", 1), ModeOp("b1", 2)): c})
        adj = poly.adjoint()
        word = (ModeOp("b1", 2, True), ModeOp("a1", 1, True))
        assert adj.terms[word].is_close(c.conj())

    def test_involution(self, table):
        poly = merged_pair(("a1", "b1"), 1, 2, J_PLUS) + merged_pair(
            ("b2", "a2"), 0, 0, J_MINUS, dagger=True)
        assert polys_equal(poly.adjoint().adjoint(), poly, table, 1e-14)


FINITE = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
COEFFS = st.builds(Bicomplex, FINITE, FINITE, FINITE, FINITE).filter(
    lambda c: not c.is_zero())
LADDERS = st.builds(ModeOp, st.sampled_from(("a1", "b1", "a2", "b2")),
                    st.integers(-4, 4), st.booleans())
LINEAR_POLYS = st.dictionaries(LADDERS, COEFFS, max_size=8).map(
    lambda terms: OperatorPoly({(op,): c for op, c in terms.items()}))
PROPERTY = settings(derandomize=True, database=None, max_examples=100,
                    deadline=None)


class TestAdjointProperties:
    """The adjoint on polys linear in the ladder operators."""

    @PROPERTY
    @given(LINEAR_POLYS)
    def test_involution(self, poly):
        assert poly.adjoint().adjoint().terms == poly.terms

    @PROPERTY
    @given(LINEAR_POLYS, LINEAR_POLYS, COEFFS)
    def test_antilinear(self, p, q, c):
        lhs = (p + q.scale(c)).adjoint()
        rhs = p.adjoint() + q.adjoint().scale(c.conj())
        assert set(lhs.terms) == set(rhs.terms)
        for word, coeff in lhs.terms.items():
            assert coeff.is_close(rhs.terms[word], 1e-12)


class TestJacobi:
    def test_triples(self, table):
        rng = random.Random(31)
        species = ("a1", "b1", "a2", "b2")
        for _ in range(60):
            ops = [OperatorPoly({(ModeOp(rng.choice(species),
                                         rng.randint(-2, 2),
                                         rng.random() < 0.5),): ONE})
                   for _ in range(3)]
            x, y, z = ops
            jac = (commutator_with(x, commutator_with(y, z))
                   + commutator_with(z, commutator_with(x, y))
                   + commutator_with(y, commutator_with(z, x)))
            assert normal_order(jac, table).max_norm() <= 1e-12


WORDS = st.lists(LADDERS, min_size=1, max_size=2).map(tuple)
SMALL_POLYS = st.dictionaries(WORDS, COEFFS, min_size=1, max_size=3).map(
    OperatorPoly)


class TestJacobiProperty:
    """[x, [y, z]] + cyclic vanishes when every bracket is normal-ordered."""

    @PROPERTY
    @given(small_tables(), SMALL_POLYS, SMALL_POLYS, SMALL_POLYS)
    def test_cyclic_sum_vanishes(self, table, x, y, z):
        def bracket(p, q):
            return normal_order(commutator_with(p, q), table)

        jac = (bracket(x, bracket(y, z)) + bracket(z, bracket(x, y))
               + bracket(y, bracket(z, x)))
        # each term is three coefficients times at most two table values,
        # each at most 4 / delta_k in norm; 8 allows for the ring norm not
        # being submultiplicative
        size = math.prod(sum(c.norm() for c in p.terms.values())
                         for p in (x, y, z))
        scale = size * (1.0 + 8.0 / table.delta_k) ** 2
        assert jac.max_norm() <= 1e-12 * scale


class TestVacuumRules:
    def test_constrained_validation(self):
        with pytest.raises(ValueError):
            VacuumRules(Bicomplex.one(), Bicomplex.zero(), constrained=True)
        rules = VacuumRules.constrained_rules(0.5 + 0.5j, 1.0)
        assert rules.lambda1.plus() == 0
        assert rules.lambda2.minus() == 0

    def test_generic(self):
        rules = VacuumRules.generic(1.0, 2.0)
        assert not rules.constrained


class TestVev:
    def test_identity_normalization(self, table):
        rules = VacuumRules.generic(1.0, 0.5)
        assert vev(OperatorPoly({(): ONE}), rules, table).is_close(ONE)

    def test_pair_eigenvalue(self, table):
        lam1 = Bicomplex(0.3, 0.4, 0.1, -0.2)
        rules = VacuumRules.generic(lam1, Bicomplex.zero())
        poly = merged_pair(("a1", "b1"), 1, 3, J_PLUS)
        assert vev(poly, rules, table).is_close(J_PLUS * lam1, 1e-14)

    def test_mirror_pair_eigenvalue(self, table):
        lam2 = Bicomplex(-0.2, 0.6, 0.3, 0.1)
        rules = VacuumRules.generic(Bicomplex.zero(), lam2)
        poly = merged_pair(("b2", "a2"), 2, 2, J_MINUS)
        assert vev(poly, rules, table).is_close(J_MINUS * lam2, 1e-14)

    def test_constrained_pair_plus_cc_vanishes(self, table):
        rules = VacuumRules.constrained_rules(0.7 - 0.1j, 0.2 + 0.9j)
        poly = merged_pair(("a1", "b1"), 1, 2, J_PLUS)
        poly = poly + poly.adjoint()
        assert vev(poly, rules, table).is_zero()

    def test_coefficient_above_the_square_overflow(self, table):
        rules = VacuumRules.generic(Bicomplex(0.3, 0.4, 0.1, -0.2),
                                    Bicomplex.zero())
        word = (ModeOp("a1", 1), ModeOp("b1", 1))
        unit = vev(OperatorPoly({word: J_PLUS}), rules, table)
        big = vev(OperatorPoly({word: J_PLUS * Bicomplex(1e200)}), rules, table)
        assert math.isfinite(big.norm())
        assert big.is_close(unit * Bicomplex(1e200), 1e-15 * big.norm())

    def test_outside_fragment_raises(self, table):
        rules = VacuumRules.generic(1.0, 1.0)
        with pytest.raises(UndeterminedByAxioms):
            vev(OperatorPoly({(ModeOp("a1", 1),): ONE}), rules, table)
        with pytest.raises(UndeterminedByAxioms):
            # unprojected pair: both sectors active, minus sector undetermined
            vev(anticommutator(ModeOp("a1", 1), ModeOp("b1", 1)), rules, table)
        with pytest.raises(UndeterminedByAxioms):
            # unbalanced word inside the right family
            vev(OperatorPoly({(ModeOp("a1", 1), ModeOp("a1", 2)): J_PLUS}),
                rules, table)

    def test_normal_order_preserves_vev(self, table):
        rng = random.Random(37)
        rules = VacuumRules.generic(Bicomplex(0.3, 0.4, 0.1, -0.2),
                                    Bicomplex(-0.1, 0.8, 0.3, 0.05))
        for _ in range(40):
            poly = OperatorPoly({(): Bicomplex(rng.uniform(-1, 1))})
            for _ in range(rng.randint(1, 3)):
                sector = rng.choice((J_PLUS, J_MINUS))
                dag = rng.random() < 0.5
                if sector is J_PLUS:
                    pair = ("b2", "a2") if dag else ("a1", "b1")
                else:
                    pair = ("a1", "b1") if dag else ("b2", "a2")
                poly = poly * merged_pair(pair, rng.randint(-2, 2),
                                          rng.randint(-2, 2), sector,
                                          dagger=dag)
            v1 = vev(poly, rules, table)
            v2 = vev(normal_order(poly, table), rules, table)
            assert v1.is_close(v2, 1e-10 * max(1.0, v1.norm()))


class TestTracedNames:
    def test_vev_reaches_normal_order_and_commutator_as_module_attributes(
            self, monkeypatch):
        # perfbench/tracer.py counts both by replacing these attributes
        calls = {"normal_order": 0, "commutator": 0, "commutator_outside": 0}
        depth = []
        normal_order_fn, commutator_fn = (operators.normal_order,
                                          operators.commutator)

        def counting_normal_order(*args):
            calls["normal_order"] += 1
            depth.append(1)
            try:
                return normal_order_fn(*args)
            finally:
                depth.pop()

        def counting_commutator(*args):
            calls["commutator"] += 1
            calls["commutator_outside"] += not depth
            return commutator_fn(*args)

        monkeypatch.setattr(operators, "normal_order", counting_normal_order)
        monkeypatch.setattr(operators, "commutator", counting_commutator)
        table = CommutationTable(delta_k=0.1, N=2, stagger=True)   # 4 modes
        h = hamiltonian_poly(FieldParams(m=1.0, gamma=0.5),
                             GeometrySpec("finite_interval", -1.0, 1.0), table)
        operators.vev(h, VacuumRules.generic(1.0, 0.5), table)
        assert calls["normal_order"] >= 1
        assert calls["commutator"] > calls["commutator_outside"] >= 1


class TestPatternCalls:
    """The table is read once per two-op pattern per call: the calls do
    not grow with the lattice on the staggered finite-interval H."""

    @staticmethod
    def calls_at_16_and_32_modes(monkeypatch, name, run):
        counted = []
        fn = getattr(operators, name)
        monkeypatch.setattr(operators, name,
                            lambda *args: counted.append(args) or fn(*args))
        calls = []
        for n in (8, 16):
            table = CommutationTable(delta_k=0.1, N=n, stagger=True)
            h = hamiltonian_poly(FieldParams(m=1.1, gamma=0.6),
                                 GeometrySpec("finite_interval", -1.2, 1.3),
                                 table)
            counted.clear()
            run(h, table)
            calls.append(len(counted))
        return calls

    def test_commutator_calls_in_normal_order(self, monkeypatch):
        calls = self.calls_at_16_and_32_modes(monkeypatch, "commutator",
                                              normal_order)
        assert calls[0] == calls[1] <= 64

    def test_sector_vev_calls_in_vev(self, monkeypatch):
        rules = VacuumRules.generic(Bicomplex(0.3, 0.4, 0.1, -0.2),
                                    Bicomplex(-0.1, 0.8, 0.3, 0.05))
        calls = self.calls_at_16_and_32_modes(
            monkeypatch, "_sector_vev", lambda h, table: vev(h, rules, table))
        assert calls[0] == calls[1] <= 64


class TestPairCommutationCheck:
    def test_sigma_free_table_passes(self, table):
        assert pair_commutation_check(table)

    def test_sigma_injection_fails(self, table):
        ts = CommutationTable(rho=table.rho,
                              sigma=(Bicomplex(0.2), Bicomplex.zero(),
                                     Bicomplex.zero(), Bicomplex.zero()),
                              delta_k=0.25, N=4)
        assert not pair_commutation_check(ts)

    def test_abelian_table_passes(self):
        t0 = CommutationTable(rho=(Bicomplex.zero(),) * 4, delta_k=0.25, N=4)
        assert pair_commutation_check(t0)


class TestLatticeRefinement:
    def test_riemann_convergence(self):
        # dk^2 sum f(k) g(k') [a1(k), b1(k')] -> dk sum f g rho1 -> integral
        def value(dk, n):
            t = generic_table(delta_k=dk, N=n)
            total = 0.0
            for i in t.momentum_indices():
                k = t.momentum(i)
                c = commutator(ModeOp("a1", i), ModeOp("b1", i), t)
                total += dk * dk * math.exp(-k * k) * (1 + k * k) * c.x
            return total
        coarse = value(0.5, 20)   # span 10
        fine = value(0.25, 40)
        assert abs(coarse - fine) / abs(fine) < 0.01


class TestMirrorIndex:
    @pytest.mark.parametrize("stagger", [False, True],
                             ids=["unstaggered", "staggered"])
    @pytest.mark.parametrize("N", [1, 4, 16])
    def test_mirror_carries_exactly_the_opposite_momentum(self, N, stagger):
        t = CommutationTable(delta_k=0.1, N=N, stagger=stagger)
        indices = t.momentum_indices()
        for i in indices:
            j = t.mirror_index(i)
            assert j in indices
            assert t.momentum(j) == -t.momentum(i)
