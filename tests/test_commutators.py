import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperfield.commutators import (KERNELS, QuadratureSpec,
                                    _contraction_terms, bessel_k,
                                    commutator_omega_pi_closed,
                                    commutator_omega_pi_quadrature,
                                    delta_commutator, difference_bracket,
                                    field_operator_poly, figure_data,
                                    lattice_commutator, lattice_delta_profile,
                                    momentum_operator_poly, sum_bracket,
                                    weighted_commutators, weighted_quadrature)
from hyperfield.errors import DomainError, NonConvergent
from hyperfield.modes import FieldParams, omega
from hyperfield.operators import (CommutationTable, ModeOp, OperatorPoly,
                                  commutator, generic_table, normal_order)
from hyperfield.ring import Bicomplex, J_MINUS, J_PLUS

from algebra_reference import RING, commutator_with, scalar_part, small_tables


@pytest.fixture
def rho_table():
    return CommutationTable(
        rho=(Bicomplex(0.9, 0.2, 0.1, -0.3), Bicomplex.zero(),
             Bicomplex.zero(), Bicomplex(0.4, -0.5, 0.2, 0.1)),
        delta_k=0.25, N=5)


def bessel_oracle(order: int, z: float) -> float:
    """Independent integral representation Int_0^inf e^{-z cosh t} cosh(nu t) dt."""
    t = np.linspace(0.0, 30.0, 300_001)
    f = np.exp(-z * np.cosh(t).clip(max=700.0 / max(z, 1e-12)))
    w = f * np.cosh(order * t)
    h = t[1] - t[0]
    return float(h / 3.0 * (w[0] + w[-1] + 4 * w[1:-1:2].sum() + 2 * w[2:-2:2].sum()))


class TestBesselK:
    def test_k1_at_one(self):
        assert bessel_k(1, 1.0) == pytest.approx(0.6019072301972346, rel=1e-12)
        assert bessel_k(1, 1.0) == pytest.approx(bessel_oracle(1, 1.0), rel=1e-10)

    def test_k0_at_one(self):
        assert bessel_k(0, 1.0) == pytest.approx(0.4210244382407083, rel=1e-12)
        assert bessel_k(0, 1.0) == pytest.approx(bessel_oracle(0, 1.0), rel=1e-10)

    def test_against_oracle_over_range(self):
        for z in (1e-3, 0.1, 1.0, 5.0, 20.0):
            assert bessel_k(0, z) == pytest.approx(bessel_oracle(0, z), rel=1e-9)
            assert bessel_k(1, z) == pytest.approx(bessel_oracle(1, z), rel=1e-9)

    def test_asymptotic_tail(self):
        z = 50.0
        assert bessel_k(0, z) * math.exp(z) * math.sqrt(z) == pytest.approx(
            math.sqrt(math.pi / 2.0), rel=0.01)

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_k(0, 0.0)
        with pytest.raises(DomainError):
            bessel_k(1, -1.0)
        with pytest.raises(DomainError):
            bessel_k(2, 1.0)


def m0_form(dx, gamma, table):
    """The omega-pi-m0 row, [Omega, Pi] at m = 0 (M^2 = -gamma^2/4)."""
    return KERNELS["omega-pi-m0"].bind(FieldParams(m=0.0, gamma=gamma),
                                       table)(dx)


def profile(dx, table, weight=None):
    return Bicomplex.from_complex(lattice_delta_profile(dx, table, weight))


class TestDeltaRoute:
    """delta_commutator: the bracket times the lattice delta profile."""

    def test_omega_omega_delta_kernel(self, rho_table):
        got = delta_commutator("omega_omega", 0.7, FieldParams(m=1.0), rho_table)
        want = difference_bracket(rho_table) * profile(0.7, rho_table)
        assert got.is_close(want, 1e-15)
        assert not got.is_zero()

    def test_omega_omega_coefficient_examples(self):
        p = FieldParams(m=1.0)
        t_equal = CommutationTable(rho=(Bicomplex.one(), Bicomplex.zero(),
                                        Bicomplex.zero(), Bicomplex.one()))
        assert delta_commutator("omega_omega", 0.7, p, t_equal).is_zero()
        t_gen = generic_table()
        assert delta_commutator("omega_omega", 0.7, p, t_gen).is_close(
            profile(0.7, t_gen), 1e-15)

    def test_abelian_table(self):
        t0 = CommutationTable(rho=(Bicomplex.zero(),) * 4)
        for which in ("omega_omega", "pi_pi", "omega_pi"):
            assert delta_commutator(which, 0.7, FieldParams(m=1.0), t0).is_zero()

    def test_pi_pi_kernel_structure(self, rho_table):
        # delta'' - M^2 delta with the same difference bracket
        p = FieldParams(m=1.5, gamma=1.0)
        got = delta_commutator("pi_pi", 0.7, p, rho_table)
        d2 = profile(0.7, rho_table, lambda k: -k ** 2)
        d0 = profile(0.7, rho_table) * Bicomplex.from_complex(-p.m2_mod)
        assert got.is_close(difference_bracket(rho_table) * (d2 + d0), 1e-13)

    def test_pi_pi_limits(self, rho_table):
        bracket = difference_bracket(rho_table)
        d2 = profile(0.7, rho_table, lambda k: -k ** 2)
        # M^2 = 0: pure delta''
        got0 = delta_commutator("pi_pi", 0.7, FieldParams(m=1.0, gamma=2.0),
                                rho_table)
        assert got0.is_close(bracket * d2, 1e-14)
        # m = 0, gamma = 2: the delta part is +gamma^2/4 times the bracket
        gotm = delta_commutator("pi_pi", 0.7, FieldParams(m=0.0, gamma=2.0),
                                rho_table)
        assert gotm.is_close(bracket * (d2 + profile(0.7, rho_table)), 1e-13)

    def test_weighted_omega_pi_is_minus_i_sum_bracket(self, rho_table):
        got = delta_commutator("omega_pi", 0.7, FieldParams(m=1.0), rho_table)
        want = (Bicomplex.from_complex(-1j) * sum_bracket(rho_table)
                * profile(0.7, rho_table))
        assert got.is_close(want, 1e-14)

    def test_unknown_kernel_raises(self, rho_table):
        p, spec = FieldParams(m=1.0), QuadratureSpec()
        with pytest.raises(ValueError):
            delta_commutator("omega_omega_plus", 0.7, p, rho_table)
        with pytest.raises(ValueError):   # a Bessel row is not delta-type
            delta_commutator("w_pi_pi", 0.7, p, rho_table)
        with pytest.raises(ValueError):
            weighted_commutators("omega_pi", 0.7, p, rho_table)
        with pytest.raises(ValueError):
            weighted_quadrature("omega_pi", 0.7, p, spec, rho_table)

    @settings(derandomize=True, database=None, max_examples=100,
              deadline=None)
    @given(st.builds(CommutationTable, rho=st.tuples(*(RING,) * 4),
                     delta_k=st.floats(0.1, 0.5), N=st.integers(1, 4),
                     stagger=st.booleans()),
           st.sampled_from(("omega_omega", "pi_pi", "omega_pi")),
           st.floats(0.6, 2.0), st.floats(0.0, 1.0), st.floats(-2.0, 2.0),
           st.floats(-2.0, 2.0), st.floats(-5.0, 5.0))
    def test_equals_the_operator_engine(self, table, which, m, gamma, x, xp,
                                        t):
        # sigma-free tables, M^2 > 0; [Omega, Pi] is a delta when weighted
        p = FieldParams(m=m, gamma=gamma)
        weighted = which == "omega_pi"
        engine = lattice_commutator(which, x, xp, t, p, table, weighted)
        scale = sum(c.norm() for c in _contraction_terms(
            which, x, xp, t, p, table, weighted))
        route = delta_commutator(which, xp - x, p, table)
        assert (engine - route).norm() <= 1e-12 * scale


class TestLatticeRoute:
    def test_time_independence(self, rho_table):
        p = FieldParams(m=1.2, gamma=0.8)
        for which in ("omega_omega", "pi_pi"):
            vals = [lattice_commutator(which, 0.3, 1.1, t, p, rho_table)
                    for t in (0.0, 1.0, 10.0)]
            for v in vals[1:]:
                assert v.is_close(vals[0], 1e-12 * max(vals[0].norm(), 1.0))

    def test_gamma_independence_omega_omega(self, rho_table):
        vals = [lattice_commutator("omega_omega", 0.3, 1.1, 2.0,
                                   FieldParams(m=1.2, gamma=g), rho_table)
                for g in (0.0, 1.0, 2.0)]
        for v in vals[1:]:
            assert v.is_close(vals[0], 1e-12 * max(vals[0].norm(), 1.0))

    def test_matches_structural_delta_realization(self, rho_table):
        # [Omega, Omega+](dx) on the lattice: per-k bracket times e^{ik dx}
        p = FieldParams(m=1.0, gamma=0.5)
        dx = 0.7
        got = lattice_commutator("omega_omega", 0.0, dx, 1.3, p, rho_table)
        expect = Bicomplex.zero()
        r1, r4 = rho_table.rho[0], rho_table.rho[3]
        for i in rho_table.momentum_indices():
            k = rho_table.momentum(i)
            e = Bicomplex.from_complex(rho_table.delta_k * cmath.exp(1j * k * dx))
            expect = expect + (J_PLUS * r1 + J_MINUS * r1.conj()) * e
            expect = expect - (J_PLUS * r4.conj() + J_MINUS * r4) * e.conj()
        assert got.is_close(expect, 1e-12)

    def test_hermiticity_relation_holds(self, rho_table):
        p = FieldParams(m=1.0, gamma=0.7)
        a = lattice_commutator("omega_omega", 0.3, 1.1, 1.0, p, rho_table)
        b = lattice_commutator("omega_omega", 1.1, 0.3, 1.0, p, rho_table).conj()
        assert a.is_close(b, 1e-12)

    def test_sigma_switches_time_dependence_on(self, rho_table):
        ts = CommutationTable(rho=rho_table.rho, sigma=(Bicomplex(0.3),) * 4,
                              delta_k=0.25, N=5)
        p = FieldParams(m=1.0, gamma=0.7)
        v0 = lattice_commutator("omega_omega", 0.3, 1.1, 0.0, p, ts)
        v1 = lattice_commutator("omega_omega", 0.3, 1.1, 1.0, p, ts)
        assert not v0.is_close(v1, 1e-9)


SIGMA = (Bicomplex(0.3, 0.1, -0.2, 0.05),) * 4


def oracle_tables(rho_table):
    """Small tables covering every commutation rule the contraction uses."""
    rho = rho_table.rho
    return {
        "generic": generic_table(delta_k=0.3, N=4),
        "rho": rho_table,
        "sigma": CommutationTable(rho=rho, sigma=SIGMA, delta_k=0.25, N=4),
        "sigma_staggered": CommutationTable(rho=rho, sigma=SIGMA, delta_k=0.25,
                                            N=4, stagger=True),
    }


def normal_ordered_commutator(which, x, xp, t, p, table, weighted):
    """normal_order(A B - B A): multiply out every word, then rewrite."""
    field = field_operator_poly if which != "pi_pi" else momentum_operator_poly
    left = field(x, t, p, table, weighted)
    if which == "omega_pi":
        right = momentum_operator_poly(xp, t, p, table, weighted)
    else:
        right = field(xp, t, p, table, weighted).adjoint()
    return normal_order(commutator_with(left, right), table)


class TestLatticeContraction:
    @pytest.mark.parametrize("name", ["generic", "rho", "sigma",
                                      "sigma_staggered"])
    def test_matches_normal_ordered_route(self, rho_table, name):
        table = oracle_tables(rho_table)[name]
        p = FieldParams(m=1.3, gamma=0.7)
        for which in ("omega_omega", "pi_pi", "omega_pi"):
            for weighted in (False, True):
                comm = normal_ordered_commutator(which, 0.3, -0.8, 1.1, p,
                                                 table, weighted)
                # the normal form of [A, B] is central: nothing but ()
                assert set(comm.terms) <= {()}
                want = scalar_part(comm)
                got = lattice_commutator(which, 0.3, -0.8, 1.1, p, table,
                                         weighted)
                assert want.norm() > 0.1
                assert (got - want).norm() <= 1e-13 * want.norm()

    def test_129_modes_against_lattice_sum(self):
        # generic table: both brackets are 1, so each commutator is
        # factor * dk sum_k omega_k^power e^{i k (x - x')}
        table = generic_table(delta_k=0.1, N=64)
        p = FieldParams(m=1.1, gamma=0.6)
        x, xp = 0.4, -0.9
        ks = [table.momentum(i) for i in table.momentum_indices()]
        assert len(ks) == 129
        for which, weighted, factor, power in (
                ("omega_omega", False, 1.0, 0), ("omega_omega", True, 1.0, -1),
                ("pi_pi", False, -1.0, 2), ("pi_pi", True, -1.0, 1),
                ("omega_pi", False, -1j, 1), ("omega_pi", True, -1j, 0)):
            terms = [omega(k, p) ** power for k in ks]
            want = factor * table.delta_k * sum(
                w * cmath.exp(1j * k * (x - xp)) for k, w in zip(ks, terms))
            scale = table.delta_k * sum(abs(w) for w in terms)
            got = lattice_commutator(which, x, xp, 2.5, p, table, weighted)
            assert (got - Bicomplex.from_complex(want)).norm() <= 1e-12 * scale

    @pytest.mark.parametrize("stagger", [False, True],
                             ids=["unstaggered", "staggered"])
    @pytest.mark.parametrize("which", ["omega_omega", "pi_pi", "omega_pi"])
    def test_commutator_calls_do_not_grow_with_modes(self, monkeypatch, which,
                                                     stagger):
        # one call per (species, dagger, species, dagger, same index,
        # mirrored index) pattern that occurs, at any lattice size
        import hyperfield.commutators as fc
        counted = []

        def counting(op1, op2, table):
            counted.append((op1, op2))
            return commutator(op1, op2, table)
        monkeypatch.setattr(fc, "commutator", counting)
        calls = []
        for n in (8, 32):
            table = CommutationTable(rho=(Bicomplex(0.9, 0.2, 0.1, -0.3),) * 4,
                                     sigma=SIGMA, delta_k=0.1, N=n,
                                     stagger=stagger)
            counted.clear()
            lattice_commutator(which, 0.3, -0.8, 1.1,
                               FieldParams(m=1.3, gamma=0.7), table)
            calls.append(len(counted))
        assert calls[0] == calls[1] <= 64

    @pytest.mark.parametrize("builder", ["field_operator_poly",
                                         "momentum_operator_poly"])
    def test_two_operator_word_raises(self, monkeypatch, rho_table, builder):
        # [Omega, Pi]: patching Omega spoils the left operand, Pi the right
        import hyperfield.commutators as fc
        linear = getattr(fc, builder)
        pair = OperatorPoly({(ModeOp("a1", 0), ModeOp("b1", 0)):
                             Bicomplex.one()})
        monkeypatch.setattr(fc, builder,
                            lambda *args: linear(*args) + pair)
        with pytest.raises(ArithmeticError):
            lattice_commutator("omega_pi", 0.3, 1.1, 0.5,
                               FieldParams(m=1.0), rho_table)


class TestLatticeContractionProperty:
    """The contraction against the normal-ordered route on random tables."""

    @settings(derandomize=True, database=None, max_examples=100,
              deadline=None)
    @given(small_tables(), st.sampled_from(("omega_omega", "pi_pi", "omega_pi")),
           st.booleans(), st.floats(0.6, 2.0), st.floats(0.0, 1.0),
           st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-1.0, 1.0))
    def test_matches_normal_ordered_route(self, table, which, weighted, m,
                                          gamma, x, xp, t):
        p = FieldParams(m=m, gamma=gamma)
        comm = normal_ordered_commutator(which, x, xp, t, p, table, weighted)
        assert set(comm.terms) <= {()}
        want = scalar_part(comm)
        got = lattice_commutator(which, x, xp, t, p, table, weighted)
        scale = sum(c.norm() for c in _contraction_terms(
            which, x, xp, t, p, table, weighted))
        assert (got - want).norm() <= 1e-12 * scale


class TestQuadratureOracle:
    def test_closed_vs_quadrature_grid(self):
        p = FieldParams(m=1.0, gamma=0.0)
        t = generic_table()
        spec = QuadratureSpec()
        for n in range(10):
            dx = 0.5 + 4.5 * n / 9.0
            closed = commutator_omega_pi_closed(dx, p, t)
            quad = commutator_omega_pi_quadrature(dx, p, spec, t)
            assert (closed - quad).norm() <= 1e-6 * closed.norm()

    def test_gamma_enters_through_modified_mass(self, rho_table):
        p = FieldParams(m=1.3, gamma=1.0)
        spec = QuadratureSpec()
        closed = commutator_omega_pi_closed(1.7, p, rho_table)
        quad = commutator_omega_pi_quadrature(1.7, p, spec, rho_table)
        assert (closed - quad).norm() <= 1e-6 * closed.norm()

    def test_nonconvergent_at_zero(self):
        with pytest.raises(NonConvergent):
            commutator_omega_pi_quadrature(0.0, FieldParams(m=1.0),
                                           QuadratureSpec(), generic_table())

    def test_ir_cutoff_branch(self):
        # M^2 < 0: quadrature integrates over k^2 >= -M^2 and matches the
        # oscillatory closed form of the m -> 0 limit at m = 0
        t = generic_table()
        spec = QuadratureSpec()
        for dx in (1.0, 2.5):
            quad = commutator_omega_pi_quadrature(dx, FieldParams(m=0.0, gamma=2.0),
                                                  spec, t)
            closed = m0_form(dx, 2.0, t)
            assert (closed - quad).norm() <= 1e-4 * max(closed.norm(), 1e-12)

    def test_closed_form_value(self):
        # frozen: 2 i (M/|dx|) K1(M |dx|) with unit bracket
        t = generic_table()
        got = commutator_omega_pi_closed(1.0, FieldParams(m=1.0, gamma=0.0), t)
        expect = Bicomplex.from_complex(2j * 0.6019072301972346)
        assert got.is_close(expect, 1e-10)

    def test_bessel_tail_envelope(self):
        # |closed form| bounded by C e^{-M dx}/sqrt(dx) in the tail
        t = generic_table()
        p = FieldParams(m=1.0, gamma=0.0)
        C = 3.0
        for dx in (5.0, 8.0, 12.0, 20.0):
            val = commutator_omega_pi_closed(dx, p, t).norm()
            assert val <= C * math.exp(-dx) / math.sqrt(dx)

    def test_closed_form_domain_errors(self):
        t = generic_table()
        with pytest.raises(DomainError):
            commutator_omega_pi_closed(0.0, FieldParams(m=1.0), t)
        with pytest.raises(DomainError):
            commutator_omega_pi_closed(1.0, FieldParams(m=1.0, gamma=2.5), t)


WIDE_Z = np.geomspace(0.01, 30.0, 31)           # M dx, log-spaced
WIDE_PARAMS = ((1.0, 0.0), (1.7, 1.2))          # (m, gamma), M^2 > 0
ORACLE_KINDS = ("omega_pi", "omega_omega", "pi_pi")


def oracle_errors(kind, zs):
    """|closed - oracle| / |closed| at each M dx in zs, for each (m, gamma)."""
    t, spec = generic_table(), QuadratureSpec()
    errors = []
    for m, gamma in WIDE_PARAMS:
        p = FieldParams(m=m, gamma=gamma)
        for z in zs:
            dx = z / math.sqrt(p.m2_mod)
            if kind == "omega_pi":
                closed = commutator_omega_pi_closed(dx, p, t)
                quad = commutator_omega_pi_quadrature(dx, p, spec, t)
            else:
                closed = weighted_commutators(kind, dx, p, t).value_at(dx)
                quad = weighted_quadrature(kind, dx, p, spec, t)
            errors.append((closed - quad).norm() / closed.norm())
    return errors


class TestWideRangeOracle:
    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_matches_closed_forms_over_wide_range(self, kind):
        assert max(oracle_errors(kind, WIDE_Z)) <= 1e-9

    @pytest.mark.parametrize("power", [1, -1])
    def test_legs_agree_on_overlap(self, power):
        import hyperfield.commutators as fc
        for m, gamma in WIDE_PARAMS:
            m2 = FieldParams(m=m, gamma=gamma).m2_mod
            for z in np.linspace(1.0, 5.0, 17):
                fourier = fc._fourier_leg(power, z / math.sqrt(m2), m2)
                decaying = fc._decaying_leg(power, z, m2)
                assert abs(fourier - decaying) <= 1e-9 * abs(decaying)

    @pytest.mark.parametrize("kind, bessel", [("omega_pi", "_scipy_k1"),
                                              ("pi_pi", "_scipy_k1"),
                                              ("omega_omega", "_scipy_k0")])
    def test_perturbed_closed_form_fails_at_both_ends(self, monkeypatch,
                                                      kind, bessel):
        import hyperfield.commutators as fc
        exact, rng = getattr(fc, bessel), random.Random(11)
        monkeypatch.setattr(fc, bessel, lambda z: exact(z) * (
            1.0 + rng.choice((-1e-6, 1e-6))))
        assert min(oracle_errors(kind, (0.01, 30.0))) > 1e-9

    @pytest.mark.parametrize("z", [0.005, 31.0])
    def test_outside_trusted_range_raises(self, z):
        t, spec = generic_table(), QuadratureSpec()
        for m, gamma in ((1.0, 0.0), (0.0, 2.0)):   # M^2 = 1 and M^2 = -1
            with pytest.raises(DomainError):
                commutator_omega_pi_quadrature(z, FieldParams(m=m, gamma=gamma),
                                               spec, t)
        for which in ("omega_omega", "pi_pi"):
            with pytest.raises(DomainError):
                weighted_quadrature(which, z, FieldParams(m=1.0), spec, t)

    def test_ir_cutoff_branch_over_trusted_range(self):
        # M^2 = -gamma^2/4 < 0 at m = 0: the Fourier leg alone, against the
        # Y1 closed form over its trusted range gamma |dx| / 2 in [0.01, 30]
        t, spec = generic_table(), QuadratureSpec()
        for gamma in (2.0, 0.7):
            for z in WIDE_Z:
                dx = z / (gamma / 2.0)
                quad = commutator_omega_pi_quadrature(
                    dx, FieldParams(m=0.0, gamma=gamma), spec, t)
                closed = m0_form(dx, gamma, t)
                assert (closed - quad).norm() <= 1e-9 * closed.norm()


class TestM0Limit:
    def test_decay_at_large_separation(self):
        t = generic_table()
        vals = [m0_form(dx, 2.0, t).norm()
                for dx in (50.0, 200.0)]
        assert vals[1] < vals[0] < 0.05

    def test_domain_error_at_zero(self):
        with pytest.raises(DomainError):
            m0_form(0.0, 2.0, generic_table())

    def test_each_bessel_row_refuses_the_other_side_of_m2(self):
        t = generic_table()
        for name, kernel in KERNELS.items():
            if kernel.profile is None:
                continue
            wrong = (FieldParams(m=0.0, gamma=2.0) if kernel.side > 0
                     else FieldParams(m=1.0))
            for params in (wrong, FieldParams(m=1.0, gamma=2.0)):  # M^2 = 0
                with pytest.raises(DomainError, match="requires M\\^2"):
                    kernel.bind(params, t)
                with pytest.raises(DomainError):
                    kernel.oracle(1.0, params, t)

    def test_small_gamma_large_value(self):
        # M^2 -> 0: the profile approaches the 1/dx^2 envelope and grows
        t = generic_table()
        small = m0_form(1.0, 0.05, t).norm()
        assert small == pytest.approx(2.0, rel=0.05)  # 2/dx^2 envelope at dx=1


class TestWeighted:
    def test_kernels(self):
        p = FieldParams(m=1.0, gamma=0.0)
        t = generic_table()
        woo = weighted_commutators("omega_omega", 1.0, p, t)
        assert woo.value_at(1.0).is_close(
            Bicomplex(2 * 0.4210244382407083), 1e-10)
        wpp = weighted_commutators("pi_pi", 1.0, p, t)
        assert wpp.value_at(1.0).is_close(
            Bicomplex(2 * 0.6019072301972346), 1e-10)
        wop = delta_commutator("omega_pi", 1.0, p, t)
        assert wop.is_close(Bicomplex.from_complex(-1j) * sum_bracket(t)
                            * profile(1.0, t), 1e-14)

    def test_weighted_vs_quadrature(self):
        p = FieldParams(m=1.0, gamma=0.0)
        t = generic_table()
        spec = QuadratureSpec()
        for which in ("omega_omega", "pi_pi"):
            for dx in (0.5, 1.5, 4.0):
                c = weighted_commutators(which, dx, p, t).value_at(dx)
                q = weighted_quadrature(which, dx, p, spec, t)
                assert (c - q).norm() <= 1e-6 * c.norm()

    def test_interchange_map(self):
        # weighted [Pi, Pi+] = -i * unweighted [Omega, Pi] when rho4 = 0
        p = FieldParams(m=1.0, gamma=0.6)
        t = generic_table()
        for dx in (0.8, 2.0):
            wpp = weighted_commutators("pi_pi", dx, p, t).value_at(dx)
            op = commutator_omega_pi_closed(dx, p, t)
            assert wpp.is_close(Bicomplex.from_complex(-1j) * op, 1e-12)

    def test_weighted_lattice_time_independence(self, rho_table):
        p = FieldParams(m=1.2, gamma=0.8)
        vals = [lattice_commutator("omega_omega", 0.3, 1.1, t, p, rho_table,
                                   weighted=True) for t in (0.0, 2.0)]
        assert vals[0].is_close(vals[1], 1e-12 * max(vals[0].norm(), 1.0))


class TestFigureData:
    def test_fig1_shape(self):
        p = FieldParams(m=1.0, gamma=0.0)
        rows = figure_data("fig1", (0.1, 30.0, 60), p, generic_table())
        mags = [math.hypot(r, i) for _x, r, i in rows]
        assert all(a > b for a, b in zip(mags, mags[1:]))
        assert mags[-1] < 1e-8

    def test_fig2_continuity(self):
        p = FieldParams(m=1.0, gamma=0.4)
        rows = figure_data("fig2", (0.3, 3.0, 80, 1.0), p, generic_table())
        vals = [complex(r, i) for _x, r, i in rows]
        scale = max(abs(v) for v in vals)
        assert all(abs(b - a) < 0.1 * scale for a, b in zip(vals, vals[1:]))

    def test_fig6_is_k0_profile(self):
        p = FieldParams(m=1.0, gamma=0.0)
        rows = figure_data("fig6", (0.5, 2.0, 4), p, generic_table())
        for dx, re, im in rows:
            assert re == pytest.approx(2 * bessel_k(0, dx), rel=1e-10)
            assert im == 0.0

    def test_grid_validation(self):
        p = FieldParams(m=1.0, gamma=0.0)
        with pytest.raises(DomainError):
            figure_data("fig1", (0.0, 1.0, 5), p, generic_table())
        with pytest.raises(DomainError):
            figure_data("fig1", (0.5, 1.0, 0), p, generic_table())
