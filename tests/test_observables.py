import math
import random

import pytest

from hyperfield import observables
from hyperfield.modes import FieldParams, make_mode, omega
from hyperfield.observables import (GeometrySpec, charge_poly,
                                    geometry_kernel, h_gamma, hamiltonian_poly,
                                    noether_residual, vev_Q)
from hyperfield.operators import (CommutationTable, VacuumRules, normal_order,
                                  vev)
from hyperfield.ring import Bicomplex, J_MINUS, J_PLUS

from algebra_reference import commutator_with, merged_pair, polys_equal


@pytest.fixture
def table():
    return CommutationTable(delta_k=0.2, N=6, stagger=True)


class TestHGamma:
    def test_diagonal_real_part(self):
        p = FieldParams(m=1.0, gamma=0.0)
        assert h_gamma(0.0, 0.0, p).real == pytest.approx(2.5, abs=1e-15)

    def test_diagonal_with_dissipation(self):
        p = FieldParams(m=2.0, gamma=2.0)
        hg = h_gamma(0.0, 0.0, p)
        assert hg.real == pytest.approx(2.5 * 3.0, rel=1e-14)
        assert hg.imag == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-14)

    def test_factor_five_provenance(self):
        rng = random.Random(2)
        for _ in range(300):
            m = rng.uniform(0.1, 3.0)
            g = rng.uniform(0.0, 1.9 * m)
            k = rng.uniform(-4, 4)
            p = FieldParams(m=m, gamma=g)
            w = omega(k, p)
            hg = h_gamma(k, k, p)
            assert hg.real == pytest.approx(2.5 * w * w, rel=1e-12)
            assert hg.imag == pytest.approx(g * w, rel=1e-12, abs=1e-15)

    def test_off_diagonal(self):
        p = FieldParams(m=1.0, gamma=0.5)
        k, kp = 0.7, -1.2
        w, wp = omega(k, p), omega(kp, p)
        expect = (2 * wp * w + 0.5 * kp * k + 0.5j * p.gamma * (wp + w)
                  + 0.5 * p.m2_mod)
        assert h_gamma(k, kp, p) == pytest.approx(expect)

    @pytest.mark.parametrize("geom", [GeometrySpec(),
                                      GeometrySpec("finite_interval", -1.0, 2.0)],
                             ids=["infinite", "finite"])
    def test_hamiltonian_takes_omega_once_per_index(self, geom, monkeypatch):
        calls = []

        def counted(k, params):
            calls.append(k)
            return omega(k, params)

        monkeypatch.setattr(observables, "omega", counted)
        table = CommutationTable(delta_k=0.2, N=16, stagger=True)
        hamiltonian_poly(FieldParams(m=1.0, gamma=0.3), geom, table, 0.4)
        assert len(table.momentum_indices()) == 32
        assert sorted(calls) == [table.momentum(i)
                                 for i in table.momentum_indices()]


class TestGeometryKernel:
    def test_finite_at_zero_is_length(self):
        g = GeometrySpec("finite_interval", -1.0, 2.5)
        assert geometry_kernel(0.0, g) == pytest.approx(3.5)

    def test_finite_zero_at_resonant_momentum(self):
        L = 2.0
        g = GeometrySpec("finite_interval", -L, L)
        q = 2.0 * math.pi / (2 * L)
        assert abs(geometry_kernel(q, g)) < 1e-14

    def test_finite_small_q_limit(self):
        # symmetric interval: kernel is real 2 sin(q L)/q, error O((qL)^2)
        g = GeometrySpec("finite_interval", -1.5, 1.5)
        q = 1e-4 / g.length
        assert abs(geometry_kernel(q, g) - g.length) <= 1e-8 * g.length
        # asymmetric interval: modulus still tends to the length
        ga = GeometrySpec("finite_interval", -1.0, 2.0)
        assert abs(abs(geometry_kernel(q, ga)) - ga.length) <= 1e-8 * ga.length

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            GeometrySpec("finite_interval", 1.0, 0.0)
        with pytest.raises(ValueError):
            GeometrySpec("circle")


class TestHamiltonian:
    def test_hermitian(self, table):
        p = FieldParams(m=1.0, gamma=0.5)
        for geom in (GeometrySpec("infinite_line"),
                     GeometrySpec("finite_interval", -1.0, 1.5)):
            H = hamiltonian_poly(p, geom, table, t=0.4)
            assert polys_equal(H, H.adjoint(), table,
                               1e-12 * max(1.0, H.max_norm()))

    def test_infinite_line_is_diagonal(self, table):
        p = FieldParams(m=1.0, gamma=0.5)
        H = hamiltonian_poly(p, GeometrySpec("infinite_line"), table)
        for word in H.terms:
            indices = {op.index for op in word}
            assert len(indices) == 1

    def test_infinite_line_time_independent(self, table):
        p = FieldParams(m=1.0, gamma=0.5)
        h0 = hamiltonian_poly(p, GeometrySpec("infinite_line"), table, t=0.0)
        h1 = hamiltonian_poly(p, GeometrySpec("infinite_line"), table, t=3.0)
        assert polys_equal(h0, h1, table, 1e-12 * h0.max_norm())

    def test_finite_interval_has_off_diagonal(self, table):
        p = FieldParams(m=1.0, gamma=0.5)
        H = hamiltonian_poly(p, GeometrySpec("finite_interval", -1.0, 1.0), table)
        assert any(len({op.index for op in word}) == 2 for word in H.terms)


class TestCharge:
    def test_anti_hermitian(self, table):
        p = FieldParams(m=1.0, gamma=0.5)
        Q = charge_poly(p, table)
        assert polys_equal(Q.adjoint(), Q.scale(-1.0), table,
                           1e-12 * max(1.0, Q.max_norm()))

    def test_commutes_with_hamiltonian(self, table):
        p = FieldParams(m=1.0, gamma=0.5)
        H = hamiltonian_poly(p, GeometrySpec("infinite_line"), table)
        Q = charge_poly(p, table)
        comm = normal_order(commutator_with(H, Q), table)
        assert comm.max_norm() <= 1e-10 * H.max_norm() * Q.max_norm()

    def test_vev_zero_with_zero_eigenvalues(self, table):
        p = FieldParams(m=1.0, gamma=0.5)
        scale = vev_Q(p, table, VacuumRules.generic(1.0, 0.25j)).norm()
        assert scale > 1e-3
        assert vev_Q(p, table, VacuumRules.constrained_rules()).norm() <= 1e-13 * scale


class TestNoetherResidual:
    def test_on_shell(self):
        p = FieldParams(m=1.0, gamma=0.8)
        modes = [make_mode("plus", 0.9, p, Bicomplex(0.7, 0.2, 0, 0),
                           Bicomplex(0.1, -0.4, 0, 0)),
                 make_mode("minus", 1.3, p, Bicomplex(0.3, 0.0, 0, 0),
                           Bicomplex(0.2, 0.5, 0, 0))]
        from hyperfield.modes import field_value
        scale = field_value(modes, 0.3, 0.9).norm() ** 2 * 10
        res = noether_residual(modes, p, 0.3, 0.9, h=1e-3)
        assert res.norm() <= 1e-5 * max(scale, 1.0)

    def test_off_shell_detected(self):
        # the current couples the two sectors, so both must be populated
        p = FieldParams(m=1.0, gamma=0.8)
        good = make_mode("plus", 0.9, p, Bicomplex(0.7, 0.2, 0, 0),
                         Bicomplex(0.1, -0.4, 0, 0))
        partner = make_mode("minus", 1.3, p, Bicomplex(0.3, 0.0, 0, 0),
                            Bicomplex(0.2, 0.5, 0, 0))
        bad = good.__class__("plus", good.coeff_a, good.coeff_b, good.k,
                             good.omega, good.Gamma + 0.3)
        res = noether_residual([bad, partner], p, 0.3, 0.9, h=1e-3)
        assert res.norm() > 1e-2

    def test_zero_field(self):
        p = FieldParams(m=1.0, gamma=0.8)
        assert noether_residual([], p, 0.0, 0.0).is_zero()

    def test_single_sector_field_has_zero_current(self):
        # conj(Omega) of a pure plus-sector field lives in the minus sector,
        # so every bilinear of the current is killed by J+ J- = 0
        p = FieldParams(m=1.2, gamma=0.4)
        modes = [make_mode("plus", 0.6, p, Bicomplex.one(), Bicomplex.zero())]
        assert noether_residual(modes, p, 0.2, 0.5, h=1e-2).is_zero()

    def test_residual_order_h_squared(self):
        p = FieldParams(m=1.2, gamma=0.4)
        modes = [make_mode("plus", 0.6, p, Bicomplex.one(), Bicomplex.zero()),
                 make_mode("minus", 0.8, p, Bicomplex(0.2, 0.4, 0, 0),
                           Bicomplex.one())]
        r1 = noether_residual(modes, p, 0.2, 0.5, h=1e-2).norm()
        r2 = noether_residual(modes, p, 0.2, 0.5, h=5e-3).norm()
        # central differences: quartering under h halving (loose factor)
        assert r2 < 0.4 * r1


class TestVevObservables:
    def test_constrained_cancellation(self, table):
        p = FieldParams(m=1.0, gamma=0.5)
        geom = GeometrySpec("infinite_line")
        rules = VacuumRules.constrained_rules(0.8 - 0.3j, 0.2 + 1.1j)
        h = hamiltonian_poly(p, geom, table)
        scale = vev(h, VacuumRules.generic(1.0, 1.0), table).norm()
        assert vev(h, rules, table).norm() <= 1e-12 * scale
        assert vev_Q(p, table, rules).norm() <= 1e-12 * scale

    def test_unconstrained_hand_formula(self, table):
        # lambda1 = 1, lambda2 = 0: integrand (H_k' + ij gamma w) per mode
        p = FieldParams(m=1.0, gamma=0.5)
        geom = GeometrySpec("infinite_line")
        got = vev(hamiltonian_poly(p, geom, table),
                  VacuumRules.generic(1.0, 0.0), table)
        expect = Bicomplex.zero()
        for i in table.momentum_indices():
            k = table.momentum(i)
            hg = h_gamma(k, k, p)
            wgt = 2 * math.pi * table.delta_k
            expect = expect + Bicomplex(wgt * hg.real, 0, 0, wgt * hg.imag)
        assert got.is_close(expect, 1e-9 * expect.norm())

    def test_projector_annihilated_eigenvalue(self, table):
        # lambda1 proportional to J-: J+ lambda1 = 0 term by term
        p = FieldParams(m=1.0, gamma=0.5)
        geom = GeometrySpec("infinite_line")
        rules = VacuumRules.constrained_rules(c1=2.7 + 0.4j)
        assert rules.lambda1.plus() == 0
        h = hamiltonian_poly(p, geom, table)
        scale = vev(h, VacuumRules.generic(1.0, 1.0), table).norm()
        assert vev(h, rules, table).norm() <= 1e-12 * scale

    def test_term_by_term_cancellation(self, table):
        # every single-momentum integrand (pair plus its conjugate) has a
        # vanishing vev on its own under the constraints
        p = FieldParams(m=1.0, gamma=0.5)
        rules = VacuumRules.constrained_rules(0.8 - 0.3j, 0.2 + 1.1j)
        i = table.momentum_indices()[3]
        k = table.momentum(i)
        c = Bicomplex.from_complex(h_gamma(k, k, p))
        term = (merged_pair(("a1", "b1"), i, i, J_PLUS * c)
                + merged_pair(("b2", "a2"), i, i, J_MINUS * c))
        term = term + term.adjoint()
        assert vev(term, rules, table).norm() <= 1e-14 * c.norm()

    def test_finite_geometry_vev_also_cancels(self, table):
        p = FieldParams(m=1.0, gamma=0.5)
        geom = GeometrySpec("finite_interval", -1.0, 1.0)
        rules = VacuumRules.constrained_rules(0.3, 0.9j)
        scale = max(vev(hamiltonian_poly(p, geom, table),
                        VacuumRules.generic(1.0, 1.0), table).norm(), 1.0)
        h = hamiltonian_poly(p, geom, table, 0.7)
        assert vev(h, rules, table).norm() <= 1e-12 * scale
