import cmath
import math
import random

import pytest

from hyperfield.errors import ImaginaryFrequency
from hyperfield.modes import (FieldParams, eom_residual, field_value,
                              make_mode, omega)
from hyperfield.ring import Bicomplex, J_MINUS, J_PLUS


class TestFieldParams:
    def test_modified_mass(self):
        p = FieldParams(m=2.0, gamma=2.0)
        assert p.m2_mod == 3.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FieldParams(m=-1.0)


def sector_dampings(gamma: float) -> tuple[float, float]:
    """Gamma of a plus-sector and of a minus-sector mode."""
    p, one = FieldParams(m=1.0, gamma=gamma), Bicomplex.one()
    return (make_mode("plus", 0.3, p, one, one).Gamma,
            make_mode("minus", 0.3, p, one, one).Gamma)


class TestDissipativeCoefficients:
    @pytest.mark.parametrize("gamma,expected", [
        (0.0, (0.0, 0.0)),
        (2.0, (-1.0, 1.0)),
        (0.5, (-0.25, 0.25)),
    ])
    def test_values(self, gamma, expected):
        assert sector_dampings(gamma) == expected

    def test_reciprocal_damping(self):
        g1, g2 = sector_dampings(1.7)
        assert g1 == -g2
        for t in (0.5, 3.0, 10.0):
            assert abs(math.exp(g1 * t) * math.exp(g2 * t) - 1.0) < 1e-14


class TestDispersion:
    def test_rest_mass(self):
        assert omega(0.0, FieldParams(m=1.0, gamma=0.0)) == 1.0

    def test_modified_rest_mass(self):
        assert abs(omega(0.0, FieldParams(m=2.0, gamma=2.0)) - math.sqrt(3)) < 1e-15

    def test_massless_like(self):
        assert abs(omega(1.0, FieldParams(m=1.0, gamma=2.0)) - 1.0) < 1e-15

    def test_symmetry(self):
        p = FieldParams(m=1.2, gamma=0.7)
        for k in (0.3, 1.1, 4.0):
            assert omega(k, p) == omega(-k, p)

    def test_ir_cutoff(self):
        p = FieldParams(m=0.5, gamma=2.0)  # M^2 = -0.75
        with pytest.raises(ImaginaryFrequency):
            omega(0.1, p)
        assert omega(1.0, p) == math.sqrt(1.0 - 0.75)


class TestEomResidual:
    def test_on_shell_random(self):
        rng = random.Random(42)
        for _ in range(200):
            m = rng.uniform(0.1, 3.0)
            gamma = rng.uniform(0.0, 2.5)
            p = FieldParams(m=m, gamma=gamma)
            kmin = math.sqrt(max(0.0, -p.m2_mod))
            k = rng.choice((-1, 1)) * rng.uniform(kmin + 1e-6, kmin + 4.0)
            branch = rng.choice(("plus", "minus"))
            mode = make_mode(branch, k, p,
                             Bicomplex(rng.uniform(-1, 1), rng.uniform(-1, 1), 0, 0),
                             Bicomplex(rng.uniform(-1, 1), rng.uniform(-1, 1), 0, 0))
            x, t = rng.uniform(-2, 2), rng.uniform(0, 2)
            res = eom_residual(mode, p, x, t)
            scale = field_value([mode], x, t).norm() * (1 + mode.omega ** 2 + k * k + m * m)
            assert res.norm() <= 1e-10 * max(scale, 1e-12)

    def test_flipped_damping_scale(self):
        p = FieldParams(m=1.0, gamma=1.0)
        good = make_mode("plus", 0.8, p, Bicomplex.one(), Bicomplex.zero())
        bad = good.__class__("plus", good.coeff_a, good.coeff_b, good.k,
                             good.omega, -good.Gamma)
        res = eom_residual(bad, p, 0.0, 0.0)
        # residual factor gamma^2 + 2 i gamma omega: the 2 gamma omega term
        # dominates the scale
        g, w = p.gamma, good.omega
        expect = math.hypot(g * g, 2.0 * g * w) * field_value([good], 0.0, 0.0).norm()
        assert res.norm() == pytest.approx(expect, rel=1e-10)

    def test_undamped_klein_gordon(self):
        p = FieldParams(m=1.0, gamma=0.0)
        mode = make_mode("plus", 1.3, p, Bicomplex(0.4, 0.3, 0, 0), Bicomplex.one())
        assert eom_residual(mode, p, 0.7, 1.9).norm() < 1e-12


class TestFieldValue:
    def test_phase_collapse(self):
        p = FieldParams(m=1.0, gamma=0.6)
        mode = make_mode("plus", 0.9, p, Bicomplex.one(), Bicomplex.zero())
        assert field_value([mode], 0.0, 0.0).is_close(J_PLUS, 1e-15)

    def test_conjugation_oracle(self):
        # conj of a plus-branch value equals the explicitly assembled mirror
        p = FieldParams(m=1.0, gamma=0.8)
        ca = Bicomplex(0.3, -0.2, 0.1, 0.5)
        cb = Bicomplex(-0.7, 0.4, 0.0, 0.2)
        mode = make_mode("plus", 1.1, p, ca, cb)
        x, t = 0.4, 1.3
        got = field_value([mode], x, t).conj()
        theta = mode.omega * t - mode.k * x
        e = Bicomplex.from_complex(cmath.exp(1j * theta))
        expect = J_MINUS * (math.exp(mode.Gamma * t) *
                            (cb.conj() * e + ca.conj() * e.conj()))
        assert got.is_close(expect, 1e-13)

    def test_undamped_modulus_constant(self):
        p = FieldParams(m=1.0, gamma=0.0)
        mode = make_mode("plus", 0.5, p, Bicomplex(1, 0, 0, 0), Bicomplex.zero())
        mags = [abs(field_value([mode], 0.2, t).plus()) for t in (0.0, 1.0, 5.0)]
        assert max(mags) - min(mags) < 1e-12

    def test_superposition(self):
        p = FieldParams(m=1.0, gamma=0.4)
        m1 = make_mode("plus", 0.5, p, Bicomplex.one(), Bicomplex.zero())
        m2 = make_mode("minus", 1.5, p, Bicomplex.zero(), Bicomplex(0, 1, 0, 0))
        total = field_value([m1, m2], 0.3, 0.7)
        assert total.is_close(field_value([m1], 0.3, 0.7) + field_value([m2], 0.3, 0.7),
                              1e-14)
