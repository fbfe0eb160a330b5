"""Hamiltonian and charge observables, geometry kernel, Noether residual.

The Hamiltonian couples the two sectors through projected anticommutator
pairs weighted by h_gamma(k, k') and a geometry factor; on the infinite
line the geometry kernel is a lattice Dirac delta and the double momentum
sum becomes diagonal.  The charge operator is anti-Hermitian and
its vacuum expectation cancels exactly under the constrained vacuum rules.
noether_residual is the classical current-conservation check, and its j0
is the package's one route to the charge density; no criterion reads it
yet.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError
from .modes import (FieldParams, ModeSolution, field_space_derivative,
                    field_time_derivative, field_value, omega)
from .operators import (CommutationTable, ModeOp, OperatorPoly, VacuumRules,
                        merge_pair, vev)
from .ring import Bicomplex, J_UNIT, in_sector

TWO_PI = 2.0 * math.pi

INFINITE_LINE = "infinite_line"
FINITE_INTERVAL = "finite_interval"


@dataclass(frozen=True)
class GeometrySpec:
    """Spatial region of the total system: full line or [L1, L2]."""

    kind: str = INFINITE_LINE
    L1: float = 0.0
    L2: float = 0.0

    def __post_init__(self):
        if self.kind not in (INFINITE_LINE, FINITE_INTERVAL):
            raise ValueError(f"unknown geometry {self.kind!r}")
        if self.kind == FINITE_INTERVAL and not self.L2 > self.L1:
            raise ValueError("finite interval requires L2 > L1")

    @property
    def length(self) -> float:
        return self.L2 - self.L1


def h_gamma(k: float, kprime: float, params: FieldParams) -> complex:
    """Quadratic Hamiltonian weight

    2 w' w + k' k / 2 + i gamma (w' + w) / 2 + (m^2 - gamma^2/4) / 2.

    On the diagonal k' = k the real part collapses to (5/2) w^2, the origin
    of the factor 5 in the asymptotic-state kernels.
    """
    return _h_weight(k, kprime, omega(k, params), omega(kprime, params), params)


def _h_weight(k: float, kprime: float, w: float, wp: float,
              params: FieldParams) -> complex:
    """h_gamma(k, k') given w = omega(k) and wp = omega(k')."""
    return (2.0 * wp * w + 0.5 * kprime * k
            + 0.5j * params.gamma * (wp + w) + 0.5 * params.m2_mod)


def geometry_kernel(q: float, geom: GeometrySpec) -> complex:
    """Spatial integral I(q) = Integral_system e^{-i q x} dx.

    Finite interval: (e^{-i q L1} - e^{-i q L2}) / (i q), with I(0) equal
    to the total length.  Raises DomainError when q L1 or q L2 overflows.
    The infinite line's 2 pi delta(q) is the diagonal of
    hamiltonian_terms; it raises DomainError here.
    """
    if geom.kind != FINITE_INTERVAL:
        raise DomainError("the infinite-line kernel is a lattice delta")
    if q == 0.0:
        return complex(geom.length)
    try:
        return (cmath.exp(-1j * q * geom.L1)
                - cmath.exp(-1j * q * geom.L2)) / (1j * q)
    except ValueError:  # q L overflowed, and e^{-i inf} has no value
        raise DomainError(f"interval [{geom.L1:g}, {geom.L2:g}] overflows "
                          f"the phase q L at q = {q:g}") from None


def hamiltonian_terms(params: FieldParams, geom: GeometrySpec,
                      table: CommutationTable, t: float = 0.0):
    """Yield (k_index, kp_index, weight) for the displayed half of H.

    weight = delta_k^2 H_gamma(k, k') e^{i (w_k - w_k') t} I(k - k'); for
    the infinite line only the diagonal survives.
    """
    dk = table.delta_k
    idx = table.momentum_indices()
    if geom.kind == INFINITE_LINE:
        for i in idx:
            k = table.momentum(i)
            w = omega(k, params)
            yield i, i, dk * dk * _h_weight(k, k, w, w, params) * (TWO_PI / dk)
        return
    ks = [table.momentum(i) for i in idx]
    modes = list(zip(idx, ks, [omega(k, params) for k in ks]))
    for i, k, w in modes:
        for j, kp, wp in modes:
            kern = geometry_kernel(k - kp, geom)
            g = cmath.exp(1j * (w - wp) * t) * kern if kern != 0.0 else 0.0
            if g != 0.0:
                yield i, j, dk * dk * _h_weight(k, kp, w, wp, params) * g


def hamiltonian_poly(params: FieldParams, geom: GeometrySpec,
                     table: CommutationTable, t: float = 0.0) -> OperatorPoly:
    """Lattice Hamiltonian operator (displayed part plus Hermitian conjugate).

    H = sum w(k,k') [J+ {a1(k), b1(k')} + J- {b2(k'), a2(k)}] + h.c.;
    the conjugate part carries conj(w) on [J- {a1+, b1+} + J+ {b2+, a2+}].
    No damping factor enters: the idempotent projectors cancel them.
    """
    total = OperatorPoly.zero()
    ops = _site_ops(table)
    for i, j, w in hamiltonian_terms(params, geom, table, t):
        wc = w.conjugate()
        a1, a2, a1d, a2d = ops[i][0::2]
        b1, b2, b1d, b2d = ops[j][1::2]
        merge_pair(total, a1, b1, in_sector(True, w))
        merge_pair(total, b2, a2, in_sector(False, w))
        merge_pair(total, a1d, b1d, in_sector(False, wc))
        merge_pair(total, b2d, a2d, in_sector(True, wc))
    return total


def charge_poly(params: FieldParams, table: CommutationTable) -> OperatorPoly:
    """Charge operator in its momentum-diagonal (infinite line) form.

    Q = -2i dk sum_k w_k [ J+{a1, b1} + J-{a1+, b1+}
                          - (J+{b2+, a2+} + J-{b2, a2}) ];
    anti-Hermitian by construction.
    """
    total = OperatorPoly.zero()
    dk = table.delta_k
    for i, (a1, b1, a2, b2, a1d, b1d, a2d, b2d) in _site_ops(table).items():
        w = omega(table.momentum(i), params)
        c, mc = -2j * dk * w, 2j * dk * w
        merge_pair(total, a1, b1, in_sector(True, c))
        merge_pair(total, a1d, b1d, in_sector(False, c))
        merge_pair(total, b2d, a2d, in_sector(True, mc))
        merge_pair(total, b2, a2, in_sector(False, mc))
    return total


def _site_ops(table: CommutationTable) -> dict:
    """index -> (a1, b1, a2, b2, then the four daggered), built once."""
    return {i: tuple(ModeOp(s, i, dagger) for dagger in (False, True)
                     for s in ("a1", "b1", "a2", "b2"))
            for i in table.momentum_indices()}


def noether_residual(modes: list[ModeSolution], params: FieldParams,
                     x: float, t: float, h: float = 1e-3) -> Bicomplex:
    """Finite-difference residual of the conservation law d_t j0 = d_x flux.

    j0 = conj(W) dW/dt - W dconj(W)/dt + j gamma W conj(W) (the last term is
    the dissipative addition); flux = conj(W) dW/dx - W dconj(W)/dx.
    O(h^2) residual for on-shell modes.
    """
    def j0(xx: float, tt: float) -> Bicomplex:
        w = field_value(modes, xx, tt)
        wd = field_time_derivative(modes, xx, tt)
        return (w.conj() * wd - w * wd.conj()
                + J_UNIT * Bicomplex.from_complex(params.gamma) * w * w.conj())

    def flux(xx: float, tt: float) -> Bicomplex:
        w = field_value(modes, xx, tt)
        wx = field_space_derivative(modes, xx, tt)
        return w.conj() * wx - w * wx.conj()

    dt_j0 = (j0(x, t + h) - j0(x, t - h)) * (1.0 / (2.0 * h))
    dx_flux = (flux(x + h, t) - flux(x - h, t)) * (1.0 / (2.0 * h))
    return dt_j0 - dx_flux


def vev_Q(params: FieldParams, table: CommutationTable,
          rules: VacuumRules) -> Bicomplex:
    """Vacuum expectation of the charge; exactly zero when constrained."""
    return vev(charge_poly(params, table), rules, table)
