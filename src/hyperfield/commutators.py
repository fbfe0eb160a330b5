"""Equal-time field commutators: lattice evaluation, closed forms, oracle.

With the difference bracket B_diff = J+ (rho1 - conj rho4) + J- (conj rho1
- rho4) and the sum bracket B_sum = J+ (rho1 + conj rho4) + J- (conj rho1
+ rho4), in one spatial dimension:

    [Omega, Omega+] = (2 pi) B_diff delta(dx)
    [Pi, Pi+]       = (2 pi) B_diff (delta'' - M^2 delta)(dx)
    [Omega, Pi]     = -i B_sum Integral omega_k e^{i k dx} dk
                    =  2 i B_sum (M/|dx|) K1(M |dx|)        (M^2 > 0)

The 1/sqrt(omega_k) measure swaps the kernels around (K0 for [Omega,
Omega+], K1 for [Pi, Pi+], a delta for [Omega, Pi]); at M^2 < 0, the
m -> 0 regime, the [Omega, Pi] integral runs above an IR cutoff and gives
a Bessel Y1.  These seven kernels are the rows of KERNELS, the one table
every reader dispatches on.  Each closed form is checked against the
quadrature oracle, a numpy rule whose double-exponential Fourier leg and
branch-cut trapezoid leg must agree on M |dx| in [1, 5] (QuadratureSpec).
The delta rows (the bracket times the lattice delta profile, sigma
ignored) are checked against lattice_commutator, the operator engine: it
builds Omega and Pi as OperatorPolys, linear in the ladder operators, and
contracts them term by term, [A, B] = sum_pq a_p b_q [op_p, op_q] with
every ladder commutator a central ring scalar.  The commutation table
leaves only the pairs on the momentum diagonal (rho) and anti-diagonal
(sigma), read once per pattern of species, daggers and index relation;
the rest is linear in the number of modes.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.special import k0 as _scipy_k0, k1 as _scipy_k1, y1 as _scipy_y1

from .errors import DomainError, NonConvergent
from .modes import FieldParams, omega
from .operators import CommutationTable, ModeOp, OperatorPoly, commutator
from .ring import Bicomplex, J_MINUS, J_PLUS, in_sector


def bessel_k(order: int, z: float) -> float:
    """Modified Bessel function of the second kind, order 0 or 1."""
    if z <= 0.0:
        raise DomainError(f"bessel_k requires z > 0, got {z}")
    if order == 0:
        return float(_scipy_k0(z))
    if order == 1:
        return float(_scipy_k1(z))
    raise DomainError(f"order must be 0 or 1, got {order}")


def difference_bracket(table: CommutationTable) -> Bicomplex:
    """J+ (rho1 - conj rho4) + J- (conj rho1 - rho4)."""
    r1, r4 = table.rho[0], table.rho[3]
    return J_PLUS * (r1 - r4.conj()) + J_MINUS * (r1.conj() - r4)


def sum_bracket(table: CommutationTable) -> Bicomplex:
    """J+ (rho1 + conj rho4) + J- (conj rho1 + rho4)."""
    r1, r4 = table.rho[0], table.rho[3]
    return J_PLUS * (r1 + r4.conj()) + J_MINUS * (r1.conj() + r4)


# ---------------------------------------------------------------------------
# symbolic lattice route
# ---------------------------------------------------------------------------

def _ladder_poly(x: float, t: float, params: FieldParams,
                 table: CommutationTable, weighted: bool,
                 entries) -> OperatorPoly:
    """Sum over the lattice modes of single-ladder terms.

    entries(w, ph, damp, grow, meas) returns a mode's four (species,
    dagger, plus, coefficient) terms, the coefficient in the J+ sector if
    plus else J-, given w = omega_k, ph = e^{i th} with th = omega_k t - k x,
    damp = e^{-gamma t/2}, grow = e^{+gamma t/2} and the measure meas
    (delta_k, over sqrt(omega_k) when weighted).
    """
    damp = math.exp(-params.gamma * t / 2.0)
    grow = math.exp(+params.gamma * t / 2.0)
    dk = table.delta_k
    out: dict = {}
    poly = OperatorPoly(out)
    for i in table.momentum_indices():
        k = table.momentum(i)
        w = omega(k, params)
        meas = dk / math.sqrt(w) if weighted else dk
        ph = cmath.exp(1j * (w * t - k * x))
        for species, dagger, plus, z in entries(w, ph, damp, grow, meas):
            poly._merged((tuple.__new__(ModeOp, (species, i, dagger)),),
                         in_sector(plus, z), out)
    return poly


def field_operator_poly(x: float, t: float, params: FieldParams,
                        table: CommutationTable,
                        weighted: bool = False) -> OperatorPoly:
    """Lattice field operator Omega(x, t) as an OperatorPoly.

    Plus sector: exp(-gamma t / 2) [a1(k) e^{i th} + a2+(k) e^{-i th}],
    minus sector: exp(+gamma t / 2) [b1+(k) e^{i th} + b2(k) e^{-i th}],
    th = omega_k t - k x, integrated as delta_k * sum over the lattice.
    """
    def entries(w, ph, damp, grow, meas):
        dp, dm = damp * meas, grow * meas
        return (("a1", False, True, dp * ph), ("a2", True, True, dp / ph),
                ("b1", True, False, dm * ph), ("b2", False, False, dm / ph))
    return _ladder_poly(x, t, params, table, weighted, entries)


def momentum_operator_poly(x: float, t: float, params: FieldParams,
                           table: CommutationTable,
                           weighted: bool = False) -> OperatorPoly:
    """Lattice conjugate momentum Pi(x, t) as an OperatorPoly.

    Pi = -{ e^{+gamma t/2} J+ i omega [b1 e^{-i th} - b2+ e^{i th}]
          + e^{-gamma t/2} J- i omega [a1+ e^{-i th} - a2 e^{i th}] }.
    """
    def entries(w, ph, damp, grow, meas):
        cp, cm = -1j * w * grow * meas, -1j * w * damp * meas
        return (("b1", False, True, cp / ph), ("b2", True, True, -cp * ph),
                ("a1", True, False, cm / ph), ("a2", False, False, -cm * ph))
    return _ladder_poly(x, t, params, table, weighted, entries)


def lattice_commutator(which: str, x: float, xprime: float, t: float,
                       params: FieldParams, table: CommutationTable,
                       weighted: bool = False) -> Bicomplex:
    """Equal-time commutator evaluated on the lattice as a contraction.

    which is one of 'omega_omega', 'pi_pi', 'omega_pi'.  Both operands are
    linear in the ladder operators, A = sum_p a_p op_p and B = sum_q b_q
    op_q, and every [op_p, op_q] is a central ring element, so

        [A, B] = sum_pq a_p b_q [op_p, op_q]

    exactly, with no word products and no normal ordering.  The table
    makes [op_p, op_q] vanish unless q sits at p's momentum index (rho
    terms) or at its mirror, the index of momentum -k (sigma terms), so
    each left term meets at most eight right terms.  [op_p, op_q] depends
    only on both species and daggers and on whether q's index equals or
    mirrors p's, so operators.commutator runs once per such pattern, at
    most 48 times at any lattice size; the rest of the cost is linear in
    the lattice size.  Raises ArithmeticError when an operand has a word
    that is not a single ladder operator, the case where the sum would
    not be central.
    """
    return sum(_contraction_terms(which, x, xprime, t, params, table,
                                  weighted), Bicomplex.zero())


def _contraction_terms(which: str, x: float, xprime: float, t: float,
                       params: FieldParams, table: CommutationTable,
                       weighted: bool):
    """The nonzero terms a_p b_q [op_p, op_q] of lattice_commutator, in order."""
    if which == "omega_omega":
        left = field_operator_poly(x, t, params, table, weighted)
        right = field_operator_poly(xprime, t, params, table, weighted)
    elif which == "pi_pi":
        left = momentum_operator_poly(x, t, params, table, weighted)
        right = momentum_operator_poly(xprime, t, params, table, weighted)
    elif which == "omega_pi":
        left = field_operator_poly(x, t, params, table, weighted)
        right = momentum_operator_poly(xprime, t, params, table, weighted)
    else:
        raise ValueError(f"unknown commutator {which!r}")
    by_index: dict = {}
    for (species, j, dagger), b in _linear_terms(right):
        if which != "omega_pi":    # the term of right.adjoint(), bit for bit
            dagger, b = not dagger, b.conj()
        by_index.setdefault(j, []).append((species, dagger, b))
    decided: dict = {}    # pattern -> [op_p, op_q], or None where it is 0
    for op, a in _linear_terms(left):
        species, i, dagger = op
        mirror = table.mirror_index(i)
        for j in ((i, mirror) if mirror != i else (i,)):
            for species2, dagger2, b in by_index.get(j, ()):
                key = (species, dagger, species2, dagger2, j == i, j == mirror)
                if key not in decided:
                    c = commutator(op, ModeOp(species2, j, dagger2), table)
                    decided[key] = None if c.is_zero() else c
                c = decided[key]
                if c is not None:
                    yield a * b * c


def _linear_terms(poly: OperatorPoly):
    """(ladder operator, coefficient) pairs of a poly linear in the ladders."""
    for word, coeff in poly.terms.items():
        if len(word) != 1:
            raise ArithmeticError(
                f"lattice_commutator needs operands linear in the ladder "
                f"operators, got the word {list(word)}")
        yield word[0], coeff


def lattice_delta_profile(dx: float, table: CommutationTable,
                          weight: Optional[Callable] = None) -> complex:
    """Lattice realization delta_k * sum_k e^{i k dx} of (2 pi) delta(dx).

    weight(k), when given, multiplies each mode: -k^2 - M^2 realizes
    (2 pi) (delta'' - M^2 delta)(dx).
    """
    ks = [table.momentum(i) for i in table.momentum_indices()]
    if weight is None:
        return table.delta_k * sum(cmath.exp(1j * k * dx) for k in ks)
    return table.delta_k * sum(weight(k) * cmath.exp(1j * k * dx) for k in ks)


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

Z_TRUSTED = (0.01, 30.0)    # sqrt(|M^2|) |dx| where the oracles answer


@dataclass(frozen=True)
class QuadratureSpec:
    """The quadrature oracles' rule, which has no settings.

    With z = sqrt(|M^2|) |dx| the rule answers on Z_TRUSTED and raises
    DomainError outside it.  The Fourier leg (trusted for z <= 5, and the
    only leg for M^2 < 0, the cutoff integral whose closed form is Y1)
    takes the growth off in closed form and integrates the rest by the
    double-exponential rule of Ooura and Mori (1999).  The decaying leg
    (z >= 1, M^2 > 0) moves the contour onto the branch cut at k = i M
    (DLMF 10.32.8-9) and applies the trapezoid rule, which converges
    exponentially there (Trefethen and Weideman, SIAM Rev. 56, 2014).
    Each leg halves its step until two estimates agree to 1e-10 relative;
    on 1 <= z <= 5 the legs must agree to 1e-9.  A failure raises
    NonConvergent.
    """


def _converged(estimates, what: str) -> complex:
    """First of a leg's step-halving estimates within 1e-10 of the last."""
    seen = []
    for est in estimates:
        if seen and abs(est - seen[-1]) <= 1e-10 * abs(est):
            return est
        seen.append(est)
    raise NonConvergent(f"{what} failed its step-halving test: {seen}")


@functools.cache
def _de_rule(level: int, sine: bool) -> tuple[np.ndarray, np.ndarray]:
    """y, w with Int_0^inf f(x) cos(d x) dx ~ w @ f(y / d) / d (sin if sine).

    x = level phi(t) / d, phi = t / (1 - e^{-u}), u = 2t + alpha (1 - e^{-t})
    + (e^t - 1) / 4, at t = (n - 1/2) pi / level (n pi / level for sin) in
    [-8, 6]; the terms outside fall below double precision.
    """
    h = math.pi / level
    alpha = 0.25 / math.sqrt(1.0 + level * math.log1p(level) / (4.0 * math.pi))
    n = np.arange(math.floor(-8.0 / h), math.ceil(6.0 / h) + 1)
    t = h * n if sine else h * (n - 0.5)
    t = t[t != 0.0]
    et = np.exp(t)
    u = 2.0 * t + alpha * (1.0 - 1.0 / et) + 0.25 * (et - 1.0)
    phi = t / -np.expm1(-u)
    dphi = (1.0 - phi * (2.0 + alpha / et + 0.25 * et) * np.exp(-u)) * phi / t
    if sine:  # t = 0: phi = 1/a, phi' = (a^2 - b) / 2a^2; a, b = u'(0), u''(0)
        a, b = 2.25 + alpha, 0.25 - alpha
        phi = np.append(phi, 1.0 / a)
        dphi = np.append(dphi, (a * a - b) / (2.0 * a * a))
    y = level * phi
    w = math.pi * dphi * (np.sin(y) if sine else np.cos(y))
    y.flags.writeable = w.flags.writeable = False   # shared by the cache
    return y, w


def _fourier(f, d: float, sine: bool = False):
    """Int_0^inf f(x) cos(d x) dx (sin if sine) at DE levels 20, 40, 80."""
    for level in (20, 40, 80):
        y, w = _de_rule(level, sine)
        yield float(w @ f(y / d)) / d


def _fourier_leg(power: int, adx: float, m2: float) -> float:
    """2 Int omega^power cos(k dx) dk over k >= kc = sqrt(max(-M^2, 0)).

    With k = kc + x, omega = x + kc + M^2 / (omega + x + kc), and the
    growth integrates to 2 Int_0^inf (x + kc) cos(k dx) dx
    = -2 cos(kc dx) / dx^2 - 2 kc sin(kc dx) / dx; 1/omega decays as is.
    """
    kc = math.sqrt(max(-m2, 0.0))

    def rest(x):
        omega_x = np.sqrt(x * (x + 2.0 * kc) + max(m2, 0.0))
        return m2 / (omega_x + x + kc) if power == 1 else 1.0 / omega_x

    sines = (False, True) if kc else (False,)   # sin only past a cutoff
    parts = zip(*[_fourier(rest, adx, sine) for sine in sines])
    g = _converged((complex(*cs) for cs in parts), "Fourier leg")
    ph = cmath.exp(1j * kc * adx)
    growth = ph.real / adx ** 2 + kc * ph.imag / adx if power == 1 else 0.0
    return 2.0 * ((ph * g).real - growth)


def _decaying_leg(power: int, z: float, m2: float) -> float:
    """-2 (M/|dx|) K1(z) (power 1) or 2 K0(z) (power -1), z = M |dx|.

    Trapezoid rule on M^2 Int_0^inf e^{-z cosh u} sinh^2 u du or on
    Int_0^inf e^{-z cosh u} du, cut off where the integrand has fallen to
    e^{-745} of its value at u = 0.
    """
    umax = math.acosh(1.0 + 745.0 / z)

    def estimates():
        for panels in (32, 64, 128, 256, 512):
            u = np.linspace(0.0, umax, panels + 1)
            f = np.exp(-z * np.cosh(u)) * np.sinh(u) ** (power + 1)
            yield float(umax / panels * (f.sum() - 0.5 * (f[0] + f[-1])))

    cut = _converged(estimates(), "decaying leg")
    return -2.0 * m2 * cut if power == 1 else 2.0 * cut


def _cos_transform(power: int, delta_x: float, m2: float) -> float:
    """Finite part of Integral omega_k^power e^{i k dx} dk over k^2 >= -M^2."""
    adx = abs(delta_x)
    if adx == 0.0:
        raise NonConvergent("omega transform has no finite part at dx = 0")
    z = math.sqrt(abs(m2)) * adx
    if not Z_TRUSTED[0] <= z <= Z_TRUSTED[1]:
        raise DomainError(f"the quadrature oracle needs sqrt(|M^2|) |dx| in "
                          f"{list(Z_TRUSTED)}, got {z:.6g}")
    legs = [_fourier_leg(power, adx, m2)] if z <= 5.0 or m2 < 0.0 else []
    if z >= 1.0 and m2 > 0.0:
        legs.append(_decaying_leg(power, z, m2))
    if abs(legs[0] - legs[-1]) > 1e-9 * abs(legs[-1]):
        raise NonConvergent(f"the Fourier and decaying legs disagree at "
                            f"M |dx| = {z:.6g}: {legs}")
    return legs[-1]


# ---------------------------------------------------------------------------
# the kernel table
# ---------------------------------------------------------------------------

class Kernel(NamedTuple):
    """One commutator kernel: bracket(table) (B_diff, B_sum or -i B_sum)
    times a profile in dx.

    A delta row's profile is lattice_delta_profile(dx, table, weight(M^2))
    (a plain delta when weight is None).  A Bessel row has the closed form
    profile(sqrt|M^2|, |dx|) where M^2 has the sign `side`, and the oracle
    bracket * scale * (finite part of Integral omega_k^power e^{ikdx} dk).
    figures are its dx and M sweeps; verb: a `commutator --which` choice.
    """

    bracket: Callable[[CommutationTable], Bicomplex]
    weight: Optional[Callable] = None
    profile: Optional[Callable[[float, float], complex]] = None
    power: int = 0
    scale: complex = 0.0
    side: int = 1
    figures: tuple = ()
    verb: bool = True

    def _m2(self, params: FieldParams) -> float:
        m2 = params.m2_mod
        if m2 * self.side <= 0.0:
            raise DomainError(f"closed form requires M^2 "
                              f"{'>' if self.side > 0 else '<'} 0, got {m2}")
        return m2

    def bind(self, params: FieldParams,
             table: CommutationTable) -> Callable[[float], Bicomplex]:
        """The kernel at these params and table, as a function of dx."""
        bracket = self.bracket(table)
        if self.profile is None:
            weight = self.weight and self.weight(params.m2_mod)
            return lambda dx: bracket * Bicomplex.from_complex(
                lattice_delta_profile(dx, table, weight))
        r, profile = math.sqrt(abs(self._m2(params))), self.profile

        def value_at(dx: float) -> Bicomplex:
            if dx == 0.0:
                raise DomainError("commutator diverges at dx = 0")
            return bracket * Bicomplex.from_complex(profile(r, abs(dx)))
        return value_at

    def oracle(self, delta_x: float, params: FieldParams,
               table: CommutationTable) -> Bicomplex:
        """The Bessel row's value by the quadrature rule in QuadratureSpec."""
        f = _cos_transform(self.power, delta_x, self._m2(params))
        return self.bracket(table) * Bicomplex.from_complex(self.scale * f)


# Rows call the brackets, bessel_k, _scipy_y1 and lattice_delta_profile as
# module globals, looked up per call, so a replaced attribute is the one run.
# Each profile keeps the float operations of the form it states.
KERNELS = {
    # (2 pi) B_diff delta(dx)
    "omega-omega": Kernel(lambda t: difference_bracket(t)),
    # [Omega, Pi] = 2 i B_sum (M/|dx|) K1(M |dx|), M^2 > 0
    "omega-pi": Kernel(
        lambda t: sum_bracket(t), power=1, scale=-1j, figures=("fig1", "fig2"),
        profile=lambda r, adx: 2j * ((r / adx) * bessel_k(1, r * adx))),
    # (2 pi) B_diff (delta'' - M^2 delta)(dx): the modes weighted -k^2 - M^2
    "pi-pi": Kernel(lambda t: difference_bracket(t),
                    weight=lambda m2: lambda k: -k ** 2 - m2),
    # weighted [Omega, Omega+] = 2 B_diff K0(M |dx|)
    "w-omega-omega": Kernel(
        lambda t: difference_bracket(t), power=-1, scale=1.0,
        figures=("fig6", "fig6b"),
        profile=lambda r, adx: 2.0 * bessel_k(0, r * adx)),
    # weighted [Omega, Pi] = (2 pi) (-i B_sum) delta(dx)
    "w-omega-pi": Kernel(
        lambda t: Bicomplex.from_complex(-1j) * sum_bracket(t)),
    # weighted [Pi, Pi+] = 2 B_diff (M/|dx|) K1(M |dx|)
    "w-pi-pi": Kernel(
        lambda t: difference_bracket(t), power=1, scale=-1.0,
        figures=("fig7", "fig7b"),
        profile=lambda r, adx: 2.0 * bessel_k(1, r * adx) * (r / adx)),
    # [Omega, Pi] for M^2 < 0, the m -> 0 regime: the integral over the
    # modes above the IR cutoff r is (pi r/|dx|) Y1(r |dx|); not a verb
    "omega-pi-m0": Kernel(
        lambda t: sum_bracket(t), power=1, scale=-1j, side=-1, verb=False,
        profile=lambda r, adx: -1j * ((math.pi * r / adx)
                                      * float(_scipy_y1(r * adx)))),
}


def _row(which: str, weighted: bool, delta: bool) -> Kernel:
    """The delta (or Bessel) row of 'omega_omega', 'pi_pi' or 'omega_pi',
    weighted by 1/sqrt(omega_k) or not; ValueError if there is none."""
    kernel = KERNELS.get(("w-" if weighted else "") + which.replace("_", "-"))
    if kernel is None or (kernel.profile is None) != delta:
        raise ValueError(f"unknown {'delta-type' if delta else 'Bessel'} "
                         f"commutator {which!r}")
    return kernel


def delta_commutator(which: str, dx: float, params: FieldParams,
                     table: CommutationTable) -> Bicomplex:
    """The omega_omega, pi_pi or (weighted) omega_pi delta row at dx.

    It ignores sigma; on a sigma-free table it equals
    lattice_commutator(which, x, x + dx, t, ...) at any x and t.  Squaring
    an overflowing momentum raises OverflowError.
    """
    return _row(which, which == "omega_pi", True).bind(params, table)(dx)


def commutator_omega_pi_closed(delta_x: float, params: FieldParams,
                               table: CommutationTable) -> Bicomplex:
    """The omega-pi row: 2 i B_sum (M/|dx|) K1(M |dx|), M^2 > 0."""
    return KERNELS["omega-pi"].bind(params, table)(delta_x)


def commutator_omega_pi_quadrature(delta_x: float, params: FieldParams,
                                   spec: QuadratureSpec,
                                   table: CommutationTable) -> Bicomplex:
    """Oracle of [Omega, Pi] on either side of M^2 (the omega-pi and
    omega-pi-m0 rows); raises NonConvergent at dx = 0."""
    row = "omega-pi" if params.m2_mod > 0.0 else "omega-pi-m0"
    return KERNELS[row].oracle(delta_x, params, table)


def weighted_commutators(which: str, delta_x: float, params: FieldParams,
                         table: CommutationTable) -> SimpleNamespace:
    """value_at(dx) of the w-omega-omega (2 B_diff K0(M |dx|)) or w-pi-pi
    (2 B_diff (M/|dx|) K1(M |dx|)) row; delta_x is unused."""
    kernel = _row(which, True, False)
    return SimpleNamespace(value_at=kernel.bind(params, table))


def weighted_quadrature(which: str, delta_x: float, params: FieldParams,
                        spec: QuadratureSpec,
                        table: CommutationTable) -> Bicomplex:
    """Oracle of the w-omega-omega or w-pi-pi row."""
    return _row(which, True, False).oracle(delta_x, params, table)


# ---------------------------------------------------------------------------
# figure sweeps
# ---------------------------------------------------------------------------

def sweep_grid(lo: float, hi: float, steps: int) -> list[float]:
    """steps evenly spaced abscissae from lo to hi (lo alone when steps is 1)."""
    return [lo + (hi - lo) * i / max(steps - 1, 1) for i in range(steps)]


def figure_data(figure: str, grid, params: FieldParams,
                table: CommutationTable) -> list[tuple[float, float, float]]:
    """CSV-ready sweep (abscissa, re, im) of a Bessel row's closed form.

    fig1, fig6 and fig7 (omega-pi, w-omega-omega, w-pi-pi) sweep dx; fig2,
    fig6b and fig7b sweep M at a fixed dx, grid's optional 4th entry
    (default 1.0) after (lo, hi, steps).  re/im are the plus sector.
    """
    lo, hi, steps = grid[0], grid[1], int(grid[2])
    fixed_dx = grid[3] if len(grid) > 3 else 1.0
    if steps < 1:
        raise DomainError("empty sweep")
    kernel = next((k for k in KERNELS.values() if figure in k.figures), None)
    if kernel is None:
        raise ValueError(f"unknown figure {figure!r}")
    xs = sweep_grid(lo, hi, steps)
    if figure == kernel.figures[0]:
        value_at = kernel.bind(params, table)
    elif min(xs) <= 0.0:
        raise DomainError("M sweep requires M > 0")
    else:
        def value_at(x: float) -> Bicomplex:  # the kernel at M = x
            m = math.sqrt(x * x + params.gamma ** 2 / 4.0)
            p = FieldParams(m=m, gamma=params.gamma)
            return kernel.bind(p, table)(fixed_dx)
    vals = [value_at(x).plus() for x in xs]
    return [(x, val.real, val.imag) for x, val in zip(xs, vals)]
