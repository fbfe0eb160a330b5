"""Equal-time field commutators: lattice evaluation, closed forms, oracle.

Three commutators arise.  With the difference bracket
B_diff = J+ (rho1 - conj rho4) + J- (conj rho1 - rho4) and the sum bracket
B_sum = J+ (rho1 + conj rho4) + J- (conj rho1 + rho4):

    [Omega, Omega+] = (2 pi)^n B_diff delta(dx)
    [Pi, Pi+]       = (2 pi)^n B_diff (delta'' - M^2 delta)(dx)
    [Omega, Pi]     = -i B_sum Integral omega_k e^{i k dx} dk
                    =  2 i B_sum (M/|dx|) K1(M |dx|)        (M^2 > 0, 1d)

All three follow mechanically from the commutation table; the lattice
route and the regularized-quadrature route are kept as independent
cross-checks of the closed forms.  The lattice route builds Omega and Pi
as OperatorPolys and contracts them term by term: both are linear in the
ladder operators and every ladder commutator is a central ring scalar,
so [A, B] = sum_pq a_p b_q [op_p, op_q] holds exactly, and the table
leaves only the pairs on the momentum diagonal (rho) and anti-diagonal
(sigma).  The cost is linear in the number of lattice modes.

Weighted variants use the 1/sqrt(omega_k) measure and swap the kernels
around (K0 for [Omega,Omega+], K1 for [Pi,Pi+], a plain delta for
[Omega,Pi]).

The unweighted and weighted quadrature oracles share one regulated
Simpson/Richardson rule and differ only in their integrands.  A per-mode
weight turns the lattice delta profile into delta'' - M^2 delta for
[Pi, Pi+].  Every kernel is derived for one spatial dimension.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import k0 as _scipy_k0, k1 as _scipy_k1, y1 as _scipy_y1

from .errors import DomainError, NonConvergent
from .modes import FieldParams, omega
from .operators import (CommutationTable, ModeOp, OperatorPoly, commutator,
                        generic_table)
from .ring import Bicomplex, J_MINUS, J_PLUS

TWO_PI = 2.0 * math.pi


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
    """J+ (rho1 - conj rho4) + J- (conj rho1 - rho4) at k = k' = 0."""
    r1 = table.rho_at(0, 0.0, 0.0)
    r4 = table.rho_at(3, 0.0, 0.0)
    return J_PLUS * (r1 - r4.conj()) + J_MINUS * (r1.conj() - r4)


def sum_bracket(table: CommutationTable) -> Bicomplex:
    """J+ (rho1 + conj rho4) + J- (conj rho1 + rho4) at k = k' = 0."""
    r1 = table.rho_at(0, 0.0, 0.0)
    r4 = table.rho_at(3, 0.0, 0.0)
    return J_PLUS * (r1 + r4.conj()) + J_MINUS * (r1.conj() + r4)


# ---------------------------------------------------------------------------
# structural results (delta-type kernels)
# ---------------------------------------------------------------------------

KERNEL_DELTA = "delta"
KERNEL_DELTA2_M2 = "delta_second_derivative_minus_M2_delta"
KERNEL_K1_OVER_DX = "bessel_K1_over_dx"
KERNEL_K0 = "bessel_K0"


@dataclass(frozen=True)
class CommutatorResult:
    """Structural commutator: coefficient times a named kernel.

    For delta kernels the value is coefficient * (2 pi)^n * kernel(dx);
    delta_coeff / delta2_coeff carry the split of composite kernels.
    value_at evaluates smooth kernels pointwise (None for distributions).
    """

    which: str
    coefficient: Bicomplex
    kernel: str
    delta_coeff: Optional[Bicomplex] = None
    delta2_coeff: Optional[Bicomplex] = None
    value_at: Optional[Callable[[float], Bicomplex]] = None


def commutator_omega_omegadagger(table: CommutationTable) -> CommutatorResult:
    """[Omega, Omega+]: a pure Dirac delta, independent of t, gamma and m."""
    coeff = difference_bracket(table)
    return CommutatorResult("omega_omega", coeff, KERNEL_DELTA,
                            delta_coeff=coeff)


def commutator_pi_pidagger(table: CommutationTable,
                           params: FieldParams) -> CommutatorResult:
    """[Pi, Pi+]: delta'' - M^2 delta with the same difference bracket."""
    coeff = difference_bracket(table)
    m2 = params.m2_mod
    return CommutatorResult("pi_pi", coeff, KERNEL_DELTA2_M2,
                            delta_coeff=coeff * Bicomplex.from_complex(-m2),
                            delta2_coeff=coeff)


# ---------------------------------------------------------------------------
# symbolic lattice route
# ---------------------------------------------------------------------------

def _ladder_poly(x: float, t: float, params: FieldParams,
                 table: CommutationTable, weighted: bool,
                 entries) -> OperatorPoly:
    """Sum over the lattice modes of single-ladder terms.

    entries(w, ph, damp, grow, meas) returns a mode's four (species,
    dagger, sector, coefficient) terms, given w = omega_k, ph = e^{i th}
    with th = omega_k t - k x, damp = e^{-gamma t/2}, grow = e^{+gamma t/2}
    and the measure meas (delta_k, over sqrt(omega_k) when weighted).
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
        for species, dagger, sector, coeff in entries(w, ph, damp, grow, meas):
            poly._merged((ModeOp(species, i, dagger),),
                         sector * Bicomplex.from_complex(coeff), out)
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
        return (("a1", False, J_PLUS, dp * ph), ("a2", True, J_PLUS, dp / ph),
                ("b1", True, J_MINUS, dm * ph), ("b2", False, J_MINUS, dm / ph))
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
        return (("b1", False, J_PLUS, cp / ph), ("b2", True, J_PLUS, -cp * ph),
                ("a1", True, J_MINUS, cm / ph), ("a2", False, J_MINUS, -cm * ph))
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
    each left term meets at most eight right terms: the cost is linear in
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
        right = field_operator_poly(xprime, t, params, table, weighted).adjoint()
    elif which == "pi_pi":
        left = momentum_operator_poly(x, t, params, table, weighted)
        right = momentum_operator_poly(xprime, t, params, table, weighted).adjoint()
    elif which == "omega_pi":
        left = field_operator_poly(x, t, params, table, weighted)
        right = momentum_operator_poly(xprime, t, params, table, weighted)
    else:
        raise ValueError(f"unknown commutator {which!r}")
    by_index: dict = {}
    for op, b in _linear_terms(right):
        by_index.setdefault(op.index, []).append((op, b))
    for op, a in _linear_terms(left):
        i = op.index
        mirror = table.mirror_index(i)
        for j in ((i, mirror) if mirror != i else (i,)):
            for op2, b in by_index.get(j, ()):
                c = commutator(op, op2, table)
                if not c.is_zero():
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
# regularized quadrature oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """The quadrature oracles' rule, which has no settings.

    The oracles keep their spec argument.  The rule is fixed: a Gaussian
    regulator e^{-eps k^2} with eps picked from dx, halved four times and
    extrapolated to 0; the last two extrapolants must agree (Cauchy test)
    or NonConvergent is raised.
    """


def _regularized_integral(adx: float, kshift: float, integrand) -> float:
    """2 Int_0^inf integrand(s) ds, regulated by e^{-eps s^2}, eps -> 0.

    Simpson's rule on [0, sqrt(40 / eps) + kshift] for a halving sequence
    of five eps, then Richardson extrapolation of the sequence.
    """
    # keep exp(-dx^2 / 4 eps) below ~1e-70 while keeping the O(eps) term,
    # whose coefficient grows like 1/dx^4, small enough for extrapolation
    eps0 = min(adx * adx / 660.0, 2e-3)
    vals = []
    for s in range(5):
        eps = eps0 / 2.0 ** s
        kmax = math.sqrt(40.0 / eps) + kshift
        n = max(8001, int(72.0 * kmax * adx / TWO_PI) | 1)
        grid = np.linspace(0.0, kmax, n)
        f = integrand(grid) * np.exp(-eps * grid * grid)
        vals.append(2.0 * _simpson(f, grid))
    return _richardson(vals)


def _omega_transform(dx: float, params: FieldParams) -> float:
    """Finite part of Integral_{-inf}^{inf} omega_k e^{i k dx} dk (1d, even).

    For M^2 >= 0 integrates 2 Int_0^inf sqrt(k^2 + M^2) cos(k dx); for
    M^2 < 0 the IR cutoff k^2 >= -M^2 applies and the substitution
    q = sqrt(k^2 + M^2) keeps the integrand smooth at the edge.
    """
    adx = abs(dx)
    if adx == 0.0:
        raise NonConvergent("omega transform has no finite part at dx = 0")
    m2 = params.m2_mod

    def integrand(s):
        if m2 >= 0.0:
            return np.sqrt(s * s + m2) * np.cos(s * adx)
        # s = q = sqrt(k^2 + M^2): k = sqrt(q^2 - M^2) >= sqrt(-M^2)
        kk = np.sqrt(s * s - m2)
        return (s * s / kk) * np.cos(kk * adx)

    return _regularized_integral(adx, math.sqrt(abs(m2)), integrand)


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    h = x[1] - x[0]
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum()
                            + 2.0 * y[2:-2:2].sum()))


def _richardson(vals: list[float]) -> float:
    """Extrapolate a sequence F(eps), F(eps/2), ... to eps -> 0."""
    table = [list(vals)]
    for j in range(1, len(vals)):
        prev = table[-1]
        table.append([(2.0 ** j * prev[i + 1] - prev[i]) / (2.0 ** j - 1.0)
                      for i in range(len(prev) - 1)])
    last = table[-1][0]
    prev = table[-2][0] if len(table) > 1 else last
    scale = max(abs(last), abs(vals[0]), 1e-300)
    if abs(last - prev) > 1e-4 * scale + 1e-12:
        raise NonConvergent(
            f"Richardson sequence failed its Cauchy test: {vals} -> {last}")
    return last


def commutator_omega_pi_quadrature(delta_x: float, params: FieldParams,
                                   spec: QuadratureSpec,
                                   table: CommutationTable) -> Bicomplex:
    """[Omega, Pi] by regularized quadrature; the oracle for the closed form.

    Evaluates -i B_sum * Integral omega_k e^{i k dx} dk with the Gaussian
    regulator and extrapolation; raises NonConvergent at dx = 0.
    """
    f = _omega_transform(delta_x, params)
    return Bicomplex.from_complex(-1j * f) * sum_bracket(table)


def commutator_omega_pi_closed(delta_x: float, params: FieldParams,
                               table: CommutationTable) -> Bicomplex:
    """Closed form of [Omega, Pi] in 1+1 dimensions, M^2 > 0.

    Oracle-validated form: 2 i B_sum (M / |dx|) K1(M |dx|).
    """
    m2 = params.m2_mod
    if m2 <= 0.0:
        raise DomainError(f"closed form requires M^2 > 0, got {m2}")
    if delta_x == 0.0:
        raise DomainError("commutator diverges at dx = 0")
    mmod = math.sqrt(m2)
    profile = (mmod / abs(delta_x)) * bessel_k(1, mmod * abs(delta_x))
    return Bicomplex.from_complex(2j * profile) * sum_bracket(table)


def commutator_omega_pi_m0_limit(delta_x: float, gamma: float,
                                 table: CommutationTable) -> Bicomplex:
    """m -> 0 limit of [Omega, Pi] (M^2 = -gamma^2/4, IR-cutoff integral).

    The cutoff integral evaluates to an oscillatory Bessel-Y form,
    Integral = (pi gamma / 2 |dx|) Y1(gamma |dx| / 2), so the commutator is
    -i B_sum times that.
    """
    if delta_x == 0.0:
        raise DomainError("commutator diverges at dx = 0")
    if gamma <= 0.0:
        raise DomainError("m -> 0 limit requires gamma > 0")
    adx = abs(delta_x)
    f0 = (math.pi * gamma / (2.0 * adx)) * float(_scipy_y1(gamma * adx / 2.0))
    return Bicomplex.from_complex(-1j * f0) * sum_bracket(table)


# ---------------------------------------------------------------------------
# weighted measure variants
# ---------------------------------------------------------------------------

def weighted_commutators(which: str, delta_x: float, params: FieldParams,
                         table: CommutationTable) -> CommutatorResult:
    """Commutators with the 1/sqrt(omega_k) integration weight.

    omega_omega -> 2 B_diff K0(M |dx|); pi_pi -> 2 B_diff (M/|dx|) K1(M |dx|);
    omega_pi -> -i B_sum times a plain (2 pi)^n delta.  The kernels are
    interchanged relative to the unweighted set.
    """
    if which == "omega_pi":
        coeff = Bicomplex.from_complex(-1j) * sum_bracket(table)
        return CommutatorResult("w_omega_pi", coeff, KERNEL_DELTA,
                                delta_coeff=coeff)
    m2 = params.m2_mod
    if m2 <= 0.0:
        raise DomainError(f"weighted kernels require M^2 > 0, got {m2}")
    mmod = math.sqrt(m2)
    bdiff = difference_bracket(table)
    if which == "omega_omega":
        def value_at(dx: float, _b=bdiff, _m=mmod) -> Bicomplex:
            if dx == 0.0:
                raise DomainError("K0 kernel diverges at dx = 0")
            return _b * Bicomplex.from_complex(2.0 * bessel_k(0, _m * abs(dx)))
        return CommutatorResult("w_omega_omega", bdiff, KERNEL_K0,
                                value_at=value_at)
    if which == "pi_pi":
        def value_at(dx: float, _b=bdiff, _m=mmod) -> Bicomplex:
            if dx == 0.0:
                raise DomainError("K1 kernel diverges at dx = 0")
            prof = 2.0 * (_m / abs(dx)) * bessel_k(1, _m * abs(dx))
            return _b * Bicomplex.from_complex(prof)
        return CommutatorResult("w_pi_pi", bdiff, KERNEL_K1_OVER_DX,
                                value_at=value_at)
    raise ValueError(f"unknown weighted commutator {which!r}")


def weighted_quadrature(which: str, delta_x: float, params: FieldParams,
                        spec: QuadratureSpec,
                        table: CommutationTable) -> Bicomplex:
    """Oracle for the weighted kernels by direct regularized integration."""
    adx = abs(delta_x)
    if adx == 0.0:
        raise NonConvergent("no finite part at dx = 0")
    m2 = params.m2_mod
    if m2 <= 0.0:
        raise DomainError("weighted oracle requires M^2 > 0")
    power = {"omega_omega": -1, "pi_pi": 1}[which]
    integral = _regularized_integral(
        adx, 0.0, lambda k: np.sqrt(k * k + m2) ** power * np.cos(k * adx))
    if which == "omega_omega":
        return difference_bracket(table) * Bicomplex.from_complex(integral)
    return difference_bracket(table) * Bicomplex.from_complex(-integral)


# ---------------------------------------------------------------------------
# figure sweeps
# ---------------------------------------------------------------------------

def figure_data(figure: str, grid, params: FieldParams,
                table: CommutationTable | None = None) -> list[tuple[float, float, float]]:
    """CSV-ready sweep (abscissa, re, im) for the commutator profiles.

    fig1: [Omega, Pi] closed form vs dx.     fig2: same vs M at fixed dx.
    fig6/fig6b: weighted [Omega, Omega+] vs dx / vs M.
    fig7/fig7b: weighted [Pi, Pi+] vs dx / vs M.
    grid is (lo, hi, steps) plus an optional fixed dx as 4th entry for the
    M sweeps (default 1.0).  Reported re/im are the plus-sector components.
    """
    if table is None:
        table = generic_table()
    lo, hi, steps = grid[0], grid[1], int(grid[2])
    fixed_dx = grid[3] if len(grid) > 3 else 1.0
    if steps < 1:
        raise DomainError("empty sweep")
    base = {"fig2": "fig1", "fig6b": "fig6", "fig7b": "fig7"}.get(figure, figure)
    if base not in ("fig1", "fig6", "fig7"):
        raise ValueError(f"unknown figure {figure!r}")
    xs = [lo + (hi - lo) * i / max(steps - 1, 1) for i in range(steps)]

    def kernel(dx: float, p: FieldParams) -> Bicomplex:
        if base == "fig1":
            return commutator_omega_pi_closed(dx, p, table)
        which = "omega_omega" if base == "fig6" else "pi_pi"
        return weighted_commutators(which, dx, p, table).value_at(dx)

    rows = []
    for x in xs:
        if figure == base:
            if x == 0.0:
                raise DomainError("sweep grid must avoid dx = 0")
            val = kernel(x, params).plus()
        else:
            if x <= 0.0:
                raise DomainError("M sweep requires M > 0")
            m = math.sqrt(x * x + params.gamma ** 2 / 4.0)
            val = kernel(fixed_dx, FieldParams(m=m, gamma=params.gamma)).plus()
        rows.append((x, val.real, val.imag))
    return rows
