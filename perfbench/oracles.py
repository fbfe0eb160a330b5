"""Reference values computed apart from hyperfield, and the checks built on them.

Nothing here imports hyperfield.  Bicomplex numbers are handled in their
idempotent form: a pair (plus, minus) of standard complex numbers with
a = J+ plus + J- minus, read off the four real components (x, y, u, v)
as plus = (x + u) + i (y + v) and minus = (x - u) + i (y - v).

Every check returns None when the output is right and a short reason when
it is wrong, so that the self-tests can hand it a wrong answer and see it
refused.
"""

from __future__ import annotations

import math

import numpy as np

# tolerances, relative to a scale that cannot vanish
LATTICE_TOL = 1e-12     # contraction sums vs lattice_commutator
VEV_RATIO = 1e-12       # constrained <H>, <Q> against their generic values
VEV_FLOOR = 1e-6        # generic values must exceed this
SUM_TOL = 1e-12         # sector sums of the truncated exponential
AMP_TOL = 1e-12         # first-order asymptotic amplitudes
CLOSED_TOL = 1e-12      # closed forms vs mpmath
ORACLE_TOL = 1e-6       # quadrature oracle vs mpmath
CSV_TOL = 1e-10         # CSV rows: 12 significant digits in x and in value

BESSEL_DPS = 20


def sectors(x, y, u, v) -> tuple[complex, complex]:
    """(plus, minus) sector components of x + i y + j u + ij v."""
    return complex(x + u, y + v), complex(x - u, y - v)


def bar(s: tuple[complex, complex]) -> tuple[complex, complex]:
    """Bar conjugation (negate the i and j parts) in sector form."""
    return s[1].conjugate(), s[0].conjugate()


def brackets(rho1, rho4):
    """Difference and sum brackets from the rho1, rho4 sector pairs.

    B_diff = J+ (rho1 - bar rho4) + J- (bar rho1 - rho4),
    B_sum  = J+ (rho1 + bar rho4) + J- (bar rho1 + rho4).
    """
    b1, b4 = bar(rho1), bar(rho4)
    diff = (rho1[0] - b4[0], b1[1] - rho4[1])
    summ = (rho1[0] + b4[0], b1[1] + rho4[1])
    return diff, summ


def momenta(N: int, dk: float, stagger: bool) -> np.ndarray:
    idx = np.arange(-N, N) if stagger else np.arange(-N, N + 1)
    return (idx + (0.5 if stagger else 0.0)) * dk


def omega(k, m: float, gamma: float):
    return np.sqrt(np.asarray(k, dtype=float) ** 2 + m * m - gamma * gamma / 4.0)


def contraction(which: str, weighted: bool, dx: float, m: float,
                gamma: float, k: np.ndarray, dk: float, rho1, rho4):
    """Equal-time field commutator as a contraction sum over the lattice.

    [Omega, Omega+] =      B_diff dk sum_k w^(-p)  e^{i k dx}
    [Pi, Pi+]       =    - B_diff dk sum_k w^(2-p) e^{i k dx}
    [Omega, Pi]     = -i   B_sum  dk sum_k w^(1-p) e^{i k dx}
    with p = 1 for the 1/sqrt(w) measure and 0 otherwise.  Returns the
    (plus, minus) sectors and the scale dk sum_k |w^power|.
    """
    p = 1 if weighted else 0
    power, factor, use_diff = {"omega_omega": (-p, 1.0, True),
                               "pi_pi": (2 - p, -1.0, True),
                               "omega_pi": (1 - p, -1j, False)}[which]
    w = omega(k, m, gamma) ** power
    s = dk * complex(np.sum(w * np.exp(1j * k * dx)))
    scale = dk * float(np.sum(np.abs(w)))
    diff, summ = brackets(rho1, rho4)
    b = diff if use_diff else summ
    return (factor * b[0] * s, factor * b[1] * s), scale


def h_gamma_diag(k: float, m: float, gamma: float) -> complex:
    """2 w'w + k'k/2 + i gamma (w' + w)/2 + M^2/2 at k' = k."""
    w = float(omega(k, m, gamma))
    m2 = m * m - gamma * gamma / 4.0
    return 2.0 * w * w + 0.5 * k * k + 0.5j * gamma * (2.0 * w) + 0.5 * m2


def ket_count(labels: int, order: int) -> int:
    """Kets of a truncated two-sector exponential with `labels` per sector."""
    return 1 + 2 * sum(math.comb(labels + n - 1, n) for n in range(1, order + 1))


def truncated_exp(z: complex, order: int) -> tuple[complex, float]:
    """sum_{n <= order} z^n / n! and the scale sum |z|^n / n!."""
    val = sum(z ** n / math.factorial(n) for n in range(order + 1))
    scale = sum(abs(z) ** n / math.factorial(n) for n in range(order + 1))
    return val, scale


def bessel_k(n: int, z: float) -> float:
    """K_n(z) by mpmath at BESSEL_DPS digits."""
    import mpmath
    with mpmath.workdps(BESSEL_DPS):
        return float(mpmath.besselk(n, z))


def smooth_kernel(which: str, dx: float, mmod: float) -> complex:
    """Plus-sector value of a Bessel kernel for unit brackets.

    omega_pi: 2 i (M/|dx|) K1(M|dx|);  w_omega_omega: 2 K0(M|dx|);
    w_pi_pi: 2 (M/|dx|) K1(M|dx|).
    """
    z = mmod * abs(dx)
    if which == "omega_pi":
        return 2j * (mmod / abs(dx)) * bessel_k(1, z)
    if which == "w_omega_omega":
        return complex(2.0 * bessel_k(0, z))
    if which == "w_pi_pi":
        return complex(2.0 * (mmod / abs(dx)) * bessel_k(1, z))
    raise ValueError(which)


# -- checks --------------------------------------------------------------------

def rel_gap(got, want, scale: float) -> float:
    """Largest sector difference divided by a nonvanishing scale."""
    return max(abs(complex(g) - complex(w)) for g, w in zip(got, want)) / scale


def check_close(got, want, scale: float, tol: float, what: str):
    gap = rel_gap(got, want, scale)
    if not gap <= tol:
        return f"{what}: relative gap {gap:.3e} > {tol:.0e}"
    return None


def check_vev_pair(constrained: float, generic: float, what: str):
    """Constrained value at most VEV_RATIO of a nonzero generic value."""
    if not generic > VEV_FLOOR:
        return f"{what}: generic |vev| {generic:.3e} not above {VEV_FLOOR:.0e}"
    if not constrained <= VEV_RATIO * generic:
        return (f"{what}: constrained |vev| {constrained:.3e} above "
                f"{VEV_RATIO:.0e} of generic {generic:.3e}")
    return None
