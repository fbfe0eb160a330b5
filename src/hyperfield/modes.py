"""Classical field layer: dispersion relation, damped plane-wave modes.

The coupled equations of motion split over the idempotent basis into a
damped sector (J+, coefficient -gamma/2) and an anti-damped mirror sector
(J-, coefficient +gamma/2).  Space is one-dimensional, so momenta are
scalars.  Only real frequencies are admitted; momenta with k^2 + M^2 < 0
fall in the IR-cutoff region and are rejected.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ImaginaryFrequency
from .ring import Bicomplex, J_MINUS, J_PLUS

PLUS = "plus"
MINUS = "minus"


@dataclass(frozen=True)
class FieldParams:
    """Mass m >= 0 and dissipation gamma >= 0."""

    m: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.m < 0 or self.gamma < 0:
            raise ValueError("m and gamma must be nonnegative")

    @property
    def m2_mod(self) -> float:
        """Modified mass squared M^2 = m^2 - gamma^2/4."""
        return self.m * self.m - self.gamma * self.gamma / 4.0


def omega(k: float, params: FieldParams) -> float:
    """Positive frequency sqrt(k^2 + M^2).

    Raises ImaginaryFrequency when k^2 + M^2 < 0 (IR-cutoff region for
    gamma > 2m).
    """
    rad = k * k + params.m2_mod
    if rad < 0.0:
        raise ImaginaryFrequency(
            f"k^2 + M^2 = {rad} < 0: momentum below the IR cutoff")
    return math.sqrt(rad)


@dataclass(frozen=True)
class ModeSolution:
    """One damped plane-wave mode of a single sector.

    The mode contributes  P exp(Gamma t) [A e^{i theta} + B e^{-i theta}]
    with theta = omega t - k.x, P the sector projector, A = coeff_a and
    B = coeff_b.
    """

    branch: str
    coeff_a: Bicomplex
    coeff_b: Bicomplex
    k: float
    omega: float
    Gamma: float

    def projector(self) -> Bicomplex:
        return J_PLUS if self.branch == PLUS else J_MINUS


def make_mode(branch: str, k: float, params: FieldParams,
              coeff_a: Bicomplex, coeff_b: Bicomplex) -> ModeSolution:
    """Mode with frequency and damping consistent with the field parameters."""
    if branch not in (PLUS, MINUS):
        raise ValueError(f"unknown branch {branch!r}")
    half = params.gamma / 2.0
    return ModeSolution(branch, coeff_a, coeff_b, k, omega(k, params),
                        -half if branch == PLUS else half)


def _superpose(modes: list[ModeSolution], x, t: float, factors) -> Bicomplex:
    """Sum of P e^{Gamma t} [A fa e^{i theta} + B fb e^{-i theta}] over modes.

    factors(mode) gives the multipliers (fa, fb) of the two phases, which
    carry whatever derivative or operator is applied to the mode.
    """
    total = Bicomplex.zero()
    for mode in modes:
        fa, fb = factors(mode)
        damp = math.exp(mode.Gamma * t)
        ephase = cmath.exp(1j * complex(mode.omega * t - mode.k * x))
        osc = (mode.coeff_a * Bicomplex.from_complex(fa * ephase)
               + mode.coeff_b * Bicomplex.from_complex(fb / ephase))
        total = total + mode.projector() * (damp * osc)
    return total


def field_value(modes: list[ModeSolution], x, t: float) -> Bicomplex:
    """Superposition of mode contributions at the spacetime point (x, t)."""
    return _superpose(modes, x, t, lambda _: (1.0, 1.0))


def field_time_derivative(modes: list[ModeSolution], x, t: float) -> Bicomplex:
    return _superpose(modes, x, t, lambda mode: (
        mode.Gamma + 1j * mode.omega, mode.Gamma - 1j * mode.omega))


def field_space_derivative(modes: list[ModeSolution], x, t: float) -> Bicomplex:
    return _superpose(modes, x, t, lambda mode: (-1j * mode.k, 1j * mode.k))


def eom_residual(mode: ModeSolution, params: FieldParams, x, t: float) -> Bicomplex:
    """Residual of the sector equation of motion at (x, t).

    Evaluates d_t^2 - laplacian +/- gamma d_t + m^2 on the mode via its
    analytic derivatives; the sign of the dissipative term is + for the
    plus sector and - for the minus sector.
    """
    sign = 1.0 if mode.branch == PLUS else -1.0
    ksq = mode.k * mode.k
    m2 = params.m * params.m

    def factor(freq_sign: float) -> complex:
        z = mode.Gamma + 1j * freq_sign * mode.omega
        return z * z + ksq + sign * params.gamma * z + m2

    return _superpose([mode], x, t, lambda _: (factor(+1.0), factor(-1.0)))
