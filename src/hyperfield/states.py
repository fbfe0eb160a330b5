"""Truncated evolved and asymptotic vacuum states, projections, diagnostics.

Basis kets are labeled by multisets of excitation-pair labels
(tag, k_index, kp_index, ordering_flag): tag '2ba' for the mirror-copy
pairs created in the plus sector, '1ab' for the subsystem pairs created in
the minus sector, and the flag distinguishing the two operator orderings
the anticommutator produces.  Distinct label multisets are orthonormal.

The creation part of the evolution exponent acts as a commuting family of
label appenders, so the truncated exponential is a plain multiset
expansion with per-label scalar weights.  Each momentum pair gives the
four labels of both sectors and both orderings one weight, so the state
keeps one weight per pair.  Its Schmidt spectrum across a momentum cut,
shared by both sectors, is read off those weights through one
(n+1) x (n+1) degree-block matrix, never off the kets.  Its kets are
listed, in the label-string order of a state dump, by a walk over the
weights; no ket map is kept.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, PoleAtZeroMomentum, TruncationOrderTooLarge
from .modes import FieldParams, omega
from .observables import (FINITE_INTERVAL, TWO_PI, GeometrySpec,
                          geometry_kernel, h_gamma, hamiltonian_terms)
from .operators import CommutationTable
from .ring import Bicomplex, J_MINUS, J_PLUS, in_sector

TAG_MIRROR = "2ba"    # J+ sector: pairs of b2+, a2+ quanta (environment copy)
TAG_SYSTEM = "1ab"    # J- sector: pairs of a1+, b1+ quanta (subsystem)

BASIS_CAP = 200_000


class StateVector:
    """Truncated exponential of a creation exponent, held as its pair weights.

    weights maps each momentum pair (k_index, kp_index) of the exponent
    to its complex weight z, in sorted pair order ({} for an empty
    exponent, whose expansion is the vacuum alone).  The pair's labels
    (tag, k_index, kp_index, flag), both orderings in both sectors, all
    carry z: '2ba' with a J+ ring amplitude, '1ab' with J-.  Mixed-sector
    products vanish (J+ J- = 0), so the two sectors expand independently.
    The kets are never stored: kets() walks them off the weights, and
    amplitudes, the map from sorted label tuple (the vacuum's is ()) to
    Bicomplex amplitude, is rebuilt from that walk on every read.

    The basis size is checked against BASIS_CAP when the state is built,
    from the multiset counts of both sectors, zero kets included: the
    error names the lowest order whose basis exceeds the cap.
    """

    __slots__ = ("weights", "truncation_order")

    def __init__(self, pairs: dict, truncation_order: int):
        size, per_sector = 1, 2 * len(pairs)
        for n in range(1, truncation_order + 1):
            size += 2 * math.comb(per_sector + n - 1, n)
            if size > BASIS_CAP:
                raise TruncationOrderTooLarge(
                    f"basis would exceed cap {BASIS_CAP} at order {n}")
        self.weights = dict(sorted(pairs.items()))
        self.truncation_order = truncation_order

    @property
    def amplitudes(self) -> dict:
        return {key: amp for _label, key, amp in self.kets()}

    def kets(self):
        """(label, key, amplitude) of every nonzero ket, in label-string
        order, walked off the weights by _expansion_kets.

        The label is "vacuum" for the empty key, else the "tag:k,kp,flag"
        pair labels joined by ";"; its order is the one json's sort_keys
        gives.
        """
        return _expansion_kets(self.weights, self.truncation_order)

    def to_jsonable(self) -> dict:
        """Ket label -> four real amplitude components, in kets() order."""
        amps = {label: [float(x), float(y), float(u), float(v)]
                for label, _key, (x, y, u, v) in self.kets()}
        return {"truncation_order": self.truncation_order, "amplitudes": amps}


def _expansion_kets(weights: dict, order: int):
    """(label, key, amplitude) of the truncated exponential's nonzero kets.

    The kets come in label-string order: the '1ab' sector, then '2ba',
    then the vacuum.  Within a sector a depth-first walk lists each
    multiset before its extensions, and extends a prefix only by labels at
    or after its last in tuple order, taken in label-string order; since
    no label's text is a prefix of another's, that is the order of the
    joined labels.  Both tags have three letters, so the two sectors share
    one label order, built once.  Each product forms left to right in
    tuple order, a repeated label's run divides it through the
    multiplicity, and a zero amplitude is skipped but still extended.
    """
    # the labels of one sector in tuple order, as (k, kp, flag) and weight
    rows = [(i, j, flag) for i, j in weights for flag in (0, 1)]
    zs = [z for z in weights.values() for _flag in (0, 1)]
    texts = [f"{i},{j},{flag}" for i, j, flag in rows]
    by_text = sorted(range(len(rows)), key=texts.__getitem__)
    # the extensions of a prefix ending at row last, in label-string order;
    # the stack takes them reversed, so it pops them in order.  Below order
    # 2 only the root's row is read.
    later = [[idx for idx in by_text if idx >= last]
             for last in range(len(rows) if order > 1 else 1)]
    for tag in (TAG_SYSTEM, TAG_MIRROR) if weights else ():
        plus = tag == TAG_MIRROR
        labels = [(tag, i, j, flag) for i, j, flag in rows]
        names = [f"{tag}:{text}" for text in texts]
        # a prefix is (text, key, row of its last label, scalar,
        # multiplicity, run of its last label)
        stack = [("", (), 0, complex(1.0), 1, 0)]
        while stack:
            text, key, last, scalar, mult, run = stack.pop()
            if key:
                amp = in_sector(plus, scalar / mult)
                if any(amp):
                    yield text, key, amp
                text += ";"
            if len(key) + 1 < order:
                for idx in reversed(later[last]):
                    r = run + 1 if idx == last else 1
                    stack.append((text + names[idx], key + (labels[idx],), idx,
                                  scalar * zs[idx], mult * r, r))
            elif len(key) < order:  # the extensions are leaves: list them here
                for idx in later[last]:
                    r = run + 1 if idx == last else 1
                    amp = in_sector(plus, scalar * zs[idx] / (mult * r))
                    if any(amp):
                        yield text + names[idx], key + (labels[idx],), amp
    yield "vacuum", (), Bicomplex.one()


def evolve_vacuum(t: float, order: int, params: FieldParams,
                  geom: GeometrySpec, table: CommutationTable) -> StateVector:
    """Truncated evolution of the vacuum, exp(i H t)|0>.

    The vacuum obeys the constrained rules (J+ lambda1 = J- lambda2 = 0),
    so the annihilation part of the exponent acts as the identity on it and
    the creation part carries weight i t conj(w) per momentum pair, w the
    Hamiltonian weight.
    """
    pairs: dict = {}
    for i, j, w in hamiltonian_terms(params, geom, table, t):
        z = 1j * t * w.conjugate()
        if z != 0:
            pairs[(i, j)] = z
    return StateVector(pairs, order)


def norm_preservation(t: float, order: int, params: FieldParams,
                      geom: GeometrySpec, table: CommutationTable) -> float:
    """Deviation of <0(t)|0(t)> from 1 on the truncated state.

    In the ring pairing the excited amplitudes are zero divisors
    (conj(J+ c) J+ c = 0), so the deviation vanishes identically at every
    truncation order; the returned float records the numerical residue.
    """
    state = evolve_vacuum(t, order, params, geom, table)
    return amplitude_norm_deviation(amp for _label, _key, amp in state.kets())


def amplitude_norm_deviation(amps) -> float:
    """|<state|state> - 1| in the ring pairing: |sum conj(a) a - 1| over
    the amplitudes a of a state's kets, summed in the order given.

    Each conj(a) a is written out with Bicomplex.__mul__'s grouping and
    summed into four floats, so no per-ket ring object is built and the
    sum keeps the ring product's bits.
    """
    sx = sy = su = sv = 0.0
    for x, y, u, v in amps:
        e, f, g, h = x, y, u, v
        sx += (x * e - u * g) - (v * h - y * f)
        sy += (x * f - u * h) + (v * g - y * e)
        su += (x * g - u * e) - (v * f - y * h)
        sv += (x * h - u * f) + (v * e - y * g)
    return (Bicomplex(sx, sy, su, sv) - Bicomplex.one()).norm()


def eta_k(k: float, params: FieldParams) -> complex:
    """Frequency-diagonal kernel (w/|k|) conj(h_gamma(k, k)).

    Equals (5/2) w^3/|k| - i gamma w^2/|k|: the 5/2 comes from the diagonal
    real part of h_gamma, the 1/|k| from the delta(w' - w) Jacobian.
    """
    if k == 0.0:
        raise PoleAtZeroMomentum("eta_k has a pole at k = 0")
    w = omega(k, params)
    return (w / abs(k)) * h_gamma(k, k, params).conjugate()


def asymptotic_state_finite(order: int, params: FieldParams, L1: float,
                            L2: float, table: CommutationTable,
                            include_cross_term: bool = False) -> StateVector:
    """Large-time state for a finite total system [L1, L2], truncated.

    The time-oscillating factor acts as a delta sequence in the frequency
    difference; keeping the frequency-diagonal k' = k branch gives the
    exponent (L2 - L1) dk sum_k eta_k W(k, k).  The k' = -k branch (which
    multiplies I(2k) rather than the total length) is off by default and
    available through include_cross_term.
    """
    geom = GeometrySpec(FINITE_INTERVAL, L1, L2)
    pairs: dict = {}
    dk = table.delta_k
    for i in table.momentum_indices():
        k = table.momentum(i)
        if k == 0.0:
            raise PoleAtZeroMomentum("lattice must exclude k = 0")
        pairs[(i, i)] = geom.length * dk * eta_k(k, params)
        if include_cross_term:
            w = omega(k, params)
            kern = geometry_kernel(2.0 * k, geom).conjugate()
            zc = dk * (w / abs(k)) * h_gamma(k, -k, params).conjugate() * kern
            pairs[(i, table.mirror_index(i))] = zc
    return StateVector(pairs, order)


def project_view(state: StateVector, side: str) -> dict:
    """Projection J+ (side 'plus') or J- ('minus') of every amplitude:
    key -> the nonzero product, over the state's kets in kets() order.

    The plus view retains the mirror-copy kets (tag '2ba'), the minus view
    the subsystem kets (tag '1ab'), and both the vacuum; the two views sum
    to the state.
    """
    proj = J_PLUS if side == "plus" else J_MINUS
    out = {}
    for _label, key, amp in state.kets():
        p = proj * amp
        if not p.is_zero():
            out[key] = p
    return out


def asymptotic_state_infinite(t_values, params: FieldParams,
                              table: CommutationTable) -> list[dict]:
    """Divergence/cyclostationarity diagnostics for the infinite total system.

    The geometry kernel is a Dirac delta, so each mode carries the factor
    exp(z_k(t)) with z_k(t) = i t (2 pi dk) conj(h_gamma(k, k)): a pure
    phase when gamma = 0 (cyclostationary) and an exponential growth of
    rate gamma * 2 pi dk sum_k w_k when gamma > 0.  The measured rate is
    log_modulus / t at every t != 0, before t = 0 as after, and 0 at t = 0.
    """
    dk = table.delta_k
    ks = [table.momentum(i) for i in table.momentum_indices()]
    hbar = [h_gamma(k, k, params).conjugate() for k in ks]
    rate_predicted = params.gamma * TWO_PI * dk * sum(omega(k, params) for k in ks)

    out = []
    for t in t_values:
        zs = [1j * t * TWO_PI * dk * h for h in hbar]
        log_mod = sum(z.real for z in zs)
        # |e^z| is taken only at gamma = 0, where Re z = 0 cannot overflow
        cyclic = params.gamma == 0.0 and max(
            (abs(abs(cmath.exp(z)) - 1.0) for z in zs), default=0.0) < 1e-12
        measured = log_mod / t if t != 0 else 0.0
        out.append({
            "t": float(t),
            "log_modulus": log_mod,
            "modulus_growth_rate": measured,
            "predicted_growth_rate": rate_predicted,
            "is_cyclostationary": cyclic,
            "divergent": params.gamma > 0.0,
        })
    return out


def _degree_norms(zs: list, order: int) -> list:
    """sqrt(F_a), a = 0..order: F_a sums prod |z|^(2n) / (n!)^2, the
    |amplitude|^2, over the label multisets of degree a.

    The series multiply on moduli over the largest one, because float **
    (like abs of a complex) raises on overflow; the scale comes back as a
    running product, which overflows to inf.
    """
    mods = [math.hypot(z.real, z.imag) for z in zs]
    big = max(mods, default=0.0) or 1.0
    f = [1.0] + [0.0] * order
    for mod in mods:
        w2 = (mod / big) ** 2
        term = [1.0]
        for n in range(1, order + 1):
            term.append(term[-1] * w2 / (n * n))
        f = [sum(f[a - n] * term[n] for n in range(a + 1))
             for a in range(order + 1)]
    out, scale = [], 1.0
    for fa in f:
        out.append(scale * math.sqrt(fa))
        scale *= big
    return out


def schmidt_spectrum(state: StateVector, partition: set) -> np.ndarray:
    """Singular values across a momentum-index cut, descending, shared by
    both sectors (plus: tag '2ba', minus: '1ab'): a pair goes left when
    its first momentum index lies in the partition.

    Read off the pair weights, not the kets.  A ket's sector amplitude is
    the product of its left and right multisets' amplitudes, so a sector's
    matrix over (left, right) multisets reduces exactly to the
    (n+1) x (n+1) matrix T_ab = sqrt(F_a G_b) [a + b <= n] of the left
    (right) _degree_norms F (G) at truncation order n.  Each pair gives
    both sectors the same two labels' weights, so both sectors have this
    one T.  Raises DomainError when the largest value is not finite (the
    norm overflows).
    """
    n = state.truncation_order
    sides = ([], [])
    for (i, _j), z in state.weights.items():
        sides[i not in partition].extend((z, z))  # both orderings
    f, g = (_degree_norms(zs, n) for zs in sides)
    # float products, which overflow to inf without a warning
    mat = np.array([[fa * gb if a + b <= n else 0.0
                     for b, gb in enumerate(g)] for a, fa in enumerate(f)])
    # an overflowed entry means an overflowed norm, which LAPACK cannot take
    sv = (np.linalg.svd(mat, compute_uv=False) if np.isfinite(mat).all()
          else [math.inf])
    if not math.isfinite(sv[0]):
        raise DomainError(f"Schmidt spectrum of a state whose norm "
                          f"overflows: largest singular value {sv[0]}")
    return sv


def schmidt_rank(state: StateVector, partition: set) -> int:
    """Schmidt rank: the count of schmidt_spectrum's values above 1e-10
    times its largest (a relative cutoff, so round-off on large amplitudes
    is not counted), the rank in each sector.

    In exact arithmetic it is n + 1 whenever both sides of the cut carry a
    nonzero weight (T is anti-triangular with a nonzero anti-diagonal) and
    1 when one side carries none.  So rank >= 2 witnesses weights on both
    sides, entangled by the truncation: the untruncated exponential is a
    product state in each sector.
    """
    sv = schmidt_spectrum(state, partition)
    return int((sv > 1e-10 * sv[0]).sum())
