"""Reference routes of the operator algebra that only the tests use.

Equality of algebra elements through normal forms, the commutator of two
polynomials, a polynomial's scalar part, and the property that every
annihilation operator commutes with every creator.  The operator routes
the package replaced by faster ones with the same bits: the Hamiltonian
and charge assembled from anticommutator(...).scale(...) parts, normal
ordering that computes sort keys per comparison and calls the
commutator on every swap, and the vacuum functional that collapses
every word through per-call closures and sums ring objects; the
commutator that decides its lattice-delta support on momenta
rather than indices, and the Hamiltonian weights built through a geometry
factor that evaluates omega four times per momentum pair.  Also the
ring-object routes of the state expansion and the inner product, which
the package replaced by closed forms, and the breadth-first expansion
into a ket map that the package replaced by a depth-first walk in dump
order; the Schmidt spectrum from the
ket-by-ket matrix per sector, which the package reads off the pair
weights as one spectrum that both sectors share; the
ring property suite in Fraction arithmetic, which the package runs on
integers, and a broken product that fails it.  Last, the ring element
built from its two idempotent sectors, and the ring element as the frozen
dataclass that the package's immutable tuple replaced.  And the lattice
contraction that calls the commutator on every ladder pair, over
operands whose terms are built as ring products.  The package
computes none of these in production; the tests compare its results
against them.  merged_pair is the exception: one weighted pair written
by the production operators.merge_pair, for tests that build a
polynomial from pairs.
"""

import cmath
import json
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
from hypothesis import strategies as st

import hyperfield.commutators as fc
from hyperfield import states
from hyperfield.errors import (DomainError, TruncationOrderTooLarge,
                               UndeterminedByAxioms)
from hyperfield.modes import omega
from hyperfield.observables import (INFINITE_LINE, TWO_PI, geometry_kernel,
                                    h_gamma, hamiltonian_terms)
from hyperfield.operators import (_A_FAMILY, _RHO_INDEX, CommutationTable,
                                  ModeOp, OperatorPoly, commutator,
                                  merge_pair, normal_order)
from hyperfield.ring import (Bicomplex, J_MINUS, J_PLUS, idempotents_exact,
                             in_sector)
from hyperfield.states import TAG_MIRROR, TAG_SYSTEM

SPECIES = ("a1", "b1", "a2", "b2")


RING = st.builds(Bicomplex, *(st.floats(-2.0, 2.0),) * 4)


@st.composite
def small_tables(draw) -> CommutationTable:
    """Lattices of 2 to 9 modes with random rho and, half the time, sigma."""
    zero = Bicomplex.zero()
    rho = tuple(draw(st.one_of(st.just(zero), RING)) for _ in range(4))
    sigma = draw(st.one_of(st.just((zero,) * 4), st.tuples(*(RING,) * 4)))
    return CommutationTable(rho=rho, sigma=sigma,
                            delta_k=draw(st.floats(0.1, 0.5)),
                            N=draw(st.integers(1, 4)), stagger=draw(st.booleans()))


def commutator_with(p: OperatorPoly, q: OperatorPoly) -> OperatorPoly:
    """[p, q] = p q - q p, unordered."""
    return p * q - q * p


def scalar_part(poly: OperatorPoly) -> Bicomplex:
    """Coefficient of the identity word."""
    return poly.terms.get((), Bicomplex.zero())


def polys_equal(p: OperatorPoly, q: OperatorPoly, table: CommutationTable,
                tol: float = 0.0) -> bool:
    """Equality as algebra elements (compares normal forms)."""
    return (normal_order(p, table) - normal_order(q, table)).max_norm() <= tol


def pair_commutation_check(table: CommutationTable) -> bool:
    """True iff every annihilation operator commutes with every creator.

    This is the property that lets the evolution exponent factor into
    commuting creation and annihilation parts; it fails whenever a sigma
    coefficient is switched on.
    """
    indices = table.momentum_indices()
    for s_ann in SPECIES:
        for s_cre in SPECIES:
            for i in indices:
                for j in indices:
                    c = commutator(ModeOp(s_ann, i, False),
                                   ModeOp(s_cre, j, True), table)
                    if not c.is_zero():
                        return False
    return True


def expand_exponential_ring(pairs: dict, order: int) -> dict:
    """Amplitudes of the truncated exponential as ring products.

    Each amplitude is sector * Bicomplex.from_complex(scalar / mult), in
    the insertion order of expand_exponential_breadth_first.
    """
    amps = {(): Bicomplex.one()}
    for tag, sector in ((TAG_MIRROR, J_PLUS), (TAG_SYSTEM, J_MINUS)):
        labels = {(tag, i, j, flag): z
                  for (i, j), z in pairs.items() for flag in (0, 1)}
        for n in range(1, order + 1):
            for combo in combinations_with_replacement(sorted(labels), n):
                scalar = complex(1.0)
                for name in combo:
                    scalar *= labels[name]
                mult = math.prod(math.factorial(combo.count(name))
                                 for name in set(combo))
                amp = sector * Bicomplex.from_complex(scalar / mult)
                if not amp.is_zero():
                    amps[combo] = amp
    return amps


def expand_exponential_breadth_first(pairs: dict, order: int) -> dict:
    """The package's former expansion: a ket map built degree by degree.

    Sector '2ba' and then '1ab'; degree n extends each degree n - 1
    prefix, zero amplitudes too, by every label at or after its last in
    tuple order (combinations_with_replacement order), forming products
    left to right with the closed-form ring.in_sector amplitude.  Before
    each degree the nonzero kets so far plus that degree's multiset count
    are checked against states.BASIS_CAP.
    """
    amps: dict = {(): Bicomplex.one()}

    for tag in (TAG_MIRROR, TAG_SYSTEM):
        labels = sorted({(tag, i, j, flag): z for (i, j), z in pairs.items()
                         for flag in (0, 1)}.items())
        if not labels:
            continue
        plus = tag == TAG_MIRROR
        # a prefix is (key, index of its last label, scalar, multiplicity,
        # run of its last label)
        prefixes = [((), 0, complex(1.0), 1, 0)]
        for n in range(1, order + 1):
            count = math.comb(len(labels) + n - 1, n)
            if len(amps) + count > states.BASIS_CAP:
                raise TruncationOrderTooLarge(
                    f"basis would exceed cap {states.BASIS_CAP} at order {n}")
            grown = []
            for key, last, prefix, pmult, prun in prefixes:
                for idx in range(last, len(labels)):
                    name, z = labels[idx]
                    scalar = prefix * z
                    run = prun + 1 if idx == last else 1
                    mult = pmult * run
                    combo = key + (name,)
                    if n < order:
                        grown.append((combo, idx, scalar, mult, run))
                    amp = in_sector(plus, scalar / mult)
                    if any(amp):
                        amps[combo] = amp
            prefixes = grown
    return amps


def ket_label(key: tuple) -> str:
    """A ket's label in a state dump: its pair labels written
    "tag:k,kp,flag" and joined by ";", or "vacuum" for the empty key."""
    return ";".join(f"{tag}:{i},{j},{flag}" for tag, i, j, flag in key) \
        or "vacuum"


def state_dump(amps: dict, order: int) -> str:
    """json.dump(..., indent=2, sort_keys=True) of a ket map as a state
    dump, with its closing newline."""
    return json.dumps({"truncation_order": order, "amplitudes": {
        ket_label(key): list(amp.to_tuple()) for key, amp in amps.items()}},
        indent=2, sort_keys=True) + "\n"


def schmidt_spectrum_dense(amps: dict, partition: set) -> list:
    """Singular values of each idempotent sector's ket-by-ket matrix, over
    a ket map's (key, amplitude) items in their order.

    The package's former Schmidt route: each ket multiset splits into the
    pair labels whose first momentum index lies in the partition and the
    rest; the amplitude matrix over (left, right) labels, numbered in
    first-seen order, is SVD'd in the plus and then the minus sector.
    Raises DomainError when a sector's largest singular value is not
    finite (the norm overflows).
    """
    li: dict = {}
    ri: dict = {}
    rows, cols, comps = [], [], []
    for key, amp in amps.items():
        left, right = [], []
        for p in key:
            (left if p[1] in partition else right).append(p)
        rows.append(li.setdefault(tuple(left), len(li)))
        cols.append(ri.setdefault(tuple(right), len(ri)))
        comps.extend(amp)
    # complex columns x + iy and u + iv; their sum and difference are the
    # plus and minus sectors
    z = np.array(comps, dtype=float).reshape(-1, 4).view(complex)

    spectra = []
    for sector in (z[:, 0] + z[:, 1], z[:, 0] - z[:, 1]):
        mat = np.zeros((len(li), len(ri)), dtype=complex)
        mat[rows, cols] = sector
        if mat.size:
            # LAPACK is quicker on tall matrices; M and M^T share singular values
            sv = np.linalg.svd(mat.T if len(li) < len(ri) else mat,
                               compute_uv=False)
            if not math.isfinite(sv[0]):
                raise DomainError(f"Schmidt rank of a state whose norm "
                                  f"overflows: largest singular value {sv[0]}")
            spectra.append(sv)
    return spectra


def schmidt_rank_dense(amps: dict, partition: set) -> int:
    """The larger count over sectors of singular values above 1e-10 times
    the sector's largest, on schmidt_spectrum_dense."""
    return max(int((sv > 1e-10 * sv[0]).sum())
               for sv in schmidt_spectrum_dense(amps, partition))


def inner_ring(left: dict, right: dict) -> Bicomplex:
    """sum_K conj(left_K) right_K, summed as Bicomplex objects."""
    total = Bicomplex.zero()
    for key, amp in left.items():
        if key in right:
            total = total + amp.conj() * right[key]
    return total


def random_rational_element_fraction(rng: random.Random) -> Bicomplex:
    """Four Fractions n/d, n in [-9, 9] drawn before d in [1, 9]."""
    def q() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Bicomplex(q(), q(), q(), q())


def ring_property_suite_fraction(n_checks: int = 10_000, seed: int = 7,
                                 mul_fn=operator.mul) -> dict:
    """verification.ring_property_suite on unscaled Fraction draws.

    Returns {"checks": int, "failures": [names]}, tallied in the same
    order over the same seeded draws.
    """
    def sectors(a: Bicomplex):
        return (a.x + a.u, a.y + a.v, a.x - a.u, a.y - a.v)

    rng = random.Random(seed)
    jp, jm = idempotents_exact()
    failures: list[str] = []
    checks = 0
    idempotents_ok = (mul_fn(jp, jp) == jp and mul_fn(jm, jm) == jm
                      and mul_fn(jp, jm).is_zero()
                      and (jp + jm) == Bicomplex(1, 0, 0, 0))

    def tally(name: str, ok: bool):
        nonlocal checks
        checks += 1
        if not ok and name not in failures:
            failures.append(name)

    while checks < n_checks:
        a = random_rational_element_fraction(rng)
        b = random_rational_element_fraction(rng)
        c = random_rational_element_fraction(rng)
        ab, a_conj = mul_fn(a, b), a.conj()
        tally("mul_associative", mul_fn(ab, c) == mul_fn(a, mul_fn(b, c)))
        tally("mul_commutative", ab == mul_fn(b, a))
        tally("distributive", mul_fn(a, b + c) == ab + mul_fn(a, c))
        tally("conj_multiplicative", ab.conj() == mul_fn(a_conj, b.conj()))
        tally("conj_involutive", a_conj.conj() == a)
        m = mul_fn(a, a_conj)
        tally("modulus_in_real_ij_subring", m.y == 0 and m.u == 0)
        tally("idempotent_algebra", idempotents_ok)
        pr, pi, mr, mi = sectors(ab)
        ar, ai, amr, ami = sectors(a)
        br, bi, bmr, bmi = sectors(b)
        tally("sector_isomorphism",
              pr == ar * br - ai * bi and pi == ar * bi + ai * br
              and mr == amr * bmr - ami * bmi and mi == amr * bmi + ami * bmr)
    return {"checks": checks, "failures": failures}


def _defect_mul(a: Bicomplex, b: Bicomplex) -> Bicomplex:
    """Product with j^2 = -1: a broken product for the suite's failure path."""
    good = a * b
    return Bicomplex(good.x - 2 * a.u * b.u, good.y, good.u, good.v)


def from_sectors(plus, minus) -> Bicomplex:
    """The element J+ * plus + J- * minus, from two complex sectors."""
    plus = complex(plus)
    minus = complex(minus)
    return Bicomplex(
        (plus.real + minus.real) / 2.0,
        (plus.imag + minus.imag) / 2.0,
        (plus.real - minus.real) / 2.0,
        (plus.imag - minus.imag) / 2.0,
    )


def anticommutator(op1: ModeOp, op2: ModeOp) -> OperatorPoly:
    """{op1, op2} = op1 op2 + op2 op1 as an operator polynomial."""
    one = Bicomplex.one()
    return OperatorPoly({(op1, op2): one}) + OperatorPoly({(op2, op1): one})


def merged_pair(species_pair, k_index: int, kp_index: int, coeff,
                dagger: bool = False) -> OperatorPoly:
    """coeff {s1(k), s2(k')}, both daggered or not, written by
    operators.merge_pair into an empty polynomial.

    species_pair is a tuple like ("a1", "b1"); coeff is a ring element or
    a complex or real scalar.  The production route of each pair that
    hamiltonian_poly and charge_poly merge, for tests that need one pair.
    """
    s1, s2 = species_pair
    poly = OperatorPoly.zero()
    merge_pair(poly, ModeOp(s1, k_index, dagger), ModeOp(s2, kp_index, dagger),
               Bicomplex.from_complex(coeff))
    return poly


def pair_poly_reference(species_pair, k_index: int, kp_index: int, coeff,
                        dagger: bool = False) -> OperatorPoly:
    """merged_pair as anticommutator(o1, o2).scale(coeff)."""
    s1, s2 = species_pair
    return anticommutator(ModeOp(s1, k_index, dagger),
                          ModeOp(s2, kp_index, dagger)).scale(coeff)


def _merge_all(total: OperatorPoly, parts) -> None:
    """Add each part's terms into total's own dict, in order: the terms
    and insertion order of total + part + ..."""
    for part in parts:
        for word, coeff in part.terms.items():
            total._merged(word, coeff, total.terms)


def hamiltonian_poly_reference(params, geom, table, t: float = 0.0):
    """observables.hamiltonian_poly through pair_poly_reference."""
    total = OperatorPoly.zero()
    for i, j, w in hamiltonian_terms(params, geom, table, t):
        c = Bicomplex.from_complex(w)
        cc = Bicomplex.from_complex(w.conjugate())
        _merge_all(total, (
            pair_poly_reference(("a1", "b1"), i, j, J_PLUS * c),
            pair_poly_reference(("b2", "a2"), j, i, J_MINUS * c),
            pair_poly_reference(("a1", "b1"), i, j, J_MINUS * cc, True),
            pair_poly_reference(("b2", "a2"), j, i, J_PLUS * cc, True)))
    return total


def charge_poly_reference(params, table):
    """observables.charge_poly through pair_poly_reference."""
    total = OperatorPoly.zero()
    dk = table.delta_k
    for i in table.momentum_indices():
        w = omega(table.momentum(i), params)
        c = Bicomplex.from_complex(-2j * dk * w)
        _merge_all(total, (
            pair_poly_reference(("a1", "b1"), i, i, J_PLUS * c),
            pair_poly_reference(("a1", "b1"), i, i, J_MINUS * c, True),
            pair_poly_reference(("b2", "a2"), i, i, J_PLUS * (-1.0 * c), True),
            pair_poly_reference(("b2", "a2"), i, i, J_MINUS * (-1.0 * c))))
    return total


def normal_order_reference(poly: OperatorPoly,
                           table: CommutationTable) -> OperatorPoly:
    """operators.normal_order with two sort_key calls per comparison and
    one commutator call per swap, every swap through the stack."""
    out: dict = {}
    result = OperatorPoly(out)
    stack = list(poly.terms.items())
    while stack:
        word, coeff = stack.pop()
        if coeff.is_zero():
            continue
        swap_at = -1
        for i in range(len(word) - 1):
            if word[i].sort_key() > word[i + 1].sort_key():
                swap_at = i
                break
        if swap_at < 0:
            result._merged(word, coeff, out)
            continue
        i = swap_at
        swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2:]
        stack.append((swapped, coeff))
        central = commutator(word[i], word[i + 1], table)
        if not central.is_zero():
            stack.append((word[:i] + word[i + 2:], coeff * central))
    return result


_PLUS_ANN = frozenset({"a1", "b1"})
_MINUS_ANN = frozenset({"b2", "a2"})


def _ket_word_value(word, species_pair, eigen: complex, sector: int,
                    table: CommutationTable) -> complex:
    """Value of an annihilation-family word acting on the vacuum ket."""
    side_a, side_b = tuple(species_pair)

    def comm(o1: ModeOp, o2: ModeOp) -> complex:
        c = commutator(o1, o2, table)
        return c.plus() if sector > 0 else c.minus()

    def value(w: tuple) -> complex:
        if not w:
            return 1.0
        last = w[-1]
        same = last.species
        p = None
        for q in range(len(w) - 2, -1, -1):
            if w[q].species != same:
                p = q
                break
        if p is None:
            raise UndeterminedByAxioms(
                f"unpaired operators {w}: not fixed by the vacuum axioms")
        partner = w[p]
        between = w[p + 1:-1]
        head = w[:p]
        total = 0.5 * (eigen + comm(partner, last)) * value(head + between)
        for i, mid in enumerate(between):
            c = comm(partner, mid)
            if c != 0.0:
                total += c * value(head + between[:i] + between[i + 1:] + (last,))
        return total

    for op in word:
        if op.species not in (side_a, side_b):
            raise UndeterminedByAxioms(
                f"operator {op} outside the sector's collapsible family")
    n_a = sum(1 for op in word if op.species == side_a)
    if 2 * n_a != len(word):
        raise UndeterminedByAxioms(
            f"unbalanced word {word}: not fixed by the vacuum axioms")
    return value(tuple(word))


def _sector_vev(word, sector: int, rules, table: CommutationTable) -> complex:
    """Vacuum expectation of a word inside one idempotent sector."""
    if sector > 0:
        ann_species, ket_eigen = _PLUS_ANN, rules.lambda1.plus()
        cre_species, mirror_eigen = _MINUS_ANN, rules.lambda2.minus()
    else:
        ann_species, ket_eigen = _MINUS_ANN, rules.lambda2.minus()
        cre_species, mirror_eigen = _PLUS_ANN, rules.lambda1.plus()

    ann_part = []
    cre_part = []
    for op in word:
        if not op.dagger and op.species in ann_species:
            ann_part.append(op)
        elif op.dagger and op.species in cre_species:
            cre_part.append(op)
        else:
            raise UndeterminedByAxioms(
                f"operator {op} not fixed by the vacuum axioms in this sector")

    ket = _ket_word_value(tuple(ann_part), ann_species, ket_eigen, sector, table)
    adj = tuple(op.adjoint() for op in reversed(cre_part))
    bra = _ket_word_value(adj, cre_species, mirror_eigen, -sector,
                          table).conjugate()
    return ket * bra


def vev_reference(poly: OperatorPoly, rules, table: CommutationTable) -> Bicomplex:
    """operators.vev through normal_order_reference, summing ring objects."""
    ordered = normal_order_reference(poly, table)
    for word, coeff in ordered.terms.items():
        if not math.isfinite(coeff.norm()):
            raise DomainError(f"normal form overflows at {list(word)}")
    scale = ordered.max_norm()
    total = Bicomplex.zero()
    for word, coeff in ordered.terms.items():
        if coeff.norm() <= 1e-14 * scale:
            continue
        cp, cm = coeff.plus(), coeff.minus()
        if cp != 0:
            total = total + J_PLUS * Bicomplex.from_complex(
                cp * _sector_vev(word, +1, rules, table))
        if cm != 0:
            total = total + J_MINUS * Bicomplex.from_complex(
                cm * _sector_vev(word, -1, rules, table))
    return total


def lattice_delta(table: CommutationTable, i: int, j: int) -> float:
    """Dirac delta realization: Kronecker / delta_k."""
    return 1.0 / table.delta_k if i == j else 0.0


def commutator_reference(op1: ModeOp, op2: ModeOp,
                         table: CommutationTable) -> Bicomplex:
    """operators.commutator with its support decided on momenta."""
    fam1 = op1.species in _A_FAMILY
    fam2 = op2.species in _A_FAMILY
    if fam1 == fam2:
        return Bicomplex.zero()  # same family: a-a or b-b in any dagger combo

    a_op, b_op = (op1, op2) if fam1 else (op2, op1)
    sign = 1.0 if fam1 else -1.0
    m = _RHO_INDEX[(a_op.species, b_op.species)]
    ka = table.momentum(a_op.index)
    kb = table.momentum(b_op.index)

    if op1.dagger != op2.dagger:
        # sigma sector, delta(k + k') support
        if ka != -kb:
            return Bicomplex.zero()
        delta = 1.0 / table.delta_k
        sig = table.sigma[m]
        if sig.is_zero():
            return Bicomplex.zero()
        # [a, b+] = sigma delta; [b, a+] = conj(sigma) delta
        if a_op.dagger:          # pair is (a+, b) in some order
            value = sig.conj()
            sign = -sign         # table fixes [b, a+]; we hold [a+, b] = -that
        else:                    # pair is (a, b+)
            value = sig
        return (sign * delta) * value

    delta = lattice_delta(table, a_op.index, b_op.index)
    if delta == 0.0:
        return Bicomplex.zero()
    rho = table.rho[m]
    if op1.dagger:
        # table row: [b+(k'), a+(k)] = conj(rho) delta  =>  [a+, b+] = -conj(rho) delta
        return (-sign * delta) * rho.conj()
    return (sign * delta) * rho


def geometry_factor(k: float, kp: float, t: float, params, geom) -> complex:
    """G(k, k'; t) = e^{i (w_k - w_k') t} I(k - k'), on a finite interval."""
    kern = geometry_kernel(k - kp, geom)
    if kern == 0.0:
        return 0.0
    phase = cmath.exp(1j * (omega(k, params) - omega(kp, params)) * t)
    return phase * kern


def hamiltonian_terms_reference(params, geom, table: CommutationTable,
                                t: float = 0.0):
    """observables.hamiltonian_terms through geometry_factor."""
    dk = table.delta_k
    idx = table.momentum_indices()
    if geom.kind == INFINITE_LINE:
        for i in idx:
            k = table.momentum(i)
            yield i, i, dk * dk * h_gamma(k, k, params) * (TWO_PI / dk)
        return
    for i in idx:
        k = table.momentum(i)
        for j in idx:
            kp = table.momentum(j)
            g = geometry_factor(k, kp, t, params, geom)
            if g != 0.0:
                yield i, j, dk * dk * h_gamma(k, kp, params) * g


@dataclass(frozen=True)
class BicomplexReference:
    """ring.Bicomplex as a frozen dataclass, the form the tuple replaced.

    Every method is the same float and Fraction arithmetic in the same
    order; the tests compare the tuple's results against it bit for bit.
    """

    x: object = 0.0
    y: object = 0.0
    u: object = 0.0
    v: object = 0.0

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_complex(z) -> "BicomplexReference":
        """Embed a standard complex number (or real scalar) into the ring."""
        if isinstance(z, BicomplexReference):
            return z
        if isinstance(z, complex):
            return BicomplexReference(z.real, z.imag, 0.0, 0.0)
        return BicomplexReference(z, 0.0, 0.0, 0.0)

    # -- ring arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce_reference(other)
        if other is NotImplemented:
            return NotImplemented
        return BicomplexReference(self.x + other.x, self.y + other.y,
                                  self.u + other.u, self.v + other.v)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_reference(other)
        if other is NotImplemented:
            return NotImplemented
        return BicomplexReference(self.x - other.x, self.y - other.y,
                                  self.u - other.u, self.v - other.v)

    def __rsub__(self, other):
        other = _coerce_reference(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return BicomplexReference(-self.x, -self.y, -self.u, -self.v)

    def __mul__(self, other):
        other = _coerce_reference(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.x, self.y, self.u, self.v
        e, f, g, h = other.x, other.y, other.u, other.v
        # terms grouped so products of opposite idempotents cancel exactly
        return BicomplexReference(
            (a * e + c * g) - (b * f + d * h),
            (a * f + c * h) + (b * e + d * g),
            (a * g + c * e) - (b * h + d * f),
            (a * h + c * f) + (b * g + d * e),
        )

    __rmul__ = __mul__

    # -- involutions and sector views -------------------------------------

    def conj(self) -> "BicomplexReference":
        """Bar conjugation: negates the i- and j-parts.  Multiplicative."""
        return BicomplexReference(self.x, -self.y, -self.u, self.v)

    def modulus(self) -> "BicomplexReference":
        """Ring modulus a * conj(a); lies in the 1/ij subring."""
        return self * self.conj()

    def plus(self) -> complex:
        """Standard-complex component multiplying J+."""
        return complex(self.x + self.u, self.y + self.v)

    def minus(self) -> complex:
        """Standard-complex component multiplying J-."""
        return complex(self.x - self.u, self.y - self.v)

    # -- predicates / numerics ---------------------------------------------

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0 and self.u == 0 and self.v == 0

    def norm(self) -> float:
        """Euclidean norm of the four components (not the ring modulus)."""
        try:
            return math.sqrt(float(self.x) ** 2 + float(self.y) ** 2
                             + float(self.u) ** 2 + float(self.v) ** 2)
        except OverflowError:  # hypot only where a square overflows, so
            return math.hypot(*map(float, self.to_tuple()))  # bits stay put

    def is_close(self, other: "BicomplexReference", tol: float = 1e-12) -> bool:
        return (self - other).norm() <= tol

    def to_tuple(self):
        return (self.x, self.y, self.u, self.v)

    def __repr__(self):
        return f"Bicomplex({self.x!r}, {self.y!r}, {self.u!r}, {self.v!r})"


def _coerce_reference(value):
    if isinstance(value, BicomplexReference):
        return value
    if isinstance(value, (int, float, Fraction)):
        return BicomplexReference(value, 0, 0, 0)
    if isinstance(value, complex):
        return BicomplexReference(value.real, value.imag, 0.0, 0.0)
    return NotImplemented


def ladder_poly_reference(x: float, t: float, params,
                          table: CommutationTable, weighted: bool,
                          entries) -> OperatorPoly:
    """commutators._ladder_poly with each term J+- * from_complex(coeff)."""
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
        for species, dagger, plus, coeff in entries(w, ph, damp, grow, meas):
            sector = J_PLUS if plus else J_MINUS
            poly._merged((ModeOp(species, i, dagger),),
                         sector * Bicomplex.from_complex(coeff), out)
    return poly


def contraction_terms_reference(which: str, x: float, xprime: float, t: float,
                                params, table: CommutationTable,
                                weighted: bool):
    """commutators._contraction_terms calling commutator on every pair.

    The operands come from fc.field_operator_poly and
    fc.momentum_operator_poly, so patching fc._ladder_poly with
    ladder_poly_reference makes the whole route the reference one.
    """
    if which == "omega_omega":
        left = fc.field_operator_poly(x, t, params, table, weighted)
        right = fc.field_operator_poly(xprime, t, params, table,
                                       weighted).adjoint()
    elif which == "pi_pi":
        left = fc.momentum_operator_poly(x, t, params, table, weighted)
        right = fc.momentum_operator_poly(xprime, t, params, table,
                                          weighted).adjoint()
    elif which == "omega_pi":
        left = fc.field_operator_poly(x, t, params, table, weighted)
        right = fc.momentum_operator_poly(xprime, t, params, table, weighted)
    else:
        raise ValueError(f"unknown commutator {which!r}")
    by_index: dict = {}
    for op, b in fc._linear_terms(right):
        by_index.setdefault(op.index, []).append((op, b))
    for op, a in fc._linear_terms(left):
        i = op.index
        mirror = table.mirror_index(i)
        for j in ((i, mirror) if mirror != i else (i,)):
            for op2, b in by_index.get(j, ()):
                c = commutator(op, op2, table)
                if not c.is_zero():
                    yield a * b * c
