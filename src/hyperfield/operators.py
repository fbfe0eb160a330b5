"""Symbolic ladder-operator engine on a discretized momentum lattice.

Species a1, a2 belong to the subsystem of interest, b1, b2 to the mirror
copy.  The quantization ansatz is noncanonical: the only nonvanishing
commutators are the cross ones [a_i(k), b_j(k')] = rho_m delta(k - k')
(and their daggered partners with the bar-conjugated coefficient); all
same-family commutators and all [a, a+], [b, b+] vanish.  Every commutator
is therefore a central ring element and normal ordering terminates.

The Dirac delta is realized on the lattice as Kronecker(k, k') / delta_k,
and momentum integrals as delta_k * sum over sites.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, UndeterminedByAxioms
from .ring import Bicomplex, in_sector

_RANK = {"a1": 0, "b1": 1, "a2": 2, "b2": 3}
_A_FAMILY = {"a1", "a2"}

# rho index map for the cross commutators [a_i, b_j]
_RHO_INDEX = {("a1", "b1"): 0, ("a1", "b2"): 1, ("a2", "b1"): 2, ("a2", "b2"): 3}


class ModeOp(NamedTuple):
    """Single ladder operator: species, lattice momentum index, dagger flag.

    A tuple: it compares equal to (species, index, dagger) and hashes as
    that tuple does, so dict lookups keyed by words hash in C.
    """

    species: str
    index: int
    dagger: bool = False

    def adjoint(self) -> "ModeOp":
        return ModeOp(self.species, self.index, not self.dagger)

    def sort_key(self):
        # daggered block first, then species order a1 < b1 < a2 < b2, then k
        return (0 if self.dagger else 1, _RANK[self.species], self.index)

    def __repr__(self):
        return f"{self.species}{'+' if self.dagger else ''}({self.index})"


@dataclass(frozen=True)
class CommutationTable:
    """The four rho and four sigma Bicomplex constants plus the lattice.

    Any other entry raises TypeError.  sigma entries default to zero, the
    choice that keeps damping factors out of the equal-time commutators;
    nonzero sigmas are supported only so tests can exhibit the breakage
    they cause.
    """

    rho: tuple = (Bicomplex.one(), Bicomplex.zero(),
                  Bicomplex.zero(), Bicomplex.one())
    sigma: tuple = (Bicomplex.zero(),) * 4
    delta_k: float = 0.1
    N: int = 32
    stagger: bool = False

    def __post_init__(self):
        for entry in (*self.rho, *self.sigma):
            if not isinstance(entry, Bicomplex):
                raise TypeError(f"table entries must be Bicomplex, got {entry!r}")

    def momentum_indices(self) -> list[int]:
        if self.stagger:
            return list(range(-self.N, self.N))
        return list(range(-self.N, self.N + 1))

    def momentum(self, index: int) -> float:
        off = 0.5 if self.stagger else 0.0
        return (index + off) * self.delta_k

    def mirror_index(self, index: int) -> int:
        """Index of momentum -momentum(index); exact on both lattices."""
        return -index - 1 if self.stagger else -index


def generic_table(**kw) -> CommutationTable:
    """Table with rho1 = 1, rho4 = 0: keeps the difference bracket nonzero."""
    kw.setdefault("rho", (Bicomplex.one(), Bicomplex.zero(),
                          Bicomplex.zero(), Bicomplex.zero()))
    return CommutationTable(**kw)


def commutator(op1: ModeOp, op2: ModeOp, table: CommutationTable) -> Bicomplex:
    """Central ring value of [op1, op2]; each delta is Kronecker / delta_k
    on the indices: equal for rho, mirrored (opposite momenta) for sigma."""
    fam1 = op1.species in _A_FAMILY
    if fam1 == (op2.species in _A_FAMILY):
        return Bicomplex.zero()  # same family: a-a or b-b in any dagger combo

    a_op, b_op = (op1, op2) if fam1 else (op2, op1)
    sign = 1.0 if fam1 else -1.0
    m = _RHO_INDEX[(a_op.species, b_op.species)]
    if op1.dagger == op2.dagger:
        # rho sector, delta(k - k') support; the table row
        # [b+(k'), a+(k)] = conj(rho) delta gives [a+, b+] = -conj(rho) delta
        if a_op.index != b_op.index:
            return Bicomplex.zero()
        value, flip = table.rho[m], op1.dagger
    else:
        # sigma sector, delta(k + k') support; [a, b+] = sigma delta and
        # [b, a+] = conj(sigma) delta give [a+, b] = -conj(sigma) delta
        value, flip = table.sigma[m], a_op.dagger
        if b_op.index != table.mirror_index(a_op.index) or value.is_zero():
            return Bicomplex.zero()
    if flip:
        value, sign = value.conj(), -sign
    return (sign * (1.0 / table.delta_k)) * value


class OperatorPoly:
    """Finite sum of ladder-operator words with Bicomplex coefficients.

    terms maps a tuple of ModeOp (a word; () is the identity) to its
    coefficient.  Values are immutable by convention: operations return
    new polynomials.  _normal memoizes the last normal_order as
    (table, normal form); that normal form is shared by every caller
    that asks for it again, so callers must not mutate it.  merge_pair,
    the one routine that writes into an existing polynomial, resets it.
    """

    __slots__ = ("terms", "_normal")

    def __init__(self, terms: dict | None = None):
        self.terms = {} if terms is None else terms
        self._normal = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "OperatorPoly":
        return OperatorPoly({})

    # -- algebra -----------------------------------------------------------

    def _merged(self, word, coeff, into):
        if word in into:
            s = into[word] + coeff
            if s.is_zero():
                del into[word]
            else:
                into[word] = s
        elif not coeff.is_zero():
            into[word] = coeff

    def __add__(self, other: "OperatorPoly") -> "OperatorPoly":
        out = dict(self.terms)
        result = OperatorPoly(out)
        for word, coeff in other.terms.items():
            result._merged(word, coeff, out)
        return result

    def __sub__(self, other: "OperatorPoly") -> "OperatorPoly":
        return self + other.scale(Bicomplex(-1.0))

    def scale(self, c) -> "OperatorPoly":
        c = c if isinstance(c, Bicomplex) else Bicomplex.from_complex(c)
        if c.is_zero():
            return OperatorPoly.zero()
        return OperatorPoly({w: c * v for w, v in self.terms.items()})

    def __mul__(self, other: "OperatorPoly") -> "OperatorPoly":
        out: dict = {}
        result = OperatorPoly(out)
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                result._merged(w1 + w2, c1 * c2, out)
        return result

    def adjoint(self) -> "OperatorPoly":
        out: dict = {}
        result = OperatorPoly(out)
        for word, coeff in self.terms.items():
            new_word = tuple(op.adjoint() for op in reversed(word))
            result._merged(new_word, coeff.conj(), out)
        return result

    def max_norm(self) -> float:
        return max((c.norm() for c in self.terms.values()), default=0.0)

    def __repr__(self):
        if not self.terms:
            return "OperatorPoly(0)"
        bits = [f"{coeff.to_tuple()}*{list(word)}"
                for word, coeff in itertools.islice(self.terms.items(), 6)]
        more = "..." if len(self.terms) > 6 else ""
        return f"OperatorPoly({' + '.join(bits)}{more})"


def merge_pair(into: OperatorPoly, o1: ModeOp, o2: ModeOp,
               c: Bicomplex) -> None:
    """Merge the terms of c {o1, o2} into the polynomial `into`, in order.

    The one route for a weighted anticommutator: hamiltonian_poly and
    charge_poly write each pair straight into their running sums.  The
    words o1 o2 and o2 o1 each carry c * 1; the same op given twice makes
    one word with c * 2.
    """
    if c.is_zero():
        return
    into._normal = None
    terms = into.terms
    if o1 == o2:
        into._merged((o1, o2), c * Bicomplex(2.0), terms)
        return
    # c * (1, 0, 0, 0) written out, Bicomplex.__mul__'s float operations
    # kept: its zero products turn -0.0 into +0.0 and inf into NaN
    a, b, g, d = c
    za, zb, zg, zd = a * 0.0, b * 0.0, g * 0.0, d * 0.0
    zag, zbd = za + zg, zb + zd
    one = tuple.__new__(Bicomplex, ((a * 1.0 + zg) - zbd, zag + (b * 1.0 + zd),
                                    (za + g * 1.0) - zbd, zag + (zb + d * 1.0)))
    into._merged((o1, o2), one, terms)
    into._merged((o2, o1), one, terms)


def _pattern_key(o1: ModeOp, o2: ModeOp, mirror_sum: int) -> tuple:
    """What commutator(o1, o2) reads of two ops: species and daggers, and
    whether the indices are equal or mirrored (i + i' == mirror_sum)."""
    s1, i1, d1 = o1
    s2, i2, d2 = o2
    return (s1, d1, s2, d2, i1 == i2, i1 + i2 == mirror_sum)


def normal_order(poly: OperatorPoly, table: CommutationTable) -> OperatorPoly:
    """Rewrite into canonical order (daggers left, species rank, momentum).

    All commutators are central, so each transposition splits a word into
    the swapped word plus a shorter word; the rewriting terminates.  The
    table is read once per pattern of two ops per call (_pattern_key);
    an out-of-order two-op word is rewritten in closed form, merging
    the central term and then the swapped word, the order in which the
    stack would pop them.

    The result is memoized on poly per table object (equal tables can
    differ in signed zeros) and returned again on a repeat call; the memo
    is written once the rewriting finishes, never on the result itself,
    whose normal form would reverse its insertion order.
    """
    memo = poly._normal
    if memo is not None and memo[0] is table:
        return memo[1]
    out: dict = {}
    result = OperatorPoly(out)
    merged = result._merged
    keys: dict = {}     # each op's sort key, computed once per call
    centrals: dict = {}  # pattern -> commutator value, once per call
    mirror_sum = table.mirror_index(0)
    stack = list(poly.terms.items())
    while stack:
        word, coeff = stack.pop()
        if coeff.is_zero():
            continue
        i = -1
        for j, op in enumerate(word):
            key = keys.get(op)
            if key is None:
                key = keys[op] = op.sort_key()
            if j and prev > key:
                i = j - 1
                break
            prev = key
        if i < 0:
            merged(word, coeff, out)
            continue
        o1, o2 = word[i], word[i + 1]
        pattern = _pattern_key(o1, o2, mirror_sum)
        c = centrals.get(pattern)
        if c is None:
            c = centrals[pattern] = commutator(o1, o2, table)
        if len(word) == 2:  # closed form: the stack's two pops, in order
            if not c.is_zero():
                c = coeff * c
                if not c.is_zero():
                    merged((), c, out)
            merged((o2, o1), coeff, out)
            continue
        stack.append((word[:i] + (o2, o1) + word[i + 2:], coeff))
        if not c.is_zero():
            stack.append((word[:i] + word[i + 2:], coeff * c))
    poly._normal = (table, result)
    return result


@dataclass(frozen=True)
class VacuumRules:
    """Eigenvalues of the pair-coherent vacuum definition.

    J+ {a1(k), b1(k')} |0> = J+ lambda1 |0> and
    J- {b2(k'), a2(k)} |0> = J- lambda2 |0> for all momenta.  When
    constrained is True the projected eigenvalues vanish identically
    (lambda1 proportional to J-, lambda2 to J+).
    """

    lambda1: Bicomplex = Bicomplex.zero()
    lambda2: Bicomplex = Bicomplex.zero()
    constrained: bool = True

    def __post_init__(self):
        if self.constrained:
            if abs(self.lambda1.plus()) != 0.0 or abs(self.lambda2.minus()) != 0.0:
                raise ValueError(
                    "constrained rules require J+ lambda1 = 0 and J- lambda2 = 0")

    @staticmethod
    def constrained_rules(c1=0.0, c2=0.0) -> "VacuumRules":
        """lambda1 = J- c1, lambda2 = J+ c2: the vev-cancelling choice."""
        return VacuumRules(in_sector(False, c1), in_sector(True, c2), True)

    @staticmethod
    def generic(lambda1, lambda2) -> "VacuumRules":
        return VacuumRules(Bicomplex.from_complex(lambda1),
                           Bicomplex.from_complex(lambda2), False)


# pair families per sector: the ket rule collapses the sector's own
# annihilation pairs, the bra rule the mirror family's creation pairs
_PLUS_ANN = frozenset({"a1", "b1"})
_MINUS_ANN = frozenset({"b2", "a2"})


def _collapse(w: tuple, eigen: complex, plus: bool,
              table: CommutationTable) -> complex:
    """Value of an annihilation-family word acting on the vacuum ket.

    The family is Heisenberg-like: a-side ops commute among themselves,
    b-side ops too, and cross commutators are central; the vacuum is an
    eigenvector of every cross anticommutator with eigenvalue ``eigen``.
    Words with equal a/b counts collapse recursively: the trailing op is
    paired with the nearest opposite-side op, which hops over the ops in
    between at the cost of central contractions, taken in the J+ sector
    when ``plus`` is set and in the J- sector otherwise.  Every other
    word runs out of partners and raises UndeterminedByAxioms.
    """
    if not w:
        return 1.0
    last = w[-1]
    for p in range(len(w) - 2, -1, -1):
        if w[p].species != last.species:
            break
    else:
        raise UndeterminedByAxioms(
            f"unpaired operators {w}: not fixed by the vacuum axioms")
    partner = w[p]
    between = w[p + 1:-1]
    head = w[:p]
    # partner hops over `between` (all same side as `last`)
    c = commutator(partner, last, table)
    total = (0.5 * (eigen + (c.plus() if plus else c.minus()))
             * _collapse(head + between, eigen, plus, table))
    for i, mid in enumerate(between):
        c = commutator(partner, mid, table)
        c = c.plus() if plus else c.minus()
        if c != 0.0:
            total += c * _collapse(head + between[:i] + between[i + 1:]
                                   + (last,), eigen, plus, table)
    return total


def _sector_vev(word, plus: bool, lambdas: tuple,
                table: CommutationTable) -> complex:
    """Vacuum expectation of a word inside one idempotent sector.

    The evaluable fragment: every op is either an undaggered member of the
    sector's annihilation family (collapses on the ket with the lambda
    eigenvalue) or a daggered member of the mirror family (collapses on
    the bra with the conjugate eigenvalue).  The two families commute
    exactly, so the value factorizes; the bra factor is evaluated through
    its adjoint in the opposite sector.  lambdas holds J+ lambda1 and
    J- lambda2, the ket eigenvalues of the J+ and J- sectors.
    """
    if plus:
        ann_species, cre_species = _PLUS_ANN, _MINUS_ANN
        ket_eigen, mirror_eigen = lambdas
    else:
        ann_species, cre_species = _MINUS_ANN, _PLUS_ANN
        mirror_eigen, ket_eigen = lambdas

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

    ket = _collapse(tuple(ann_part), ket_eigen, plus, table)
    # <0| W = (adjoint(W) |0>)^dagger: reverse, undagger, evaluate in the
    # mirror sector, conjugate
    adj = tuple(op.adjoint() for op in reversed(cre_part))
    bra = _collapse(adj, mirror_eigen, not plus, table).conjugate()
    return ket * bra


def vev(poly: OperatorPoly, rules: VacuumRules,
        table: CommutationTable) -> Bicomplex:
    """Vacuum expectation value of an operator polynomial.

    The polynomial is first brought to its (unique) normal form and the
    vacuum functional is applied to the canonical basis words: each
    monomial's coefficient is split over the idempotent sectors and the
    word is collapsed per sector; <0|0> is normalized to 1.  Defining the
    functional on the normal-form basis makes it a well-defined linear
    functional on the algebra -- the pair eigen-rules for different
    momentum pairs do not commute, so word-by-word evaluation of an
    arbitrary presentation would be ordering-dependent.  A two-op word's
    sector value is computed once per (sector, _pattern_key) per call.
    The normal form comes from normal_order's memo, so a vev of the same
    poly under other rules does not normal-order it again.  Raises
    DomainError when a normal-form coefficient's norm is not finite (the
    polynomial overflowed) and UndeterminedByAxioms outside the
    evaluable fragment.
    """
    ordered = normal_order(poly, table)
    norms = [coeff.norm() for coeff in ordered.terms.values()]
    # each norm is tested: max() over a list holding NaN returns what comes first
    if not all(map(math.isfinite, norms)):
        word, norm = next((w, n) for w, n in zip(ordered.terms, norms)
                          if not math.isfinite(n))
        raise DomainError(f"normal form overflows: coefficient of "
                          f"{list(word)} has norm {norm}")
    scale = max(norms, default=0.0)    # the value of ordered.max_norm()
    lambdas = (rules.lambda1.plus(), rules.lambda2.minus())
    values: dict = {}  # (sector, pattern) -> a two-op word's sector vev
    mirror_sum = table.mirror_index(0)
    sx = sy = su = sv = 0.0
    for (word, coeff), norm in zip(ordered.terms.items(), norms):
        if norm <= 1e-14 * scale:
            continue  # rounding residue of cancelling sector products
        pattern = _pattern_key(*word, mirror_sum) if len(word) == 2 else None
        for plus, cs in ((True, coeff.plus()), (False, coeff.minus())):
            if cs != 0:
                if pattern is None:
                    val = _sector_vev(word, plus, lambdas, table)
                else:
                    val = values.get((plus, pattern))
                    if val is None:
                        val = values[plus, pattern] = _sector_vev(
                            word, plus, lambdas, table)
                x, y, u, v = in_sector(plus, cs * val)
                sx, sy, su, sv = sx + x, sy + y, su + u, sv + v
    return Bicomplex(sx, sy, su, sv)
