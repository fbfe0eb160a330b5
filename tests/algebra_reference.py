"""Reference routes of the operator algebra that only the tests use.

Equality of algebra elements through normal forms, the commutator of two
polynomials, a polynomial's scalar part, and the property that every
annihilation operator commutes with every creator.  The package computes
none of these in production; the tests compare its results against them.
"""

from hyperfield.operators import (CommutationTable, ModeOp, OperatorPoly,
                                  commutator, normal_order)
from hyperfield.ring import Bicomplex

SPECIES = ("a1", "b1", "a2", "b2")


def commutator_with(p: OperatorPoly, q: OperatorPoly) -> OperatorPoly:
    """[p, q] = p q - q p, unordered."""
    return p * q - q * p


def scalar_part(poly: OperatorPoly) -> Bicomplex:
    """Coefficient of the identity word."""
    return poly.terms.get((), Bicomplex.zero())


def polys_equal(p: OperatorPoly, q: OperatorPoly, table: CommutationTable,
                tol: float = 0.0) -> bool:
    """Equality as algebra elements (compares normal forms)."""
    return (normal_order(p, table) - normal_order(q, table)).is_zero(tol)


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
