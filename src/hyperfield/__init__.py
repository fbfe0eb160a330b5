"""Bicomplex-ring toolkit for two dissipatively coupled charged scalar fields."""

from .errors import (DomainError, HyperfieldError, ImaginaryFrequency,
                     NonConvergent, PoleAtZeroMomentum,
                     TruncationOrderTooLarge, UndeterminedByAxioms)
from .ring import (Bicomplex, I_UNIT, IJ_UNIT, J_MINUS, J_PLUS, J_UNIT, ONE,
                   ZERO)
from .modes import (FieldParams, ModeSolution, eom_residual, field_value,
                    make_mode, omega)
from .operators import (CommutationTable, ModeOp, OperatorPoly, VacuumRules,
                        commutator, generic_table, normal_order, vev)
from .commutators import (QuadratureSpec, bessel_k, commutator_omega_pi_closed,
                          commutator_omega_pi_quadrature, delta_commutator,
                          difference_bracket, figure_data, lattice_commutator,
                          sum_bracket, weighted_commutators,
                          weighted_quadrature)
from .observables import (GeometrySpec, charge_poly, geometry_kernel, h_gamma,
                          hamiltonian_poly, noether_residual, vev_Q)
from .states import (StateVector, asymptotic_state_finite,
                     asymptotic_state_infinite, eta_k, evolve_vacuum,
                     norm_preservation, project_view, schmidt_rank,
                     schmidt_spectrum)

__version__ = "0.1.0"
