"""iwalab: a finite-volume laboratory for magnetic interface lattices.

Exact slope arithmetic and Iwatsuka fields (model), the magnetic hull as a
two-letter subshift (hull), finite-volume operator realizations
(operators), and the numerical topological invariants with the
bulk-interface correspondence verifier (invariants).
"""

from .errors import (BudgetExceeded, ChernMismatch, ConfigError,
                     DegenerateField, EmptyGap, EmptyInterior, GapClosed,
                     IrrationalFlux, IrrationalSlope, IwalabError, NoCommonGap,
                     NonHermitianPerturbation, NotInterfaceLocalized,
                     NotProjection, SlabExceedsWindow)
from .model import (ConstantField, FloatIrrationalSlope, IwatsukaField,
                    LatticeWindow, MinusInfinity, PlusInfinity,
                    QuadraticIrrationalSlope, RationalSlope, SlabWindow,
                    SqrtExpr, circulation, zero_field)
from .hull import Pattern, cantor_diagnostics, enumerate_hull
from .operators import (BandStructure, LatticeOperator, Projection,
                        SpectralData, SwitchFunction, band_structure,
                        bloch_spectrum, fermi_projection, flux_operator,
                        harper_bloch_matrix, hermitian_eigenvalues,
                        hull_projection, interface_shift_unitary,
                        iwatsuka_hamiltonian, magnetic_translation,
                        strip_projection, translation_by)
from .invariants import (CurrentReport, InvariantReport,
                         TANGENTIAL_ORIENTATION, chern_momentum,
                         chern_realspace, chern_tknn, common_gaps, derivation,
                         interface_current, trace_interface, verify_bic,
                         winding)

__version__ = "0.1.0"
