"""iwalab: a finite-volume laboratory for magnetic interface lattices.

Exact slope arithmetic and Iwatsuka fields (model), the magnetic hull as a
two-letter subshift (hull), finite-volume operator realizations
(operators), and the numerical topological invariants with the
bulk-interface correspondence verifier (invariants).
"""

from .errors import (ConfigError, DegenerateField, EmptyGap, EmptyInterior,
                     GapClosed, IrrationalFlux, IrrationalSlope, IwalabError,
                     NoCommonGap, NonHermitianPerturbation,
                     NotInterfaceLocalized, NotProjection, PrecisionExhausted,
                     SlabExceedsWindow)
from .model import (ConstantField, FloatIrrationalSlope, IwatsukaField,
                    LatticeWindow, MinusInfinity, PlusInfinity,
                    QuadraticIrrationalSlope, RationalSlope, SlabWindow,
                    SqrtExpr, circulation, flux_phase,
                    offset_sign, offset_value, vector_potential, zero_field)
from .hull import (HullPoint, MeasureWeights, Pattern, cantor_diagnostics,
                   enumerate_hull, hull_metric, interface_measure,
                   offset_coordinate, point_pattern, shift_point)
from .operators import (BandStructure, LatticeOperator, SpectralData,
                        SwitchFunction, band_structure, bloch_spectrum,
                        fermi_projection, flux_operator, gap_switch_operators,
                        harper_bloch_matrix, hull_projection,
                        interface_shift_unitary, iwatsuka_hamiltonian,
                        magnetic_translation, strip_projection,
                        translation_by)
from .invariants import (CurrentReport, InvariantReport,
                         TANGENTIAL_ORIENTATION, chern_momentum,
                         chern_realspace, common_gaps, derivation,
                         interface_current, trace_bulk, trace_interface,
                         verify_bic, winding)

__version__ = "0.1.0"
