"""Numerics for flat bundles over tori, stability forms, and systole bounds."""

from .errors import (ConvergenceError, DomainError, InvalidCoverError,
                     InvalidLatticeError, PoleError, ResolutionError,
                     ShapeError, StableToriError, WrongFormError)
from .lattice import (CoverSpec, Lattice, ObliqueCoords, cover_lattice,
                      flat_systole, from_oblique, normalize_lattice,
                      oblique_coords, wirtinger_factors)
from .bundles import (AtiyahData, DecompositionReport, FlatBundle,
                      LineHolonomy, atiyah_sections, decompose_commuting_pair,
                      global_generation_hypothesis, h0_indecomposable,
                      lift_degree, lift_line_holonomy, line_section,
                      nilpotent_log, pairing_orthogonality, principal_angle,
                      pullback_bundle, stabilization_scan,
                      two_torsion_classify)
from .sections import SectionGrid, dbar, gram_matrix, tensor_sections

__version__ = "0.1.0"
