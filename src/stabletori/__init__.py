"""Numerics for flat bundles over tori, stability forms, and systole bounds."""

from .errors import (ConvergenceError, DomainError, InvalidCoverError,
                     InvalidLatticeError, PoleError, ResolutionError,
                     ShapeError, StableToriError, WrongFormError)
from .lattice import (CoverSpec, Lattice, cover_lattice, flat_systole,
                      normalize_lattice, wirtinger_factors)
from .bundles import (AtiyahData, DecompositionReport, FlatBundle,
                      LineHolonomy, atiyah_sections, decompose_commuting_pair,
                      line_section, nilpotent_log, principal_angle,
                      pullback_bundle, two_torsion_classify)
from .sections import ProductSection, SectionGrid, dbar, gram_matrix

__version__ = "0.1.0"
