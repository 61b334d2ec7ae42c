"""Spectral toolkit for harmonic chains with position-dependent coupling.

The package is organized in four layers: discrete orthogonal polynomial
families (`polynomials`), their Jacobi matrices with analytic and numeric
eigendecompositions (`jacobi`), oscillator-chain physics built on those
spectra (`chain`), and a command-line interface (`cli`).
"""

import types

from .chain import (
    ChainSpec,
    ConstantInteraction,
    CustomInteraction,
    DualQKrawtchoukInteraction,
    HahnInteraction,
    InteractionKind,
    KrawtchoukInteraction,
    LevelGroup,
    LevelTable,
    ModeSpectrum,
    SpacingProfile,
    assemble_quadratic_form,
    coupling_coefficients,
    enumerate_levels,
    is_positive_definite,
    max_coupling,
    mode_frequencies,
    rescale_levels,
    single_phonon_levels,
    spacing_profile,
    state_energy,
)
from .errors import (
    BudgetExceeded,
    ChainSpectraError,
    ClosedFormUnavailable,
    CombinatorialLimit,
    DegenerateRange,
    DegreeOutOfRange,
    DimensionMismatch,
    InvalidParams,
    NoConvergence,
    NotPositiveDefinite,
    TooFewLevels,
    UnsupportedFamily,
)
from .jacobi import (
    ConstantParams,
    JacobiFamily,
    Origin,
    SpectralDecomposition,
    SymTridiagonal,
    analytic_decomposition,
    build_jacobi,
    decomposition_residuals,
    numeric_decomposition,
    numeric_eigenvalues,
)
from .polynomials import (
    DualQKrawtchoukParams,
    FamilyParams,
    HahnParams,
    KrawtchoukParams,
    LatticePoint,
    bidiagonal_split,
    family_eval,
    lattice,
    lattice_point,
    norm,
    orthonormal_eval,
    recurrence_eval,
    weight,
)

__version__ = "0.1.0"

# Every name imported above is public; the submodules themselves are not
# listed.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
]
