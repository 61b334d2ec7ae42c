"""Linear chains of coupled harmonic oscillators with position-dependent
nearest-neighbour interaction.

A chain of n unit-mass oscillators with base frequency omega and coupling
strength c has the quadratic form A = omega^2 I + c K.  For the built-in
families K is the Jacobi matrix M of the interaction family less its
constant diagonal F_0 (K = M for the uniform chain, whose diagonal stays
omega^2 + 2c), so the squared mode frequencies are omega^2 + c mu with mu
the spectrum of K.  jacobi.interaction_spectrum is the single source of
that closed-form spectrum; the coupling bound and the positive-definiteness
test are read from it too.  Custom coupling patterns are diagonalized
numerically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Sequence, Union

from .errors import (
    ClosedFormUnavailable,
    CombinatorialLimit,
    DegenerateRange,
    DimensionMismatch,
    InvalidParams,
    NotPositiveDefinite,
    TooFewLevels,
    UnsupportedFamily,
)
from .jacobi import (
    ConstantParams,
    SymTridiagonal,
    build_jacobi,
    interaction_spectrum,
    numeric_decomposition,
)
from .polynomials import DualQKrawtchoukParams, HahnParams, KrawtchoukParams

# A chain counts as positive definite when its smallest squared mode
# frequency exceeds PD_TOL * omega^2.
PD_TOL = 1e-12
# Levels within GROUP_RTOL * hbar * omega of each other form one group.
GROUP_RTOL = 1e-9
# Enumeration budget on the number of occupation states.
LEVEL_CAP = 10**6


@dataclass(frozen=True)
class ConstantInteraction:
    """Uniform nearest-neighbour coupling, gamma_r = 2."""


@dataclass(frozen=True)
class KrawtchoukInteraction:
    """Krawtchouk coupling profile, gamma_r = sqrt(r (n - r))."""


@dataclass(frozen=True)
class HahnInteraction:
    """Hahn coupling profile with symmetric parameter alpha."""

    alpha: float


@dataclass(frozen=True)
class DualQKrawtchoukInteraction:
    """Dual q-Krawtchouk coupling profile with base q > 0, q != 1."""

    q: float


@dataclass(frozen=True)
class CustomInteraction:
    """Explicit coupling magnitudes gamma_1 .. gamma_{n-1}."""

    gammas: tuple[float, ...]


InteractionKind = Union[
    ConstantInteraction,
    KrawtchoukInteraction,
    HahnInteraction,
    DualQKrawtchoukInteraction,
    CustomInteraction,
]


@dataclass(frozen=True)
class ChainSpec:
    """A chain of n unit-mass oscillators; hbar defaults to 1."""

    n: int
    omega: float
    coupling: float
    interaction: InteractionKind
    hbar: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParams(f"chain length must be >= 1, got {self.n}")
        if not self.omega > 0.0:
            raise InvalidParams(f"omega must be positive, got {self.omega}")
        if not self.coupling >= 0.0:
            raise InvalidParams(f"coupling must be >= 0, got {self.coupling}")
        if not self.hbar > 0.0:
            raise InvalidParams(f"hbar must be positive, got {self.hbar}")
        kind = self.interaction
        if isinstance(kind, CustomInteraction):
            if len(kind.gammas) != self.n - 1:
                raise DimensionMismatch(
                    f"{len(kind.gammas)} coupling magnitudes for a chain of "
                    f"{self.n} sites"
                )
            if any(g < 0.0 for g in kind.gammas):
                raise InvalidParams(
                    "coupling magnitudes must be >= 0 (a sign flip of any "
                    "gamma_r leaves the spectrum unchanged)"
                )
        else:
            _family_params(self)  # parameter range check


def _family_params(chain: ChainSpec):
    """Jacobi family backing the interaction, or None for custom."""
    N = chain.n - 1
    kind = chain.interaction
    if isinstance(kind, ConstantInteraction):
        return ConstantParams(N=N)
    if isinstance(kind, KrawtchoukInteraction):
        return KrawtchoukParams(N=N, p=0.5)
    if isinstance(kind, HahnInteraction):
        return HahnParams(N=N, alpha=kind.alpha, beta=kind.alpha)
    if isinstance(kind, DualQKrawtchoukInteraction):
        return DualQKrawtchoukParams(N=N, cbar=-1.0, q=kind.q)
    return None


def coupling_coefficients(chain: ChainSpec) -> tuple[float, ...]:
    """Interaction magnitudes gamma_1 .. gamma_{n-1}; for the built-in
    families gamma_r = 2 E_r with E_r the Jacobi off-diagonal."""
    if isinstance(chain.interaction, CustomInteraction):
        return chain.interaction.gammas
    fam = _family_params(chain)
    return tuple(2.0 * e for e in build_jacobi(fam).offdiag)


def assemble_quadratic_form(chain: ChainSpec) -> SymTridiagonal:
    """Quadratic form A of the chain: diagonal omega^2 (polynomial and
    custom couplings) or omega^2 + 2c (uniform coupling), off-diagonal
    magnitudes (c / 2) gamma_r."""
    w2 = chain.omega**2
    c = chain.coupling
    if isinstance(chain.interaction, ConstantInteraction):
        diag = (w2 + 2.0 * c,) * chain.n
    else:
        diag = (w2,) * chain.n
    off = tuple(0.5 * c * g for g in coupling_coefficients(chain))
    return SymTridiagonal(diag=diag, offdiag=off)


def max_coupling(chain: ChainSpec) -> float:
    """Supremum of coupling strengths keeping the chain positive definite,
    math.inf when every coupling is admissible.  Custom interactions have
    no closed-form bound."""
    if isinstance(chain.interaction, CustomInteraction):
        raise UnsupportedFamily("no closed-form coupling bound for custom gammas")
    lowest = min(interaction_spectrum(_family_params(chain)))
    return math.inf if lowest >= 0.0 else chain.omega**2 / -lowest


# First family index of the mode labels: lattice nodes x = 0..n-1 for dual
# q-Krawtchouk, j = 1..n otherwise.
_FIRST_LABEL = {DualQKrawtchoukInteraction: 0}


def _closed_squares(chain: ChainSpec) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Squared mode frequencies omega^2 + c mu in family order, with their
    family indices."""
    if isinstance(chain.interaction, CustomInteraction):
        raise ClosedFormUnavailable("custom interactions have no closed-form spectrum")
    w2 = chain.omega**2
    c = chain.coupling
    squares = tuple(w2 + c * mu for mu in interaction_spectrum(_family_params(chain)))
    first = _FIRST_LABEL.get(type(chain.interaction), 1)
    return squares, tuple(range(first, first + chain.n))


class SpectrumOrigin(enum.Enum):
    CLOSED_FORM = "closed_form"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class ModeSpectrum:
    """Mode frequencies sorted ascending.

    family_index pairs each ascending mode with its family label: j = 1..n
    for the uniform, Krawtchouk and Hahn families, x = 0..n-1 for dual
    q-Krawtchouk, and the ascending position itself for numeric spectra.
    """

    omegas: tuple[float, ...]
    origin: SpectrumOrigin
    family_index: tuple[int, ...]


def mode_frequencies(chain: ChainSpec, method: str = "auto") -> ModeSpectrum:
    """Mode frequencies of the chain.

    method 'closed' uses the family's closed form (ClosedFormUnavailable
    for custom interactions), 'numeric' diagonalizes the assembled
    quadratic form, 'auto' prefers closed.  Raises NotPositiveDefinite when
    the smallest squared frequency is not above PD_TOL * omega^2.
    """
    if method not in ("auto", "closed", "numeric"):
        raise InvalidParams(f"unknown method {method!r}")
    custom = isinstance(chain.interaction, CustomInteraction)
    if method == "closed" or (method == "auto" and not custom):
        squares, labels = _closed_squares(chain)
        origin = SpectrumOrigin.CLOSED_FORM
    else:
        dec = numeric_decomposition(assemble_quadratic_form(chain))
        squares, labels = dec.eigenvalues, tuple(range(chain.n))
        origin = SpectrumOrigin.NUMERIC
    floor = PD_TOL * chain.omega**2
    if min(squares) <= floor:
        raise NotPositiveDefinite(
            f"smallest squared mode frequency {min(squares):.6g} is not "
            f"above {floor:.6g}"
        )
    order = sorted(range(len(squares)), key=lambda t: squares[t])
    return ModeSpectrum(
        omegas=tuple(math.sqrt(squares[t]) for t in order),
        origin=origin,
        family_index=tuple(labels[t] for t in order),
    )


def is_positive_definite(chain: ChainSpec) -> bool:
    """Whether the chain's quadratic form is positive definite, judged by
    its smallest squared mode frequency against PD_TOL * omega^2."""
    if isinstance(chain.interaction, CustomInteraction):
        dec = numeric_decomposition(assemble_quadratic_form(chain))
        smallest = dec.eigenvalues[0]
    else:
        smallest = min(_closed_squares(chain)[0])
    return smallest > PD_TOL * chain.omega**2


def state_energy(chain: ChainSpec, occupations: Sequence[int]) -> float:
    """Energy hbar * sum_j omega_j (k_j + 1/2) of an occupation vector,
    indexed against the ascending mode frequencies."""
    if len(occupations) != chain.n:
        raise DimensionMismatch(
            f"{len(occupations)} occupation numbers for {chain.n} modes"
        )
    if any(k < 0 or k != int(k) for k in occupations):
        raise InvalidParams("occupation numbers must be non-negative integers")
    spectrum = mode_frequencies(chain)
    return chain.hbar * sum(
        w * (k + 0.5) for w, k in zip(spectrum.omegas, occupations)
    )


def ground_energy(chain: ChainSpec, spectrum: ModeSpectrum) -> float:
    """Zero-point energy E_0 = (hbar / 2) * sum_j omega_j of a mode spectrum
    of the chain."""
    return 0.5 * chain.hbar * sum(spectrum.omegas)


def single_phonon_levels(
    chain: ChainSpec, spectrum: ModeSpectrum | None = None
) -> tuple[float, ...]:
    """The n single-phonon energies E_0 + hbar * omega_j, ascending, of the
    given mode spectrum (by default mode_frequencies(chain))."""
    if spectrum is None:
        spectrum = mode_frequencies(chain)
    ground = ground_energy(chain, spectrum)
    return tuple(ground + chain.hbar * w for w in spectrum.omegas)


@dataclass(frozen=True)
class LevelGroup:
    """An energy level with its degeneracy and member occupation vectors."""

    energy: float
    degeneracy: int
    occupations: tuple[tuple[int, ...], ...]


def enumerate_levels(chain: ChainSpec, max_total: int) -> tuple[LevelGroup, ...]:
    """All energy levels from occupation vectors with at most max_total
    phonons, grouped within GROUP_RTOL * hbar * omega and sorted ascending.

    Raises CombinatorialLimit when the state count C(n + K, K) exceeds
    LEVEL_CAP.
    """
    if max_total < 0:
        raise InvalidParams(f"max_total must be >= 0, got {max_total}")
    n = chain.n
    count = math.comb(n + max_total, max_total)
    if count > LEVEL_CAP:
        raise CombinatorialLimit(
            f"{count} occupation states exceed the budget of {LEVEL_CAP}"
        )
    spectrum = mode_frequencies(chain)
    ground = ground_energy(chain, spectrum)
    states = []
    for total in range(max_total + 1):
        for modes in combinations_with_replacement(range(n), total):
            k = [0] * n
            for m in modes:
                k[m] += 1
            energy = ground + chain.hbar * sum(
                w * kj for w, kj in zip(spectrum.omegas, k)
            )
            states.append((energy, tuple(k)))
    states.sort()
    tol = GROUP_RTOL * chain.hbar * chain.omega
    groups: list[LevelGroup] = []
    start = 0
    for t in range(1, len(states) + 1):
        if t == len(states) or states[t][0] - states[t - 1][0] > tol:
            members = sorted(k for _, k in states[start:t])
            groups.append(
                LevelGroup(
                    energy=states[start][0],
                    degeneracy=t - start,
                    occupations=tuple(members),
                )
            )
            start = t
    return tuple(groups)


class SpacingProfile(enum.Enum):
    DECREASING = "decreasing"
    INCREASING = "increasing"
    MID_PEAK = "mid_peak"
    MID_DIP = "mid_dip"
    OTHER = "other"


def spacing_profile(levels: Sequence[float]) -> SpacingProfile:
    """Shape of the successive-gap sequence of at least three levels:
    strictly decreasing, strictly increasing, single strict interior
    maximum (mid_peak), single strict interior minimum (mid_dip), or
    other."""
    if len(levels) < 3:
        raise TooFewLevels(f"need at least 3 levels, got {len(levels)}")
    gaps = [b - a for a, b in zip(levels, levels[1:])]
    L = len(gaps)
    rising = [gaps[t + 1] > gaps[t] for t in range(L - 1)]
    falling = [gaps[t + 1] < gaps[t] for t in range(L - 1)]
    if all(falling):
        return SpacingProfile.DECREASING
    if all(rising):
        return SpacingProfile.INCREASING
    m = max(range(L), key=lambda t: gaps[t])
    if 0 < m < L - 1 and all(rising[:m]) and all(falling[m:]):
        return SpacingProfile.MID_PEAK
    m = min(range(L), key=lambda t: gaps[t])
    if 0 < m < L - 1 and all(falling[:m]) and all(rising[m:]):
        return SpacingProfile.MID_DIP
    return SpacingProfile.OTHER


def rescale_levels(
    levels: Sequence[float], lo: float = 0.0, hi: float = 1.0
) -> tuple[float, ...]:
    """Affinely map levels so min -> lo and max -> hi.  Raises
    DegenerateRange when all levels coincide."""
    lowest = min(levels)
    span = max(levels) - lowest
    if span == 0.0:
        raise DegenerateRange("all levels coincide; no affine rescale exists")
    return tuple(lo + (e - lowest) * (hi - lo) / span for e in levels)
