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
import numbers
import sys
from dataclasses import dataclass
from itertools import islice
from typing import Sequence, Union

import numpy as np

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
    numeric_eigenvalues,
)
from .polynomials import DualQKrawtchoukParams, HahnParams, KrawtchoukParams

# A chain counts as positive definite when its smallest squared mode
# frequency exceeds PD_TOL * omega^2.
PD_TOL = 1e-12
# Smallest and largest omega whose square is a normal, finite float (about
# 1.49e-154 and 1.34e154).
_OMEGA_MIN = math.sqrt(sys.float_info.min)
_OMEGA_MAX = math.sqrt(sys.float_info.max)
# Levels within GROUP_RTOL * hbar * omega of each other form one group.
GROUP_RTOL = 1e-9
# Enumeration budget on the number of occupation states.
LEVEL_CAP = 10**6
# Occupation states are turned into Python tuples this many at a time, so
# the numpy temporaries of the conversion stay small.
_TUPLE_SLICE = 1 << 15


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
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise InvalidParams(f"chain length must be an integer, got {self.n!r}")
        if self.n < 1:
            raise InvalidParams(f"chain length must be >= 1, got {self.n}")
        if not _OMEGA_MIN <= self.omega <= _OMEGA_MAX:
            raise InvalidParams(
                f"omega must be positive with a normal, finite square (from "
                f"{_OMEGA_MIN:.4g} to {_OMEGA_MAX:.4g}), got {self.omega}"
            )
        if not 0.0 <= self.coupling < math.inf:
            raise InvalidParams(f"coupling must be >= 0 and finite, got {self.coupling}")
        if not 0.0 < self.hbar < math.inf:
            raise InvalidParams(f"hbar must be positive and finite, got {self.hbar}")
        kind = self.interaction
        if isinstance(kind, CustomInteraction):
            if len(kind.gammas) != self.n - 1:
                raise DimensionMismatch(
                    f"{len(kind.gammas)} coupling magnitudes for a chain of "
                    f"{self.n} sites"
                )
            if not all(0.0 <= g < math.inf for g in kind.gammas):
                raise InvalidParams(
                    "coupling magnitudes must be >= 0 and finite (a sign flip "
                    "of any gamma_r leaves the spectrum unchanged)"
                )
        else:
            _family_params(self)  # parameter range check


def _family_params(chain: ChainSpec):
    """Jacobi family backing the interaction.  Raises ClosedFormUnavailable
    for custom interactions, which have none."""
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
    raise ClosedFormUnavailable("custom interactions have no closed-form spectrum")


def coupling_coefficients(chain: ChainSpec) -> tuple[float, ...]:
    """Interaction magnitudes gamma_1 .. gamma_{n-1}; for the built-in
    families gamma_r = 2 E_r with E_r the Jacobi off-diagonal.  Raises
    InvalidParams when 2 E_r overflows."""
    if isinstance(chain.interaction, CustomInteraction):
        return chain.interaction.gammas
    gammas = tuple(2.0 * e for e in build_jacobi(_family_params(chain)).offdiag)
    if not all(map(math.isfinite, gammas)):
        raise InvalidParams("coupling magnitudes 2 E_r overflow float range")
    return gammas


def assemble_quadratic_form(chain: ChainSpec) -> SymTridiagonal:
    """Quadratic form A of the chain: diagonal omega^2 (polynomial and
    custom couplings) or omega^2 + 2c (uniform coupling), off-diagonal
    magnitudes (c / 2) gamma_r, which is c E_r for the built-in families."""
    w2 = chain.omega**2
    c = chain.coupling
    kind = chain.interaction
    if isinstance(kind, ConstantInteraction):
        diag = (w2 + 2.0 * c,) * chain.n
    else:
        diag = (w2,) * chain.n
    if isinstance(kind, CustomInteraction):
        off = tuple(0.5 * c * g for g in kind.gammas)
    else:
        # c E_r rounds as (c / 2)(2 E_r) does, and stays finite near the
        # dual q-Krawtchouk range limit, where 2 E_r overflows.
        off = tuple(c * e for e in build_jacobi(_family_params(chain)).offdiag)
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
    w2 = chain.omega**2
    c = chain.coupling
    squares = tuple(w2 + c * mu for mu in interaction_spectrum(_family_params(chain)))
    if not all(map(math.isfinite, squares)):
        raise InvalidParams(
            f"squared mode frequencies omega^2 + c mu overflow float range "
            f"(omega = {chain.omega}, c = {c})"
        )
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
    the smallest squared frequency is not above PD_TOL * omega^2, and
    InvalidParams when a closed-form squared frequency overflows.
    """
    if method not in ("auto", "closed", "numeric"):
        raise InvalidParams(f"unknown method {method!r}")
    custom = isinstance(chain.interaction, CustomInteraction)
    if method == "closed" or (method == "auto" and not custom):
        squares, labels = _closed_squares(chain)
        origin = SpectrumOrigin.CLOSED_FORM
    else:
        squares = numeric_eigenvalues(assemble_quadratic_form(chain))
        labels = tuple(range(chain.n))
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
        smallest = numeric_eigenvalues(assemble_quadratic_form(chain))[0]
    else:
        smallest = min(_closed_squares(chain)[0])
    return smallest > PD_TOL * chain.omega**2


def state_energy(chain: ChainSpec, occupations: Sequence[int]) -> float:
    """Energy E_0 + hbar * sum_j omega_j k_j of an occupation vector, indexed
    against the ascending mode frequencies, with the rounding of
    enumerate_levels and single_phonon_levels.  Raises InvalidParams when it
    overflows."""
    if len(occupations) != chain.n:
        raise DimensionMismatch(
            f"{len(occupations)} occupation numbers for {chain.n} modes"
        )
    if any(k < 0 or k != int(k) for k in occupations):
        raise InvalidParams("occupation numbers must be non-negative integers")
    spectrum = mode_frequencies(chain)
    phonons = _left_sum(w * k for w, k in zip(spectrum.omegas, occupations))
    return _finite_energy(ground_energy(chain, spectrum) + chain.hbar * phonons)


def _left_sum(values) -> float:
    """Left-to-right float sum: the rounding every energy payload pins.  The
    built-in sum() compensates floats from Python 3.12 on."""
    total = 0.0
    for v in values:
        total += v
    return total


def _finite_energy(energy: float) -> float:
    if not math.isfinite(energy):
        raise InvalidParams("energies overflow float range")
    return energy


def ground_energy(chain: ChainSpec, spectrum: ModeSpectrum) -> float:
    """Zero-point energy E_0 = (hbar / 2) * sum_j omega_j of a mode spectrum
    of the chain.  Raises InvalidParams when it overflows."""
    return _finite_energy(0.5 * chain.hbar * _left_sum(spectrum.omegas))


def single_phonon_levels(
    chain: ChainSpec, spectrum: ModeSpectrum | None = None
) -> tuple[float, ...]:
    """The n single-phonon energies E_0 + hbar * omega_j, ascending, of the
    given mode spectrum (by default mode_frequencies(chain)).  Raises
    InvalidParams when the highest overflows."""
    if spectrum is None:
        spectrum = mode_frequencies(chain)
    ground = ground_energy(chain, spectrum)
    _finite_energy(ground + chain.hbar * spectrum.omegas[-1])
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

    Each level's energy is that of its lowest member, E_0 + hbar * sum_j
    omega_j k_j with the products added in ascending mode order; the members
    of a level are in lexicographic order.  Raises CombinatorialLimit when
    the state count C(n + K, K) exceeds LEVEL_CAP, and InvalidParams when
    the highest energy overflows.
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
    # The largest energy is that of max_total phonons in the top mode.
    _finite_energy(ground + chain.hbar * (spectrum.omegas[-1] * max_total))
    # Each array is dropped once used up: numpy temporaries left in the
    # heap add to the peak memory of the Python objects built at the end.
    occupations = _occupation_columns(n, int(max_total))
    # Added mode by mode in ascending order: the rounding sequence of a
    # left-to-right sum of the products omega_j * k_j.
    total = np.zeros(count)
    for w, column in zip(spectrum.omegas, occupations):
        total += w * column
    energy = ground + chain.hbar * total
    del total
    order = np.argsort(energy, kind="stable")
    energy = energy[order]
    tol = GROUP_RTOL * chain.hbar * chain.omega
    cuts = np.flatnonzero(np.diff(energy) > tol) + 1
    energies = energy[np.concatenate(([0], cuts))].tolist()
    degeneracies = np.diff(cuts, prepend=0, append=count).tolist()
    del energy
    # States are numbered in lexicographic order, so sorting the keys
    # group * count + state puts each group's members in that order.  The
    # keys arrive nearly sorted, which the stable sort exploits.
    members = np.zeros(count, dtype=np.int64)
    members[cuts] = count
    np.cumsum(members, out=members)
    members += order
    del order, cuts
    members.sort(kind="stable")
    members %= count
    rows = []
    for lo in range(0, count, _TUPLE_SLICE):
        picked = members[lo : lo + _TUPLE_SLICE]
        rows.extend(zip(*(column[picked].tolist() for column in occupations)))
    del members, occupations
    remaining = iter(rows)
    grouped = (tuple(islice(remaining, d)) for d in degeneracies)
    return tuple(map(LevelGroup, energies, degeneracies, grouped))


def _occupation_columns(n: int, max_total: int) -> list[np.ndarray]:
    """The C(n + K, K) occupation vectors with at most K = max_total
    phonons, in lexicographic order, as one column per mode.

    Mode j extends each prefix that has used u phonons by k_j = 0..K - u,
    so a row is found by following its parent links back from the last
    mode."""
    dtype = np.min_scalar_type(max_total)
    used = np.zeros(1, dtype=np.int32)
    links = []
    for _ in range(n):
        width = max_total + 1 - used
        parent = np.repeat(np.arange(used.size, dtype=np.int32), width)
        k = np.arange(parent.size, dtype=np.int32)
        k -= (np.cumsum(width, dtype=np.int32) - width)[parent]
        used = used[parent] + k
        links.append((parent, k.astype(dtype)))
    columns = []
    row = np.arange(used.size, dtype=np.int32)
    while links:
        parent, k = links.pop()
        columns.append(k[row])
        row = parent[row]
    columns.reverse()
    return columns


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
