"""Linear chains of coupled harmonic oscillators with position-dependent
nearest-neighbour interaction.

A chain of n unit-mass oscillators with base frequency omega and coupling
strength c has the quadratic form A = omega^2 I + c K.  For the built-in
families K is the Jacobi matrix M of the interaction family less its
constant diagonal F_0 (K = M for the uniform chain, whose diagonal stays
omega^2 + 2c), so the squared mode frequencies are omega^2 + c mu with mu
the spectrum of K.  jacobi writes K's entries and its closed-form
spectrum, jacobi._interaction_formula; a custom chain's K is gamma_r / 2
off the zero diagonal.  Every closed form is monotone in family order, so
the coupling bound and the positive-definiteness test of a built-in chain
read only the two end values of mu, in O(1) of n.  Each call reads the
formula once, through _closed_form (max_coupling, which forms no square,
directly), and the closed mode frequencies of a chain refused at its end
squares, at or below the floor or out of float range, build none of its
n squares.
Custom coupling patterns are diagonalized numerically, and so is any
chain on request: numeric mode frequencies build K once and take
mu = kappa_0 + t for the eigenvalues t of its zero-diagonal part from the
dqds kernel jacobi._zero_diagonal_eigenvalues, and form omega^2 + c mu
with the code of the closed form, _squares.  Whether A is positive
definite without a closed form is decided in O(n) by jacobi._all_above,
the sign of every LDL^T pivot of A - PD_TOL omega^2 I:
is_positive_definite on a custom chain runs no eigensolver, and numeric
mode frequencies run dqds only on a chain that passes.
The occupation table of enumerate_levels is built in place from the last
mode up, each block of a mode a copy of a tail of the table of the modes
after it, and each mode's values written once.  Its energies are ordered
by numpy's default, unstable sort: tied energies fall into one level
whatever their order, and the members of each level of two or more states
are then sorted by state; a level of one state needs no sort.  numpy is
imported inside the level-table functions on purpose, so that mode
frequencies and bounds never load it.

A ChainSpec resolves its interaction to its Jacobi family once, when it is
built, and keeps it as chain.family (None for a custom chain); every
function here reads the family from there.
"""

from __future__ import annotations

import enum
import math
import operator
import re
import sys
from collections import abc
from dataclasses import dataclass, field
from typing import Sequence, Union, get_args

from .errors import (
    BudgetExceeded,
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
    JacobiFamily,
    Origin,
    SymTridiagonal,
    _all_above,
    _interaction_formula,
    _interaction_matrix,
    _zero_diagonal_eigenvalues,
)
from .polynomials import (
    DualQKrawtchoukParams,
    HahnParams,
    KrawtchoukParams,
    _as_count,
    _float_tuple,
    _is_real,
    _is_sequence,
    _shown,
    _store_float,
)

# A chain counts as positive definite when its smallest squared mode
# frequency exceeds PD_TOL * omega^2.
PD_TOL = 1e-12
# Smallest and largest omega whose square is a normal, finite float (about
# 1.49e-154 and 1.34e154).
_OMEGA_MIN = math.sqrt(sys.float_info.min)
_OMEGA_MAX = math.sqrt(sys.float_info.max)
# Levels within GROUP_RTOL * hbar * omega of each other form one group.
GROUP_RTOL = 1e-9
# Budget on the number of occupation states that enumerate_levels builds,
# and on the levels of all panels of the CLI's plot.
LEVEL_CAP = 10**6
# Budget on the chain length of numeric mode frequencies, whose dqds runs
# in O(n^2) interpreted steps: 6-9 s and about 21 MiB of RSS for the
# CLI's spectrum at n = 8192.
NUMERIC_CAP = 8192
# The state count stops at its first partial product above 2**_COUNT_BITS,
# far above LEVEL_CAP: an exact count below it takes well under a second.
_COUNT_BITS = 1 << 15
# Iterating a LevelTable turns whole levels of about this many member rows
# at a time into Python tuples, and holds one such block at a time.
_READ_ROWS = 1 << 12
# enumerate_levels gathers the states of shared levels into their sort keys
# this many positions at a time.
_SORT_BLOCK = 1 << 16


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
    """A chain of n unit-mass oscillators; hbar defaults to 1.

    A chain stores what it checked: n as an int, omega, coupling, hbar and
    custom gammas as floats, and family, the Jacobi family on 0..n-1 behind
    a built-in interaction (None for a custom one).  family is derived, not
    passed: dataclasses.replace recomputes it, and equality, hashing and
    repr ignore it."""

    n: int
    omega: float
    coupling: float
    interaction: InteractionKind
    hbar: float = 1.0
    family: JacobiFamily | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _as_count(self.n, "chain length", least=1))
        omega = _store_float(self, "omega")
        coupling = _store_float(self, "coupling")
        hbar = _store_float(self, "hbar")
        if not _OMEGA_MIN <= omega <= _OMEGA_MAX:
            raise InvalidParams(
                f"omega must be positive with a normal, finite square (from "
                f"{_OMEGA_MIN:.4g} to {_OMEGA_MAX:.4g}), got {omega}"
            )
        if not 0.0 <= coupling < math.inf:
            raise InvalidParams(f"coupling must be >= 0 and finite, got {coupling}")
        if not 0.0 < hbar < math.inf:
            raise InvalidParams(f"hbar must be positive and finite, got {hbar}")
        N = self.n - 1
        kind = self.interaction
        if isinstance(kind, CustomInteraction):
            gammas = _float_tuple(kind.gammas, "coupling magnitudes")
            if len(gammas) != N:
                raise DimensionMismatch(
                    f"{len(gammas)} coupling magnitudes for a chain of "
                    f"{self.n} sites"
                )
            if not all(0.0 <= g < math.inf for g in gammas):
                raise InvalidParams(
                    "coupling magnitudes must be real numbers >= 0 and finite "
                    "(a sign flip of any gamma_r leaves the spectrum unchanged)"
                )
            object.__setattr__(self, "interaction", CustomInteraction(gammas))
            family = None
        # Each family's constructor checks its parameter range.
        elif isinstance(kind, ConstantInteraction):
            family = ConstantParams(N=N)
        elif isinstance(kind, KrawtchoukInteraction):
            family = KrawtchoukParams(N=N, p=0.5)
        elif isinstance(kind, HahnInteraction):
            family = HahnParams(N=N, alpha=kind.alpha, beta=kind.alpha)
        elif isinstance(kind, DualQKrawtchoukInteraction):
            family = DualQKrawtchoukParams(N=N, cbar=-1.0, q=kind.q)
        else:
            names = ", ".join(cls.__name__ for cls in get_args(InteractionKind))
            raise InvalidParams(f"interaction must be one of {names}; got {_shown(kind)}")
        object.__setattr__(self, "family", family)


def _interaction(chain: ChainSpec) -> tuple[float, tuple[float, ...]]:
    """Constant diagonal kappa_0 and off-diagonal magnitudes E_r of the
    chain's interaction matrix K: jacobi._interaction_matrix of its family,
    or kappa_0 = 0 and E_r = gamma_r / 2 for a custom chain."""
    if chain.family is None:
        return 0.0, tuple(0.5 * g for g in chain.interaction.gammas)
    return _interaction_matrix(chain.family)


def coupling_coefficients(chain: ChainSpec) -> tuple[float, ...]:
    """Interaction magnitudes gamma_1 .. gamma_{n-1}; for the built-in
    families gamma_r = 2 E_r with E_r the Jacobi off-diagonal.  Raises
    InvalidParams when an E_r is not finite or 2 E_r overflows."""
    if chain.family is None:
        return chain.interaction.gammas
    gammas = tuple(2.0 * e for e in _interaction_matrix(chain.family)[1])
    if not all(map(math.isfinite, gammas)):
        raise InvalidParams("coupling magnitudes 2 E_r overflow float range")
    return gammas


def assemble_quadratic_form(chain: ChainSpec) -> SymTridiagonal:
    """Quadratic form A of the chain: diagonal omega^2 (polynomial and
    custom couplings) or omega^2 + 2c (uniform coupling), off-diagonal
    magnitudes c E_r, which is c (gamma_r / 2) for a custom chain.  Raises
    InvalidParams when an entry overflows."""
    return _quadratic_form(chain, *_interaction(chain))


def _quadratic_form(chain: ChainSpec, k_diag: float, offdiag) -> SymTridiagonal:
    """omega^2 I + c K for the K of _interaction.  c E_r stays finite near
    the dual q-Krawtchouk range limit, where 2 E_r overflows."""
    w2 = chain.omega**2
    c = chain.coupling
    diag = w2 + k_diag * c
    off = tuple(c * e for e in offdiag)
    if not all(map(math.isfinite, (diag, *off))):
        raise InvalidParams(
            f"entries of the quadratic form omega^2 I + c K overflow float "
            f"range (omega = {chain.omega}, c = {c})"
        )
    return SymTridiagonal(diag=(diag,) * chain.n, offdiag=off)


def max_coupling(chain: ChainSpec) -> float:
    """Supremum of coupling strengths keeping the chain positive definite,
    math.inf when every coupling is admissible: omega^2 / -min mu, read off
    the ends of K's closed-form spectrum in O(1) of n.  Custom interactions
    have no closed-form bound."""
    if chain.family is None:
        raise UnsupportedFamily("no closed-form coupling bound for custom gammas")
    mu, indices = _interaction_formula(chain.family)
    lowest = min(mu(indices[0]), mu(indices[-1]))
    return math.inf if lowest >= 0.0 else chain.omega**2 / -lowest


def _squares(chain: ChainSpec, mus) -> tuple[float, ...]:
    """Squared mode frequencies omega^2 + c mu, one per eigenvalue mu of K,
    in the order of mus: the one formula of both routes.

    A product c mu below the smallest normal float, which would lose
    digits, is formed from the frexp fractions of c and mu instead, scaled
    by the power of two that takes omega^2 to [1/2, 1), and the sum is
    scaled back.  Every other square has the bits of the plain formula.
    Raises InvalidParams when a square overflows."""
    w2 = chain.omega**2
    c = chain.coupling
    tiny = sys.float_info.min
    squares = []
    for mu in mus:
        p = c * mu
        if -tiny < p < tiny and c and mu:
            k = -math.frexp(w2)[1]
            (fc, ec), (fm, em) = math.frexp(c), math.frexp(mu)
            p = math.ldexp(fc * fm, ec + em + k)
            squares.append(math.ldexp(math.ldexp(w2, k) + p, -k))
        else:
            squares.append(w2 + p)
    if not all(map(math.isfinite, squares)):
        raise InvalidParams(
            f"squared mode frequencies omega^2 + c mu overflow float range "
            f"(omega = {chain.omega}, c = {c})"
        )
    return tuple(squares)


def _closed_form(chain: ChainSpec):
    """K's closed form mu, its range of indices in family order, and the
    squares of the first and the last mu, in O(1) of n.  For c >= 0 a
    square is monotone in mu, so the lesser end is the least of all n
    squares, and _squares raises InvalidParams on these two if on any.
    Raises ClosedFormUnavailable for a custom chain."""
    if chain.family is None:
        raise ClosedFormUnavailable("custom interactions have no closed-form spectrum")
    mu, indices = _interaction_formula(chain.family)
    return mu, indices, _squares(chain, (mu(indices[0]), mu(indices[-1])))


def _check_floor(lowest: float, floor: float) -> None:
    if lowest <= floor:
        raise NotPositiveDefinite(
            f"smallest squared mode frequency {lowest:.6g} is not above {floor:.6g}"
        )


@dataclass(frozen=True)
class ModeSpectrum:
    """Mode frequencies sorted ascending; origin Origin.ANALYTIC for the
    roots of omega^2 + c mu, mu the closed form of K in family order, and
    Origin.NUMERIC for those of its eigenvalues from dqds."""

    omegas: tuple[float, ...]
    origin: Origin


def mode_frequencies(chain: ChainSpec, method: str = "auto") -> ModeSpectrum:
    """Mode frequencies of the chain.

    method 'closed' uses the family's closed form (ClosedFormUnavailable
    for custom interactions), 'numeric' the eigenvalues of K from dqds,
    'auto' prefers closed.  Both form the squares omega^2 + c mu with
    _squares.  Raises NotPositiveDefinite when the smallest squared
    frequency is not above the floor PD_TOL * omega^2, InvalidParams
    when a squared frequency overflows, and BudgetExceeded, before K is
    built, for numeric frequencies of a chain longer than NUMERIC_CAP.

    The closed method first forms the two end squares, which hold the
    smallest square and any overflow, and builds all n only for a chain
    that passes.  The numeric method first checks that every LDL^T pivot
    of A - floor I is positive, an O(n) test, and raises before dqds runs
    when one is not.  Only a form that passes is diagonalized, and its
    smallest square is still held against the floor.  Within rounding of the floor the two
    tests can disagree, so either may raise there; a returned spectrum
    never has a square at or below the floor.
    """
    if method not in ("auto", "closed", "numeric"):
        raise InvalidParams(f"unknown method {_shown(method)}")
    floor = PD_TOL * chain.omega**2
    if method == "closed" or method == "auto" and chain.family is not None:
        mu, indices, ends = _closed_form(chain)
        _check_floor(min(ends), floor)
        squares = sorted(_squares(chain, map(mu, indices)))
        origin = Origin.ANALYTIC
    else:
        if chain.n > NUMERIC_CAP:
            raise BudgetExceeded(
                f"{chain.n} modes exceed the numeric budget of {NUMERIC_CAP}"
            )
        k_diag, offdiag = _interaction(chain)
        if not _all_above(_quadratic_form(chain, k_diag, offdiag), floor):
            raise NotPositiveDefinite(f"a squared mode frequency is not above {floor:.6g}")
        mus = [k_diag + t for t in _zero_diagonal_eigenvalues(offdiag)]
        squares = _squares(chain, mus)
        _check_floor(squares[0], floor)
        origin = Origin.NUMERIC
    return ModeSpectrum(tuple(map(math.sqrt, squares)), origin)


def is_positive_definite(chain: ChainSpec) -> bool:
    """Whether the chain's quadratic form A is positive definite: whether
    every squared mode frequency is above PD_TOL * omega^2.

    A built-in family reads its smallest square off the two ends of the
    closed form, in O(1) of n.  A custom chain runs no eigensolver: it
    passes when every LDL^T pivot of A - PD_TOL * omega^2 I is positive,
    an O(n) test.  Within rounding of that floor it can disagree with the
    smallest numeric square, which numeric mode frequencies still check."""
    floor = PD_TOL * chain.omega**2
    if chain.family is None:
        return _all_above(assemble_quadratic_form(chain), floor)
    return min(_closed_form(chain)[2]) > floor


def state_energy(chain: ChainSpec, occupations: Sequence[int]) -> float:
    """Energy E_0 + hbar * sum_j omega_j k_j of an occupation vector, indexed
    against the ascending mode frequencies, with the rounding of
    enumerate_levels and single_phonon_levels.  Raises InvalidParams when it
    overflows."""
    if not _is_sequence(occupations):
        raise InvalidParams(
            "occupation numbers must be a sequence of non-negative integers, "
            f"got {type(occupations).__name__}"
        )
    if len(occupations) != chain.n:
        raise DimensionMismatch(
            f"{len(occupations)} occupation numbers for {chain.n} modes"
        )
    # The range test comes after the type test, which refuses bools, and
    # before int(): it is False for nan, and int() of inf raises, as does
    # float arithmetic on an int above float range.
    if not all(
        _is_real(k) and 0 <= k <= sys.float_info.max and k == int(k)
        for k in occupations
    ):
        raise InvalidParams(
            "occupation numbers must be non-negative integers in float range "
            "(a bool is not one)"
        )
    spectrum = mode_frequencies(chain)
    # w * float(k) has the bits of w * k, and is a float for a numpy k too.
    phonons = _left_sum(w * float(k) for w, k in zip(spectrum.omegas, occupations))
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
    of the chain.  Raises DimensionMismatch when the spectrum does not have
    n modes and InvalidParams when E_0 overflows."""
    if len(spectrum.omegas) != chain.n:
        raise DimensionMismatch(f"{len(spectrum.omegas)} modes for a chain of {chain.n}")
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


@dataclass(frozen=True, slots=True)
class LevelGroup:
    """An energy level with its degeneracy and member occupation vectors.
    One is built for each level read, so it has slots: no __dict__ and no
    weak references."""

    energy: float
    degeneracy: int
    occupations: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, eq=False)
class LevelTable(abc.Sequence[LevelGroup]):
    """Energy levels held as four read-only arrays, read as a sequence of
    LevelGroup.

    energies (float64) and degeneracies (int64) have one entry per level,
    offsets (int64) one more, and the rows offsets[i] to offsets[i + 1] of
    occupations (states x modes) are the members of level i.  A LevelGroup,
    with Python float, int and tuple fields, is built only when its level is
    read: by an index (negative ones too), by a slice, which gives a tuple,
    or by iteration, which converts whole levels of about 2^12 member rows
    at a time and drops each block before it converts the next.
    """

    energies: np.ndarray
    degeneracies: np.ndarray
    offsets: np.ndarray
    occupations: np.ndarray

    def __post_init__(self):
        for array in (self.energies, self.degeneracies, self.offsets, self.occupations):
            array.setflags(write=False)

    def __reduce__(self):
        # Copies and unpickled tables are built through __init__, so that
        # their arrays are read-only too.
        arrays = (self.energies, self.degeneracies, self.offsets, self.occupations)
        return LevelTable, arrays

    def __len__(self) -> int:
        return len(self.energies)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        i = operator.index(index)
        if not -len(self) <= i < len(self):
            raise IndexError(f"level {_shown(i)} out of range for {len(self)} levels")
        i %= len(self)
        lo, hi = self.offsets[i : i + 2].tolist()
        return LevelGroup(
            float(self.energies[i]),
            int(self.degeneracies[i]),
            tuple(zip(*self.occupations[lo:hi].T.tolist())),
        )

    def __iter__(self):
        offsets = self.offsets
        start = 0
        while start < len(self):
            # Whole levels of at most _READ_ROWS members, or one larger level.
            stop = offsets.searchsorted(offsets[start] + _READ_ROWS, "right") - 1
            stop = max(start + 1, int(stop))
            bounds = (offsets[start : stop + 1] - offsets[start]).tolist()
            block = self.occupations[offsets[start] : offsets[stop]]
            rows = list(zip(*block.T.tolist()))
            yield from map(
                LevelGroup,
                self.energies[start:stop].tolist(),
                self.degeneracies[start:stop].tolist(),
                (tuple(rows[lo:hi]) for lo, hi in zip(bounds, bounds[1:])),
            )
            # Dropped before the next block is built, so that one block of
            # member tuples is alive beside the levels the caller keeps.
            del block, rows
            start = stop


def enumerate_levels(chain: ChainSpec, max_total: int) -> LevelTable:
    """All energy levels from occupation vectors with at most max_total
    phonons, grouped within GROUP_RTOL * hbar * omega and sorted ascending,
    as a LevelTable.

    Each level's energy is that of its lowest member, E_0 + hbar * sum_j
    omega_j k_j with the products added in ascending mode order; the members
    of a level are in lexicographic order.  The table holds arrays only; a
    LevelGroup is built when a level is read.  Raises InvalidParams when
    max_total is not a non-negative integer or the highest energy overflows,
    and CombinatorialLimit when the state count C(n + K, K) exceeds
    LEVEL_CAP, in bounded time however large n and K are.
    """
    max_total = _as_count(max_total, "max_total")
    n = chain.n
    count = _state_count(n, max_total)
    if count > LEVEL_CAP:
        bits = count.bit_length()
        shown = _shown(count) if bits <= _COUNT_BITS else f"2**{bits - 1} or more"
        raise CombinatorialLimit(
            f"{shown} occupation states exceed the budget of {LEVEL_CAP}"
        )
    spectrum = mode_frequencies(chain)
    ground = ground_energy(chain, spectrum)
    # The largest energy is that of max_total phonons in the top mode.
    _finite_energy(ground + chain.hbar * (spectrum.omegas[-1] * max_total))
    # Imported past the checks, so that a refused request never loads numpy.
    import numpy as np

    # Each array is dropped once used up, to keep the peak memory down.
    occupations = _occupation_columns(n, max_total)
    # Added mode by mode in ascending order: the rounding sequence of a
    # left-to-right sum of the products omega_j * k_j.
    total = np.zeros(count)
    for w, column in zip(spectrum.omegas, occupations):
        total += w * column
    energy = ground + chain.hbar * total
    del total
    # Any order of tied energies gives the same sorted values, and so the
    # same cuts and level energies; a state's level depends on its energy
    # alone.
    order = np.argsort(energy)
    energy = energy[order]
    tol = GROUP_RTOL * chain.hbar * chain.omega
    cuts = np.flatnonzero(np.diff(energy) > tol) + 1
    offsets = np.concatenate(([0], cuts, [count]))
    del cuts
    energies = energy[offsets[:-1]]
    del energy
    # States are numbered in lexicographic order, so a level's members are
    # in that order when sorted by state, and a level of one state already
    # is.  Only the members of shared levels are sorted, by the distinct
    # keys level * count + state, and written back to their positions in
    # order.  The level sizes and those positions are int32, and the states
    # are added to the keys a block of positions at a time: beside order
    # and the keys no other full-size array is built, even when every
    # level is shared.
    sizes = np.subtract(offsets[1:], offsets[:-1], dtype=np.int32)
    shared = sizes > 1
    heads, sizes = offsets[:-1][shared], sizes[shared]
    positions = np.repeat((heads - (np.cumsum(sizes) - sizes)).astype(np.int32), sizes)
    positions += np.arange(len(positions), dtype=np.int32)
    keys = np.repeat(np.arange(len(sizes)) * count, sizes)
    for start in range(0, len(keys), _SORT_BLOCK):
        block = slice(start, start + _SORT_BLOCK)
        keys[block] += order[positions[block]]
    keys.sort()
    keys %= count
    order[positions] = keys
    del shared, positions, keys
    # Permuted in place, one mode at a time: the transpose is the
    # occupation matrix, with no second copy of it in memory.
    for column in occupations:
        column[:] = column[order]
    del order
    return LevelTable(energies, np.diff(offsets), offsets, occupations.T)


def _state_count(n: int, max_total: int) -> int:
    """C(n + K, K), K = max_total, as the product over i = 1..min(n, K) of
    (max(n, K) + i) / i, or its first partial product above
    2**_COUNT_BITS, a lower bound on it.  Each factor at least doubles the
    product, so the loop stops within _COUNT_BITS + 1 factors."""
    small, big = sorted((n, max_total))
    count = 1
    for i in range(1, small + 1):
        count = count * (big + i) // i
        if count.bit_length() > _COUNT_BITS:
            break
    return count


def _occupation_columns(n: int, max_total: int) -> np.ndarray:
    """The C(n + K, K) occupation vectors with at most K = max_total
    phonons, in lexicographic order, as the columns of an n x C(n + K, K)
    array, whose row j is the column of mode j.

    The vectors with k_0 = .. = k_{j-1} = 0 come first, and their rows
    j..n-1 are the table of modes j..n-1, so the table is built in place
    from the last mode up.  Mode j's block k_j = 0 is the sub-table of
    modes j+1..n-1 already written.  Its block k_j = k is the table of
    those modes with at most K - k phonons: the sub-table less its first k
    blocks of mode j+1, with mode j+1 lowered by k.  That is a copy of the
    sub-table's last C(m + K - k, m) columns, m = n - j - 1 being the modes
    it spans: K slice copies per mode and no index arrays.  Mode j's values
    k, and the lowering of mode j+1, are then written once for the mode,
    from one np.repeat of 0..K in the table's dtype."""
    import numpy as np
    count = math.comb(n + max_total, max_total)
    columns = np.empty((n, count), dtype=np.min_scalar_type(max_total))
    columns[-1, : max_total + 1] = np.arange(max_total + 1)
    for j in range(n - 2, -1, -1):
        m = n - j - 1
        sizes = [math.comb(m + max_total - k, m) for k in range(max_total + 1)]
        size = sizes[0]
        sub = columns[j + 1 :]
        start = size
        for width in sizes[1:]:
            sub[:, start : start + width] = sub[:, size - width : size]
            start += width
        values = np.repeat(np.arange(max_total + 1, dtype=columns.dtype), sizes)
        columns[j, :start] = values
        sub[0, size:start] -= values[size:]
        # Dropped before the next mode's block copies, which numpy buffers.
        del values
    return columns


class SpacingProfile(enum.Enum):
    DECREASING = "decreasing"
    INCREASING = "increasing"
    MID_PEAK = "mid_peak"
    MID_DIP = "mid_dip"
    OTHER = "other"


# Each shape as a pattern over the signs of successive gap differences, +
# a rise and - a fall; a tie, =, matches none.
_SHAPES = {
    SpacingProfile.DECREASING: re.compile("-+"),
    SpacingProfile.INCREASING: re.compile(r"\++"),
    SpacingProfile.MID_PEAK: re.compile(r"\++-+"),
    SpacingProfile.MID_DIP: re.compile(r"-+\++"),
}


def spacing_profile(levels: Sequence[float]) -> SpacingProfile:
    """Shape of the successive-gap sequence of at least three levels:
    strictly decreasing, strictly increasing, single strict interior
    maximum (mid_peak), single strict interior minimum (mid_dip), or
    other.  Raises InvalidParams unless levels is a sequence of finite
    real numbers."""
    levels = _float_tuple(levels, "levels")
    if len(levels) < 3:
        raise TooFewLevels(f"need at least 3 levels, got {len(levels)}")
    if not all(map(math.isfinite, levels)):
        raise InvalidParams("levels must be finite")
    gaps = [b - a for a, b in zip(levels, levels[1:])]
    signs = "".join("+" if b > a else "-" if b < a else "=" for a, b in zip(gaps, gaps[1:]))
    for profile, shape in _SHAPES.items():
        if shape.fullmatch(signs):
            return profile
    return SpacingProfile.OTHER


def rescale_levels(levels: Sequence[float]) -> tuple[float, ...]:
    """Affinely map levels so min -> 0 and max -> 1.  Raises TooFewLevels
    for no levels, InvalidParams unless levels is a sequence of real numbers
    whose entries and span max - min are finite, and DegenerateRange when
    all levels coincide."""
    levels = _float_tuple(levels, "levels")
    if len(levels) == 0:
        raise TooFewLevels("need at least 1 level to rescale, got 0")
    if not all(map(math.isfinite, levels)):
        raise InvalidParams("levels must be finite")
    lowest = min(levels)
    span = max(levels) - lowest
    if span == 0.0:
        raise DegenerateRange("all levels coincide; no affine rescale exists")
    if span == math.inf:
        raise InvalidParams("the span of the levels overflows float range")
    return tuple((e - lowest) / span for e in levels)
