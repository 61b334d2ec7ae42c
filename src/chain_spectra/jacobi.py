"""Symmetric tridiagonal (Jacobi) matrices attached to the polynomial
families, with analytic and numeric spectral decompositions.

The matrix for a family on 0..N has diagonal F_i = B_i + D_i and
off-diagonal entries -E_i with E_i = sqrt(B_{i-1} D_i) > 0, where (B, D) is
the family's bidiagonal factor pair.  Its eigenvalues are exactly the
recurrence coordinates kappa at the lattice nodes, and its eigenvectors are
the orthonormal polynomial values.

interaction_spectrum is the one place where the closed-form spectrum of a
chain's interaction matrix K is written: K = M for the uniform chain and
K = M - F_0 I for the families whose diagonal is the constant F_0.

The analytic route assembles each eigenvector by a two-sided minimal-solution
recurrence stitched at the entry of largest weight, which keeps every column
accurate to machine precision even where a one-sided recurrence diverges.
The numeric route is an implicit-shift QL iteration and serves as an
independent cross-check.  One kernel, _ql, holds its sweep loop:
numeric_eigenvalues runs it without eigenvectors (mode frequencies, the
positive-definiteness test and the CLI's verify need no more),
numeric_decomposition runs it with U^T, whose rows i and i + 1 each
rotation updates.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ClosedFormUnavailable, DimensionMismatch, InvalidParams, NoConvergence
from .polynomials import (
    DualQKrawtchoukParams,
    FamilyParams,
    HahnParams,
    KrawtchoukParams,
    _kappa,
    bidiagonal_split,
    lattice,
)

# Threshold below which a leading eigenvector entry is sign-ambiguous.
SIGN_TOL = 1e-12
# Relative tolerance for classifying a diagonal profile.
PROFILE_RTOL = 1e-12
# Sweep budget per eigenvalue for the QL iteration.
MAX_SWEEPS = 64

_EPS = float(np.finfo(float).eps)
_RESCALE_LIMIT = 1e250


@dataclass(frozen=True)
class ConstantParams:
    """Uniform chain matrix: diagonal 2, off-diagonal magnitudes 1."""

    N: int

    def __post_init__(self):
        if self.N < 0:
            raise InvalidParams(f"lattice size N must be >= 0, got {self.N}")


JacobiFamily = Union[ConstantParams, FamilyParams]


@dataclass(frozen=True)
class SymTridiagonal:
    """Symmetric tridiagonal matrix with non-negative off-diagonal
    magnitudes; the actual matrix entries are the negatives -E_i."""

    diag: tuple[float, ...]
    offdiag: tuple[float, ...]

    def __post_init__(self):
        if len(self.offdiag) != max(len(self.diag) - 1, 0):
            raise DimensionMismatch(
                f"offdiag length {len(self.offdiag)} does not match "
                f"diag length {len(self.diag)}"
            )
        if not all(map(math.isfinite, self.diag + self.offdiag)):
            raise InvalidParams("matrix entries must be finite")
        if any(e < 0.0 for e in self.offdiag):
            raise InvalidParams("offdiag magnitudes must be >= 0")

    @property
    def size(self) -> int:
        return len(self.diag)

    def dense(self) -> np.ndarray:
        n = self.size
        M = np.zeros((n, n))
        M[np.arange(n), np.arange(n)] = self.diag
        if n > 1:
            idx = np.arange(n - 1)
            M[idx, idx + 1] = [-e for e in self.offdiag]
            M[idx + 1, idx] = [-e for e in self.offdiag]
        return M


class Origin(enum.Enum):
    ANALYTIC = "analytic"
    NUMERIC = "numeric"


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues with matching orthonormal eigenvector columns.

    Analytic decompositions list eigenvalues in family order (index
    j = 0..N); numeric ones list them ascending.  Each eigenvector column
    has its first entry of magnitude above SIGN_TOL made positive.
    """

    eigenvalues: tuple[float, ...]
    vectors: np.ndarray
    origin: Origin


def build_jacobi(fam: JacobiFamily) -> SymTridiagonal:
    """Jacobi matrix of a family on 0..N."""
    if isinstance(fam, ConstantParams):
        n = fam.N + 1
        return SymTridiagonal(diag=(2.0,) * n, offdiag=(1.0,) * (n - 1))
    B, D = bidiagonal_split(fam)
    diag = tuple(b + d for b, d in zip(B, D))
    # Where B_{i-1} D_i overflows (dual q-Krawtchouk with small q or large
    # N), the square roots of its factors do not.
    off = tuple(
        math.sqrt(bd) if (bd := b * d) < math.inf
        else math.sqrt(abs(b)) * math.sqrt(abs(d))
        for b, d in zip(B, D[1:])
    )
    return SymTridiagonal(diag=diag, offdiag=off)


def interaction_spectrum(fam: JacobiFamily) -> tuple[float, ...]:
    """Closed-form eigenvalues of a chain's interaction matrix K, in family
    order: 4 sin^2(j pi / (2 (n + 1))), j = 1..n with n = N + 1, for the
    uniform chain (K = M); x - N/2, x = 0..N, for Krawtchouk p = 1/2 and
    Hahn alpha = beta; q^(x-N) - q^(-x), x = 0..N, for dual q-Krawtchouk
    cbar = -1.  Raises ClosedFormUnavailable for every other family."""
    N = fam.N
    if isinstance(fam, ConstantParams):
        n = N + 1
        return tuple(
            4.0 * math.sin(j * math.pi / (2.0 * (n + 1))) ** 2 for j in range(1, n + 1)
        )
    if (isinstance(fam, KrawtchoukParams) and fam.p == 0.5) or (
        isinstance(fam, HahnParams) and fam.alpha == fam.beta
    ):
        return tuple(x - N / 2.0 for x in range(N + 1))
    if isinstance(fam, DualQKrawtchoukParams) and fam.cbar == -1.0:
        q = fam.q
        return tuple(q ** (x - N) - q ** (-x) for x in range(N + 1))
    raise ClosedFormUnavailable(f"no closed-form interaction spectrum for {fam}")


def _fix_signs(U: np.ndarray) -> np.ndarray:
    for j in range(U.shape[1]):
        col = U[:, j]
        lead = np.nonzero(np.abs(col) > SIGN_TOL)[0]
        if lead.size and col[lead[0]] < 0.0:
            U[:, j] = -col
    return U


def _forward_recurrence(F: np.ndarray, E: np.ndarray, lam: float) -> np.ndarray:
    """Solution of the three-term recurrence of tridiag(-E, F, -E) - lam I
    from u_0 = 1, rescaled whenever an entry passes _RESCALE_LIMIT.  On the
    reversed F and E it is the backward recurrence from the last entry."""
    n = len(F)
    u = np.zeros(n)
    u[0] = 1.0
    if n > 1:
        u[1] = (F[0] - lam) / E[0]
    for i in range(1, n - 1):
        u[i + 1] = ((F[i] - lam) * u[i] - E[i - 1] * u[i - 1]) / E[i]
        if abs(u[i + 1]) > _RESCALE_LIMIT:
            u[: i + 2] /= abs(u[i + 1])
    return u


def _stitched_vector(F: np.ndarray, E: np.ndarray, lam: float) -> np.ndarray:
    """Unit eigenvector of tridiag(-E, F, -E) for eigenvalue lam.

    Forward and backward recurrences each follow their stable direction;
    the halves are joined at the index of largest combined magnitude.
    """
    n = len(F)
    u = _forward_recurrence(F, E, lam)
    v = _forward_recurrence(F[::-1], E[::-1], lam)[::-1]
    stitch = np.abs(u) * np.abs(v)
    k = int(np.argmax(stitch))
    if stitch[k] == 0.0:
        k = n - 1
    vec = np.empty(n)
    vec[: k + 1] = u[: k + 1] * v[k]
    vec[k + 1 :] = v[k + 1 :] * u[k]
    # Entries up to _RESCALE_LIMIT can overflow the sum of squares; the
    # norm is then taken again of the column scaled to max |entry| = 1.
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(vec)
    if not 0.0 < norm < math.inf:
        vec /= np.max(np.abs(vec))
        norm = np.linalg.norm(vec)
    return vec / norm


def analytic_decomposition(fam: JacobiFamily) -> SpectralDecomposition:
    """Closed-form eigendecomposition, eigenvalues in family order."""
    if isinstance(fam, ConstantParams):
        n = fam.N + 1
        i = np.arange(1, n + 1)
        U = math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(i, i) * np.pi / (n + 1))
        # Every first entry sqrt(2 / (n + 1)) sin(j pi / (n + 1)) is positive.
        return SpectralDecomposition(
            eigenvalues=interaction_spectrum(fam), vectors=U, origin=Origin.ANALYTIC
        )
    M = build_jacobi(fam)
    F = np.asarray(M.diag)
    E = np.asarray(M.offdiag)
    points = lattice(fam)
    eigenvalues = tuple(_kappa(fam, pt) for pt in points)
    U = np.empty((M.size, M.size))
    for j, lam in enumerate(eigenvalues):
        U[:, j] = _stitched_vector(F, E, lam)
    return SpectralDecomposition(
        eigenvalues=eigenvalues, vectors=_fix_signs(U), origin=Origin.ANALYTIC
    )


def _ql(
    M: SymTridiagonal, max_sweeps: int, Ut: np.ndarray | None = None
) -> list[float]:
    """Implicit-shift QL iteration on M; returns its eigenvalues unsorted.

    d and e are Python floats, which round exactly as numpy float64
    scalars do at a fraction of the cost.  When Ut is given, each rotation
    is applied to its contiguous rows i and i + 1, so Ut accumulates the
    transposed eigenvector matrix.  Raises NoConvergence with the offending
    row index when a deflation exceeds the sweep budget.
    """
    n = M.size
    d = [float(x) for x in M.diag]
    e = [-float(x) for x in M.offdiag] + [0.0]
    for l in range(n):
        sweeps = 0
        while True:
            m = l
            while m < n - 1:
                if abs(e[m]) <= _EPS * (abs(d[m]) + abs(d[m + 1])):
                    break
                m += 1
            if m == l:
                break
            if sweeps >= max_sweeps:
                raise NoConvergence(l)
            sweeps += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            i = m - 1
            while i >= l:
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if Ut is not None:
                    # (lo, hi) <- (c lo - s hi, s lo + c hi), in place.
                    lo, hi = Ut[i], Ut[i + 1]
                    rotated = s * lo
                    rotated += c * hi
                    lo *= c
                    lo -= s * hi
                    hi[:] = rotated
                i -= 1
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return d


def numeric_eigenvalues(
    M: SymTridiagonal, max_sweeps: int = MAX_SWEEPS
) -> tuple[float, ...]:
    """Eigenvalues of M, ascending, by the QL iteration without vectors.

    Raises NoConvergence with the offending row index when a deflation
    exceeds the sweep budget.
    """
    return tuple(sorted(_ql(M, max_sweeps)))


def numeric_decomposition(
    M: SymTridiagonal, max_sweeps: int = MAX_SWEEPS
) -> SpectralDecomposition:
    """Implicit-shift QL eigendecomposition, eigenvalues ascending.

    Raises NoConvergence with the offending row index when a deflation
    exceeds the sweep budget.
    """
    Ut = np.eye(M.size)
    d = _ql(M, max_sweeps, Ut)
    order = np.argsort(d, kind="stable")
    return SpectralDecomposition(
        eigenvalues=tuple(d[k] for k in order),
        vectors=_fix_signs(Ut[order].T),
        origin=Origin.NUMERIC,
    )


def decomposition_residuals(
    M: SymTridiagonal, dec: SpectralDecomposition
) -> tuple[float, float]:
    """Max-norm residuals (orthogonality, reconstruction):

        || U^T U - I ||_max  and  || M U - U diag(lambda) ||_max.
    """
    n = M.size
    U = dec.vectors
    if U.shape != (n, n) or len(dec.eigenvalues) != n:
        raise DimensionMismatch(
            f"decomposition of shape {U.shape} against matrix of size {n}"
        )
    ortho = float(np.max(np.abs(U.T @ U - np.eye(n))))
    recon = float(np.max(np.abs(M.dense() @ U - U * np.asarray(dec.eigenvalues))))
    return ortho, recon


@dataclass(frozen=True)
class ConstantDiag:
    value: float


@dataclass(frozen=True)
class AlmostConstantHead:
    head: float
    value: float


@dataclass(frozen=True)
class AlmostConstantTail:
    value: float
    tail: float


@dataclass(frozen=True)
class GeneralDiag:
    pass


DiagonalProfile = Union[ConstantDiag, AlmostConstantHead, AlmostConstantTail, GeneralDiag]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= PROFILE_RTOL * max(abs(a), abs(b))


def diagonal_profile(fam: JacobiFamily) -> DiagonalProfile:
    """Classify the diagonal of build_jacobi(fam): all entries equal, equal
    except the first, equal except the last, or general (checked in that
    order, relative tolerance PROFILE_RTOL)."""
    d = build_jacobi(fam).diag
    if all(_close(d[0], x) for x in d):
        return ConstantDiag(value=d[0])
    if len(d) >= 2 and all(_close(d[1], x) for x in d[1:]):
        return AlmostConstantHead(head=d[0], value=d[1])
    if len(d) >= 2 and all(_close(d[0], x) for x in d[:-1]):
        return AlmostConstantTail(value=d[0], tail=d[-1])
    return GeneralDiag()
