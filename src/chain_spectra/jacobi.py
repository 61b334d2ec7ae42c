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
_recurrence_sweep runs the recurrence for all eigenvalues at once, row by
row over an n x n array with a column per eigenvalue, forward and on the
reversed matrix; _stitched_vectors joins and norms the columns.  Each
column gets the floating-point operations of its own scalar recurrence, so
the vectors are bit for bit those of one eigenvalue at a time.
The numeric route is an implicit-shift QL iteration and serves as an
independent cross-check.  One kernel, _ql, holds its sweeps:
numeric_eigenvalues runs it without eigenvectors (numeric mode frequencies
and verify_family need no more), numeric_decomposition runs it with
U^T.  It runs on M scaled by a power of two (see below), which has
max |entry| below 2 even where the shift is capped at -1023, so the exact
deflation test never passes above 12 eps.  It therefore finds each
sweep's deflation point without the textbook scan from the top row l: it
keeps a row stop known to pass the test and
the rows whose off-diagonal entry the last chase rewrote to within
16 eps, and every other row between l and stop fails the test.  The
deflation points are the textbook scan's, and the chase does the
operations of the textbook loop in their order, so both entry points keep
its bits.  With U^T, each rotation of rows i and i + 1 is recorded, and
_apply_rotations applies the recorded sequence in waves of rotations that
share no row.  U^T is kept in an even/odd row layout, rows 0, 2, 4, ...
and then 1, 3, 5, ..., so that a run of a wave's rotations, on rows i,
i + 2, ..., rotates two contiguous blocks of rows.  Every entry sees the
operations of a rotation applied on its own, so the vectors are bit for
bit those of one rotation at a time.

verify_family is the one verify battery: the analytic decomposition and
the QL eigenvalues against M, with the thresholds the CLI's verify prints.

Positive definiteness needs no eigenvalue: _all_above decides whether every
eigenvalue exceeds a shift sigma from the signs of the LDL^T pivots of
M - sigma I, in O(n) against the QL's O(n^2).  The chain layer asks it
first, so that the QL runs only on forms that pass.  Both work on M
scaled by the one power of two of _unit_exponent, which is exact: a form
near the smallest normal float keeps its digits and its deflations, and
one near the largest does not overflow.

numpy is imported inside the array functions on purpose: the closed forms
and the QL eigenvalues run on Python floats, so that callers needing no more,
such as the CLI's bound, spectrum and plot, never load it.
"""

from __future__ import annotations

import enum
import math
import sys
from array import array
from dataclasses import dataclass
from typing import Union

from .errors import ClosedFormUnavailable, DimensionMismatch, InvalidParams, NoConvergence
from .polynomials import (
    DualQKrawtchoukParams,
    FamilyParams,
    HahnParams,
    KrawtchoukParams,
    _float_tuple,
    _kappa,
    _store_size,
    bidiagonal_split,
)

# Threshold below which a leading eigenvector entry is sign-ambiguous.
SIGN_TOL = 1e-12
# Sweep budget per eigenvalue for the QL iteration.
MAX_SWEEPS = 64

_EPS = sys.float_info.epsilon
_RESCALE_LIMIT = 1e250
# The QL records at most this many rotations before it applies them to U^T,
# which bounds the memory of the record.
_ROTATION_CHUNK = 1 << 14


@dataclass(frozen=True)
class ConstantParams:
    """Uniform chain matrix: diagonal 2, off-diagonal magnitudes 1."""

    N: int

    def __post_init__(self):
        _store_size(self)


JacobiFamily = Union[ConstantParams, FamilyParams]


@dataclass(frozen=True)
class SymTridiagonal:
    """Symmetric tridiagonal matrix with non-negative off-diagonal
    magnitudes; the actual matrix entries are the negatives -E_i.  Both
    are stored as tuples of floats; any other sequence of real numbers is
    converted, and anything else raises InvalidParams."""

    diag: tuple[float, ...]
    offdiag: tuple[float, ...]

    def __post_init__(self):
        for name in ("diag", "offdiag"):
            object.__setattr__(self, name, _float_tuple(getattr(self, name), name))
        if len(self.offdiag) != max(len(self.diag) - 1, 0):
            raise DimensionMismatch(
                f"offdiag length {len(self.offdiag)} does not match "
                f"diag length {len(self.diag)}"
            )
        if not all(map(math.isfinite, self.diag + self.offdiag)):
            raise InvalidParams("matrix entries must be finite")
        if min(self.offdiag, default=0.0) < 0.0:
            raise InvalidParams("offdiag magnitudes must be >= 0")

    @property
    def size(self) -> int:
        return len(self.diag)

    def dense(self) -> np.ndarray:
        import numpy as np
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
    return SymTridiagonal(diag=tuple(b + d for b, d in zip(B, D)), offdiag=_offdiag(B, D))


def _offdiag(B: tuple[float, ...], D: tuple[float, ...]) -> tuple[float, ...]:
    """Jacobi off-diagonal magnitudes E_i = sqrt(B_{i-1} D_i) of the factor
    pair (B, D).  Where B_{i-1} D_i overflows (dual q-Krawtchouk with small
    q or large N), the square roots of its factors do not."""
    return tuple(
        math.sqrt(bd) if (bd := b * d) < math.inf
        else math.sqrt(abs(b)) * math.sqrt(abs(d))
        for b, d in zip(B, D[1:])
    )


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
    """Negate, in place, each column whose first entry of magnitude above
    SIGN_TOL is negative.  A column without such an entry has lead 0, whose
    entry is then not below -SIGN_TOL either."""
    import numpy as np
    if U.shape[0]:
        cols = np.arange(U.shape[1])
        lead = np.argmax(np.abs(U) > SIGN_TOL, axis=0)
        flip = U[lead, cols] < -SIGN_TOL
        U[:, flip] = -U[:, flip]
    return U


def _recurrence_sweep(F: np.ndarray, E: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Solutions of the three-term recurrences of tridiag(-E, F, -E) - lam_j I
    from u_0 = 1, one column per lam_j, found row by row for all columns at
    once.  A column is rescaled, its prefix divided by |u_{i+1}|, whenever
    its entry u_{i+1} passes _RESCALE_LIMIT.  On the reversed F and E it
    gives the backward recurrences from the last entry."""
    import numpy as np
    n = len(F)
    u = np.empty((n, len(lam)))
    u[0] = 1.0
    if n > 1:
        u[1] = (F[0] - lam) / E[0]
    for i in range(1, n - 1):
        u[i + 1] = ((F[i] - lam) * u[i] - E[i - 1] * u[i - 1]) / E[i]
        big = np.flatnonzero(np.abs(u[i + 1]) > _RESCALE_LIMIT)
        if big.size:
            u[: i + 2, big] /= np.abs(u[i + 1, big])
    return u


def _stitched_vectors(F: np.ndarray, E: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of tridiag(-E, F, -E), column j for eigenvalue lam_j.

    Forward and backward recurrences each follow their stable direction;
    each column's halves are joined at the index k of largest combined
    magnitude (the last index where every product is 0): u v_k on rows up
    to k and v u_k below.  The join is written in place into the forward
    array, so the peak memory stays near three n x n arrays.
    """
    import numpy as np
    n, cols = len(F), np.arange(len(lam))
    U = _recurrence_sweep(F, E, lam)
    V = _recurrence_sweep(F[::-1], E[::-1], lam)[::-1]
    # |u| |v| with a row per eigenvalue, so that argmax reduces contiguous
    # rows without a transposed copy; filled row by row, without an n x n
    # temporary.
    stitch = np.abs(U.T, order="C")
    for j in cols:
        stitch[j] *= np.abs(V[:, j])
    k = np.argmax(stitch, axis=1)
    k[stitch[cols, k] == 0.0] = n - 1
    del stitch
    uk, vk = U[k, cols], V[k, cols]
    head = np.arange(n)[:, None] <= k
    # Only the products of each half are formed: the others can overflow.
    np.multiply(U, vk, out=U, where=head)
    np.multiply(V, uk, out=U, where=~head)
    del V, head
    # Each eigenvector is normed as a contiguous row, where np.linalg.norm
    # is one dot product.  Entries up to _RESCALE_LIMIT can overflow the sum
    # of squares; the norm is then taken again of the vector scaled to
    # max |entry| = 1.
    vecs = U.T.copy()
    with np.errstate(over="ignore"):
        norms = np.array([np.linalg.norm(vec) for vec in vecs])
    for j in np.flatnonzero(~((0.0 < norms) & (norms < math.inf))):
        vecs[j] /= np.max(np.abs(vecs[j]))
        norms[j] = np.linalg.norm(vecs[j])
    vecs /= norms[:, None]
    U[...] = vecs.T
    return U


def analytic_decomposition(fam: JacobiFamily) -> SpectralDecomposition:
    """Closed-form eigendecomposition, eigenvalues in family order."""
    import numpy as np
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
    eigenvalues = tuple(_kappa(fam, x) for x in range(fam.N + 1))
    U = _stitched_vectors(F, E, np.array(eigenvalues))
    return SpectralDecomposition(
        eigenvalues=eigenvalues, vectors=_fix_signs(U), origin=Origin.ANALYTIC
    )


def _unit_exponent(values) -> int:
    """The exponent k for which 2^k max |v| lies in [1/2, 1), or 0 when
    every v is 0.  Scaling by 2^k is exact unless a value underflows."""
    return -math.frexp(max(map(abs, values), default=0.0))[1]


def _ql(M: SymTridiagonal, Ut: np.ndarray | None = None) -> list[float]:
    """Implicit-shift QL iteration on M; returns its eigenvalues unsorted.

    d and e are Python floats, which round exactly as numpy float64
    scalars do at a fraction of the cost.  They hold M scaled by the power
    of two of _unit_exponent, as in _all_above, so that the deflation test
    |e_m| <= eps (|d_m| + |d_m+1|) neither underflows near the smallest
    normal float nor overflows near the largest.  The eigenvalues are
    scaled back at the end; c and s do not depend on the scale.

    Each sweep runs on the block [l, m] for the first m >= l whose e_m
    passes the deflation test.  No entry above hi = 16 eps passes it:
    every |d_i| is at most ||M||_2 <= 3 max |entry| of the scaled M, which
    is below 1, or below 2 where the shift is capped at -1023, so the exact
    test passes only below 12 eps, and hi leaves room for rounding.  The
    textbook loop rescans e from row l before every sweep; this one keeps
    the deflation point instead:

    - stop is a row known to pass the test: the m of the last sweep, whose
      e_m it set to 0, or where a plain scan ended;
    - flagged lists, descending, the rows in (l, m) whose e the last
      chase rewrote to within hi.  A full chase rewrites all of them;
    - invariant: every row in (l, stop) that is not flagged fails the test
      with its current entries.  A deflation at l changes no entry.

    So the first m is l when row l passes, else the first flagged row
    above l that passes, else stop.  A chase that meets a rotation of zero
    length at row j splits the block there: it sets e_j to 0 and changes
    d_j, and leaves the rows above j - 1 as they were, so stop moves to j
    and flagged holds row j - 1 alone.  A plain scan, which asks
    -hi <= e_m <= hi with one chained comparison before the exact test
    and ends at the zero e_(n-1) after the last row, runs only where l
    has passed stop.  The chase reads each e_i once and carries d_i into
    the next step as its d_(i+1), with the operations of the textbook loop
    in their order, so every bit is that loop's.

    When Ut is given, each rotation (i, c, s) of rows i and i + 1 is
    recorded and Ut accumulates the transposed eigenvector matrix in the
    even/odd row layout of _even_odd_positions: _apply_rotations applies
    the record every _ROTATION_CHUNK rotations and once at the end.
    Raises NoConvergence with the offending row index when a deflation
    exceeds MAX_SWEEPS sweeps.
    """
    hypot, copysign = math.hypot, math.copysign
    eps = _EPS
    hi = 16.0 * eps
    n = M.size
    last = n - 1
    sweep_budget = MAX_SWEEPS
    # Capped so that 2^-shift is a float: an eigenvalue past float range
    # then comes back inf.
    shift = max(_unit_exponent(M.diag + M.offdiag), -1023)
    d = [math.ldexp(x, shift) for x in M.diag]
    e = [-math.ldexp(x, shift) for x in M.offdiag] + [0.0]
    rows, cs, ss = array("q"), array("d"), array("d")
    add_row, add_c, add_s = rows.append, cs.append, ss.append
    stop = -1
    flagged = []
    flag = flagged.append
    for l in range(n):
        sweeps = 0
        while True:
            em = e[l]
            if -hi <= em <= hi and (
                l == last or abs(em) <= eps * (abs(d[l]) + abs(d[l + 1]))
            ):
                break
            if l < stop:
                # Of the rows in (l, stop), only flagged ones can pass.
                # Flagged rows at or below l have deflated since.
                m = stop
                for k in reversed(flagged):
                    if k > l and abs(e[k]) <= eps * (abs(d[k]) + abs(d[k + 1])):
                        m = k
                        break
            else:
                m = l + 1
                while True:
                    em = e[m]
                    if -hi <= em <= hi and (
                        m == last or abs(em) <= eps * (abs(d[m]) + abs(d[m + 1]))
                    ):
                        break
                    m += 1
            if sweeps >= sweep_budget:
                raise NoConvergence(l)
            sweeps += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + copysign(r, g))
            s = c = 1.0
            p = 0.0
            # j is i + 1 and dn is d[i + 1], carried from the step before.
            j = m
            dn = d[m]
            flagged.clear()
            for i in range(m - 1, l - 1, -1):
                ei = e[i]
                f = s * ei
                b = c * ei
                r = hypot(f, g)
                e[j] = r
                if r <= hi:
                    if r == 0.0:
                        # Row j passes now, and row i = j - 1 may: d_j
                        # changes below.  Rows l + 1 .. i - 1 keep their
                        # entries, so they still fail.
                        stop = j
                        flagged.clear()
                        flag(i)
                        break
                    if j < m:
                        flag(j)
                s = f / r
                c = g / r
                g = dn - p
                dn = d[i]
                r = (dn - g) * s + 2.0 * c * b
                p = s * r
                d[j] = g + p
                g = c * r - b
                j = i
                if Ut is not None:
                    add_row(i)
                    add_c(c)
                    add_s(s)
                    if len(rows) == _ROTATION_CHUNK:
                        _apply_rotations(Ut, rows, cs, ss)
                        del rows[:], cs[:], ss[:]
            else:
                e[l] = g
                stop = m
            # A rotation of zero length splits the block at row j; a full
            # chase ends at row j = l.
            d[j] = dn - p
            e[m] = 0.0
    if Ut is not None:
        _apply_rotations(Ut, rows, cs, ss)
    scale = 2.0**-shift
    return [x * scale for x in d]


def _all_above(M: SymTridiagonal, sigma: float) -> bool:
    """Whether every eigenvalue of M exceeds sigma, in O(n): whether every
    LDL^T pivot d_i = (a_i - sigma) - b_{i-1}^2 / d_{i-1} of M - sigma I is
    positive (the pivot-sign count of Barth, Martin and Wilkinson, 1967).

    M and sigma are first scaled by one power of two to max |entry| <= 1,
    which is exact unless an entry underflows.  Then (a_i - sigma) is
    finite, b (b / d) with b <= 1 overflows only where b / d does, and that
    inf after a tiny positive pivot makes the next pivot -inf, the right
    sign.  The scaling also lifts a matrix near the smallest normal float
    out of the subnormal range, where its pivots would lose digits.  The
    loop stops at the first pivot <= 0.
    """
    ldexp = math.ldexp
    shift = _unit_exponent((sigma, *M.diag, *M.offdiag))
    s = ldexp(sigma, shift)
    d, b = 1.0, 0.0
    for a, e in zip(M.diag, M.offdiag + (0.0,)):
        d = (ldexp(a, shift) - s) - b * (b / d)
        if not d > 0.0:
            return False
        b = ldexp(e, shift)
    return True


def _even_odd_positions(n: int) -> np.ndarray:
    """Where the even/odd layout of an n-row U^T stores each row: row i at
    i // 2 when i is even, at (n + 1) // 2 + i // 2 when i is odd."""
    import numpy as np
    i = np.arange(n)
    return i // 2 + (i % 2) * ((n + 1) // 2)


def _apply_rotations(Ut: np.ndarray, rows: array, cs: array, ss: array) -> None:
    """Apply the rotations (rows[k], cs[k], ss[k]) in order to the rows of
    U^T, which Ut holds in the even/odd layout of _even_odd_positions, in
    place: (U^T[i], U^T[i + 1]) <- (c U^T[i] - s U^T[i + 1],
    s U^T[i] + c U^T[i + 1]).

    Each rotation joins wave max(ready[i], ready[i + 1]), which comes after
    the wave of every earlier rotation that shares a row with it.  So the
    rotations of one wave touch disjoint rows and commute, and applying the
    waves in turn gives the product of the sequence.  A wave is applied run
    by run, a run being k rotations of rows i0, i0 + 2, ...: in the layout
    their lo rows are k contiguous rows of Ut and their hi rows k more.
    Each run takes six passes, s lo, s hi, lo c, lo - s hi, hi c and
    hi c + s lo, and every entry gets the bits of one rotation at a time:
    c hi + s lo rounds as s lo + c hi does, IEEE addition being
    commutative.
    """
    import numpy as np
    if not rows:
        return
    n = Ut.shape[0]
    ready = [0] * n
    waves = array("q")
    for i in rows:
        t = ready[i] if ready[i] > ready[i + 1] else ready[i + 1]
        ready[i] = ready[i + 1] = t + 1
        waves.append(t)
    # Sorted by key = wave (n + 1) + row, a run is a stretch of keys that
    # step by 2, and a new wave steps the key by 3 or more.  The keys are
    # distinct, so the stable sort gives the one order.  Each index array is
    # dropped once used: the chunk's peak memory stays near its record's.
    row = np.array(rows, dtype=np.int64)
    key = np.array(waves, dtype=np.int64) * (n + 1) + row
    del waves
    order = np.argsort(key, kind="stable")
    row, key = row[order], key[order]
    c = np.array(cs)[order, None]
    s = np.array(ss)[order, None]
    del order
    cuts = (np.flatnonzero(np.diff(key) - 2) + 1).tolist()
    del key
    starts = [0, *cuts]
    ends = [*cuts, len(row)]
    first = row[starts]
    pos = _even_odd_positions(n)
    width = max(b - a for a, b in zip(starts, ends))
    s_lo, s_hi = np.empty((width, n)), np.empty((width, n))
    for a, b, p, q in zip(starts, ends, pos[first].tolist(), pos[first + 1].tolist()):
        k = b - a
        lo, hi = Ut[p : p + k], Ut[q : q + k]
        ta, tb = s_lo[:k], s_hi[:k]
        np.multiply(s[a:b], lo, out=ta)
        np.multiply(s[a:b], hi, out=tb)
        lo *= c[a:b]
        lo -= tb
        hi *= c[a:b]
        hi += ta


def numeric_eigenvalues(M: SymTridiagonal) -> tuple[float, ...]:
    """Eigenvalues of M, ascending, by the QL iteration without vectors.

    Raises NoConvergence with the offending row index when a deflation
    exceeds the sweep budget.
    """
    return tuple(sorted(_ql(M)))


def numeric_decomposition(M: SymTridiagonal) -> SpectralDecomposition:
    """Implicit-shift QL eigendecomposition, eigenvalues ascending.

    Raises NoConvergence with the offending row index when a deflation
    exceeds the sweep budget.
    """
    import numpy as np
    n = M.size
    pos = _even_odd_positions(n)
    Ut = np.zeros((n, n))
    Ut[pos, np.arange(n)] = 1.0
    d = _ql(M, Ut)
    order = np.argsort(d, kind="stable")
    return SpectralDecomposition(
        eigenvalues=tuple(d[k] for k in order),
        vectors=_fix_signs(Ut[pos[order]].T),
        origin=Origin.NUMERIC,
    )


def decomposition_residuals(
    M: SymTridiagonal, dec: SpectralDecomposition
) -> tuple[float, float]:
    """Max-norm residuals (orthogonality, reconstruction):

        || U^T U - I ||_max  and  || M U - U diag(lambda) ||_max,

    both 0.0 for a 0 x 0 matrix.
    """
    import numpy as np
    n = M.size
    U = dec.vectors
    if U.shape != (n, n) or len(dec.eigenvalues) != n:
        raise DimensionMismatch(
            f"decomposition of shape {U.shape} against matrix of size {n}"
        )
    ortho = float(np.max(np.abs(U.T @ U - np.eye(n)), initial=0.0))
    recon = float(
        np.max(np.abs(M.dense() @ U - U * np.asarray(dec.eigenvalues)), initial=0.0)
    )
    return ortho, recon


def verify_family(fam: JacobiFamily, perturb: bool = False) -> tuple[tuple, tuple]:
    """The closed-form eigenvalues of a family, ascending, and the rows
    (name, value, threshold, passed) of its checks against its Jacobi matrix
    M, passed being value <= threshold, so that nan fails.  With perturb,
    M_00 is first moved by 1e-6 (1 + |M_00|), a negative control that some
    check must fail."""
    M = build_jacobi(fam)
    if perturb:
        d0 = M.diag[0]
        M = SymTridiagonal((d0 + 1e-6 * (1.0 + abs(d0)),) + M.diag[1:], M.offdiag)
    analytic = analytic_decomposition(fam)
    eigenvalues = tuple(sorted(analytic.eigenvalues))
    ortho, recon = decomposition_residuals(M, analytic)
    eig_dev = max(abs(a - b) for a, b in zip(eigenvalues, numeric_eigenvalues(M)))
    # Orthogonality is absolute; reconstruction and the closed-vs-numeric
    # eigenvalue deviation are relative to 1 + max |M_ij|.
    scale = 1.0 + max(abs(x) for x in M.diag + M.offdiag)
    checks = (
        ("orthogonality", ortho, 1e-10),
        ("reconstruction", recon, 1e-9 * scale),
        ("closed_vs_numeric_eigenvalues", eig_dev, 1e-8 * scale),
    )
    return eigenvalues, tuple((name, v, thr, v <= thr) for name, v, thr in checks)
