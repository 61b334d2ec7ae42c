"""Symmetric tridiagonal (Jacobi) matrices attached to the polynomial
families, with analytic and numeric spectral decompositions.

The matrix for a family on 0..N has diagonal F_i = B_i + D_i and
off-diagonal entries -E_i with E_i = sqrt(B_{i-1} D_i) > 0, where (B, D) is
the family's bidiagonal factor pair.  Its eigenvalues are exactly the
recurrence coordinates kappa at the lattice nodes, and its eigenvectors are
the orthonormal polynomial values.

A chain's interaction matrix K is written only here: K = M for the
uniform chain and K = M - F_0 I for the families whose diagonal is the
constant F_0, its entries by _interaction_matrix and its closed-form
spectrum by _interaction_formula, one formula of the index in family
order per family, monotone in that order.  interaction_spectrum maps it
over all n indices; the chain layer calls the formula itself, at the
first and the last index for the coupling bound and the
positive-definiteness test, in O(1) of n.

The analytic route finds the eigenvectors by twisted factorization,
_twisted_vectors, of K at its closed-form eigenvalues for the families
with a constant diagonal, whose eigenvalues of M crowd near F_0 where K's
keep their gaps, and of M at kappa for the others.  _pivots sweeps the
LDL^T pivots for all eigenvalues at once, row by row over an n x n array
with a column per eigenvalue, top-down and, reversed, bottom-up.
The numeric route is an implicit-shift QL iteration and serves as an
independent cross-check.  One kernel, _ql, holds its sweeps:
numeric_eigenvalues runs it without eigenvectors (verify_family needs no
more), numeric_decomposition runs it with U^T.  It runs on M scaled by a
power of two (see below), which has max |entry| below 2 even where the
shift is capped at -1023, so the exact deflation test never passes above
12 eps; an entry below the smallest normal float passes it too, even
between zero diagonal entries.  It therefore finds each
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

Numeric mode frequencies need the spectrum of a chain's K, a constant
diagonal plus a zero-diagonal tridiagonal T, and no QL:
_zero_diagonal_eigenvalues finds T's eigenvalues as +-sigma of a
bidiagonal half T's size, by dqds on T's squared couplings.  Its
transforms take no square root, and it finds each sigma to high relative
accuracy, so a tiny eigenvalue of K keeps its digits where the QL's are
good only relative to max |entry|.

Positive definiteness needs no eigenvalue: _all_above decides whether every
eigenvalue exceeds a shift sigma from the signs of the LDL^T pivots of
M - sigma I, in O(n) against an eigensolver's O(n^2).  The chain layer
asks it first, so that dqds runs only on forms that pass.  The pivot
test, the QL and dqds all work on their entries scaled by the one power
of two of _unit_exponent, which is exact: a form near the smallest normal
float keeps its digits and its deflations, and one near the largest does
not overflow.

numpy is imported inside the array functions on purpose: the closed forms,
the QL eigenvalues and dqds run on Python floats, so that callers needing
no more, such as the CLI's bound, spectrum and plot, never load it.
"""

from __future__ import annotations

import enum
import math
import sys
from array import array
from dataclasses import dataclass
from typing import Union

from .errors import (
    BudgetExceeded,
    ClosedFormUnavailable,
    DimensionMismatch,
    InvalidParams,
    NoConvergence,
)
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
# Sweep budget per eigenvalue for the QL iteration, and transform budget
# per eigenvalue of a qd array for dqds.
MAX_SWEEPS = 64
# Budget on the size N + 1 of the matrix verify_family checks, whose
# residuals hold about 4 (N + 1)^2 doubles: at 2048, verify peaks at about
# 135 MiB of RSS and takes 1-3 s on the four families.  It is also the
# budget of the n x n decompositions, analytic_decomposition and
# numeric_decomposition.
VERIFY_CAP = 2048

_EPS = sys.float_info.epsilon
# The QL records at most this many rotations before it applies them to U^T,
# which bounds the memory of the record.
_ROTATION_CHUNK = 1 << 14
# _fix_signs looks for each column's lead this many rows at a time.
_SIGN_ROWS = 32


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


def _interaction_formula(fam: JacobiFamily):
    """The closed-form eigenvalue of a chain's K as a function of its index
    in family order, and the range of those indices, for the families that
    interaction_spectrum lists: the one place each formula is written.
    Raises ClosedFormUnavailable for every other family.

    Every formula is monotone in family order.  The angle j pi / (2 (n +
    1)) rises inside (0, pi/2), where sin^2 rises; x - N/2 rises with x;
    and q^(x-N) and -q^(-x) both rise with x for q > 1 and both fall for
    q < 1.  Rounding keeps that order, so the values at the first and the
    last index are K's least and greatest eigenvalue, bit for bit."""
    N = fam.N
    if isinstance(fam, ConstantParams):
        n = N + 1
        denominator = 2.0 * (n + 1)
        return (lambda j: 4.0 * math.sin(j * math.pi / denominator) ** 2), range(1, n + 1)
    if (isinstance(fam, KrawtchoukParams) and fam.p == 0.5) or (
        isinstance(fam, HahnParams) and fam.alpha == fam.beta
    ):
        half = N / 2.0
        return (lambda x: x - half), range(N + 1)
    if isinstance(fam, DualQKrawtchoukParams) and fam.cbar == -1.0:
        q = fam.q
        return (lambda x: q ** (x - N) - q ** (-x)), range(N + 1)
    raise ClosedFormUnavailable(f"no closed-form interaction spectrum for {fam}")


def interaction_spectrum(fam: JacobiFamily) -> tuple[float, ...]:
    """Closed-form eigenvalues of a chain's interaction matrix K, in family
    order: 4 sin^2(j pi / (2 (n + 1))), j = 1..n with n = N + 1, for the
    uniform chain (K = M); x - N/2, x = 0..N, for Krawtchouk p = 1/2 and
    Hahn alpha = beta; q^(x-N) - q^(-x), x = 0..N, for dual q-Krawtchouk
    cbar = -1.  Raises ClosedFormUnavailable for every other family."""
    mu, indices = _interaction_formula(fam)
    return tuple(map(mu, indices))


def _interaction_matrix(fam: JacobiFamily) -> tuple[float, tuple[float, ...]]:
    """Constant diagonal and off-diagonal magnitudes E_r of a chain's K:
    diagonal 2 and E_r = 1 for the uniform chain, diagonal 0 otherwise.
    Raises InvalidParams, naming the family, when an E_r is not finite."""
    if isinstance(fam, ConstantParams):
        return 2.0, (1.0,) * fam.N
    offdiag = _offdiag(*bidiagonal_split(fam))
    if not all(map(math.isfinite, offdiag)):
        raise InvalidParams(f"the interaction matrix K of {fam} is not finite")
    return 0.0, offdiag


def _fix_signs(U: np.ndarray) -> np.ndarray:
    """Negate, in place, each column whose first entry of magnitude above
    SIGN_TOL is negative.  A column without such an entry has lead 0, whose
    entry is then not below -SIGN_TOL either.  The rows are read _SIGN_ROWS
    at a time, each block only in the columns whose lead it has not found
    yet, and the columns are negated by a product with signs +-1, which is
    exact: no n x n temporary is built."""
    import numpy as np
    flip = np.zeros(U.shape[1], dtype=bool)
    cols = np.arange(U.shape[1])
    unknown = slice(None)
    for start in range(0, U.shape[0], _SIGN_ROWS):
        block = U[start : start + _SIGN_ROWS, unknown]
        above = np.abs(block) > SIGN_TOL
        # A column with no entry above SIGN_TOL here reads its first one,
        # not below -SIGN_TOL, until a later block finds its lead.
        flip[unknown] = block[above.argmax(axis=0), np.arange(block.shape[1])] < -SIGN_TOL
        unknown = cols[unknown][~above.any(axis=0)]
        if not unknown.size:
            break
    U *= np.where(flip, -1.0, 1.0)
    return U


def _pivots(A: np.ndarray, E: np.ndarray, D: np.ndarray) -> np.ndarray:
    """The LDL^T pivots D_i = A_i - E_(i-1) (E_(i-1) / D_(i-1)) of
    tridiag(-E, a, -E) for every column a of A, row by row into D, a zero
    D_i replaced by eps E_i.  On A, D and E reversed, the bottom-up pivots."""
    import numpy as np
    eps = _EPS
    D[0] = A[0]
    for i in range(len(E)):
        if not D[i].all():
            D[i][D[i] == 0.0] = eps * E[i]
        np.divide(E[i], D[i], out=D[i + 1])
        D[i + 1] *= E[i]
        np.subtract(A[i + 1], D[i + 1], out=D[i + 1])
    return D


def _twisted_vectors(F: tuple, E: tuple, lam: tuple) -> np.ndarray:
    """Unit eigenvectors of T = tridiag(-E, F, -E), column j for lam_j, by
    twisted factorization (Fernando, 1997; Parlett and Dhillon, 1997).

    F, E and lam are scaled by the power of two of _unit_exponent.  With
    D+ and D- the top-down and bottom-up pivots of T - lam_j I, gamma_i =
    D+_i + (D-_i - (F_i - lam_j)) is 1 / ((T - lam_j I)^-1)_ii, so the
    twist r, the first index of least |gamma_i|, is where the eigenvector
    about peaks.  From z_r = 1, z_i = (E_i / D+_i) z_(i+1) above r and
    z_i = (E_(i-1) / D-_i) z_(i-1) below: no column needs a rescale, and
    every norm is at least 1.  Each column gets the operations of its own
    scalar loop, so the vectors are bit for bit those of one eigenvalue at
    a time, and the working set is three n x n arrays.
    """
    import numpy as np
    n = len(F)
    shift = _unit_exponent(F + E + lam)
    F, E, lam = (np.ldexp(np.array(v, dtype=float), shift) for v in (F, E, lam))
    # A holds F_i - lam_j, then |gamma|, then the vectors.
    A = np.subtract.outer(F, lam)
    Dp = _pivots(A, E, np.empty_like(A))
    Dm = _pivots(A[::-1], E[::-1], np.empty_like(A)[::-1])[::-1]
    np.subtract(Dm, A, out=A)
    np.add(Dp, A, out=A)
    np.abs(A, out=A)
    # By blocks of columns, argmin's copy of its operand stays small.
    r = np.concatenate([np.argmin(A[:, j : j + 16], axis=0) for j in range(0, n, 16)])
    # The multipliers in place of the pivots: _pivots formed each quotient
    # already, so none overflows here that did not there.
    np.divide(E[:, None], Dp[:-1], out=Dp[:-1])
    np.divide(E[:, None], Dm[1:], out=Dm[1:])
    Z = A
    Z[r, np.arange(n)] = 1.0
    for i in range(n - 2, -1, -1):
        np.multiply(Dp[i], Z[i + 1], out=Z[i], where=i < r)
    for i in range(1, n):
        np.multiply(Dm[i], Z[i - 1], out=Z[i], where=i > r)
    # sum over axis 0 adds the rows in order, as a scalar loop would.
    Z /= np.sqrt(np.multiply(Z, Z, out=Dp).sum(axis=0))
    return Z


def analytic_decomposition(fam: JacobiFamily) -> SpectralDecomposition:
    """Closed-form eigendecomposition, eigenvalues in family order.  A
    family on more than VERIFY_CAP nodes raises BudgetExceeded before any
    array is built."""
    if fam.N >= VERIFY_CAP:
        raise BudgetExceeded(
            f"{fam.N + 1} nodes exceed the decomposition budget of {VERIFY_CAP}"
        )
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
    eigenvalues = tuple(_kappa(fam, x) for x in range(fam.N + 1))
    try:
        # K, whose eigenvalues keep the gaps that M's lose near F_0.
        F, lam = (0.0,) * M.size, interaction_spectrum(fam)
    except ClosedFormUnavailable:
        F, lam = M.diag, eigenvalues
    U = _twisted_vectors(F, M.offdiag, lam)
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
    passes the deflation test or is below the smallest normal float, a
    floor below 2^-1021 max |entry|: between zero d_m and d_m+1 a subnormal
    e_m never passed the test.  No entry above hi = 16 eps passes:
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
    tiny = sys.float_info.min
    n = M.size
    sweep_budget = MAX_SWEEPS
    # Capped so that 2^-shift is a float: an eigenvalue past float range
    # then comes back inf.
    shift = max(_unit_exponent(M.diag + M.offdiag), -1023)
    d = [math.ldexp(x, shift) for x in M.diag]
    e = [-math.ldexp(x, shift) for x in M.offdiag] + [0.0]

    def passes(k):
        # The deflation test of row k, or the floor; e_(n-1) is always 0.
        x = abs(e[k])
        return x < tiny or x <= eps * (abs(d[k]) + abs(d[k + 1]))

    rows, cs, ss = array("q"), array("d"), array("d")
    add_row, add_c, add_s = rows.append, cs.append, ss.append
    stop = -1
    flagged = []
    flag = flagged.append
    for l in range(n):
        sweeps = 0
        while True:
            if -hi <= e[l] <= hi and passes(l):
                break
            if l < stop:
                # Of the rows in (l, stop), only flagged ones can pass.
                # Flagged rows at or below l have deflated since.
                m = stop
                for k in reversed(flagged):
                    if k > l and passes(k):
                        m = k
                        break
            else:
                m = l + 1
                while not (-hi <= e[m] <= hi and passes(m)):
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


def _zero_diagonal_eigenvalues(offdiag: tuple[float, ...]) -> list[float]:
    """Eigenvalues, ascending, of the symmetric tridiagonal matrix T with
    zero diagonal and off-diagonal entries -E_i, by dqds.

    With its even sites before its odd ones, T is [[0, B], [B^T, 0]] for a
    bidiagonal B, so its eigenvalues are +-sigma for the singular values
    sigma of B, and one 0 more when its size is odd.  B's squared entries
    are T's squared couplings E_0^2, E_1^2, ..., alternately a diagonal
    square q and an off-diagonal square e: the qd array on which dqds
    finds each sigma^2 to high relative accuracy with no square root
    (Fernando and Parlett, 1994; Parlett and Marques, 2000).

    E is first scaled by one power of two to max E in [1/2, 1), as in
    _all_above, so that no square overflows.  A square below the smallest
    normal float, from an E below about 2^-511 max E, counts as 0, an error
    far below eps max E: T splits there into blocks.  For the same reason,
    an eigenvalue below about 2^-511 max E is found only to within that
    bound, not to a relative accuracy.  A block of odd size has as many e
    as q: _dqds_step without shift on its array with a q = 0 appended ends
    in its exact zero, and the array less its last q and e is square (a
    single q_0 gives q_0 + e_0).  Each array runs _dqds.  Raises
    NoConvergence with the first row of a block whose array takes more
    than MAX_SWEEPS transforms per eigenvalue.
    """
    tiny = sys.float_info.min
    # Capped as in _ql, so that 2^-shift is a float.
    shift = max(_unit_exponent(offdiag), -1023)
    z = [math.ldexp(x, shift) ** 2 for x in offdiag]
    z.append(0.0)
    squares = []
    zeros = start = 0
    for i, x in enumerate(z):
        if x < tiny:
            q, e = z[start:i:2], z[start + 1 : i : 2]
            if len(e) == len(q):
                zeros += 1
                if len(q) > 1:
                    q, e = _dqds_step(q + [0.0], e, 0.0)[:2]
                    q, e = q[:-1], e[:-1]
                elif q:
                    q, e = [q[0] + e[0]], []
            if q:
                squares += _dqds(q, e, start)
            start = i + 1
    scale = 2.0**-shift
    sigmas = sorted(math.sqrt(x) * scale for x in squares)
    return [-s for s in reversed(sigmas)] + [0.0] * zeros + sigmas


def _dqds(q: list[float], e: list[float], row: int) -> list[float]:
    """Eigenvalues of the qd array (q, e), q one longer than e and every
    entry positive: the squared singular values of the bidiagonal with
    diagonal sqrt(q) and off-diagonal sqrt(e).

    An array whose least eigenvalue sits near its top is first reversed,
    which keeps its eigenvalues.  Each transform of _dqds_step takes the
    shift tau of _dqds_shift off the array, and the shifts add up in
    sigma, compensated as in LAPACK's dlasq3.  A transform that would make
    a d negative is retried with a smaller shift: tau + d for that d, which
    bounds the least eigenvalue of the rows down to it from below (of the
    whole array when d is the last), then tau / 4 from the fourth failure
    on, and after five failures no shift at all, in the form of
    _dqd_safe_step, which cannot fail.  The last eigenvalue deflates when
    e_(m-1) <= eps^2 (sigma + q_m), the last two when e_(m-2) <= eps^2
    sigma, by their 2 x 2 closed form.  After every 8 transforms without a
    deflation, the array splits at each e <= eps^2 sigma, the split test of
    LAPACK's dlasq2: a tiny eigenvalue far up the array, which the shifts
    chase down to the underflow range, then no longer holds up the
    deflations below it.  Raises NoConvergence(row) when the array takes
    more than MAX_SWEEPS transforms per eigenvalue.
    """
    eps = _EPS
    tol2 = eps * eps
    budget = MAX_SWEEPS * len(q)
    out = []
    pending = [(q, e, 0.0, 0.0)]
    while pending:
        q, e, sigma, desig = pending.pop()
        m = len(q)
        if m > 2:
            # The d of a dqd step without shift: where the least is in the
            # top third and small against the last q, the least eigenvalue
            # sits near the top, and the array is reversed (dlasq2).
            d = dmin = q[0]
            k = 0
            for i in range(1, m):
                t = d + e[i - 1]
                d = q[i] * (d / t) if t else q[i]
                if d <= dmin:
                    dmin, k = d, i
            if 2 * k < m - 1 - k and dmin <= 0.5 * q[-1]:
                q.reverse()
                e.reverse()
        sweeps = 0
        deflated = -1  # a fresh array starts with a transform without shift
        while True:
            while m > 2:
                if e[-1] <= tol2 * (sigma + q[-1]):
                    out.append(q.pop() + sigma)
                    e.pop()
                    m -= 1
                elif e[-2] <= tol2 * sigma:
                    out += _two_by_two(q[-2], e[-1], q[-1], sigma)
                    del q[-2:], e[-2:]
                    m -= 2
                else:
                    break
                sweeps = 0
                if deflated >= 0:
                    deflated += 1
            if m == 2:
                out += _two_by_two(q[0], e[0], q[1], sigma)
                break
            if m == 1:
                out.append(q[0] + sigma)
                break
            if sweeps and not sweeps % 8:
                cut = [i for i, x in enumerate(e) if x <= tol2 * sigma]
                if cut:
                    lo = 0
                    for i in cut:
                        pending.append((q[lo : i + 1], e[lo:i], sigma, desig))
                        lo = i + 1
                    q, e = q[lo:], e[lo:]
                    m = len(q)
                    sweeps, deflated = 0, -1
                    continue
            tau = 0.0 if deflated < 0 else _dqds_shift(q, e, prev, deflated, step)
            deflated = fails = 0
            while True:
                if not budget:
                    raise NoConvergence(row)
                budget -= 1
                sweeps += 1
                if fails > 4 or tau <= 0.0 and fails:
                    step = _dqd_safe_step(q, e)
                    tau = 0.0
                else:
                    step = _dqds_step(q, e, tau)
                if step[0] is not None:
                    break
                fails += 1
                t = tau + step[1]
                tau = t * (1.0 - 2.0 * eps) if t > 0.0 and fails < 4 else 0.25 * tau
            prev = q, e
            q, e = step[0], step[1]
            # sigma += tau, compensated.
            if tau < sigma:
                desig += tau
                t = sigma + desig
                desig -= t - sigma
            else:
                t = sigma + tau
                desig = sigma - (t - tau) + desig
            sigma = t
    return out


def _two_by_two(a: float, e: float, b: float, sigma: float) -> tuple[float, float]:
    """sigma plus the eigenvalues of the qd array (a, e, b), by the
    cancellation-free formula of LAPACK's dlasq3."""
    if b > a:
        a, b = b, a
    t = 0.5 * ((a - b) + e)
    if e > b * _EPS * _EPS and t != 0.0:
        s = b * (e / t)
        if s <= t:
            s = b * (e / (t * (1.0 + math.sqrt(1.0 + s / t))))
        else:
            s = b * (e / (t + math.sqrt(t) * math.sqrt(t + s)))
        t = a + (s + e)
        b *= a / t
        a = t
    return a + sigma, b + sigma


def _dqds_step(q: list[float], e: list[float], tau: float) -> tuple:
    """One dqds transform of an array of m >= 3: the new (q, e) and the
    least d of all, all but the last and all but the last two, and the last
    three d (dmin, dmin1, dmin2, dn, dn1, dn2).  When a d is negative or
    not finite, or q + e is 0, (None, d) instead.
    """
    m = len(q)
    d = q[0] - tau
    if not d >= 0.0:
        return None, d
    dmin = d
    qh, eh = [0.0] * m, [0.0] * (m - 1)
    try:
        for i in range(m - 3):
            ei = e[i]
            s = d + ei
            t = q[i + 1] / s
            qh[i] = s
            eh[i] = ei * t
            d = d * t - tau
            if not d >= dmin:
                if not d >= 0.0:
                    return None, d
                dmin = d
        dn2, dmin2 = d, dmin
        ei = e[m - 3]
        s = d + ei
        t = q[m - 2] / s
        qh[m - 3] = s
        eh[m - 3] = ei * t
        dn1 = d = d * t - tau
        if not d >= 0.0:
            return None, d
        dmin1 = min(dmin2, dn1)
        ei = e[m - 2]
        s = d + ei
        t = q[m - 1] / s
        qh[m - 2] = s
        eh[m - 2] = ei * t
        dn = d * t - tau
    except ZeroDivisionError:
        return None, -0.0
    if not 0.0 <= dn < math.inf:
        return None, dn
    qh[m - 1] = dn
    return qh, eh, min(dmin1, dn), dmin1, dmin2, dn, dn1, dn2


def _dqd_safe_step(q: list[float], e: list[float]) -> tuple:
    """A dqd transform without shift, in the form of LAPACK's dlasq6, which
    neither overflows nor divides by zero, with the results of
    _dqds_step.  Where q + e underflows to 0 it splits the array."""
    d = q[0]
    qh, eh, ds = [], [], [d]
    for qn, ei in zip(q[1:], e):
        s = d + ei
        qh.append(s)
        if s == 0.0:
            eh.append(0.0)
            d = qn
        else:
            eh.append(qn * (ei / s))
            d = qn * (d / s)
        ds.append(d)
    qh.append(d)
    dmin2, dmin1 = min(ds[:-2]), min(ds[:-1])
    return qh, eh, min(dmin1, d), dmin1, dmin2, d, ds[-2], ds[-3]


def _ratio_sum(q: list[float], e: list[float], k: int, a2: float, b2: float):
    """a2 + b2 (1 + r_k + r_k r_(k-1) + ...) with r_i = e_i / q_i, up the
    array from row k until a term no longer counts, or None where some
    r_i >= 1 (also where e_i = q_i = 0): dlasq4's estimate of an
    eigenvector's squared norm beyond its peak."""
    a2 += b2
    for i in range(k, -1, -1):
        if b2 == 0.0:
            break
        b1 = b2
        if e[i] >= q[i]:
            return None
        b2 *= e[i] / q[i]
        a2 += b2
        if 100.0 * max(b2, b1) < a2 or 0.563 < a2:
            break
    return a2


def _dqds_shift(q: list[float], e: list[float], prev, deflated: int, step) -> float:
    """The shift for the next transform, after LAPACK's dlasq4: from the d
    of the last transform step (the result of _dqds_step), the bottom of
    the array and prev, the array that the transform took, an estimate just
    below the least eigenvalue.  deflated is the number of eigenvalues
    deflated since that transform."""
    _, _, dmin, dmin1, dmin2, dn, dn1, dn2 = step
    m = len(q)
    if deflated == 0:
        if dmin <= 0.0:
            return 0.0
        if dmin == dn and dmin1 == dn1:
            b1 = math.sqrt(q[-1]) * math.sqrt(e[-1])
            b2 = math.sqrt(q[-2]) * math.sqrt(e[-2])
            a2 = q[-2] + e[-1]
            gap2 = 0.75 * dmin2 - a2
            if gap2 > 0.0 and gap2 > b2:
                gap1 = a2 - dn - (b2 / gap2) * b2
            else:
                gap1 = a2 - dn - (b1 + b2)
            if gap1 > 0.0 and gap1 > b1:
                return max(dn - (b1 / gap1) * b1, 0.5 * dmin)
            s = dn - b1 if dn > b1 else 0.0
            if a2 > b1 + b2:
                s = min(s, a2 - (b1 + b2))
            return max(s, dmin / 3.0)
        if dmin in (dn, dn1, dn2):
            # dmin is at one of the last three rows: a Rayleigh quotient
            # residual bound, from ratios of the arrays before (q0, e0)
            # and after the transform, of the eigenvector that peaks there.
            s = 0.25 * dmin
            q0, e0 = prev
            if dmin == dn:
                gam, a2, k = dn, 0.0, m - 2
            elif dmin == dn1:
                if e0[m - 2] >= q0[m - 1]:
                    return s
                gam, a2, k = dn1, e0[m - 2] / q0[m - 1], m - 3
            else:
                if e0[m - 3] >= q0[m - 2] or e0[m - 2] >= q0[m - 1]:
                    return s
                gam, k = dn2, m - 4
                a2 = (e0[m - 3] / q0[m - 2]) * (1.0 + e0[m - 2] / q0[m - 1])
            if k >= 0:
                if e[k] >= q[k]:
                    return s
                a2 = _ratio_sum(q, e, k - 1, a2, e[k] / q[k])
                if a2 is None:
                    return s
                a2 *= 1.05
            if a2 < 0.563:
                s = gam * (1.0 - math.sqrt(a2)) / (1.0 + a2)
            return s
        # No information on where the least eigenvalue is.
        return 0.25 * dmin
    if deflated == 1:
        if dmin1 == dn1 and dmin2 == dn2:
            # The bound above for the eigenvalue that peaks at the new
            # last row, next to the one just deflated.
            s = dmin1 / 3.0
            if e[-1] >= q[-2]:
                return s
            b2 = _ratio_sum(q, e, m - 3, 0.0, e[-1] / q[-2])
            if b2 is None:
                return s
            b2 = math.sqrt(1.05 * b2)
            a2 = dmin1 / (1.0 + b2 * b2)
            gap2 = 0.5 * dmin2 - a2
            if gap2 > 0.0 and gap2 > b2 * a2:
                return max(s, a2 * (1.0 - 1.01 * a2 * (b2 / gap2) * b2))
            return max(s, a2 * (1.0 - 1.01 * b2))
        return (0.5 if dmin1 == dn1 else 0.25) * dmin1
    if deflated == 2:
        return 0.25 * dmin2
    return 0.0


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
    exceeds the sweep budget, and BudgetExceeded before any array is built
    when M has more than VERIFY_CAP rows.
    """
    n = M.size
    if n > VERIFY_CAP:
        raise BudgetExceeded(f"{n} nodes exceed the decomposition budget of {VERIFY_CAP}")
    import numpy as np
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
    check must fail.  A family on more than VERIFY_CAP nodes raises
    BudgetExceeded before any array is built."""
    if fam.N >= VERIFY_CAP:
        raise BudgetExceeded(f"{fam.N + 1} modes exceed the verify budget of {VERIFY_CAP}")
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
