"""Frozen reference values, exact-rational evaluators and per-family
closed forms for the tests.

The exact evaluators recompute series values, weights and norms in Fraction
arithmetic, independently of the package's float code paths.  The frozen
literals were produced by separate oracle scripts (exact rational sums and
an independent eigensolver) and are pinned here as plain constants.  The
per-family closed forms of the squared mode frequencies and the coupling
bound are written out family by family, in the float operation order whose
bits the CLI payloads carry.  stitched_decomposition_reference is the
analytic eigenvector recurrence as first written (a forward and a mirrored
backward loop), kept to pin the one-loop recurrence bit for bit.
stitched_vectors_reference is the one-loop recurrence run one eigenvalue at
a time, with the norm taken again of the max-scaled column where the sum of
squares overflows, kept to pin the all-eigenvalues-at-once kernel bit for
bit, NaN columns included.  hypergeometric_series_reference is the
series evaluation as first written: two general terminating summers that
find the degree and the denominator poles from the parameters, kept to
pin the package's family_eval bit for bit.  column_ql_reference is
the QL eigensolver as it was first written (numpy-scalar d and e, rotations
on columns of U), kept to pin the package's QL bit for bit.
enumerate_levels_reference is the
level enumeration as first written (one occupation tuple at a time, sorted
as (energy, tuple) pairs), kept to pin the array enumeration bit for bit.
occupation_columns_reference is the occupation table built in one forward
pass over the modes, each prefix's occupation repeated once per completion
of it, kept to pin the block-copy build array for array at sizes the
tuple enumeration cannot reach.
constant_diagonal is the paper's search criterion read off the matrix: a
chain has a closed-form spectrum when its Jacobi matrix has a constant
diagonal F_0, so that K = M - F_0 I.
exact_inertia counts the eigenvalues of a float matrix below a shift from
its LDL^T pivots in Fraction arithmetic, an exact eigenvalue oracle that
needs neither the package's QL nor LAPACK.  exact_eigenvalue pins one
eigenvalue between two adjacent doubles with those counts, and measures a
float estimate's error in ulps.
"""

from __future__ import annotations

import math
import struct
import sys
from fractions import Fraction as Fr
from itertools import combinations_with_replacement

import numpy as np

from chain_spectra.chain import (
    GROUP_RTOL,
    ConstantInteraction,
    DualQKrawtchoukInteraction,
    HahnInteraction,
    KrawtchoukInteraction,
    LevelGroup,
    ground_energy,
    mode_frequencies,
)
from chain_spectra.errors import NoConvergence
from chain_spectra.jacobi import SIGN_TOL, ConstantParams, build_jacobi
from chain_spectra.polynomials import (
    DualQKrawtchoukParams,
    KrawtchoukParams,
    _kappa,
)

_EPS = float(np.finfo(float).eps)


def exact_krawtchouk(i: int, x: int, p: Fr, N: int) -> Fr:
    d = min(i, x)
    total, term = Fr(0), Fr(1)
    for k in range(d + 1):
        total += term
        if k == d:
            break
        term *= Fr(k - i) * (k - x) / ((k - N) * (k + 1)) / p
    return total


def exact_hahn(i: int, x: int, a: Fr, b: Fr, N: int) -> Fr:
    d = min(i, x)
    total, term = Fr(0), Fr(1)
    for k in range(d + 1):
        total += term
        if k == d:
            break
        term *= (
            Fr(k - i) * (k + i + a + b + 1) * (k - x)
            / ((k + a + 1) * (k - N) * (k + 1))
        )
    return total


def exact_dualq(i: int, x: int, cbar: Fr, q: Fr, N: int) -> Fr:
    d = min(i, x)
    total, term = Fr(0), Fr(1)
    a1, a2, a3, b1 = q**-i, q**-x, cbar * q ** (x - N), q**-N
    for k in range(d + 1):
        total += term
        if k == d:
            break
        qk = q**k
        term *= (
            q * (1 - a1 * qk) * (1 - a2 * qk) * (1 - a3 * qk)
            / ((1 - b1 * qk) * (1 - q ** (k + 1)))
        )
    return total


def _exact_poch(a: Fr, n: int) -> Fr:
    out = Fr(1)
    for m in range(n):
        out *= a + m
    return out


def exact_krawtchouk_weight(x: int, p: Fr, N: int) -> Fr:
    return math.comb(N, x) * p**x * (1 - p) ** (N - x)


def exact_krawtchouk_norm(i: int, p: Fr, N: int) -> Fr:
    return ((1 - p) / p) ** i / Fr(math.comb(N, i))


def exact_hahn_weight(x: int, a: Fr, b: Fr, N: int) -> Fr:
    sign = (-1) ** N if a < -N else 1
    return (
        sign
        * _exact_poch(a + 1, x) / math.factorial(x)
        * _exact_poch(b + 1, N - x) / math.factorial(N - x)
    )


def exact_hahn_norm(i: int, a: Fr, b: Fr, N: int) -> Fr:
    sign = (-1) ** N if a < -N else 1
    h = Fr(math.factorial(i) * math.factorial(N - i), math.factorial(N) ** 2)
    for m in range(1, i + 1):
        h *= (b + m) / (a + m)
    for m in range(N + 1):
        if m != i:
            h *= i + a + b + 1 + m
    return sign * h


def exact_dualq_weight(x: int, cbar: Fr, q: Fr, N: int) -> Fr:
    out = Fr(1)
    for m in range(x):
        out *= (
            (1 - cbar * q ** (m - N)) * (1 - q ** (m - N))
            / ((1 - q ** (m + 1)) * (1 - cbar * q ** (m + 1)))
            * q ** (2 * N - 2 * m - 1) / cbar
        )
    return out * (1 - cbar * q ** (2 * x - N)) / (1 - cbar * q ** (-N))


def exact_dualq_norm(i: int, cbar: Fr, q: Fr, N: int) -> Fr:
    h = Fr(1)
    for m in range(N):
        h *= 1 - q**m / cbar
    for m in range(1, i + 1):
        h *= (1 - q**m) * cbar * q**-N / (1 - q ** (m - 1 - N))
    return h


def _neumaier_sum_reference(terms) -> float:
    total = 0.0
    comp = 0.0
    for t in terms:
        s = total + t
        if abs(total) >= abs(t):
            comp += (total - s) + t
        else:
            comp += (t - s) + total
        total = s
    return total + comp


def _is_nonpositive_int(a: float) -> bool:
    return a <= 0.0 and a == round(a)


def _terminating_hypergeometric(numerator, denominator, z: float) -> float:
    # Term ratio z * prod(a + k) / (prod(b + k) * (k + 1)); the sum stops at
    # the smallest -a over the non-positive integer numerator parameters.
    degrees = [int(-a) for a in numerator if _is_nonpositive_int(a)]
    if not degrees:
        raise ValueError(f"no non-positive integer among {tuple(numerator)}")
    d = min(degrees)
    for b in denominator:
        if _is_nonpositive_int(b) and 1 - int(b) <= d:
            raise ValueError(f"denominator parameter {b} vanishes within degree {d}")
    terms = []
    term = 1.0
    for k in range(d + 1):
        terms.append(term)
        if k == d:
            break
        ratio = z / (k + 1)
        for a in numerator:
            ratio *= a + k
        for b in denominator:
            ratio /= b + k
        term *= ratio
    return _neumaier_sum_reference(terms)


def _q_log_index(a: float, q: float) -> int | None:
    """Exact m >= 0 with a == q**(-m), or None."""
    if a <= 0.0:
        return None
    est = round(-math.log(a) / math.log(q))
    for m in (est - 1, est, est + 1):
        if m >= 0 and q ** (-m) == a:
            return m
    return None


def _terminating_basic_hypergeometric(numerator, denominator, q: float, z: float) -> float:
    # Term ratio z * prod(1 - a q^k) / (prod(1 - b q^k) * (1 - q^(k+1)));
    # the sum stops at the smallest m over numerator parameters a = q^-m.
    degrees = [m for a in numerator if (m := _q_log_index(a, q)) is not None]
    if not degrees:
        raise ValueError(f"no parameter of the form q^-m among {tuple(numerator)}")
    d = min(degrees)
    for b in denominator:
        if b == 0.0:
            continue
        m = _q_log_index(b, q)
        if m is not None and m <= d - 1:
            raise ValueError(f"denominator parameter {b} vanishes within degree {d}")
    terms = []
    term = 1.0
    for k in range(d + 1):
        terms.append(term)
        if k == d:
            break
        qk = q**k
        ratio = z
        for a in numerator:
            ratio *= 1.0 - a * qk
        for b in denominator:
            ratio /= 1.0 - b * qk
        ratio /= 1.0 - q ** (k + 1)
        term *= ratio
    return _neumaier_sum_reference(terms)


def hypergeometric_series_reference(fp, i: int, x: int) -> float:
    """Degree-i family polynomial at lattice node x from its 2F1, 3F2 or
    3phi2 series, through the general summers."""
    N = fp.N
    if isinstance(fp, KrawtchoukParams):
        return _terminating_hypergeometric(
            (float(-i), float(-x)), (float(-N),), 1.0 / fp.p
        )
    if isinstance(fp, DualQKrawtchoukParams):
        q, cbar = fp.q, fp.cbar
        return _terminating_basic_hypergeometric(
            (q ** (-i), q ** (-x), cbar * q ** (x - N)), (q ** (-N), 0.0), q, q
        )
    a, b = fp.alpha, fp.beta
    return _terminating_hypergeometric(
        (float(-i), i + a + b + 1.0, float(-x)), (a + 1.0, float(-N)), 1.0
    )


def closed_squares_reference(chain) -> tuple[float, ...]:
    """Squared mode frequencies of a built-in chain in family order.  c
    multiplies the whole eigenvalue of K, so that no intermediate product
    overflows for c near float max where the square itself is finite."""
    n = chain.n
    w2 = chain.omega**2
    c = chain.coupling
    kind = chain.interaction
    if isinstance(kind, ConstantInteraction):
        return tuple(
            w2 + c * (4.0 * math.sin(j * math.pi / (2.0 * (n + 1))) ** 2)
            for j in range(1, n + 1)
        )
    if isinstance(kind, (KrawtchoukInteraction, HahnInteraction)):
        return tuple(w2 - c * ((n - 2 * j + 1) / 2.0) for j in range(1, n + 1))
    assert isinstance(kind, DualQKrawtchoukInteraction)
    q = kind.q
    return tuple(w2 + c * (q ** (x - n + 1) - q ** (-x)) for x in range(n))


def max_coupling_reference(chain) -> float:
    """Coupling bound of a built-in chain, math.inf when unbounded."""
    n = chain.n
    w2 = chain.omega**2
    kind = chain.interaction
    if isinstance(kind, ConstantInteraction) or n == 1:
        return math.inf
    if isinstance(kind, (KrawtchoukInteraction, HahnInteraction)):
        return 2.0 * w2 / (n - 1)
    q = kind.q
    if q > 1.0:
        return w2 / (1.0 - q ** (1 - n))
    return w2 / (q ** (1 - n) - 1.0)


def constant_diagonal(M) -> float | None:
    """F_0 = M.diag[0] when every diagonal entry of M is within 1e-12
    relative of it, else None."""
    d0 = M.diag[0]
    if all(abs(x - d0) <= 1e-12 * max(abs(x), abs(d0)) for x in M.diag):
        return d0
    return None


def column_ql_reference(
    M, max_sweeps: int = 64, floor: float = 0.0
) -> tuple[tuple, np.ndarray]:
    """Implicit-shift QL eigendecomposition of a SymTridiagonal, frozen in
    its first layout: eigenvalues ascending and eigenvector columns with
    their first entry above SIGN_TOL made positive.  An off-diagonal entry
    below floor deflates too; at the default 0 the deflation test is the
    first layout's."""
    n = M.size
    d = np.asarray(M.diag, dtype=float).copy()
    e = np.zeros(n)
    if n > 1:
        e[: n - 1] = [-x for x in M.offdiag]
    U = np.eye(n)
    for l in range(n):
        sweeps = 0
        while True:
            m = l
            while m < n - 1:
                if abs(e[m]) < floor or abs(e[m]) <= _EPS * (abs(d[m]) + abs(d[m + 1])):
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
                col = U[:, i + 1].copy()
                U[:, i + 1] = s * U[:, i] + c * col
                U[:, i] = c * U[:, i] - s * col
                i -= 1
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    order = np.argsort(d, kind="stable")
    return tuple(d[order]), _first_entry_positive(U[:, order])


def exact_inertia(M, sigma) -> int:
    """The number of eigenvalues of the SymTridiagonal M below sigma, exact
    for the float entries of M and a float or Fraction sigma.

    It counts the negative LDL^T pivots d_i = (a_i - sigma) - b_(i-1)^2 /
    d_(i-1) of M - sigma I in Fraction arithmetic (Sylvester's law of
    inertia; Barth, Martin and Wilkinson, 1967).  A zero off-diagonal b
    splits M, and the next pivot is a_i - sigma.  A zero pivot d_(i-1)
    with b_(i-1) != 0 makes the leading minor p_(i-1) zero: then
    p_i = -b_(i-1)^2 p_(i-2) has the sign opposite to p_(i-2), so d_i =
    p_i / p_(i-1) is -infinity and counts as negative, and since
    p_(i+1) = (a_(i+1) - sigma) p_i, the pivot after it is a_(i+1) - sigma.
    The zero pivot itself is not counted: a last pivot of 0 means sigma is
    an eigenvalue, which is not below sigma.
    """
    s = Fr(sigma)
    count, d, b2 = 0, Fr(1), Fr(0)
    for a, e in zip(M.diag, M.offdiag + (0.0,)):
        if d is None or b2 == 0:
            d = Fr(a) - s
        elif d == 0:
            d = None  # the pivot -infinity
        else:
            d = Fr(a) - s - b2 / d
        count += d is None or d < 0
        b2 = Fr(e) ** 2
    return count


def _ordinal(x: float) -> int:
    """The position of the double x among all doubles, ascending; -0.0 and
    0.0 share position 0."""
    bits = struct.unpack("<q", struct.pack("<d", abs(x)))[0]
    return -bits if x < 0.0 else bits


def _from_ordinal(k: int) -> float:
    x = struct.unpack("<d", struct.pack("<q", abs(k)))[0]
    return -x if k < 0 else x


def exact_eigenvalue(M, k: int, estimate: float) -> tuple[float, int]:
    """The k-th eigenvalue lambda_k (k from 0, ascending) of the
    SymTridiagonal M of size n <= 64 to adjacent doubles, and the error of
    a float estimate of it in ulps.

    Returns (lo, ulps): lo is the largest double with at most k eigenvalues
    below it by exact_inertia, so that lo <= lambda_k < the next double,
    and ulps is the number of doubles from the estimate to lo.  The search
    starts at the estimate and steps one double at a time, doubling the
    step until the count changes side, then bisects between the last two
    doubles it counted at.
    """
    assert M.size <= 64, "exact counts in Fraction arithmetic are kept to n <= 64"
    assert math.isfinite(estimate)

    def at_most_k_below(j: int) -> bool:
        return exact_inertia(M, _from_ordinal(j)) <= k

    top = _ordinal(sys.float_info.max)
    start = _ordinal(estimate)
    up = at_most_k_below(start)
    step, near = 1, start
    while True:
        far = max(-top, min(top, start + (step if up else -step)))
        if at_most_k_below(far) != up:
            break
        if abs(far) == top:
            # lambda_k is past float range.
            return _from_ordinal(far), abs(start - far)
        near, step = far, 2 * step
    lo, hi = (near, far) if up else (far, near)
    # at_most_k_below(lo) holds and at_most_k_below(hi) does not.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if at_most_k_below(mid):
            lo = mid
        else:
            hi = mid
    return _from_ordinal(lo), abs(start - lo)


def _first_entry_positive(U: np.ndarray) -> np.ndarray:
    """Negate, in place, each column whose first entry above SIGN_TOL in
    magnitude is negative."""
    for j in range(U.shape[1]):
        lead = np.nonzero(np.abs(U[:, j]) > SIGN_TOL)[0]
        if lead.size and U[lead[0], j] < 0.0:
            U[:, j] = -U[:, j]
    return U


def _two_loop_stitched_vector(F, E, lam) -> tuple[np.ndarray, float]:
    n = len(F)
    u = np.zeros(n)
    u[0] = 1.0
    if n > 1:
        u[1] = (F[0] - lam) / E[0]
    for i in range(1, n - 1):
        u[i + 1] = ((F[i] - lam) * u[i] - E[i - 1] * u[i - 1]) / E[i]
        if abs(u[i + 1]) > 1e250:
            u[: i + 2] /= abs(u[i + 1])
    v = np.zeros(n)
    v[n - 1] = 1.0
    if n > 1:
        v[n - 2] = (F[n - 1] - lam) / E[n - 2]
    for i in range(n - 2, 0, -1):
        v[i - 1] = ((F[i] - lam) * v[i] - E[i] * v[i + 1]) / E[i - 1]
        if abs(v[i - 1]) > 1e250:
            v[i - 1 :] /= abs(v[i - 1])
    stitch = np.abs(u) * np.abs(v)
    k = int(np.argmax(stitch))
    if stitch[k] == 0.0:
        k = n - 1
    vec = np.empty(n)
    vec[: k + 1] = u[: k + 1] * v[k]
    vec[k + 1 :] = v[k + 1 :] * u[k]
    norm = float(np.linalg.norm(vec))
    return vec / norm, norm


def stitched_decomposition_reference(fam) -> tuple[np.ndarray, np.ndarray]:
    """Analytic eigenvectors as first written: the two-sided recurrence with
    a forward and a mirrored backward loop, each column divided by its norm
    (the uniform chain by its sine formula instead), then every column's
    first entry above SIGN_TOL made positive.  Returns the vectors and the
    norms the columns were divided by (1 for the sine formula)."""
    if isinstance(fam, ConstantParams):
        n = fam.N + 1
        i = np.arange(1, n + 1)
        U = math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(i, i) * np.pi / (n + 1))
        norms = np.ones(n)
    else:
        M = build_jacobi(fam)
        F = np.asarray(M.diag)
        E = np.asarray(M.offdiag)
        U = np.empty((M.size, M.size))
        norms = np.empty(M.size)
        with np.errstate(all="ignore"):
            for j in range(M.size):
                U[:, j], norms[j] = _two_loop_stitched_vector(F, E, _kappa(fam, j))
    return _first_entry_positive(U), norms


def _forward_recurrence_reference(F, E, lam) -> np.ndarray:
    n = len(F)
    u = np.zeros(n)
    u[0] = 1.0
    if n > 1:
        u[1] = (F[0] - lam) / E[0]
    for i in range(1, n - 1):
        u[i + 1] = ((F[i] - lam) * u[i] - E[i - 1] * u[i - 1]) / E[i]
        if abs(u[i + 1]) > 1e250:
            u[: i + 2] /= abs(u[i + 1])
    return u


def _stitched_vector_reference(F, E, lam) -> np.ndarray:
    n = len(F)
    u = _forward_recurrence_reference(F, E, lam)
    v = _forward_recurrence_reference(F[::-1], E[::-1], lam)[::-1]
    stitch = np.abs(u) * np.abs(v)
    k = int(np.argmax(stitch))
    if stitch[k] == 0.0:
        k = n - 1
    vec = np.empty(n)
    vec[: k + 1] = u[: k + 1] * v[k]
    vec[k + 1 :] = v[k + 1 :] * u[k]
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(vec)
    if not 0.0 < norm < math.inf:
        vec /= np.max(np.abs(vec))
        norm = np.linalg.norm(vec)
    return vec / norm


def stitched_vectors_reference(fam) -> np.ndarray:
    """Analytic eigenvectors of a family other than the uniform chain, one
    eigenvalue at a time: each column of the one-loop two-sided recurrence
    is joined, divided by its norm (taken again of the column scaled to
    max |entry| = 1 where the sum of squares overflows) and has its first
    entry above SIGN_TOL made positive."""
    M = build_jacobi(fam)
    F = np.asarray(M.diag)
    E = np.asarray(M.offdiag)
    U = np.empty((M.size, M.size))
    for j in range(M.size):
        U[:, j] = _stitched_vector_reference(F, E, _kappa(fam, j))
    return _first_entry_positive(U)


# Exact-orthogonality parameter sets: (family, params, N).
EXACT_GRIDS = [
    ("krawtchouk", {"p": Fr(1, 2)}, 2),
    ("krawtchouk", {"p": Fr(3, 10)}, 4),
    ("hahn", {"a": Fr(1, 2), "b": Fr(1, 2)}, 2),
    ("hahn", {"a": Fr(2, 5), "b": Fr(-2, 5)}, 3),
    ("hahn", {"a": Fr(-5, 2), "b": Fr(-5, 2)}, 1),
    ("hahn", {"a": Fr(-7, 2), "b": Fr(-7, 2)}, 2),
    ("dualq", {"cbar": Fr(-1), "q": Fr(2)}, 2),
    ("dualq", {"cbar": Fr(-2), "q": Fr(3, 2)}, 3),
    ("dualq", {"cbar": Fr(-1), "q": Fr(7, 10)}, 3),
]

# Dual q-Krawtchouk at cbar = -1, q = 2, N = 2.
DUALQ_N2_Q2_WEIGHTS = (1.0, 4.0, 1.0)
DUALQ_N2_Q2_NORMS = (6.0, 2.0, 3.0)
DUALQ_N2_Q2_OFFDIAG = (0.4330127018922193, 0.6123724356957945)

# Hahn Jacobi diagonals F_i = A_i + C_i.
HAHN_04_M04_N3_DIAG = (2.1, 1.3, 1.3, 1.3)
HAHN_M45_M35_N3_DIAG = (1.75, 1.75, 1.75, 0.75)
HAHN_M05_N4_DIAG = (2.0, 2.0, 2.0, 2.0, 2.0)
HAHN_M05_N4_OFFDIAG_SQ = (2.5, 1.125, 0.875, 0.5)

# Coupling magnitudes gamma_1 .. gamma_{n-1}.
GAMMAS_KRAWTCHOUK_N4 = (math.sqrt(3.0), 2.0, math.sqrt(3.0))
GAMMAS_HAHN_05_N3 = (math.sqrt(10.0) / 2.0, math.sqrt(6.0) / 2.0)
GAMMAS_DUALQ_Q2_N3 = (math.sqrt(3.0) / 2.0, math.sqrt(1.5))
GAMMAS_HAHN_M05_N5 = (
    math.sqrt(10.0),
    2.1213203435596424,
    1.8708286933869707,
    1.4142135623730951,
)

# Krawtchouk chain, n = 4, omega = 1, c = 0.4.
OMEGAS_KRAWTCHOUK_N4_C04 = (
    0.6324555320336758,
    0.8944271909999159,
    1.0954451150103321,
    1.2649110640673518,
)
GROUND_KRAWTCHOUK_N4_C04 = 1.9436194510556377

# Dual q-Krawtchouk chain, q = 2, n = 3, c = 0.1.
OMEGAS_DUALQ_Q2_N3_C01 = (
    math.sqrt(0.925),
    1.0,
    math.sqrt(1.075),
)

# Uniform chain, n = 2, omega = 1, c = 1: levels up to two phonons.
ENERGIES_CONSTANT_N2_C1 = (
    1.7071067811865475,
    3.1213203435596424,
    3.707106781186547,
    4.535533905932738,
    5.121320343559642,
    5.707106781186547,
)

# True positive-definiteness flip points (smallest eigenvalue sign change).
FLIP_DUALQ_Q07_N12 = 0.020172136479238427
FLIP_DUALQ_Q16_N12 = 1.0057168383497683

# Hahn alpha -> infinity approach to the Krawtchouk chain (n = 12, c = 0.18).
HAHN_1E6_VS_KRAWTCHOUK_REL = 2.5e-06


def enumerate_levels_reference(chain, max_total: int) -> tuple:
    """Levels of all occupation vectors with at most max_total phonons,
    enumerated one tuple at a time.  The energy sum is an explicit
    left-to-right loop: from Python 3.12 the built-in sum() of floats is
    compensated and no longer gives these bits."""
    n = chain.n
    spectrum = mode_frequencies(chain)
    ground = ground_energy(chain, spectrum)
    states = []
    for total in range(max_total + 1):
        for modes in combinations_with_replacement(range(n), total):
            k = [0] * n
            for m in modes:
                k[m] += 1
            acc = 0.0
            for w, kj in zip(spectrum.omegas, k):
                acc += w * kj
            states.append((ground + chain.hbar * acc, tuple(k)))
    states.sort()
    tol = GROUP_RTOL * chain.hbar * chain.omega
    groups = []
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


def occupation_columns_reference(n: int, max_total: int) -> np.ndarray:
    """The C(n + K, K) occupation vectors with at most K = max_total
    phonons, in lexicographic order, as the columns of an n x C(n + K, K)
    array of dtype min_scalar_type(K), whose row j is the column of mode j.

    Mode j extends each prefix that has used u phonons by k_j = 0..K - u.
    A prefix of modes 0..j that leaves r phonons heads a block of
    C(m + r, m) vectors, m = n - j - 1 being the modes left, so row j is
    each prefix's k_j repeated that often."""
    count = math.comb(n + max_total, max_total)
    columns = np.empty((n, count), dtype=np.min_scalar_type(max_total))
    used = np.zeros(1, dtype=np.int32)
    for j, row in enumerate(columns):
        width = max_total + 1 - used
        parent = np.repeat(np.arange(used.size, dtype=np.int32), width)
        k = np.arange(parent.size, dtype=np.int32)
        k -= (np.cumsum(width, dtype=np.int32) - width)[parent]
        used = used[parent] + k
        m = n - j - 1
        ways = np.array([math.comb(m + r, m) for r in range(max_total, -1, -1)])
        row[:] = np.repeat(k, ways[used])
    return columns
