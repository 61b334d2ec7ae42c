"""Discrete orthogonal polynomial families on finite lattices.

Three families are provided, each orthogonal with respect to a positive
measure on the integer lattice x = 0..N:

  * Krawtchouk        K_i(x; p, N)
  * Hahn              Q_i(x; alpha, beta, N)
  * dual q-Krawtchouk K_i(lambda(x); cbar, q, N), lambda(x) = q^-x + cbar q^(x-N)

Every family is evaluated through two independent routes: its terminating
hypergeometric series (the reference), summed term by term with the
compensated sum up to degree d = min(i, x), and the three-term recurrence
built from the bidiagonal factor pair (B, D).  Weights and norms are
computed in cancelled product forms that avoid removable singularities and
spurious overflow on all valid parameter branches.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import DegreeOutOfRange, InvalidParams

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _check_count(n, what: str) -> None:
    """Raise InvalidParams unless n is an integer >= 0 (a bool is not one).
    A plain int, the common case, skips the type test."""
    if type(n) is not int and (
        isinstance(n, bool) or not isinstance(n, numbers.Integral)
    ):
        raise InvalidParams(f"{what} must be an integer, got {n!r}")
    if n < 0:
        raise InvalidParams(f"{what} must be >= 0, got {n}")


@dataclass(frozen=True)
class KrawtchoukParams:
    """Krawtchouk family on 0..N with success probability p in (0, 1)."""

    N: int
    p: float

    def __post_init__(self):
        _check_count(self.N, "lattice size N")
        if not (0.0 < self.p < 1.0):
            raise InvalidParams(f"p must lie in (0, 1), got {self.p}")


@dataclass(frozen=True)
class HahnParams:
    """Hahn family on 0..N.

    Valid parameter branches (positive measure):
      alpha > -1 and beta > -1, or alpha < -N and beta < -N.
    """

    N: int
    alpha: float
    beta: float

    def __post_init__(self):
        _check_count(self.N, "lattice size N")
        a, b = self.alpha, self.beta
        if not (math.isfinite(a) and math.isfinite(b)):
            raise InvalidParams(f"(alpha, beta) = ({a}, {b}) must be finite")
        positive = a > -1.0 and b > -1.0
        negative = a < -self.N and b < -self.N
        if not (positive or negative):
            raise InvalidParams(
                f"(alpha, beta) = ({a}, {b}) lies outside both valid branches "
                f"for N = {self.N}"
            )


@dataclass(frozen=True)
class DualQKrawtchoukParams:
    """Dual q-Krawtchouk family on 0..N with cbar < 0 and q > 0, q != 1."""

    N: int
    cbar: float
    q: float

    def __post_init__(self):
        _check_count(self.N, "lattice size N")
        if not -math.inf < self.cbar < 0.0:
            raise InvalidParams(f"cbar must be negative and finite, got {self.cbar}")
        if not (0.0 < self.q < math.inf and self.q != 1.0):
            raise InvalidParams(f"q must be positive, finite and != 1, got {self.q}")
        # q^N and q^-N both appear in the lattice and the bidiagonal pair.
        if self.N * abs(math.log(self.q)) >= _LOG_FLOAT_MAX:
            raise InvalidParams(
                f"q = {self.q} with N = {self.N} is out of float range: "
                f"N |ln q| must be below {_LOG_FLOAT_MAX:.6g}"
            )


FamilyParams = Union[KrawtchoukParams, HahnParams, DualQKrawtchoukParams]


def _check_degree(fp: FamilyParams, i: int, what: str = "degree") -> None:
    """Raise InvalidParams unless i is an integer (a bool is not one) and
    DegreeOutOfRange unless 0 <= i <= N.  A plain int, the common case,
    skips the type test."""
    if type(i) is not int and (
        isinstance(i, bool) or not isinstance(i, numbers.Integral)
    ):
        raise InvalidParams(f"{what} must be an integer, got {i!r}")
    if not 0 <= i <= fp.N:
        raise DegreeOutOfRange(f"{what} {i} outside 0..{fp.N}")


@dataclass(frozen=True)
class LatticePoint:
    """A lattice node x together with its real evaluation coordinate.

    For Krawtchouk and Hahn the coordinate is x itself; for dual
    q-Krawtchouk it is lambda(x) = q^-x + cbar q^(x-N).  The evaluators
    read only x; value is for callers that need the coordinate.
    """

    x: int
    value: float


def lattice_point(fp: FamilyParams, x: int) -> LatticePoint:
    """Build the lattice point at node x for the given family.  Raises
    InvalidParams unless x is an integer and DegreeOutOfRange outside
    0..N, as every evaluator does for its degree and node."""
    _check_degree(fp, x, "lattice node")
    if isinstance(fp, DualQKrawtchoukParams):
        value = fp.q ** (-x) + fp.cbar * fp.q ** (x - fp.N)
    else:
        value = float(x)
    return LatticePoint(x=x, value=value)


def lattice(fp: FamilyParams) -> tuple[LatticePoint, ...]:
    """All N+1 lattice points of the family, in node order."""
    return tuple(lattice_point(fp, x) for x in range(fp.N + 1))


def pochhammer(a: float, n: int) -> float:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1.
    Raises InvalidParams unless n is an integer >= 0."""
    _check_count(n, "order n")
    out = 1.0
    for m in range(n):
        out *= a + m
    return out


def q_pochhammer(a: float, q: float, n: int) -> float:
    """q-shifted factorial (a; q)_n = prod_{m=0}^{n-1} (1 - a q^m).
    Raises InvalidParams unless n is an integer >= 0."""
    _check_count(n, "order n")
    out = 1.0
    for m in range(n):
        out *= 1.0 - a * q**m
    return out


def _neumaier_sum(terms: Sequence[float]) -> float:
    """Compensated summation; accurate for strongly cancelling series."""
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


def family_eval(fp: FamilyParams, i: int, point: LatticePoint) -> float:
    """Reference value of the degree-i family polynomial at a lattice point:
    its terminating hypergeometric series, summed term by term up to
    degree d = min(i, x) with the compensated sum.  On every valid family
    d is where the series terminates: no other numerator factor vanishes
    sooner, and no denominator factor vanishes within it."""
    _check_degree(fp, i)
    _check_degree(fp, point.x, "lattice node")
    x, N = point.x, fp.N
    terms = [1.0]
    term = 1.0
    if isinstance(fp, DualQKrawtchoukParams):
        # 3phi2(q^-i, q^-x, cbar q^(x-N); q^-N, 0; q, q): the zero
        # denominator parameter contributes (0; q)_k = 1.
        q = fp.q
        numerator = (q ** (-i), q ** (-x), fp.cbar * q ** (x - N))
        q_N = q ** (-N)
        for k in range(min(i, x)):
            qk = q**k
            ratio = q
            for a in numerator:
                ratio *= 1.0 - a * qk
            ratio /= 1.0 - q_N * qk
            ratio /= 1.0 - q ** (k + 1)
            term *= ratio
            terms.append(term)
        return _neumaier_sum(terms)
    if isinstance(fp, KrawtchoukParams):
        # 2F1(-i, -x; -N; 1/p)
        numerator, denominator, z = (float(-i), float(-x)), (float(-N),), 1.0 / fp.p
    else:
        # 3F2(-i, i + alpha + beta + 1, -x; alpha + 1, -N; 1)
        a, b = fp.alpha, fp.beta
        numerator = (float(-i), i + a + b + 1.0, float(-x))
        denominator = (a + 1.0, float(-N))
        z = 1.0
    for k in range(min(i, x)):
        ratio = z / (k + 1)
        for top in numerator:
            ratio *= top + k
        for bottom in denominator:
            ratio /= bottom + k
        term *= ratio
        terms.append(term)
    return _neumaier_sum(terms)


def bidiagonal_split(fp: FamilyParams) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Factor pair (B, D) of the three-term recurrence

        B_i P_{i+1} = (B_i + D_i - kappa(x)) P_i - D_i P_{i-1}

    with B_N = D_0 = 0 and B_{i-1} D_i > 0 for 0 < i <= N on every valid
    parameter branch, so the Jacobi off-diagonals sqrt(B_{i-1} D_i) are
    real.  The signs themselves vary: for dual q-Krawtchouk with q < 1 both
    B_i (i < N) and D_i (i > 0) are negative.  kappa is the node x for
    Krawtchouk and Hahn and mu(x) = (1 - q^-x)(1 - cbar q^(x-N)) for dual
    q-Krawtchouk.
    """
    N = fp.N
    if isinstance(fp, KrawtchoukParams):
        p = fp.p
        B = tuple(p * (N - i) for i in range(N + 1))
        D = tuple(i * (1.0 - p) for i in range(N + 1))
        return B, D
    if isinstance(fp, HahnParams):
        a, b = fp.alpha, fp.beta
        B = []
        D = []
        for i in range(N + 1):
            # Endpoint forms are the interior formulas with their vanishing
            # factor cancelled; they bypass removable 0/0 points such as
            # alpha + beta + 1 = 0.  At N = 0 the single lattice point has
            # B_0 = 0, also where alpha + beta + 2 = 0.
            if i == 0:
                B.append((a + 1.0) * N / (a + b + 2.0) if N else 0.0)
                D.append(0.0)
            elif i == N:
                B.append(0.0)
                D.append(N * (N + b) / (2.0 * N + a + b))
            else:
                B.append(
                    (i + a + b + 1.0) * (i + a + 1.0) * (N - i)
                    / ((2.0 * i + a + b + 1.0) * (2.0 * i + a + b + 2.0))
                )
                D.append(
                    i * (i + a + b + N + 1.0) * (i + b)
                    / ((2.0 * i + a + b) * (2.0 * i + a + b + 1.0))
                )
        return tuple(B), tuple(D)
    q, cbar = fp.q, fp.cbar
    B = tuple(1.0 - q ** (i - N) for i in range(N + 1))
    D = tuple(cbar * q ** (-N) * (1.0 - q**i) for i in range(N + 1))
    return B, D


def _kappa(fp: FamilyParams, x: int) -> float:
    """Recurrence coordinate of lattice node x."""
    if isinstance(fp, DualQKrawtchoukParams):
        q, cbar, N = fp.q, fp.cbar, fp.N
        return (1.0 - q ** (-x)) * (1.0 - cbar * q ** (x - N))
    return float(x)


def recurrence_eval(fp: FamilyParams, i: int, point: LatticePoint) -> float:
    """Value of the degree-i family polynomial by upward three-term
    recurrence from degree 0; the P_{-1} coefficient D_0 is zero."""
    _check_degree(fp, i)
    _check_degree(fp, point.x, "lattice node")
    B, D = bidiagonal_split(fp)
    kap = _kappa(fp, point.x)
    prev, cur = 0.0, 1.0
    for m in range(i):
        prev, cur = cur, ((B[m] + D[m] - kap) * cur - D[m] * prev) / B[m]
    return cur


def _hahn_branch_sign(fp: HahnParams) -> float:
    # On the alpha, beta < -N branch the raw weight and norm products both
    # carry the sign (-1)^N; flipping both keeps the measure positive and
    # the orthogonality relation intact.
    if fp.alpha < -fp.N:
        return -1.0 if fp.N % 2 else 1.0
    return 1.0


def _in_float_range(name: str, compute, fp: FamilyParams, index: int) -> float:
    """compute(fp, index), or InvalidParams where the result leaves float
    range: as a raw OverflowError of an integer factor, or as inf or nan."""
    try:
        value = compute(fp, index)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise InvalidParams(f"{name} of {fp} at {index} is outside float range")
    return value


def weight(fp: FamilyParams, x: int) -> float:
    """Orthogonality weight w(x) > 0 at lattice node x.  Raises
    InvalidParams where it leaves float range."""
    _check_degree(fp, x, "lattice node")
    return _in_float_range("weight", _weight, fp, x)


def _weight(fp: FamilyParams, x: int) -> float:
    N = fp.N
    if isinstance(fp, KrawtchoukParams):
        p = fp.p
        return math.comb(N, x) * p**x * (1.0 - p) ** (N - x)
    if isinstance(fp, HahnParams):
        a, b = fp.alpha, fp.beta
        w = (
            pochhammer(a + 1.0, x) / math.factorial(x)
            * pochhammer(b + 1.0, N - x) / math.factorial(N - x)
        )
        return _hahn_branch_sign(fp) * w
    q, cbar = fp.q, fp.cbar
    out = 1.0
    for m in range(x):
        out *= (
            (1.0 - cbar * q ** (m - N)) * (1.0 - q ** (m - N))
            / ((1.0 - q ** (m + 1)) * (1.0 - cbar * q ** (m + 1)))
            * q ** (2 * N - 2 * m - 1) / cbar
        )
    return out * (1.0 - cbar * q ** (2 * x - N)) / (1.0 - cbar * q ** (-N))


def norm(fp: FamilyParams, i: int) -> float:
    """Squared norm h_i > 0 of the degree-i polynomial:
    sum_x w(x) P_i(x)^2 = h_i.  Raises InvalidParams where it leaves float
    range, including an underflow to 0 (orthonormal_eval divides by it)."""
    _check_degree(fp, i)
    h = _in_float_range("norm", _norm, fp, i)
    if not h > 0.0:
        raise InvalidParams(f"norm of {fp} at {i} is outside float range")
    return h


def _norm(fp: FamilyParams, i: int) -> float:
    N = fp.N
    if isinstance(fp, KrawtchoukParams):
        p = fp.p
        return ((1.0 - p) / p) ** i / math.comb(N, i)
    if isinstance(fp, HahnParams):
        a, b = fp.alpha, fp.beta
        # Cancelled form: the textbook denominator (2i + a + b + 1) is the
        # m = i factor of (i + a + b + 1)_{N+1}, so skipping that factor
        # removes the 0/0 at e.g. a = b = -1/2, i = 0.
        h = math.factorial(i) * math.factorial(N - i) / math.factorial(N) ** 2
        for m in range(1, i + 1):
            h *= (b + m) / (a + m)
        for m in range(N + 1):
            if m != i:
                h *= i + a + b + 1.0 + m
        return _hahn_branch_sign(fp) * h
    q, cbar = fp.q, fp.cbar
    h = q_pochhammer(1.0 / cbar, q, N)
    for m in range(1, i + 1):
        h *= (1.0 - q**m) * cbar * q ** (-N) / (1.0 - q ** (m - 1 - N))
    return h


def orthonormal_eval(fp: FamilyParams, i: int, point: LatticePoint) -> float:
    """Orthonormal value sqrt(w(x) / h_i) * P_i(x); as a matrix over
    (x, i) these values form an orthogonal matrix."""
    return math.sqrt(weight(fp, point.x) / norm(fp, i)) * family_eval(fp, i, point)
