"""Discrete orthogonal polynomial families on finite lattices.

Three families are provided, each orthogonal with respect to a positive
measure on the integer lattice x = 0..N:

  * Krawtchouk        K_i(x; p, N)
  * Hahn              Q_i(x; alpha, beta, N)
  * dual q-Krawtchouk K_i(lambda(x); cbar, q, N), lambda(x) = q^-x + cbar q^(x-N)

Every family is evaluated through two independent routes: a terminating
hypergeometric series (the reference) and the three-term recurrence built
from the bidiagonal factor pair (B, D).  Weights and norms are computed in
cancelled product forms that avoid removable singularities and spurious
overflow on all valid parameter branches.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import (
    DegreeOutOfRange,
    DenominatorPole,
    InvalidParams,
    NonTerminating,
)

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class KrawtchoukParams:
    """Krawtchouk family on 0..N with success probability p in (0, 1)."""

    N: int
    p: float

    def __post_init__(self):
        if self.N < 0:
            raise InvalidParams(f"lattice size N must be >= 0, got {self.N}")
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
        if self.N < 0:
            raise InvalidParams(f"lattice size N must be >= 0, got {self.N}")
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
        if self.N < 0:
            raise InvalidParams(f"lattice size N must be >= 0, got {self.N}")
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


@dataclass(frozen=True)
class LatticePoint:
    """A lattice node x together with its real evaluation coordinate.

    For Krawtchouk and Hahn the coordinate is x itself; for dual
    q-Krawtchouk it is lambda(x) = q^-x + cbar q^(x-N).
    """

    x: int
    value: float


def lattice_point(fp: FamilyParams, x: int) -> LatticePoint:
    """Build the lattice point at node x for the given family."""
    if not 0 <= x <= fp.N:
        raise DegreeOutOfRange(f"lattice node {x} outside 0..{fp.N}")
    if isinstance(fp, DualQKrawtchoukParams):
        value = fp.q ** (-x) + fp.cbar * fp.q ** (x - fp.N)
    else:
        value = float(x)
    return LatticePoint(x=x, value=value)


def lattice(fp: FamilyParams) -> tuple[LatticePoint, ...]:
    """All N+1 lattice points of the family, in node order."""
    return tuple(lattice_point(fp, x) for x in range(fp.N + 1))


def pochhammer(a: float, n: int) -> float:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1."""
    out = 1.0
    for m in range(n):
        out *= a + m
    return out


def q_pochhammer(a: float, q: float, n: int) -> float:
    """q-shifted factorial (a; q)_n = prod_{m=0}^{n-1} (1 - a q^m)."""
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


def _is_nonpositive_int(a: float) -> bool:
    return a <= 0.0 and a == round(a)


def terminating_hypergeometric(
    numerator: Sequence[float], denominator: Sequence[float], z: float
) -> float:
    """Sum of the hypergeometric series with term ratio

        term_{k+1} / term_k = z * prod(a_j + k) / (prod(b_l + k) * (k + 1)).

    At least one numerator parameter must be a non-positive integer; the sum
    terminates at degree d = min over such parameters of -a.  Raises
    NonTerminating otherwise, and DenominatorPole when a denominator
    Pochhammer factor vanishes at or before degree d.
    """
    degrees = [int(-a) for a in numerator if _is_nonpositive_int(a)]
    if not degrees:
        raise NonTerminating(f"no non-positive integer among {tuple(numerator)}")
    d = min(degrees)
    for b in denominator:
        if _is_nonpositive_int(b) and 1 - int(b) <= d:
            raise DenominatorPole(
                f"denominator parameter {b} vanishes within degree {d}"
            )
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
    return _neumaier_sum(terms)


def _q_log_index(a: float, q: float) -> int | None:
    """Exact m >= 0 with a == q**(-m), or None."""
    if a <= 0.0:
        return None
    est = round(-math.log(a) / math.log(q))
    for m in (est - 1, est, est + 1):
        if m >= 0 and q ** (-m) == a:
            return m
    return None


def terminating_basic_hypergeometric(
    numerator: Sequence[float], denominator: Sequence[float], q: float, z: float
) -> float:
    """Sum of the basic (q-)hypergeometric series with term ratio

        term_{k+1} / term_k = z * prod(1 - a_j q^k)
                              / (prod(1 - b_l q^k) * (1 - q^{k+1})).

    A denominator parameter equal to 0 contributes the constant factor 1.
    At least one numerator parameter must equal q^-m for an integer m >= 0;
    the sum terminates at degree d = min such m.  Raises NonTerminating
    otherwise, and DenominatorPole when a denominator q-Pochhammer factor
    vanishes at or before degree d.
    """
    degrees = [m for a in numerator if (m := _q_log_index(a, q)) is not None]
    if not degrees:
        raise NonTerminating(
            f"no parameter of the form q^-m among {tuple(numerator)}"
        )
    d = min(degrees)
    for b in denominator:
        if b == 0.0:
            continue
        m = _q_log_index(b, q)
        if m is not None and m <= d - 1:
            raise DenominatorPole(
                f"denominator parameter {b} vanishes within degree {d}"
            )
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
    return _neumaier_sum(terms)


def _check_degree(fp: FamilyParams, i: int) -> None:
    if not 0 <= i <= fp.N:
        raise DegreeOutOfRange(f"degree {i} outside 0..{fp.N}")


def family_eval(fp: FamilyParams, i: int, point: LatticePoint) -> float:
    """Reference value of the degree-i family polynomial at a lattice point,
    computed from its terminating hypergeometric series."""
    _check_degree(fp, i)
    _check_degree(fp, point.x)
    x, N = point.x, fp.N
    if isinstance(fp, KrawtchoukParams):
        return terminating_hypergeometric(
            (float(-i), float(-x)), (float(-N),), 1.0 / fp.p
        )
    if isinstance(fp, HahnParams):
        a, b = fp.alpha, fp.beta
        return terminating_hypergeometric(
            (float(-i), i + a + b + 1.0, float(-x)),
            (a + 1.0, float(-N)),
            1.0,
        )
    q, cbar = fp.q, fp.cbar
    return terminating_basic_hypergeometric(
        (q ** (-i), q ** (-x), cbar * q ** (x - N)),
        (q ** (-N), 0.0),
        q,
        q,
    )


def bidiagonal_split(fp: FamilyParams) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Factor pair (B, D) of the three-term recurrence

        B_i P_{i+1} = (B_i + D_i - kappa(x)) P_i - D_i P_{i-1}

    with B_N = D_0 = 0, B_i > 0 for i < N and D_i > 0 for i > 0 on every
    valid parameter branch.  kappa is the node x for Krawtchouk and Hahn and
    mu(x) = (1 - q^-x)(1 - cbar q^(x-N)) for dual q-Krawtchouk.
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


def _kappa(fp: FamilyParams, point: LatticePoint) -> float:
    if isinstance(fp, DualQKrawtchoukParams):
        q, cbar, N = fp.q, fp.cbar, fp.N
        x = point.x
        return (1.0 - q ** (-x)) * (1.0 - cbar * q ** (x - N))
    return float(point.x)


def recurrence_eval(fp: FamilyParams, i: int, point: LatticePoint) -> float:
    """Value of the degree-i family polynomial by upward three-term
    recurrence from degree 0; the P_{-1} coefficient D_0 is zero."""
    _check_degree(fp, i)
    _check_degree(fp, point.x)
    B, D = bidiagonal_split(fp)
    kap = _kappa(fp, point)
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
    if not 0 <= x <= fp.N:
        raise DegreeOutOfRange(f"lattice node {x} outside 0..{fp.N}")
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
    range."""
    _check_degree(fp, i)
    return _in_float_range("norm", _norm, fp, i)


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
