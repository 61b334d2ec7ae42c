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

The recurrence pair, weights and norms of the last family used are
memoised, so a table of values computes each of them once.

Its private converters decide, for the whole package, what an integer, a
size and a real number are (README, "Input contract").
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from collections import abc
from dataclasses import dataclass
from typing import Union

from .errors import DegreeOutOfRange, InvalidParams

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# Families whose recurrence pair, weights and norms stay memoised: the one
# in use, whose O(N) floats serve the O(N^2) values of a table of it.
_MEMO_FAMILIES = 1


def _shown(value) -> str:
    """repr of a caller's value for a message.  Where that raises, as it
    does for an int too long for one, an int is shown by its bit length and
    anything else by its type."""
    try:
        return repr(value)
    except Exception:
        if not isinstance(value, int):
            return f"a {type(value).__name__}"
        bound = f"2**{value.bit_length() - 1}"
        return f"-{bound} or less" if value < 0 else f"{bound} or more"


def _as_int(value, what: str) -> int:
    """value as an int (a numpy one would make the values computed from it
    numpy floats).  Raises InvalidParams unless value is an integer (a bool
    is not one).  A plain int, the common case, skips the type test."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParams(f"{what} must be an integer, got {_shown(value)}")
    return int(value)


def _as_count(value, what: str, least: int = 0) -> int:
    """value as an int from least to sys.maxsize, the length of the longest
    sequence Python can build.  Raises InvalidParams unless value is an
    integer (a bool is not one) in that range."""
    value = _as_int(value, what)
    if value < least:
        raise InvalidParams(f"{what} must be >= {least}, got {_shown(value)}")
    if value > sys.maxsize:
        raise InvalidParams(f"{what} must be <= {sys.maxsize}, got {_shown(value)}")
    return value


def _store_size(fp) -> None:
    """Check the lattice size N of the frozen family fp and store it as an
    int."""
    object.__setattr__(fp, "N", _as_count(fp.N, "lattice size N"))


def _is_real(value) -> bool:
    """True for a real number; a bool is not one.  A plain float, the common
    case, skips the type tests."""
    return type(value) is float or (
        not isinstance(value, bool) and isinstance(value, numbers.Real)
    )


def _store_float(obj, name: str) -> float:
    """Store field `name` of the frozen dataclass obj as a float, and return
    it.  Equal objects are then computed in the same arithmetic, whatever
    number types they were built from; an int q would make powers q**k
    exact.  Raises InvalidParams unless the field is a real number (a bool
    is not one) in float range.  A plain float, the common case, skips the
    tests."""
    value = getattr(obj, name)
    if type(value) is not float:
        if not _is_real(value):
            raise InvalidParams(f"{name} must be a real number, got {_shown(value)}")
        try:
            value = float(value)
        except OverflowError:
            raise InvalidParams(f"{name} is outside float range") from None
        object.__setattr__(obj, name, value)
    return value


def _is_sequence(values) -> bool:
    """True for a sequence: a tuple, list or range, or a one-dimensional
    array; not a str."""
    return not isinstance(values, (str, bytes)) and (
        isinstance(values, abc.Sequence) or getattr(values, "ndim", None) == 1
    )


def _float_tuple(values, what: str) -> tuple[float, ...]:
    """values as a tuple of floats.  Raises InvalidParams unless values is
    a sequence (a tuple, list or range, or a one-dimensional array; not a
    str) of real numbers (a bool is not one) in float range.  A tuple of
    plain floats, the common case, is returned as it is."""
    if type(values) is tuple and set(map(type, values)) <= {float}:
        return values
    if not _is_sequence(values):
        raise InvalidParams(
            f"{what} must be a sequence of real numbers, got {type(values).__name__}"
        )
    for x in values:
        if not _is_real(x):
            raise InvalidParams(
                f"every entry of {what} must be a real number, got {_shown(x)}"
            )
    try:
        return tuple(map(float, values))
    except OverflowError:
        raise InvalidParams(f"{what} has an entry outside float range") from None


@dataclass(frozen=True)
class KrawtchoukParams:
    """Krawtchouk family on 0..N with success probability p in (0, 1)."""

    N: int
    p: float

    def __post_init__(self):
        _store_size(self)
        p = _store_float(self, "p")
        if not (0.0 < p < 1.0):
            raise InvalidParams(f"p must lie in (0, 1), got {p}")


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
        _store_size(self)
        a, b = _store_float(self, "alpha"), _store_float(self, "beta")
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
        _store_size(self)
        cbar, q = _store_float(self, "cbar"), _store_float(self, "q")
        if not -math.inf < cbar < 0.0:
            raise InvalidParams(f"cbar must be negative and finite, got {cbar}")
        if not (0.0 < q < math.inf and q != 1.0):
            raise InvalidParams(f"q must be positive, finite and != 1, got {q}")
        # q^N and q^-N both appear in the lattice and the bidiagonal pair.
        if self.N * abs(math.log(q)) >= _LOG_FLOAT_MAX:
            raise InvalidParams(
                f"q = {q} with N = {self.N} is out of float range: "
                f"N |ln q| must be below {_LOG_FLOAT_MAX:.6g}"
            )


FamilyParams = Union[KrawtchoukParams, HahnParams, DualQKrawtchoukParams]


def _check_degree(fp: FamilyParams, i: int, what: str = "degree") -> int:
    """i as an int: raise InvalidParams unless i is an integer (a bool is
    not one) and DegreeOutOfRange unless 0 <= i <= N."""
    i = _as_int(i, what)
    if not 0 <= i <= fp.N:
        raise DegreeOutOfRange(f"{what} {_shown(i)} outside 0..{fp.N}")
    return i


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
    x = _check_degree(fp, x, "lattice node")
    if isinstance(fp, DualQKrawtchoukParams):
        value = fp.q ** (-x) + fp.cbar * fp.q ** (x - fp.N)
    else:
        value = float(x)
    return LatticePoint(x=x, value=value)


def lattice(fp: FamilyParams) -> tuple[LatticePoint, ...]:
    """All N+1 lattice points of the family, in node order."""
    return tuple(lattice_point(fp, x) for x in range(fp.N + 1))


def _pochhammer(a: float, n: int) -> float:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1."""
    out = 1.0
    for m in range(n):
        out *= a + m
    return out


def _q_pochhammer(a: float, q: float, n: int) -> float:
    """q-shifted factorial (a; q)_n = prod_{m=0}^{n-1} (1 - a q^m)."""
    out = 1.0
    for m in range(n):
        out *= 1.0 - a * q**m
    return out


def family_eval(fp: FamilyParams, i: int, point: LatticePoint) -> float:
    """Reference value of the degree-i family polynomial at a lattice point:
    its terminating hypergeometric series, summed term by term up to
    degree d = min(i, x) with Neumaier's compensated sum.  On every valid
    family d is where the series terminates: no other numerator factor
    vanishes sooner, and no denominator factor vanishes within it.  Raises
    InvalidParams where the value leaves float range."""
    N = fp.N
    if type(i) is not int or not 0 <= i <= N:
        i = _check_degree(fp, i)
    x = point.x
    if type(x) is not int or not 0 <= x <= N:
        x = _check_degree(fp, x, "lattice node")
    # One loop per family.  Each step multiplies the term by the ratio of
    # consecutive terms, its factors rounded left to right in a fixed order,
    # and adds it to the compensated sum.  k counts as a float, which is
    # exact and spares an int -> float conversion in every factor.
    total, comp, term, k = 1.0, 0.0, 1.0, 0.0
    if isinstance(fp, KrawtchoukParams):
        # 2F1(-i, -x; -N; 1/p)
        mi, mx, mN, z = float(-i), float(-x), float(-N), 1.0 / fp.p
        for _ in range(min(i, x)):
            term *= z / (k + 1.0) * (mi + k) * (mx + k) / (mN + k)
            k += 1.0
            s = total + term
            if abs(total) >= abs(term):
                comp += (total - s) + term
            else:
                comp += (term - s) + total
            total = s
    elif isinstance(fp, HahnParams):
        # 3F2(-i, i + alpha + beta + 1, -x; alpha + 1, -N; 1)
        a, b = fp.alpha, fp.beta
        mi, top, mx = float(-i), i + a + b + 1.0, float(-x)
        bottom, mN = a + 1.0, float(-N)
        for _ in range(min(i, x)):
            term *= (
                1.0 / (k + 1.0) * (mi + k) * (top + k) * (mx + k)
                / (bottom + k) / (mN + k)
            )
            k += 1.0
            s = total + term
            if abs(total) >= abs(term):
                comp += (total - s) + term
            else:
                comp += (term - s) + total
            total = s
    else:
        # 3phi2(q^-i, q^-x, cbar q^(x-N); q^-N, 0; q, q): the zero
        # denominator parameter contributes (0; q)_k = 1.  Each step's
        # q^(k+1) is the next step's q^k.
        q = fp.q
        qi, qx, cq, q_N = q ** (-i), q ** (-x), fp.cbar * q ** (x - N), q ** (-N)
        qk = 1.0
        for _ in range(min(i, x)):
            qk1 = q ** (k + 1.0)
            term *= (
                q * (1.0 - qi * qk) * (1.0 - qx * qk) * (1.0 - cq * qk)
                / (1.0 - q_N * qk) / (1.0 - qk1)
            )
            qk = qk1
            k += 1.0
            s = total + term
            if abs(total) >= abs(term):
                comp += (total - s) + term
            else:
                comp += (term - s) + total
            total = s
    return _finite_value(total + comp, fp, i, point)


def _finite_value(value: float, fp: FamilyParams, i: int, point: LatticePoint) -> float:
    """value, or InvalidParams where it is inf or nan: parameters such as a
    Hahn alpha + beta beyond float range pass validation, but their series
    and recurrence do not."""
    if not math.isfinite(value):
        raise InvalidParams(
            f"degree-{i} value of {fp} at node {point.x} is outside float range"
        )
    return value


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


class _FamilyMemo:
    """What recurrence_eval, weight and norm have computed for one family:
    its (B_i, D_i) pairs once the recurrence needs them, and the weights and
    norms by node and degree.  A value that raises is not stored."""

    __slots__ = ("pairs", "weights", "norms")

    def __init__(self):
        self.pairs = None
        self.weights: dict[int, float] = {}
        self.norms: dict[int, float] = {}


@functools.lru_cache(maxsize=_MEMO_FAMILIES)
def _memo(fp: FamilyParams) -> _FamilyMemo:
    # Keyed by the family: equal families store equal float parameters, so
    # they compute bit for bit the same values.
    return _FamilyMemo()


def _kappa(fp: FamilyParams, x: int) -> float:
    """Recurrence coordinate of lattice node x."""
    if isinstance(fp, DualQKrawtchoukParams):
        q, cbar, N = fp.q, fp.cbar, fp.N
        return (1.0 - q ** (-x)) * (1.0 - cbar * q ** (x - N))
    return float(x)


def recurrence_eval(fp: FamilyParams, i: int, point: LatticePoint) -> float:
    """Value of the degree-i family polynomial by upward three-term
    recurrence from degree 0; the P_{-1} coefficient D_0 is zero.  Raises
    InvalidParams where the value leaves float range."""
    N = fp.N
    if type(i) is not int or not 0 <= i <= N:
        i = _check_degree(fp, i)
    x = point.x
    if type(x) is not int or not 0 <= x <= N:
        x = _check_degree(fp, x, "lattice node")
    memo = _memo(fp)
    if memo.pairs is None:
        memo.pairs = tuple(zip(*bidiagonal_split(fp)))
    kap = _kappa(fp, x)
    prev, cur = 0.0, 1.0
    for b, d in memo.pairs[:i]:
        prev, cur = cur, ((b + d - kap) * cur - d * prev) / b
    return _finite_value(cur, fp, i, point)


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
    # Any node but an in-range int is checked and made an int: a numpy one
    # would store a numpy float under an int key.
    if type(x) is not int or not 0 <= x <= fp.N:
        x = _check_degree(fp, x, "lattice node")
    weights = _memo(fp).weights
    w = weights.get(x)
    if w is None:
        w = weights[x] = _in_float_range("weight", _weight, fp, x)
    return w


def _weight(fp: FamilyParams, x: int) -> float:
    N = fp.N
    if isinstance(fp, KrawtchoukParams):
        p = fp.p
        return math.comb(N, x) * p**x * (1.0 - p) ** (N - x)
    if isinstance(fp, HahnParams):
        a, b = fp.alpha, fp.beta
        w = (
            _pochhammer(a + 1.0, x) / math.factorial(x)
            * _pochhammer(b + 1.0, N - x) / math.factorial(N - x)
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
    if type(i) is not int or not 0 <= i <= fp.N:
        i = _check_degree(fp, i)
    norms = _memo(fp).norms
    h = norms.get(i)
    if h is None:
        h = _in_float_range("norm", _norm, fp, i)
        if not h > 0.0:
            raise InvalidParams(f"norm of {fp} at {i} is outside float range")
        norms[i] = h
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
    h = _q_pochhammer(1.0 / cbar, q, N)
    for m in range(1, i + 1):
        h *= (1.0 - q**m) * cbar * q ** (-N) / (1.0 - q ** (m - 1 - N))
    return h


def orthonormal_eval(fp: FamilyParams, i: int, point: LatticePoint) -> float:
    """Orthonormal value sqrt(w(x) / h_i) * P_i(x); as a matrix over
    (x, i) these values form an orthogonal matrix."""
    return math.sqrt(weight(fp, point.x) / norm(fp, i)) * family_eval(fp, i, point)
