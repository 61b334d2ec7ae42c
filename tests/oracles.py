"""Frozen reference values, exact-rational evaluators and per-family
closed forms for the tests.

The exact evaluators recompute series values, weights and norms in Fraction
arithmetic, independently of the package's float code paths.  The frozen
literals were produced by separate oracle scripts (exact rational sums and
an independent eigensolver) and are pinned here as plain constants.  The
per-family closed forms of the squared mode frequencies and the coupling
bound are written out family by family, in the float operation order whose
bits the CLI payloads carry.
"""

from __future__ import annotations

import math
from fractions import Fraction as Fr

from chain_spectra.chain import (
    ConstantInteraction,
    DualQKrawtchoukInteraction,
    HahnInteraction,
    KrawtchoukInteraction,
)


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


def closed_squares_reference(chain) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Squared mode frequencies of a built-in chain in family order, with
    their family indices."""
    n = chain.n
    w2 = chain.omega**2
    c = chain.coupling
    kind = chain.interaction
    if isinstance(kind, ConstantInteraction):
        squares = tuple(
            w2 + 4.0 * c * math.sin(j * math.pi / (2.0 * (n + 1))) ** 2
            for j in range(1, n + 1)
        )
        return squares, tuple(range(1, n + 1))
    if isinstance(kind, (KrawtchoukInteraction, HahnInteraction)):
        squares = tuple(w2 - c * (n - 2 * j + 1) / 2.0 for j in range(1, n + 1))
        return squares, tuple(range(1, n + 1))
    assert isinstance(kind, DualQKrawtchoukInteraction)
    q = kind.q
    squares = tuple(w2 + c * (q ** (x - n + 1) - q ** (-x)) for x in range(n))
    return squares, tuple(range(n))


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
