"""Tests for the discrete orthogonal polynomial module.

Exact-rational oracles (tests/oracles.py) pin the series values, weights,
norms and the orthogonality relations; float paths are then compared
against the exact values, and the series/recurrence pair is cross-checked
under a first-order rounding-error budget.
"""

import math
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from chain_spectra.errors import DegreeOutOfRange, InvalidParams
from chain_spectra.jacobi import ConstantParams
from chain_spectra.polynomials import (
    DualQKrawtchoukParams,
    HahnParams,
    KrawtchoukParams,
    LatticePoint,
    bidiagonal_split,
    family_eval,
    lattice,
    lattice_point,
    norm,
    orthonormal_eval,
    pochhammer,
    q_pochhammer,
    recurrence_eval,
    weight,
)

EPS = 2.0 ** -52
EXACT_REL = 1e-12
ORTHO_TOL = 1e-10


def _float_params(family, kw, N):
    if family == "krawtchouk":
        return KrawtchoukParams(N=N, p=float(kw["p"]))
    if family == "hahn":
        return HahnParams(N=N, alpha=float(kw["a"]), beta=float(kw["b"]))
    return DualQKrawtchoukParams(N=N, cbar=float(kw["cbar"]), q=float(kw["q"]))


def _exact_eval(family, kw, N, i, x):
    if family == "krawtchouk":
        return oracles.exact_krawtchouk(i, x, kw["p"], N)
    if family == "hahn":
        return oracles.exact_hahn(i, x, kw["a"], kw["b"], N)
    return oracles.exact_dualq(i, x, kw["cbar"], kw["q"], N)


def _exact_weight(family, kw, N, x):
    if family == "krawtchouk":
        return oracles.exact_krawtchouk_weight(x, kw["p"], N)
    if family == "hahn":
        return oracles.exact_hahn_weight(x, kw["a"], kw["b"], N)
    return oracles.exact_dualq_weight(x, kw["cbar"], kw["q"], N)


def _exact_norm(family, kw, N, i):
    if family == "krawtchouk":
        return oracles.exact_krawtchouk_norm(i, kw["p"], N)
    if family == "hahn":
        return oracles.exact_hahn_norm(i, kw["a"], kw["b"], N)
    return oracles.exact_dualq_norm(i, kw["cbar"], kw["q"], N)


# -- scalar kernels ---------------------------------------------------------


def test_pochhammer_basics():
    assert pochhammer(7.3, 0) == 1.0
    assert pochhammer(3.0, 4) == 360.0
    assert pochhammer(-2.0, 4) == 0.0
    assert pochhammer(0.5, 2) == 0.75
    # (a)_-1 = 1/(a - 1), not the empty product
    with pytest.raises(InvalidParams, match="order n must be >= 0"):
        pochhammer(3.0, -1)


def test_q_pochhammer_basics():
    assert q_pochhammer(5.0, 0.7, 0) == 1.0
    assert q_pochhammer(1.0, 0.7, 3) == 0.0
    assert q_pochhammer(2.0, 2.0, 2) == 3.0
    with pytest.raises(InvalidParams, match="order n must be >= 0"):
        q_pochhammer(2.0, 2.0, -1)


def test_gauss_kernel_values():
    # degree-1 Krawtchouk at p = 1/2
    fp = KrawtchoukParams(N=2, p=0.5)
    assert family_eval(fp, 1, lattice_point(fp, 1)) == 0.0


def test_basic_kernel_values():
    # degree-1 dual q-Krawtchouk at x = 0
    fp = DualQKrawtchoukParams(N=2, cbar=-1.0, q=2.0)
    assert family_eval(fp, 1, lattice_point(fp, 0)) == 1.0


# -- parameter validation and ranges ----------------------------------------


def test_invalid_params():
    with pytest.raises(InvalidParams):
        KrawtchoukParams(N=-1, p=0.5)
    with pytest.raises(InvalidParams):
        KrawtchoukParams(N=3, p=0.0)
    with pytest.raises(InvalidParams):
        KrawtchoukParams(N=3, p=1.0)
    with pytest.raises(InvalidParams):
        HahnParams(N=3, alpha=-1.0, beta=0.5)
    with pytest.raises(InvalidParams):
        HahnParams(N=3, alpha=-2.0, beta=-2.0)  # between the two branches
    with pytest.raises(InvalidParams):
        HahnParams(N=2, alpha=0.5, beta=-2.5)  # branches must agree
    with pytest.raises(InvalidParams):
        DualQKrawtchoukParams(N=2, cbar=0.0, q=2.0)
    with pytest.raises(InvalidParams):
        DualQKrawtchoukParams(N=2, cbar=1.0, q=2.0)
    with pytest.raises(InvalidParams):
        DualQKrawtchoukParams(N=2, cbar=-1.0, q=1.0)
    with pytest.raises(InvalidParams):
        DualQKrawtchoukParams(N=2, cbar=-1.0, q=0.0)
    for bad in (
        lambda: HahnParams(N=3, alpha=math.inf, beta=math.inf),
        lambda: HahnParams(N=3, alpha=0.5, beta=math.nan),
        lambda: HahnParams(N=3, alpha=-math.inf, beta=-math.inf),
        lambda: DualQKrawtchoukParams(N=2, cbar=-math.inf, q=2.0),
        lambda: DualQKrawtchoukParams(N=0, cbar=-1.0, q=math.inf),
        lambda: DualQKrawtchoukParams(N=2, cbar=-1.0, q=math.nan),
        # q^N leaves the float range once N |ln q| reaches ln(float max)
        lambda: DualQKrawtchoukParams(N=199, cbar=-1.0, q=0.001),
        lambda: DualQKrawtchoukParams(N=1024, cbar=-1.0, q=2.0),
        lambda: DualQKrawtchoukParams(N=1024, cbar=-1.0, q=0.5),
    ):
        with pytest.raises(InvalidParams):
            bad()
    DualQKrawtchoukParams(N=1023, cbar=-1.0, q=2.0)
    DualQKrawtchoukParams(N=1023, cbar=-1.0, q=0.5)
    # single-point lattice is allowed
    assert lattice(KrawtchoukParams(N=0, p=0.5)) == (lattice_point(KrawtchoukParams(N=0, p=0.5), 0),)


@pytest.mark.parametrize("N", [2.5, 2.0, True, "3", None, -1])
@pytest.mark.parametrize(
    "make",
    [
        lambda N: KrawtchoukParams(N=N, p=0.5),
        lambda N: HahnParams(N=N, alpha=0.5, beta=0.5),
        lambda N: DualQKrawtchoukParams(N=N, cbar=-1.0, q=2.0),
        lambda N: ConstantParams(N=N),
    ],
    ids=["krawtchouk", "hahn", "qkrawtchouk", "constant"],
)
def test_lattice_size_must_be_an_integer(make, N):
    # A float, a bool or a string N used to pass, or to raise a raw
    # TypeError, before the family could be built.
    with pytest.raises(InvalidParams, match="lattice size N must be"):
        make(N)


def test_degree_and_node_ranges():
    fp = KrawtchoukParams(N=3, p=0.5)
    point = lattice_point(fp, 1)
    for bad in (-1, 4):
        with pytest.raises(DegreeOutOfRange):
            family_eval(fp, bad, point)
        with pytest.raises(DegreeOutOfRange):
            recurrence_eval(fp, bad, point)
        with pytest.raises(DegreeOutOfRange):
            norm(fp, bad)
        with pytest.raises(DegreeOutOfRange):
            weight(fp, bad)
        with pytest.raises(DegreeOutOfRange):
            lattice_point(fp, bad)


@pytest.mark.parametrize("bad", [1.5, 1.0, True, "1", None], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda fp, k: lattice_point(fp, k),
        lambda fp, k: weight(fp, k),
        lambda fp, k: norm(fp, k),
        lambda fp, k: family_eval(fp, k, lattice_point(fp, 1)),
        lambda fp, k: family_eval(fp, 1, LatticePoint(x=k, value=1.0)),
        lambda fp, k: recurrence_eval(fp, k, lattice_point(fp, 1)),
        lambda fp, k: recurrence_eval(fp, 1, LatticePoint(x=k, value=1.0)),
        lambda fp, k: pochhammer(0.5, k),
        lambda fp, k: q_pochhammer(0.5, 0.7, k),
    ],
    ids=["lattice_point", "weight", "norm", "family_eval_degree",
         "family_eval_node", "recurrence_eval_degree", "recurrence_eval_node",
         "pochhammer", "q_pochhammer"],
)
def test_degree_and_node_must_be_integers(call, bad):
    # Unchecked, a float node is evaluated off the lattice, True is taken
    # as node 1 (or order 1) and a string raises a raw TypeError.
    with pytest.raises(InvalidParams, match="must be an integer"):
        call(KrawtchoukParams(N=3, p=0.5), bad)


def test_lattice_values():
    fp = KrawtchoukParams(N=4, p=0.3)
    assert tuple(pt.value for pt in lattice(fp)) == (0.0, 1.0, 2.0, 3.0, 4.0)
    fq = DualQKrawtchoukParams(N=3, cbar=-2.0, q=1.5)
    for x in range(4):
        expected = 1.5 ** -x + (-2.0) * 1.5 ** (x - 3)
        assert lattice_point(fq, x).value == expected


# -- series values against the exact oracles --------------------------------


@pytest.mark.parametrize("family,kw,N", oracles.EXACT_GRIDS)
def test_family_eval_matches_exact_series(family, kw, N):
    fp = _float_params(family, kw, N)
    for x in range(N + 1):
        point = lattice_point(fp, x)
        for i in range(N + 1):
            exact = float(_exact_eval(family, kw, N, i, x))
            got = family_eval(fp, i, point)
            assert got == pytest.approx(exact, rel=EXACT_REL, abs=EXACT_REL * (1 + abs(exact)))


def _series_pin_families():
    for N in range(25):
        for p in (0.1, 0.5, 0.73):
            yield KrawtchoukParams(N=N, p=p)
        # Both Hahn branches; at a = b = -1/2 the parameter i + a + b + 1
        # is 0 at i = 0, and an integer a < -N puts a + 1 on the integers.
        for a, b in ((0.5, 0.5), (-0.5, -0.5), (2.0, -0.3), (-0.9, 3.7),
                     (-N - 1.0, -N - 2.0), (-N - 1.0, -N - 1.5),
                     (-N - 2.25, -N - 0.5)):
            yield HahnParams(N=N, alpha=a, beta=b)
        for q in (0.5, 0.7, 1.6, 2.0, 1.0 - 1e-7, 1.0 + 1e-7):
            for cbar in (-1.0, -0.3, -2.5):
                yield DualQKrawtchoukParams(N=N, cbar=cbar, q=q)


def test_family_eval_matches_frozen_series_bit_for_bit():
    # The frozen summers find the degree and the poles from the
    # parameters; family_eval takes d = min(i, x).  Comparing float.hex
    # also tells signed zeros and NaNs apart.
    mismatches = []
    for fp in _series_pin_families():
        for x in range(fp.N + 1):
            point = lattice_point(fp, x)
            for i in range(fp.N + 1):
                got = family_eval(fp, i, point).hex()
                want = oracles.hypergeometric_series_reference(fp, i, x).hex()
                if got != want:
                    mismatches.append((fp, i, x, got, want))
    assert not mismatches, mismatches[:5]


@pytest.mark.parametrize("family,kw,N", oracles.EXACT_GRIDS)
def test_recurrence_eval_matches_exact_series(family, kw, N):
    fp = _float_params(family, kw, N)
    for x in range(N + 1):
        point = lattice_point(fp, x)
        for i in range(N + 1):
            exact = float(_exact_eval(family, kw, N, i, x))
            got = recurrence_eval(fp, i, point)
            assert got == pytest.approx(exact, rel=EXACT_REL, abs=EXACT_REL * (1 + abs(exact)))


def test_trivial_value_identities():
    fps = (
        KrawtchoukParams(N=6, p=0.3),
        HahnParams(N=5, alpha=0.5, beta=0.5),
        HahnParams(N=4, alpha=-6.5, beta=-6.5),
        DualQKrawtchoukParams(N=6, cbar=-1.0, q=1.6),
    )
    for fp in fps:
        origin = lattice_point(fp, 0)
        for x in range(fp.N + 1):
            assert family_eval(fp, 0, lattice_point(fp, x)) == 1.0
            assert recurrence_eval(fp, 0, lattice_point(fp, x)) == 1.0
        for i in range(fp.N + 1):
            assert family_eval(fp, i, origin) == 1.0


def test_spec_point_values():
    fp = KrawtchoukParams(N=2, p=0.5)
    assert family_eval(fp, 1, lattice_point(fp, 1)) == 0.0
    fh = HahnParams(N=2, alpha=0.5, beta=0.5)
    assert family_eval(fh, 1, lattice_point(fh, 0)) == 1.0


# -- weights and norms -------------------------------------------------------


def test_krawtchouk_weight_norm_frozen():
    fp = KrawtchoukParams(N=2, p=0.5)
    assert tuple(weight(fp, x) for x in range(3)) == (0.25, 0.5, 0.25)
    assert tuple(norm(fp, i) for i in range(3)) == (1.0, 0.5, 1.0)


def test_hahn_weight_frozen():
    fp = HahnParams(N=1, alpha=0.0, beta=0.0)
    assert (weight(fp, 0), weight(fp, 1)) == (1.0, 1.0)


def test_dualq_weight_norm_frozen():
    fp = DualQKrawtchoukParams(N=2, cbar=-1.0, q=2.0)
    for x, expected in enumerate(oracles.DUALQ_N2_Q2_WEIGHTS):
        assert weight(fp, x) == pytest.approx(expected, rel=1e-14)
    for i, expected in enumerate(oracles.DUALQ_N2_Q2_NORMS):
        assert norm(fp, i) == pytest.approx(expected, rel=1e-14)
    f1 = DualQKrawtchoukParams(N=1, cbar=-1.0, q=2.0)
    assert norm(f1, 0) == 2.0


@pytest.mark.parametrize("family,kw,N", oracles.EXACT_GRIDS)
def test_weight_and_norm_match_exact(family, kw, N):
    fp = _float_params(family, kw, N)
    for x in range(N + 1):
        exact = float(_exact_weight(family, kw, N, x))
        assert exact > 0.0
        assert weight(fp, x) == pytest.approx(exact, rel=1e-13)
    for i in range(N + 1):
        exact = float(_exact_norm(family, kw, N, i))
        assert exact > 0.0
        assert norm(fp, i) == pytest.approx(exact, rel=1e-13)


def test_positivity_on_float_grids():
    fps = (
        KrawtchoukParams(N=12, p=0.7),
        HahnParams(N=12, alpha=2.0, beta=2.0),
        HahnParams(N=12, alpha=-14.5, beta=-14.5),
        DualQKrawtchoukParams(N=12, cbar=-1.0, q=0.7),
        DualQKrawtchoukParams(N=12, cbar=-1.0, q=1.3),
    )
    for fp in fps:
        for x in range(fp.N + 1):
            assert weight(fp, x) > 0.0
        for i in range(fp.N + 1):
            assert norm(fp, i) > 0.0


@pytest.mark.parametrize(
    "measure, fp, index",
    [
        (weight, KrawtchoukParams(N=2000, p=0.5), 1000),
        (norm, KrawtchoukParams(N=2000, p=0.5), 1000),
        (weight, HahnParams(N=400, alpha=0.5, beta=0.5), 200),
        (weight, DualQKrawtchoukParams(N=400, cbar=-1.0, q=1.6), 200),
        (norm, DualQKrawtchoukParams(N=400, cbar=-1.0, q=1.6), 200),
        (
            lambda fp, i: orthonormal_eval(fp, i, lattice_point(fp, 10)),
            KrawtchoukParams(N=300, p=0.999),
            200,
        ),
    ],
)
def test_weight_and_norm_outside_float_range_raise_invalid_params(measure, fp, index):
    # The first three overflow in integer binomials and factorials, the
    # dual q-Krawtchouk products reach inf, and the last norm,
    # ((1 - p)/p)^200 / C(300, 200), underflows to 0.
    with pytest.raises(InvalidParams, match="outside float range"):
        measure(fp, index)


def test_norm_equals_brute_force_orthogonality_sum():
    fps = (
        KrawtchoukParams(N=8, p=0.3),
        HahnParams(N=8, alpha=0.5, beta=0.5),
        DualQKrawtchoukParams(N=8, cbar=-1.0, q=1.5),
    )
    for fp in fps:
        pts = lattice(fp)
        for i in range(fp.N + 1):
            brute = sum(weight(fp, pt.x) * family_eval(fp, i, pt) ** 2 for pt in pts)
            assert brute == pytest.approx(norm(fp, i), rel=1e-10)


# -- orthogonality ------------------------------------------------------------


@pytest.mark.parametrize("family,kw,N", oracles.EXACT_GRIDS)
def test_exact_orthogonality(family, kw, N):
    # zero-tolerance rational arithmetic: sum_x w P_i P_j == h_i delta_ij
    for i in range(N + 1):
        for j in range(i, N + 1):
            total = Fr(0)
            for x in range(N + 1):
                total += (
                    _exact_weight(family, kw, N, x)
                    * _exact_eval(family, kw, N, i, x)
                    * _exact_eval(family, kw, N, j, x)
                )
            assert total == (_exact_norm(family, kw, N, i) if i == j else Fr(0))


def test_orthonormal_rows_are_orthonormal():
    fps = (
        KrawtchoukParams(N=8, p=0.3),
        KrawtchoukParams(N=8, p=0.5),
        HahnParams(N=8, alpha=-0.5, beta=-0.5),
        HahnParams(N=8, alpha=2.0, beta=2.0),
        HahnParams(N=6, alpha=-8.5, beta=-8.5),
        DualQKrawtchoukParams(N=8, cbar=-1.0, q=0.5),
        DualQKrawtchoukParams(N=8, cbar=-1.0, q=2.0),
    )
    for fp in fps:
        pts = lattice(fp)
        rows = [
            [orthonormal_eval(fp, i, pt) for pt in pts] for i in range(fp.N + 1)
        ]
        for i in range(fp.N + 1):
            for j in range(fp.N + 1):
                dot = math.fsum(rows[i][x] * rows[j][x] for x in range(fp.N + 1))
                assert abs(dot - (1.0 if i == j else 0.0)) <= ORTHO_TOL, (fp, i, j)


def test_orthonormal_spec_matrices():
    fp = KrawtchoukParams(N=1, p=0.5)
    r = math.sqrt(0.5)
    values = [
        [orthonormal_eval(fp, i, lattice_point(fp, x)) for x in range(2)]
        for i in range(2)
    ]
    assert values[0] == pytest.approx([r, r], rel=1e-15)
    assert values[1] == pytest.approx([r, -r], rel=1e-15)
    fh = HahnParams(N=2, alpha=0.5, beta=0.5)
    pts = lattice(fh)
    rows = [[orthonormal_eval(fh, i, pt) for pt in pts] for i in range(3)]
    for i in range(3):
        for j in range(3):
            dot = math.fsum(rows[i][x] * rows[j][x] for x in range(3))
            assert abs(dot - (1.0 if i == j else 0.0)) <= 1e-12


# -- dual-path agreement under a rounding-error budget ------------------------


def _kappa_value(fp, x):
    if isinstance(fp, DualQKrawtchoukParams):
        return (1.0 - fp.q ** -x) * (1.0 - fp.cbar * fp.q ** (x - fp.N))
    return float(x)


def _recurrence_error_budget(fp, i, x):
    # first-order propagation of rounding errors through the upward
    # three-term recurrence, evaluated alongside the values themselves
    B, D = bidiagonal_split(fp)
    kap = _kappa_value(fp, x)
    pm1, p0 = 0.0, 1.0
    em1, e0 = 0.0, 0.0
    for k in range(i):
        c1 = B[k] + D[k] - kap
        p1 = (c1 * p0 - D[k] * pm1) / B[k]
        e1 = (
            (abs(c1) * e0 + abs(D[k]) * em1) / abs(B[k])
            + EPS * (abs(c1 * p0) + abs(D[k] * pm1)) / abs(B[k])
            + 4.0 * EPS * abs(p1)
        )
        pm1, p0 = p0, p1
        em1, e0 = e0, e1
    return e0


def _series_error_budget(fp, i, x):
    # naive-summation bound: eps * (number of terms) * sum of term magnitudes,
    # with headroom for the per-term products
    d = min(i, x)
    term = 1.0
    total_abs = 1.0
    if isinstance(fp, KrawtchoukParams):
        for k in range(d):
            term *= (k - i) * (k - x) / ((k - fp.N) * (k + 1)) / fp.p
            total_abs += abs(term)
    elif isinstance(fp, HahnParams):
        a, b = fp.alpha, fp.beta
        for k in range(d):
            term *= (
                (k - i) * (k + i + a + b + 1) * (k - x)
                / ((k + a + 1) * (k - fp.N) * (k + 1))
            )
            total_abs += abs(term)
    else:
        q, cbar, N = fp.q, fp.cbar, fp.N
        a1, a2, a3, b1 = q ** -i, q ** -x, cbar * q ** (x - N), q ** -N
        for k in range(d):
            qk = q ** k
            term *= (
                q * (1 - a1 * qk) * (1 - a2 * qk) * (1 - a3 * qk)
                / ((1 - b1 * qk) * (1 - q ** (k + 1)))
            )
            total_abs += abs(term)
    return 8.0 * EPS * (d + 1) * total_abs


def _dual_path_grid():
    fps = []
    for N in (8, 16, 24):
        for p in (0.3, 0.5, 0.7):
            fps.append(KrawtchoukParams(N=N, p=p))
        for a in (-0.5, 0.5, 2.0):
            fps.append(HahnParams(N=N, alpha=a, beta=a))
        fps.append(HahnParams(N=N, alpha=-N - 1.5, beta=-N - 1.5))
        for q in (0.5, 0.9, 1.1, 2.0):
            fps.append(DualQKrawtchoukParams(N=N, cbar=-1.0, q=q))
    return fps


@pytest.mark.parametrize("fp", _dual_path_grid(), ids=str)
def test_dual_path_agreement_within_budget(fp):
    for x in range(fp.N + 1):
        point = lattice_point(fp, x)
        for i in range(fp.N + 1):
            s = family_eval(fp, i, point)
            r = recurrence_eval(fp, i, point)
            budget = 4.0 * (
                _recurrence_error_budget(fp, i, x) + _series_error_budget(fp, i, x)
            )
            tol = max(1e-10 * max(abs(s), abs(r)), budget)
            assert abs(s - r) <= tol, (fp, i, x, abs(s - r), tol)


# -- exact identity between the two evaluation paths --------------------------


def _exact_bidiagonal(family, kw, N):
    if family == "krawtchouk":
        p = kw["p"]
        B = [p * (N - i) for i in range(N + 1)]
        D = [i * (1 - p) for i in range(N + 1)]
        return B, D
    if family == "hahn":
        a, b = kw["a"], kw["b"]
        B, D = [], []
        for i in range(N + 1):
            if i == 0:
                B.append((a + 1) * N / (a + b + 2))
            elif i == N:
                B.append(Fr(0))
            else:
                B.append(
                    (i + a + b + 1) * (i + a + 1) * (N - i)
                    / ((2 * i + a + b + 1) * (2 * i + a + b + 2))
                )
            if i == 0:
                D.append(Fr(0))
            elif i == N:
                D.append(N * (N + b) / (2 * N + a + b))
            else:
                D.append(
                    i * (i + b) * (i + a + b + N + 1)
                    / ((2 * i + a + b) * (2 * i + a + b + 1))
                )
        return B, D
    cbar, q = kw["cbar"], kw["q"]
    B = [1 - q ** (i - N) for i in range(N + 1)]
    D = [cbar * q ** -N * (1 - q ** i) for i in range(N + 1)]
    return B, D


def _exact_kappa(family, kw, N, x):
    if family == "dualq":
        return (1 - kw["q"] ** -x) * (1 - kw["cbar"] * kw["q"] ** (x - N))
    return Fr(x)


@pytest.mark.parametrize("family,kw,N", oracles.EXACT_GRIDS)
def test_exact_series_equals_exact_recurrence(family, kw, N):
    # the three-term recurrence and the hypergeometric series define the
    # same rational function of the parameters: equality is exact
    B, D = _exact_bidiagonal(family, kw, N)
    for x in range(N + 1):
        kap = _exact_kappa(family, kw, N, x)
        pm1, p0 = Fr(0), Fr(1)
        for i in range(N + 1):
            assert p0 == _exact_eval(family, kw, N, i, x)
            if i < N:
                p1 = ((B[i] + D[i] - kap) * p0 - D[i] * pm1) / B[i]
                pm1, p0 = p0, p1


# -- property-based checks -----------------------------------------------------


@st.composite
def _krawtchouk_rationals(draw):
    N = draw(st.integers(min_value=0, max_value=8))
    den = draw(st.integers(min_value=2, max_value=9))
    num = draw(st.integers(min_value=1, max_value=den - 1))
    return N, Fr(num, den)


@given(_krawtchouk_rationals())
@settings(max_examples=60, deadline=None)
def test_property_exact_krawtchouk_dual_path(params):
    N, p = params
    B = [p * (N - i) for i in range(N + 1)]
    D = [i * (1 - p) for i in range(N + 1)]
    for x in range(N + 1):
        pm1, p0 = Fr(0), Fr(1)
        for i in range(N + 1):
            assert p0 == oracles.exact_krawtchouk(i, x, p, N)
            if i < N:
                p1 = ((B[i] + D[i] - x) * p0 - D[i] * pm1) / B[i]
                pm1, p0 = p0, p1


@st.composite
def _any_family(draw):
    kind = draw(st.sampled_from(("krawtchouk", "hahn", "dualq")))
    N = draw(st.integers(min_value=0, max_value=10))
    if kind == "krawtchouk":
        p = draw(st.floats(min_value=0.05, max_value=0.95))
        return KrawtchoukParams(N=N, p=p)
    if kind == "hahn":
        branch = draw(st.booleans())
        if branch:
            a = draw(st.floats(min_value=-0.9, max_value=3.0))
        else:
            a = draw(st.floats(min_value=-N - 4.0, max_value=-N - 1.1))
        return HahnParams(N=N, alpha=a, beta=a)
    q = draw(st.sampled_from((0.5, 0.8, 1.25, 1.7, 2.0)))
    cbar = draw(st.floats(min_value=-3.0, max_value=-0.5))
    return DualQKrawtchoukParams(N=N, cbar=cbar, q=q)


@given(_any_family())
@settings(max_examples=80, deadline=None)
def test_property_structural_identities(fp):
    pts = lattice(fp)
    assert len(pts) == fp.N + 1
    for pt in pts:
        assert family_eval(fp, 0, pt) == 1.0
        assert weight(fp, pt.x) > 0.0
    assert family_eval(fp, fp.N, pts[0]) == 1.0
    for i in range(fp.N + 1):
        assert norm(fp, i) > 0.0


@given(_any_family())
@settings(max_examples=40, deadline=None)
def test_property_small_orthonormal_matrices(fp):
    if fp.N > 6:
        return
    pts = lattice(fp)
    rows = [[orthonormal_eval(fp, i, pt) for pt in pts] for i in range(fp.N + 1)]
    for i in range(fp.N + 1):
        for j in range(fp.N + 1):
            dot = math.fsum(rows[i][x] * rows[j][x] for x in range(fp.N + 1))
            assert abs(dot - (1.0 if i == j else 0.0)) <= 1e-8
