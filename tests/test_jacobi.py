"""Tests for Jacobi matrix assembly and the two eigendecomposition paths."""

import json
import math
import pathlib
import sys
import tracemalloc
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

import oracles
from chain_spectra import cli, jacobi
from chain_spectra.chain import (
    ChainSpec,
    CustomInteraction,
    assemble_quadratic_form,
    mode_frequencies,
)
from chain_spectra.errors import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidParams,
    NoConvergence,
)
from chain_spectra.jacobi import (
    ConstantParams,
    Origin,
    SymTridiagonal,
    _all_above,
    _interaction_matrix,
    _zero_diagonal_eigenvalues,
    analytic_decomposition,
    build_jacobi,
    decomposition_residuals,
    numeric_decomposition,
    numeric_eigenvalues,
    verify_family,
)
from chain_spectra.polynomials import (
    DualQKrawtchoukParams,
    HahnParams,
    KrawtchoukParams,
    bidiagonal_split,
    lattice,
    orthonormal_eval,
)

ORTHO_TOL = 1e-10
RECON_RTOL = 1e-9
EIG_RTOL = 1e-8
VEC_TOL = 1e-7


def _grid(sizes):
    fams = []
    for N in sizes:
        for p in (0.3, 0.5, 0.7):
            fams.append(KrawtchoukParams(N=N, p=p))
        for a in (-0.5, 0.5, 2.0):
            fams.append(HahnParams(N=N, alpha=a, beta=a))
        fams.append(HahnParams(N=N, alpha=-N - 1.5, beta=-N - 1.5))
        for q in (0.5, 0.7, 0.9, 1.1, 1.6, 2.0):
            fams.append(DualQKrawtchoukParams(N=N, cbar=-1.0, q=q))
        fams.append(ConstantParams(N=N))
    return fams


# -- matrix construction -------------------------------------------------------


def test_symtridiagonal_validation():
    with pytest.raises(DimensionMismatch):
        SymTridiagonal(diag=(1.0, 1.0), offdiag=(0.5, 0.5))
    with pytest.raises(InvalidParams):
        SymTridiagonal(diag=(1.0, 1.0), offdiag=(-0.5,))
    # Non-finite entries are rejected before the QL can divide by them.
    for diag, off in (((math.nan, 1.0), (0.0,)), ((1.0, 1.0), (math.inf,)),
                      ((-math.inf, 1.0), (0.5,))):
        with pytest.raises(InvalidParams):
            SymTridiagonal(diag=diag, offdiag=off)
    m = SymTridiagonal(diag=(2.0, 3.0), offdiag=(0.5,))
    assert m.size == 2
    dense = m.dense()
    assert dense[0, 1] == dense[1, 0] == -0.5
    assert dense[0, 0] == 2.0 and dense[1, 1] == 3.0


def test_symtridiagonal_stores_tuples_of_floats():
    # Lists, ranges, one-dimensional arrays and numpy or Fraction entries
    # are stored as tuples of floats, which the QL and _all_above take.
    from fractions import Fraction

    for diag, off in (
        ([2.0, 2.0, 2.0], [1.0, 1.0]),
        (np.array([2.0, 2.0, 2.0]), np.array([1.0, 1.0])),
        ((2, 2, 2), (np.float64(1.0), Fraction(1))),
    ):
        m = SymTridiagonal(diag, off)
        assert type(m.diag) is tuple and type(m.offdiag) is tuple
        assert all(type(x) is float for x in m.diag + m.offdiag)
        assert m == SymTridiagonal((2.0, 2.0, 2.0), (1.0, 1.0))
    assert SymTridiagonal(range(3), range(1, 3)) == SymTridiagonal((0.0, 1.0, 2.0), (1.0, 2.0))
    assert _all_above(SymTridiagonal([2.0, 2.0], [1.0]), 0.5)
    # Arrays of lengths 2 and 1 were broadcast together into one array.
    m = SymTridiagonal(np.array([1.0, 3.0]), np.array([0.5]))
    assert numeric_eigenvalues(m) == numeric_eigenvalues(SymTridiagonal((1.0, 3.0), (0.5,)))


@pytest.mark.parametrize(
    "diag, off",
    [
        (None, ()),
        ((1.0, 2.0), None),
        (1.0, ()),
        ("12", "3"),
        ({1.0: 0.0}, ()),
        ({1.0, 2.0}, (0.5,)),
        (np.ones((2, 2)), (0.5,)),
        (np.float64(1.0), ()),
        ((1.0, "x"), (1.0,)),
        ((1.0, 2.0), (True,)),
        ((1.0, 1j), (0.5,)),
        ((1.0, None), (0.5,)),
        ((10**400, 1.0), (0.5,)),
    ],
    ids=["diag_none", "offdiag_none", "diag_float", "str", "dict", "set", "2d_array",
         "numpy_scalar", "str_entry", "bool_entry", "complex_entry", "none_entry",
         "int_past_float_range"],
)
def test_symtridiagonal_rejects_what_is_not_a_sequence_of_reals(diag, off):
    # None, a str entry and arrays of lengths 3 and 2 raised a raw
    # TypeError or ValueError; a bool was taken as 1.
    with pytest.raises(InvalidParams):
        SymTridiagonal(diag, off)


def test_build_jacobi_krawtchouk_frozen():
    m = build_jacobi(KrawtchoukParams(N=2, p=0.5))
    assert m.diag == (1.0, 1.0, 1.0)
    assert m.offdiag == pytest.approx((math.sqrt(2) / 2,) * 2, rel=1e-15)


def test_build_jacobi_dualq_frozen():
    m = build_jacobi(DualQKrawtchoukParams(N=2, cbar=-1.0, q=2.0))
    assert m.diag == (0.75, 0.75, 0.75)
    assert m.offdiag == pytest.approx(oracles.DUALQ_N2_Q2_OFFDIAG, rel=1e-15)
    assert m.offdiag == pytest.approx((math.sqrt(3) / 4, math.sqrt(3 / 8)), rel=1e-15)


def test_build_jacobi_constant_frozen():
    m = build_jacobi(ConstantParams(N=3))
    assert m.diag == (2.0, 2.0, 2.0, 2.0)
    assert m.offdiag == (1.0, 1.0, 1.0)


def test_build_jacobi_hahn_frozen():
    m = build_jacobi(HahnParams(N=3, alpha=0.4, beta=-0.4))
    assert m.diag == pytest.approx(oracles.HAHN_04_M04_N3_DIAG, rel=1e-13)
    m = build_jacobi(HahnParams(N=3, alpha=-4.5, beta=-3.5))
    assert m.diag == pytest.approx(oracles.HAHN_M45_M35_N3_DIAG, rel=1e-13)
    m = build_jacobi(HahnParams(N=4, alpha=-0.5, beta=-0.5))
    assert m.diag == pytest.approx(oracles.HAHN_M05_N4_DIAG, rel=1e-13)
    assert tuple(e * e for e in m.offdiag) == pytest.approx(
        oracles.HAHN_M05_N4_OFFDIAG_SQ, rel=1e-13
    )


def test_build_jacobi_matches_bidiagonal_split():
    for fam in _grid((6, 13)):
        if isinstance(fam, ConstantParams):
            continue
        B, D = bidiagonal_split(fam)
        m = build_jacobi(fam)
        assert m.diag == pytest.approx([b + d for b, d in zip(B, D)], rel=1e-15)
        assert m.offdiag == pytest.approx(
            [math.sqrt(B[i - 1] * D[i]) for i in range(1, fam.N + 1)], rel=1e-15
        )


def test_krawtchouk_reflection_symmetry_exact():
    for N in (4, 11, 31):
        off = build_jacobi(KrawtchoukParams(N=N, p=0.5)).offdiag
        for i in range(N):
            assert off[i] == off[N - 1 - i]


def test_constant_params_validation():
    with pytest.raises(InvalidParams):
        ConstantParams(N=-1)


# -- analytic decomposition ----------------------------------------------------


def test_analytic_eigenvalues_are_exact_integers():
    for fam in (
        KrawtchoukParams(N=12, p=0.3),
        KrawtchoukParams(N=12, p=0.5),
        HahnParams(N=12, alpha=0.5, beta=0.5),
        HahnParams(N=12, alpha=-13.5, beta=-13.5),
    ):
        dec = analytic_decomposition(fam)
        assert dec.eigenvalues == tuple(float(j) for j in range(13))
        assert dec.origin is Origin.ANALYTIC


def test_analytic_eigenvalues_dualq():
    fam = DualQKrawtchoukParams(N=2, cbar=-1.0, q=2.0)
    assert analytic_decomposition(fam).eigenvalues == (0.0, 0.75, 1.5)
    fam = DualQKrawtchoukParams(N=9, cbar=-1.0, q=0.7)
    dec = analytic_decomposition(fam)
    for j, lam in enumerate(dec.eigenvalues):
        expected = (1.0 - 0.7 ** -j) * (1.0 + 0.7 ** (j - 9))
        assert lam == pytest.approx(expected, rel=1e-15, abs=1e-300)
    # q < 1 lists eigenvalues in descending family order
    assert list(dec.eigenvalues) == sorted(dec.eigenvalues, reverse=True)


def test_analytic_constant_small():
    dec = analytic_decomposition(ConstantParams(N=1))
    assert dec.eigenvalues == pytest.approx((1.0, 3.0), rel=1e-15)
    r = math.sqrt(0.5)
    assert dec.vectors == pytest.approx(np.array([[r, r], [r, -r]]), rel=1e-14)


def test_analytic_constant_sine_formula():
    N = 7
    dec = analytic_decomposition(ConstantParams(N=N))
    n = N + 1
    for j in range(n):
        assert dec.eigenvalues[j] == pytest.approx(
            2.0 - 2.0 * math.cos((j + 1) * math.pi / (n + 1)), rel=1e-14
        )
        for i in range(n):
            expected = math.sqrt(2.0 / (n + 1)) * math.sin(
                (i + 1) * (j + 1) * math.pi / (n + 1)
            )
            assert dec.vectors[i, j] == pytest.approx(expected, rel=1e-12)


def test_analytic_vectors_equal_orthonormal_values():
    fams = [
        KrawtchoukParams(N=8, p=0.3),
        KrawtchoukParams(N=8, p=0.5),
        KrawtchoukParams(N=8, p=0.7),
        HahnParams(N=8, alpha=-0.5, beta=-0.5),
        HahnParams(N=8, alpha=2.0, beta=2.0),
        HahnParams(N=8, alpha=-9.5, beta=-9.5),
        DualQKrawtchoukParams(N=8, cbar=-1.0, q=1.6),
        DualQKrawtchoukParams(N=8, cbar=-1.0, q=2.0),
    ]
    for fam in fams:
        dec = analytic_decomposition(fam)
        pts = lattice(fam)
        for j, pt in enumerate(pts):
            for i in range(fam.N + 1):
                assert dec.vectors[i, j] == pytest.approx(
                    orthonormal_eval(fam, i, pt), rel=5e-12, abs=5e-12
                ), (fam, i, j)


def test_analytic_vectors_dualq_small_q_row_signs():
    # for q < 1 the bidiagonal factors are negative, so the eigenvectors of
    # the (-E)-signed matrix are the orthonormal values times (-1)^i
    for q in (0.5, 0.7):
        fam = DualQKrawtchoukParams(N=8, cbar=-1.0, q=q)
        dec = analytic_decomposition(fam)
        pts = lattice(fam)
        for j, pt in enumerate(pts):
            for i in range(fam.N + 1):
                expected = (-1.0) ** i * orthonormal_eval(fam, i, pt)
                assert dec.vectors[i, j] == pytest.approx(
                    expected, rel=5e-12, abs=5e-12
                ), (fam, i, j)


def test_analytic_residuals_over_grids():
    for fam in _grid((1, 5, 12, 24, 31)):
        m = build_jacobi(fam)
        dec = analytic_decomposition(fam)
        ortho, recon = decomposition_residuals(m, dec)
        scale = 1.0 + max(abs(x) for x in m.diag + m.offdiag)
        assert ortho <= ORTHO_TOL, (fam, ortho)
        assert recon <= RECON_RTOL * scale, (fam, recon, scale)


def _twisted_kinds(N):
    # Eight kinds whose analytic vectors come from the twisted
    # factorization (the uniform chain's come from the sine form): of K for
    # Krawtchouk p = 1/2, Hahn alpha = beta and dual q-Krawtchouk
    # cbar = -1, of M for the other five.
    return [
        KrawtchoukParams(N=N, p=0.5),
        KrawtchoukParams(N=N, p=0.3),
        HahnParams(N=N, alpha=0.5, beta=0.5),
        HahnParams(N=N, alpha=2.0, beta=-0.5),
        HahnParams(N=N, alpha=-N - 2.5, beta=-N - 1.5),
        DualQKrawtchoukParams(N=N, cbar=-1.0, q=1.6),
        DualQKrawtchoukParams(N=N, cbar=-1.0, q=0.7),
        DualQKrawtchoukParams(N=N, cbar=-2.5, q=2.0),
    ]


# Families whose eigenvector entries span more than float range, so that a
# column found from one end of the matrix would overflow.
_OVERFLOWING = [
    KrawtchoukParams(N=300, p=0.02),
    KrawtchoukParams(N=150, p=0.001),
    DualQKrawtchoukParams(N=48, cbar=-1.0, q=2.0),
]


@pytest.mark.parametrize("fam", _OVERFLOWING)
def test_analytic_columns_stay_unit_where_sum_of_squares_overflows(fam):
    ortho, _ = decomposition_residuals(build_jacobi(fam), analytic_decomposition(fam))
    assert ortho <= 1e-12


@pytest.mark.parametrize(
    "fam",
    [f for N in (0, 1, 2, 5, 12, 31, 63, 127, 255) for f in _twisted_kinds(N)]
    + [
        HahnParams(N=511, alpha=0.5, beta=0.5),
        *_OVERFLOWING,
        # Entries over 10^200 and eigenvalues down to 10^-63: the scaling
        # by a power of two keeps every pivot finite.
        DualQKrawtchoukParams(N=99, cbar=-1.0, q=0.01),
        DualQKrawtchoukParams(N=63, cbar=-1.0, q=10.0),
    ],
    ids=repr,
)
def test_analytic_decomposition_equals_one_at_a_time_reference(fam):
    # Byte for byte against the twisted factorization run one eigenvalue at
    # a time in Python floats, zero pivots (Krawtchouk p = 1/2 at even N,
    # where mu = 0) included.
    got = analytic_decomposition(fam).vectors
    want = oracles.twisted_vectors_reference(fam)
    assert got.tobytes() == want.tobytes(), np.argwhere(got != want)[:5]


_analytic_families = st.one_of(
    st.builds(
        KrawtchoukParams,
        N=st.integers(0, 80),
        p=st.floats(0.001, 0.999),
    ),
    st.builds(
        lambda N, a: HahnParams(N=N, alpha=a, beta=a),
        st.integers(0, 80),
        st.floats(-0.5, 60.0, exclude_min=True, exclude_max=True),
    ),
    st.builds(
        lambda N, a, b: HahnParams(N=N, alpha=a, beta=b),
        st.integers(0, 80),
        st.floats(-0.5, 60.0, exclude_min=True),
        st.floats(-0.5, 60.0, exclude_min=True),
    ),
    st.builds(
        lambda N, q: DualQKrawtchoukParams(N=N, cbar=-1.0, q=q),
        st.integers(0, 80),
        st.floats(0.01, 0.95) | st.floats(1.05, 20.0),
    ),
)


@given(_analytic_families)
@settings(max_examples=100, deadline=None)
def test_property_analytic_decomposition_equals_one_at_a_time_reference(fam):
    got = analytic_decomposition(fam).vectors
    want = oracles.twisted_vectors_reference(fam)
    assert got.tobytes() == want.tobytes()


@given(_analytic_families)
@settings(max_examples=100, deadline=None)
def test_property_analytic_vectors_are_orthonormal(fam):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = analytic_decomposition(fam)
    ortho, _ = decomposition_residuals(build_jacobi(fam), dec)
    assert ortho <= 1e-12, ortho


@pytest.mark.parametrize(
    "fam",
    [
        HahnParams(N=1199, alpha=0.5, beta=0.5),
        KrawtchoukParams(N=1499, p=0.5),
        # mu = 0 at x = 300, where the top-down pivot of the first row is 0.
        HahnParams(N=600, alpha=50.0, beta=50.0),
    ],
    ids=repr,
)
def test_verify_family_passes_at_large_n(fam):
    _, rows = verify_family(fam)
    assert all(passed for *_, passed in rows), rows


def test_analytic_decomposition_peak_memory_within_four_matrices():
    # All columns are found at once, so the working set is a few n x n
    # arrays; one call before the measured one leaves one-time costs out.
    fam = HahnParams(N=255, alpha=0.5, beta=0.5)
    n = fam.N + 1
    analytic_decomposition(fam)
    tracemalloc.start()
    try:
        analytic_decomposition(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * n * 8, peak / (n * n * 8)


@pytest.mark.parametrize("q, N", [(0.01, 99), (0.5, 600)])
def test_dualq_offdiagonals_under_q_to_one_over_q(q, N):
    # E_i at q is q^-N times E_{N-1-i} at 1/q; for q = 0.01 the products
    # B_{i-1} D_i behind these entries overflow float range.
    off = build_jacobi(DualQKrawtchoukParams(N=N, cbar=-1.0, q=q)).offdiag
    mirror = build_jacobi(DualQKrawtchoukParams(N=N, cbar=-1.0, q=1.0 / q)).offdiag
    assert all(map(math.isfinite, off))
    for e, m in zip(off, reversed(mirror)):
        assert math.log(e) == pytest.approx(math.log(m) - N * math.log(q), rel=1e-14)


# -- numeric decomposition -----------------------------------------------------


def test_numeric_frozen_examples():
    e = math.sqrt(2) / 2
    dec = numeric_decomposition(SymTridiagonal(diag=(1.0, 1.0, 1.0), offdiag=(e, e)))
    assert dec.eigenvalues == pytest.approx((0.0, 1.0, 2.0), abs=1e-10)
    assert dec.origin is Origin.NUMERIC
    dec = numeric_decomposition(SymTridiagonal(diag=(2.0, 2.0), offdiag=(1.0,)))
    assert dec.eigenvalues == pytest.approx((1.0, 3.0), rel=1e-12)


def test_numeric_diagonal_matrix():
    dec = numeric_decomposition(
        SymTridiagonal(diag=(3.0, 1.0, 2.0), offdiag=(0.0, 0.0))
    )
    assert dec.eigenvalues == (1.0, 2.0, 3.0)
    P = np.zeros((3, 3))
    P[1, 0] = P[2, 1] = P[0, 2] = 1.0
    assert np.array_equal(dec.vectors, P)


def test_numeric_matches_scipy_on_random_matrices():
    rng = np.random.default_rng(20260819)
    for n in (5, 16, 33):
        d = rng.normal(size=n)
        e = np.abs(rng.normal(size=n - 1)) + 0.1
        m = SymTridiagonal(diag=tuple(d), offdiag=tuple(e))
        dec = numeric_decomposition(m)
        ref_vals, ref_vecs = eigh_tridiagonal(d, -e)
        scale = 1.0 + float(np.max(np.abs(d))) + float(np.max(np.abs(e)))
        assert dec.eigenvalues == pytest.approx(tuple(ref_vals), abs=1e-12 * scale)
        for j in range(n):
            col = ref_vecs[:, j]
            lead = np.nonzero(np.abs(col) > 1e-12)[0]
            if col[lead[0]] < 0.0:
                col = -col
            assert dec.vectors[:, j] == pytest.approx(col, abs=1e-8), (n, j)


def test_numeric_residuals_and_order():
    for fam in _grid((9, 20)):
        m = build_jacobi(fam)
        dec = numeric_decomposition(m)
        assert list(dec.eigenvalues) == sorted(dec.eigenvalues)
        ortho, recon = decomposition_residuals(m, dec)
        scale = 1.0 + max(abs(x) for x in m.diag + m.offdiag)
        assert ortho <= ORTHO_TOL
        assert recon <= RECON_RTOL * scale


def test_numeric_sign_convention():
    m = build_jacobi(KrawtchoukParams(N=9, p=0.4))
    dec = numeric_decomposition(m)
    for j in range(m.size):
        col = dec.vectors[:, j]
        lead = np.nonzero(np.abs(col) > 1e-12)[0]
        assert col[lead[0]] > 0.0


def test_numeric_no_convergence(monkeypatch):
    m = SymTridiagonal(diag=(1.0, 2.0), offdiag=(0.5,))
    monkeypatch.setattr(jacobi, "MAX_SWEEPS", 0)
    for solve in (numeric_decomposition, numeric_eigenvalues):
        with pytest.raises(NoConvergence) as info:
            solve(m)
        assert info.value.row == 0


def test_numeric_eigenvalues_scale_with_powers_of_two():
    # The QL runs on M scaled by one power of two, so 2^k M has the
    # eigenvalues 2^k lambda bit for bit while every entry stays normal.
    # The extreme k take the smallest nonzero |entry| to the smallest
    # normal float, and max |entry| to just below 2^1022.
    mats = [build_jacobi(fam) for fam in _grid((5, 20))] + _custom_quadratic_forms()[2:]
    tops = []
    for m in mats:
        values = numeric_eigenvalues(m)
        entries = [abs(x) for x in m.diag + m.offdiag if x]
        lowest = -1021 - math.frexp(min(entries))[1]
        highest = 1022 - math.frexp(max(entries))[1]
        for k in (lowest, -600, -1, 1, 600, highest):
            scaled = SymTridiagonal(
                tuple(math.ldexp(a, k) for a in m.diag),
                tuple(math.ldexp(b, k) for b in m.offdiag),
            )
            assert numeric_eigenvalues(scaled) == tuple(math.ldexp(v, k) for v in values), (m, k)
        tops.append(math.ldexp(max(entries), lowest))
    # Krawtchouk, Hahn and the custom forms span few binades: these reach
    # max |entry| near 1e-307, where eps (|d_m| + |d_m+1|) of an unscaled
    # deflation test underflows to 0.
    assert sum(top < 1e-306 for top in tops) >= 10, sorted(tops)


def test_numeric_eigenvalues_past_the_largest_float():
    # [[1e308, -1e308], [-1e308, 1e308]] has eigenvalues 0 and 2e308: the
    # top one leaves float range and comes back inf, not as an exception.
    # Unscaled, eps (|d_m| + |d_m+1|) would be inf and deflate every row.
    low, high = numeric_eigenvalues(SymTridiagonal((1e308, 1e308), (1e308,)))
    assert abs(low) < 1e-15 * 1e308 and high == math.inf
    low, high = numeric_eigenvalues(SymTridiagonal((1e308, 1e308), (5e307,)))
    assert (low, high) == pytest.approx((5e307, 1.5e308), rel=1e-15)


# Tiny entries make a rotation underflow to r == 0, the QL's split branch.
_SPLIT_EXAMPLE = SymTridiagonal(
    diag=(0.0, 0.0, 1e-200, 1e-200), offdiag=(1e-200, 2.0, 3.0)
)


def _custom_quadratic_forms():
    rng = np.random.default_rng(20261018)
    forms = []
    for n in (1, 2, 8, 33, 64):
        gammas = rng.uniform(0.0, 2.0, n - 1)
        gammas[rng.uniform(size=n - 1) < 0.2] = 0.0
        chain = ChainSpec(
            n=n, omega=1.0, coupling=0.3, interaction=CustomInteraction(tuple(gammas))
        )
        forms.append(assemble_quadratic_form(chain))
    return forms


def test_numeric_decomposition_equals_column_ql_reference(monkeypatch):
    chunks = []

    def recording(Ut, rows, cs, ss):
        chunks.append(len(rows))
        apply_rotations(Ut, rows, cs, ss)

    apply_rotations = jacobi._apply_rotations
    monkeypatch.setattr(jacobi, "_apply_rotations", recording)
    # Exact zeros in the middle split the QL into blocks that end at m < n - 1.
    split = build_jacobi(HahnParams(N=40, alpha=1.7, beta=1.7))
    split = SymTridiagonal(
        diag=split.diag,
        offdiag=tuple(0.0 if i in (9, 25) else x for i, x in enumerate(split.offdiag)),
    )
    mats = [build_jacobi(fam) for fam in _grid((0, 1, 9, 31))]
    mats += _custom_quadratic_forms() + [_SPLIT_EXAMPLE, split, SymTridiagonal((), ())]
    # More than 2^14 rotations at n = 128 and 129: U^T gets them in several
    # chunks, and at odd n the odd rows of its even/odd layout start at
    # (n + 1) // 2.
    large = [
        build_jacobi(HahnParams(N=127, alpha=1.7, beta=1.7)),
        build_jacobi(DualQKrawtchoukParams(N=127, cbar=-1.0, q=0.7)),
        build_jacobi(HahnParams(N=128, alpha=1.7, beta=1.7)),
    ]
    flushes = []
    for m in mats + large:
        values, vectors = oracles.column_ql_reference(m)
        chunks.clear()
        dec = numeric_decomposition(m)
        assert dec.eigenvalues == values, m
        assert np.array_equal(dec.vectors, vectors), m
        assert numeric_eigenvalues(m) == values, m
        assert chunks[:-1] == [jacobi._ROTATION_CHUNK] * (len(chunks) - 1)
        flushes.append(len(chunks))
    assert min(flushes[-len(large):]) > 1


def test_apply_rotations_equals_one_at_a_time():
    rng = np.random.default_rng(20261018)
    # Rows in any order, not only the descending sweeps the QL records.
    cases = [
        (n, rng.integers(0, n - 1, count).tolist())
        for n, count in ((2, 5), (7, 40), (16, 300), (33, 2000))
    ]
    # Repeated descending sweeps from row l, as the QL records them: their
    # waves hold runs of several rotations, which start on even and on odd
    # rows, at even and at odd n.
    cases += [
        (n, list(range(n - 2, l - 1, -1)) * 5) for n in (6, 7, 12, 13) for l in (0, 1)
    ]
    for n, rows in cases:
        angles = rng.uniform(-math.pi, math.pi, len(rows))
        cs, ss = np.cos(angles), np.sin(angles)
        start = rng.normal(size=(n, n))
        expected = start.copy()
        for i, c, s in zip(rows, cs.tolist(), ss.tolist()):
            lo, hi = expected[i], expected[i + 1]
            rotated = s * lo
            rotated += c * hi
            lo *= c
            lo -= s * hi
            hi[:] = rotated
        # _apply_rotations takes U^T with rows 0, 2, 4, ... first and then
        # 1, 3, 5, ...; pos is where each row is stored.
        perm = np.concatenate([np.arange(0, n, 2), np.arange(1, n, 2)])
        pos = np.argsort(perm)
        Ut = start[perm]
        jacobi._apply_rotations(Ut, array("q", rows), array("d", cs), array("d", ss))
        assert np.array_equal(Ut[pos], expected), (n, rows[:2])


def _ql_outcome(solve, m):
    try:
        values = solve(m)
    except NoConvergence as exc:
        return ("NoConvergence", exc.row)
    return tuple(float(v).hex() for v in values)


_DIAG_ENTRIES = st.one_of(
    st.sampled_from((0.0, 1.0, -1.0, 2.0, 0.5, 1e-200)),
    st.floats(min_value=-1e3, max_value=1e3),
)
_OFFDIAG_ENTRIES = st.one_of(
    st.sampled_from((0.0, 1e-300, 1e-200, 1e-170, 0.5, 1.0, 2.0)),
    st.floats(min_value=0.0, max_value=1e3),
)


@st.composite
def _sym_tridiagonals(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    diag = draw(st.lists(_DIAG_ENTRIES, min_size=n, max_size=n))
    off = draw(st.lists(_OFFDIAG_ENTRIES, min_size=n - 1, max_size=n - 1))
    # Some forms are moved by a power of two to max |entry| >= 2^1023,
    # where the QL caps its scaling shift at -1023, or to max |entry|
    # near the smallest normal float, where their small entries go
    # subnormal or to 0.
    top = max(map(abs, diag + off))
    end = draw(st.sampled_from((None, None, "largest", "smallest")))
    if top and end:
        exponent = 1024 if end == "largest" else draw(st.integers(-1021, -1000))
        k = exponent - math.frexp(top)[1]
        diag = [math.ldexp(a, k) for a in diag]
        off = [math.ldexp(b, k) for b in off]
    return SymTridiagonal(diag=tuple(diag), offdiag=tuple(off))


# Forms that drive each part of the QL's deflation bookkeeping.  In the
# first, the chase rewrites e_1 to within 16 eps of the scaled form, and the
# exact test then fails on that flagged row; in the second, the block
# [0, 2] deflates at its flagged row 1.
_FLAGGED_FAILS_EXAMPLE = SymTridiagonal(diag=(0.0, 0.0, 1e-8), offdiag=(1e-16, 2e-16))
_FLAGGED_DEFLATION_EXAMPLE = SymTridiagonal(diag=(0.0, 1e-8, 0.0), offdiag=(1e-16, 2e-16))
# Exact zeros at rows 1 and 3: past the first block, l crosses into rows no
# scan has read, and the zero at row 3 splits them again.
_ZERO_TAIL_EXAMPLE = SymTridiagonal(
    diag=(-3.0, -3.0, -1.0, 2.0, 2.0, 0.0), offdiag=(1.0, 0.0, 1.0, 0.0, 1.0)
)
# Rows 3 and 4 repeat the leading 2 x 2 block, so the first sweep's shift is
# an eigenvalue of theirs up to rounding: the chase's g comes out exactly 0
# at row 2, where s e_2 underflows, and the sweep splits at j = 3 with a
# rotation of zero length.  That moves d_3 from 0 to about -0.03, and row 2
# then passes the exact test that it failed before.
_SPLIT_RETEST_EXAMPLE = SymTridiagonal(
    diag=(0.0, 0.5, 0.0, 0.0, 0.5), offdiag=(0.125, 0.5, 5e-324, 0.125)
)


@given(_sym_tridiagonals())
@example(_SPLIT_EXAMPLE)
@example(_FLAGGED_FAILS_EXAMPLE)
@example(_FLAGGED_DEFLATION_EXAMPLE)
@example(_ZERO_TAIL_EXAMPLE)
@example(_SPLIT_RETEST_EXAMPLE)
@settings(max_examples=150, deadline=None)
def test_property_eigenvalue_only_ql_matches_decomposition(m):
    # bit for bit, signed zeros included
    assert _ql_outcome(numeric_eigenvalues, m) == _ql_outcome(
        lambda mat: numeric_decomposition(mat).eigenvalues, m
    )


def _scaled(m, k):
    """m with every entry multiplied by 2^k."""
    return SymTridiagonal(
        tuple(math.ldexp(a, k) for a in m.diag), tuple(math.ldexp(b, k) for b in m.offdiag)
    )


def _reference_outcome(m, max_sweeps=jacobi.MAX_SWEEPS):
    """oracles.column_ql_reference on m scaled by the QL's own power of
    two, which is exact (the oracle itself does not scale), with the QL's
    deflation floor, the smallest normal float: its eigenvalues
    scaled back, as float.hex, and its eigenvector columns, or its
    NoConvergence row and None.  Last, the runs [a, b) of eigenvalues that
    scaling back makes equal from distinct values, past float range or
    below the normal range: the oracle sorts such a run by value and the QL
    by position, so only the run's set is pinned."""
    # The QL caps its shift at -1023, so that 2^-shift is a float.
    shift = max(jacobi._unit_exponent(m.diag + m.offdiag), -1023)
    try:
        values, vectors = oracles.column_ql_reference(
            _scaled(m, shift), max_sweeps, sys.float_info.min
        )
    except NoConvergence as exc:
        return ("NoConvergence", exc.row), None, []
    scale = 2.0**-shift
    back = [float(v) * scale for v in values]
    runs, a = [], 0
    for k in range(1, len(back) + 1):
        if k == len(back) or back[k] != back[a]:
            if values[a] != values[k - 1]:
                runs.append((a, k))
            a = k
    return tuple(map(float.hex, back)), vectors, runs


def _pinned_in_order(outcome, vectors, runs):
    """The eigenvalues as float.hex and the columns as bytes, with each run
    of runs sorted."""
    hexes = list(outcome)
    cols = [vectors[:, k].tobytes() for k in range(vectors.shape[1])]
    for a, b in runs:
        order = sorted(range(a, b), key=lambda k: (hexes[k], cols[k]))
        hexes[a:b] = [hexes[k] for k in order]
        cols[a:b] = [cols[k] for k in order]
    return hexes, cols


# A subnormal coupling between zero diagonal entries, which deflates only
# by the floor: without it, the QL sweeps this block to +-e_0.
_FLOOR_DEFLATION_EXAMPLE = SymTridiagonal(
    diag=(0.0, 0.0, 1.0), offdiag=(2.225073858507203e-309, 0.0)
)
# A deflation at |e_m| = 2.03 eps of the scaled form, between the bound
# 2 eps and eps (|d_m| + |d_m+1|): a scan prefilter tighter than the
# package's 16 eps would miss it.
_WIDE_DEFLATION_EXAMPLE = SymTridiagonal(
    diag=(-3.0, -3.0, 1.0, -3.0), offdiag=(2.0, 3.0, 3.0)
)


@given(_sym_tridiagonals())
@example(_SPLIT_EXAMPLE)
@example(_WIDE_DEFLATION_EXAMPLE)
@example(_FLOOR_DEFLATION_EXAMPLE)
@example(_FLAGGED_FAILS_EXAMPLE)
@example(_FLAGGED_DEFLATION_EXAMPLE)
@example(_ZERO_TAIL_EXAMPLE)
@example(_SPLIT_RETEST_EXAMPLE)
@settings(max_examples=300, deadline=None)
def test_property_ql_entry_points_equal_column_ql_reference(m):
    # Both entry points share the sweep loop, so they are pinned to the
    # frozen first QL, not only to each other: bit for bit, signed zeros
    # and the NoConvergence row included.
    expected, vectors, runs = _reference_outcome(m)
    outcome = _ql_outcome(numeric_eigenvalues, m)
    if vectors is None:
        assert outcome == expected
        assert _ql_outcome(lambda mat: numeric_decomposition(mat).eigenvalues, m) == expected
        return
    dec = numeric_decomposition(m)
    assert list(outcome) == sorted(outcome, key=float.fromhex)
    assert tuple(map(float.hex, dec.eigenvalues)) == outcome
    if not runs:
        assert outcome == expected
        assert np.array_equal(dec.vectors, vectors)
    assert _pinned_in_order(outcome, dec.vectors, runs) == _pinned_in_order(
        expected, vectors, runs
    )


def test_ql_entry_points_fail_on_the_reference_row_under_small_budgets(monkeypatch):
    # Budgets too small for some deflation: both entry points stop at the
    # row where the frozen first QL stops, or agree with it bit for bit.
    mats = [build_jacobi(fam) for fam in _grid((9,))] + _custom_quadratic_forms()[:4]
    mats += [_SPLIT_EXAMPLE, _WIDE_DEFLATION_EXAMPLE]
    rows = set()
    for budget in (1, 2, 3):
        monkeypatch.setattr(jacobi, "MAX_SWEEPS", budget)
        for m in mats:
            expected, vectors, runs = _reference_outcome(m, budget)
            assert not runs
            assert _ql_outcome(numeric_eigenvalues, m) == expected, (budget, m)
            dec_outcome = _ql_outcome(lambda mat: numeric_decomposition(mat).eigenvalues, m)
            assert dec_outcome == expected, (budget, m)
            if vectors is None:
                rows.add(expected[1])
    # Some failures are past row 0.
    assert max(rows) > 0, rows


# -- exact inertia oracle ------------------------------------------------------


def test_exact_inertia_with_zero_pivots():
    # [[2, -1], [-1, 2]] has eigenvalues 1 and 3.  sigma = 2, a diagonal
    # entry, makes the first pivot 0; sigma = 1 and sigma = 3, the exact
    # eigenvalues, make the last pivot 0, and neither counts itself.
    m = SymTridiagonal((2.0, 2.0), (1.0,))
    sigmas = (0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)
    assert [oracles.exact_inertia(m, s) for s in sigmas] == [0, 0, 1, 1, 1, 1, 2]
    assert oracles.exact_inertia(m, math.nextafter(1.0, 2.0)) == 1
    assert oracles.exact_inertia(m, math.nextafter(3.0, 4.0)) == 2
    # Eigenvalues -sqrt(2), 0 and sqrt(2): at sigma = 0 the pivots are 0,
    # -infinity and 0 again.
    m = SymTridiagonal((0.0, 0.0, 0.0), (1.0, 1.0))
    root = math.sqrt(2.0)  # just above sqrt(2)
    sigmas = (-2.0, -root, math.nextafter(-root, 0.0), -1.0, 0.0, 5e-324, root, 2.0)
    assert [oracles.exact_inertia(m, s) for s in sigmas] == [0, 0, 1, 1, 1, 2, 3, 3]
    # Zero off-diagonals split the matrix, also right after a zero pivot:
    # the eigenvalues are the diagonal entries.
    m = SymTridiagonal((3.0, 1.0, 2.0, 2.0, -1.0), (0.0, 0.0, 0.0, 0.0))
    for s in (-2.0, -1.0, 0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0):
        assert oracles.exact_inertia(m, s) == sum(a < s for a in m.diag), s
    m = SymTridiagonal((1.0, 5.0, 1.0), (0.0, 2.0))
    assert [oracles.exact_inertia(m, s) for s in (1.0, 5.0, 6.0)] == [1, 2, 3]


def test_exact_inertia_counts_the_eigenvalues_scipy_separates():
    rng = np.random.default_rng(20261019)
    for n in (1, 2, 5, 12, 30):
        d = rng.integers(-4, 5, n).astype(float)
        e = rng.integers(0, 3, n - 1).astype(float)
        m = SymTridiagonal(tuple(d.tolist()), tuple(e.tolist()))
        values = eigh_tridiagonal(d, -e, eigvals_only=True)
        tol = 1e-10 * (1.0 + np.max(np.abs(d)) + np.max(e, initial=0.0))
        for k in range(n + 1):
            # A shift between eigenvalues k - 1 and k, where they are apart.
            lo = values[k - 1] if k else values[0] - 1.0
            hi = values[k] if k < n else values[-1] + 1.0
            if hi - lo > 4 * tol:
                assert oracles.exact_inertia(m, (lo + hi) / 2) == k, (n, k)


def _inertia_forms():
    """Family and custom forms with n <= 40, each also moved by a power of
    two to max |entry| near 2^1020, to max |entry| >= 2^1023 (where the QL
    caps its shift at -1023) and to min nonzero |entry| at the smallest
    normal float."""
    forms = [build_jacobi(fam) for fam in _grid((5, 20))]
    forms += [m for m in _custom_quadratic_forms() if m.size <= 40]
    moved = []
    for m in forms:
        entries = [abs(x) for x in m.diag + m.offdiag if x]
        top, low = math.frexp(max(entries))[1], math.frexp(min(entries))[1]
        moved += [_scaled(m, 1020 - top), _scaled(m, 1024 - top), _scaled(m, -1021 - low)]
    return forms + moved


def test_numeric_eigenvalues_within_exact_inertia_bounds():
    # Each QL eigenvalue lambda_k (k from 0, ascending) is within
    # delta = 8 n eps max |entry| of the exact k-th eigenvalue of the float
    # matrix: count(lambda_k - delta) <= k < count(lambda_k + delta).  An
    # eigenvalue that comes back inf is past the largest float, within
    # delta.
    from fractions import Fraction

    count = oracles.exact_inertia
    eps, largest = Fraction(sys.float_info.epsilon), Fraction(sys.float_info.max)
    for m in _inertia_forms():
        delta = 8 * m.size * eps * Fraction(max(map(abs, m.diag + m.offdiag)))
        for k, value in enumerate(numeric_eigenvalues(m)):
            if value == math.inf:
                assert count(m, largest - delta) <= k, (m, k)
            elif value == -math.inf:
                assert k < count(m, -largest + delta), (m, k)
            else:
                value = Fraction(value)
                assert count(m, value - delta) <= k < count(m, value + delta), (m, k)


@pytest.mark.parametrize(
    "offdiag", [(1.0, 1e-320), (1.996610803422943e79, 2.2966214391122615e-244)]
)
def test_subnormal_coupling_between_zero_diagonal_entries_deflates(offdiag):
    # The scaled e_1 is below the smallest normal float between d_1 = d_2
    # = 0, where eps (|d_1| + |d_2|) = 0: only the floor deflates it.
    # Without the floor these came out +-1.000257 and +-1.7886e79.  Each
    # eigenvalue is within 8 n eps max |entry| of exact.
    m = SymTridiagonal((0.0,) * 3, offdiag)
    bound = 8 * 3 * sys.float_info.epsilon * max(offdiag)
    for k, value in enumerate(numeric_eigenvalues(m)):
        exact, _ = oracles.exact_eigenvalue(m, k, value)
        assert abs(value - exact) <= bound, (k, value, exact)


# -- dqds kernel of zero-diagonal forms ----------------------------------------


def _zero_diagonal(offdiag):
    return SymTridiagonal((0.0,) * (len(offdiag) + 1), offdiag)


def _blocks(offdiag):
    """Sizes of the blocks that the zero couplings of offdiag split off."""
    sizes, size = [], 1
    for x in offdiag:
        if x == 0.0:
            sizes.append(size)
            size = 0
        size += 1
    return sizes + [size]


def _kernel_forms():
    """Off-diagonal magnitudes of K for the four built-in families at odd
    and even sizes, custom ones with zero couplings and ones spread over
    10^+-6, each of the last also moved by 2^+-1000."""
    forms = []
    for N in (0, 1, 2, 7, 16, 31, 32):
        for fam in (ConstantParams(N=N), KrawtchoukParams(N=N, p=0.5),
                    HahnParams(N=N, alpha=0.5, beta=0.5), HahnParams(N=N, alpha=7.0, beta=7.0),
                    DualQKrawtchoukParams(N=N, cbar=-1.0, q=0.7),
                    DualQKrawtchoukParams(N=N, cbar=-1.0, q=1.6)):
            forms.append(_interaction_matrix(fam)[1])
    rng = np.random.default_rng(20261020)
    for n in (3, 8, 21, 40):
        gammas = rng.uniform(0.5, 2.0, n - 1)
        gammas[rng.uniform(size=n - 1) < 0.25] = 0.0
        wide = 10.0 ** rng.uniform(-6.0, 6.0, n - 1)
        for offdiag in (tuple(gammas.tolist()), tuple(wide.tolist())):
            forms += [tuple(math.ldexp(x, k) for x in offdiag) for k in (0, 1000, -1000)]
    return forms


def _check_kernel(offdiag, ks=None):
    """The kernel's eigenvalues of tridiag(-E, 0, -E): ascending, in +-
    pairs, an exact 0 for each block of odd size, and each checked one
    within 2 n ulps of the exact eigenvalue.  Eigenvalues below 2^-500
    max E, where the kernel's squares leave the normal range, are held to
    that absolute bound instead."""
    n = len(offdiag) + 1
    values = _zero_diagonal_eigenvalues(offdiag)
    assert len(values) == n
    assert values == sorted(values)
    assert values == [-v for v in reversed(values)]
    zeros = sum(size % 2 for size in _blocks(offdiag))
    assert values[(n - zeros) // 2 : (n + zeros) // 2] == [0.0] * zeros
    floor = math.ldexp(max(offdiag, default=0.0), -500)
    m = _zero_diagonal(offdiag)
    for k in range(n // 2, n) if ks is None else ks:
        exact, ulps = oracles.exact_eigenvalue(m, k, values[k])
        if abs(exact) >= floor:
            assert ulps <= 2 * n, (offdiag, k, values[k], exact, ulps)
        else:
            assert abs(values[k] - exact) <= floor, (offdiag, k, values[k], exact)


def test_zero_diagonal_eigenvalues_within_2n_ulps_of_exact():
    # Every positive eigenvalue of forms up to n = 40, whose negatives are
    # their mirror images, against item-by-item exact counts.
    for offdiag in _kernel_forms():
        _check_kernel(offdiag)


@st.composite
def _zero_diagonal_forms(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    spread = draw(st.sampled_from([0.0, 1.0, 6.0]))
    exponents = draw(st.lists(st.floats(-spread, spread), min_size=n - 1, max_size=n - 1))
    zeros = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    k = draw(st.sampled_from([0, 1000, -1000]))
    return tuple(
        0.0 if zero else math.ldexp(10.0**x, k) for x, zero in zip(exponents, zeros)
    )


@given(offdiag=_zero_diagonal_forms())
@example(offdiag=(1e-6, 1e6) * 20)
@example(offdiag=(1e6, 1e-6) * 19 + (1e6,))
@example(offdiag=(0.0,) * 5)
@settings(max_examples=150, deadline=None)
def test_property_zero_diagonal_eigenvalues_within_2n_ulps_of_exact(offdiag):
    # The smallest and largest positive eigenvalue and one between them.
    n = len(offdiag) + 1
    _check_kernel(offdiag, sorted({n // 2, (3 * n) // 4, n - 1}))


def test_zero_diagonal_eigenvalues_stop_at_the_sweep_budget(monkeypatch):
    # An array past MAX_SWEEPS transforms per eigenvalue raises
    # NoConvergence with the first row of its block: here the block after
    # the 2 x 2 block of rows 0 and 1, which needs no transform.
    monkeypatch.setattr(jacobi, "MAX_SWEEPS", 1)
    krawtchouk = _interaction_matrix(KrawtchoukParams(N=31, p=0.5))[1]
    with pytest.raises(NoConvergence) as info:
        _zero_diagonal_eigenvalues(krawtchouk)
    assert info.value.row == 0
    with pytest.raises(NoConvergence) as info:
        _zero_diagonal_eigenvalues((1.0, 0.0) + krawtchouk)
    assert info.value.row == 2
    chain = ChainSpec(n=32, omega=1.0, coupling=0.01,
                      interaction=CustomInteraction(tuple(2.0 * e for e in krawtchouk)))
    with pytest.raises(NoConvergence):
        mode_frequencies(chain, method="numeric")


def test_dqds_step_refuses_a_negative_first_pivot_and_a_zero_q_plus_e():
    # The first pivot q_0 - tau < 0 is returned as it is.
    assert jacobi._dqds_step([1.0, 1.0, 1.0], [0.5, 0.5], 2.0) == (None, -1.0)
    # d + e_i = 0, in the last rows and inside the loop, gives d = -0.0.
    for q, e in (([0.0, 1.0, 1.0], [0.0, 1.0]), ([0.0, 1.0, 1.0, 1.0], [0.0, 1.0, 1.0])):
        step, d = jacobi._dqds_step(q, e, 0.0)
        assert step is None and d == 0.0 and math.copysign(1.0, d) == -1.0
    # The safe step splits the array there instead: e_0 becomes 0.
    assert jacobi._dqd_safe_step([0.0, 1.0, 1.0], [0.0, 1.0]) == (
        [0.0, 2.0, 0.5], [0.0, 0.5], 0.0, 0.0, 0.0, 0.5, 1.0, 0.0
    )


def _failing_steps(monkeypatch, k, at_zero):
    """Make the first k dqds transforms of _dqds with a positive shift (at
    a zero shift, with at_zero) fail as a d < 0 would, and count the safe
    steps that follow.  The transform without shift that ends an odd
    block's exact zero is left alone."""
    step, safe_step = jacobi._dqds_step, jacobi._dqd_safe_step
    failures, safe = [], []

    def failing(q, e, tau):
        if len(failures) < k and (tau == 0.0) == at_zero and q[-1] != 0.0:
            failures.append(tau)
            return None, -0.5 * tau if tau else -1.0
        return step(q, e, tau)

    def counted(q, e):
        safe.append(len(q))
        return safe_step(q, e)

    monkeypatch.setattr(jacobi, "_dqds_step", failing)
    monkeypatch.setattr(jacobi, "_dqd_safe_step", counted)
    return failures, safe


_LADDER_FORMS = {
    "krawtchouk-32": _interaction_matrix(KrawtchoukParams(N=31, p=0.5))[1],
    "hahn-17": _interaction_matrix(HahnParams(N=16, alpha=0.5, beta=0.5))[1],
    "qkrawtchouk-24": _interaction_matrix(DualQKrawtchoukParams(N=23, cbar=-1.0, q=1.6))[1],
    "wide-21": tuple(10.0 ** ((7 * r % 13 - 6) / 2.0) for r in range(20)),
}


@pytest.mark.parametrize("offdiag", _LADDER_FORMS.values(), ids=_LADDER_FORMS)
@pytest.mark.parametrize("k, at_zero", [(4, False), (5, False), (1, True)])
def test_dqds_retry_ladder_falls_back_to_the_safe_step(monkeypatch, offdiag, k, at_zero):
    # A failed transform is retried with a smaller shift, and after five
    # failures, or one at a zero shift, without a shift in the form of
    # _dqd_safe_step: the eigenvalues stay within 2 n ulps of exact.
    failures, safe = _failing_steps(monkeypatch, k, at_zero)
    _check_kernel(offdiag)
    assert len(failures) == k
    assert bool(safe) == (k == 5 or at_zero)
    failures.clear()
    monkeypatch.setattr(jacobi, "MAX_SWEEPS", 1)
    with pytest.raises(NoConvergence):
        _zero_diagonal_eigenvalues(offdiag)


def test_all_above_pivot_signs():
    M = SymTridiagonal
    # The eigenvalues of an empty matrix are vacuously above any shift; a
    # 1 x 1 matrix is above exactly the shifts below its entry.
    assert _all_above(M((), ()), 1.0)
    assert _all_above(M((1.0,), ()), math.nextafter(1.0, 0.0))
    assert not _all_above(M((1.0,), ()), 1.0)
    # [[2, -1], [-1, 2]] has eigenvalues 1 and 3; a zero off-diagonal
    # splits blocks, and the second block's eigenvalue 0.5 decides.
    assert _all_above(M((2.0, 2.0), (1.0,)), 0.999)
    assert not _all_above(M((2.0, 2.0), (1.0,)), 1.001)
    assert _all_above(M((2.0, 2.0, 0.5), (1.0, 0.0)), 0.499)
    assert not _all_above(M((2.0, 2.0, 0.5), (1.0, 0.0)), 0.501)
    # b / d overflows after a tiny positive pivot: the next pivot is -inf.
    assert not _all_above(M((1e-300, 1.0), (1e10,)), 0.0)
    assert _all_above(M((1e300, 1e300), (9.9e299,)), 1e288)
    # Subnormal entries in units u = 2^-1074, with determinant
    # 7 * 12 - 9^2 = 3 > 0.  Unscaled, 9u (9u / 7u) would round to 12u and
    # give a second pivot of 0.
    u = 5e-324
    assert _all_above(M((7 * u, 12 * u), (9 * u,)), 0.0)
    assert not _all_above(M((7 * u, 11 * u), (9 * u,)), 0.0)


# -- cross-path equivalence ------------------------------------------------------


def test_analytic_agrees_with_numeric():
    for fam in _grid((5, 12, 24)):
        m = build_jacobi(fam)
        analytic = analytic_decomposition(fam)
        numeric = numeric_decomposition(m)
        scale = 1.0 + max(abs(x) for x in m.diag + m.offdiag)
        dev = max(
            abs(a - b)
            for a, b in zip(sorted(analytic.eigenvalues), numeric.eigenvalues)
        )
        assert dev <= EIG_RTOL * scale, (fam, dev)


def test_analytic_vectors_agree_with_numeric_columns():
    fams = (
        KrawtchoukParams(N=12, p=0.5),
        HahnParams(N=12, alpha=0.5, beta=0.5),
        DualQKrawtchoukParams(N=12, cbar=-1.0, q=0.9),
        DualQKrawtchoukParams(N=12, cbar=-1.0, q=1.6),
        ConstantParams(N=12),
    )
    for fam in fams:
        analytic = analytic_decomposition(fam)
        numeric = numeric_decomposition(build_jacobi(fam))
        order = sorted(
            range(len(analytic.eigenvalues)), key=lambda j: analytic.eigenvalues[j]
        )
        dev = float(np.max(np.abs(analytic.vectors[:, order] - numeric.vectors)))
        assert dev <= VEC_TOL, (fam, dev)


def test_decomposition_residuals_errors_and_negative_control():
    m = build_jacobi(KrawtchoukParams(N=8, p=0.5))
    other = numeric_decomposition(build_jacobi(ConstantParams(N=8)))
    with pytest.raises(DimensionMismatch):
        decomposition_residuals(build_jacobi(ConstantParams(N=3)), other)
    mismatched = numeric_decomposition(build_jacobi(ConstantParams(N=8)))
    _, recon = decomposition_residuals(m, mismatched)
    assert recon > 0.1
    empty = SymTridiagonal(diag=(), offdiag=())
    assert decomposition_residuals(empty, numeric_decomposition(empty)) == (0.0, 0.0)


# -- the verify battery ----------------------------------------------------------

_GOLDENS = json.loads(
    (pathlib.Path(__file__).parent / "goldens" / "cli_payloads.json").read_text(
        encoding="utf-8"
    )
)
_VERIFY_ARGV = [g["argv"] for g in _GOLDENS.values() if g["argv"][0] == "verify"]
_VERIFY_ARGV.append(["verify", "--family", "krawtchouk", "--n", "12", "--perturb"])


@pytest.mark.parametrize("argv", _VERIFY_ARGV, ids=" ".join)
def test_cli_verify_prints_the_rows_of_verify_family(argv, capsys):
    parser = cli._build_parser()
    args = parser.parse_args(argv)
    fam = cli._chain_from_args(parser, args).family
    eigenvalues, rows = verify_family(fam, perturb=args.perturb)
    code = cli.main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "eigenvalues " + " ".join(format(v, ".6g") for v in eigenvalues)
    assert lines[2:] == [
        f"{name} {value:.3e} {thr:.3e} {'pass' if passed else 'FAIL'}"
        for name, value, thr, passed in rows
    ]
    assert code == (0 if all(passed for *_, passed in rows) else 1)


def test_verify_family_rows_and_negative_control():
    fam = KrawtchoukParams(N=11, p=0.5)
    M = build_jacobi(fam)
    scale = 1.0 + max(M.diag + M.offdiag)
    eigenvalues, rows = verify_family(fam)
    assert eigenvalues == tuple(float(x) for x in range(12))
    assert [(name, thr, passed) for name, _, thr, passed in rows] == [
        ("orthogonality", 1e-10, True),
        ("reconstruction", 1e-9 * scale, True),
        ("closed_vs_numeric_eigenvalues", 1e-8 * scale, True),
    ]
    perturbed_eigenvalues, perturbed = verify_family(fam, perturb=True)
    assert perturbed_eigenvalues == eigenvalues
    assert not all(passed for *_, passed in perturbed)


def test_verify_family_budget_is_checked_before_any_array(monkeypatch):
    # A family on VERIFY_CAP nodes gets past the budget (to build_jacobi,
    # stubbed here so that nothing is allocated); one more is refused.
    class Reached(Exception):
        pass

    def reached(fam):
        raise Reached

    monkeypatch.setattr(jacobi, "build_jacobi", reached)
    cap = jacobi.VERIFY_CAP
    for fam in (KrawtchoukParams(N=cap - 1, p=0.5), ConstantParams(N=cap - 1)):
        with pytest.raises(Reached):
            verify_family(fam)
    for fam in (KrawtchoukParams(N=cap, p=0.5), HahnParams(N=10**9, alpha=0.5, beta=0.5)):
        with pytest.raises(BudgetExceeded, match=f"modes exceed the verify budget of {cap}$"):
            verify_family(fam)


def test_decomposition_budgets_are_checked_before_any_array(monkeypatch):
    # analytic_decomposition and numeric_decomposition share verify's
    # budget: VERIFY_CAP nodes get past it (to the first call that builds
    # an array, stubbed here so that nothing is allocated); one more is
    # refused.
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(jacobi, "build_jacobi", reached)
    monkeypatch.setattr(jacobi, "_even_odd_positions", reached)
    cap = jacobi.VERIFY_CAP
    message = f"nodes exceed the decomposition budget of {cap}$"
    with pytest.raises(Reached):
        analytic_decomposition(KrawtchoukParams(N=cap - 1, p=0.5))
    with pytest.raises(Reached):
        numeric_decomposition(SymTridiagonal((0.0,) * cap, (1.0,) * (cap - 1)))
    for fam in (KrawtchoukParams(N=cap, p=0.5), ConstantParams(N=cap),
                HahnParams(N=10**9, alpha=0.5, beta=0.5)):
        with pytest.raises(BudgetExceeded, match=f"^{fam.N + 1} {message}"):
            analytic_decomposition(fam)
    with pytest.raises(BudgetExceeded, match=f"^{cap + 1} {message}"):
        numeric_decomposition(SymTridiagonal((0.0,) * (cap + 1), (1.0,) * cap))


@pytest.mark.parametrize("layout", ["C", "F"])
def test_fix_signs_equals_column_by_column_reference(layout):
    # Leads spread over many row blocks, columns whose entries are all
    # within SIGN_TOL (negative ones and -0.0 among them), and entries at
    # +-SIGN_TOL exactly, which are not leads.  The numeric decomposition
    # passes a transposed (F-ordered) array.
    rng = np.random.default_rng(7)
    n = 5 * jacobi._SIGN_ROWS + 3
    U = rng.standard_normal((n, n))
    depth = rng.integers(0, n + 1, size=n)
    for j, d in enumerate(depth):
        tiny = [0.0, -0.0, jacobi.SIGN_TOL, -jacobi.SIGN_TOL, 1e-13, -1e-13]
        U[:d, j] = rng.choice(tiny, size=d)
    U = np.asarray(U, order=layout)
    want = oracles._first_entry_positive(U.copy())
    got = jacobi._fix_signs(U)
    assert got is U
    assert got.tobytes() == want.tobytes()
    assert jacobi._fix_signs(np.empty((0, 0))).shape == (0, 0)


def test_verify_family_nan_fails(monkeypatch):
    fam = KrawtchoukParams(N=5, p=0.5)
    dec = analytic_decomposition(fam)
    dec.vectors[0, 0] = math.nan
    monkeypatch.setattr(jacobi, "analytic_decomposition", lambda _: dec)
    _, rows = verify_family(fam)
    name, value, _, passed = rows[0]
    assert name == "orthogonality" and math.isnan(value) and passed is False
