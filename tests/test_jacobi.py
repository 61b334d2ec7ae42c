"""Tests for Jacobi matrix assembly and the two eigendecomposition paths."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

import oracles
from chain_spectra.chain import ChainSpec, CustomInteraction, assemble_quadratic_form
from chain_spectra.errors import DimensionMismatch, InvalidParams, NoConvergence
from chain_spectra.jacobi import (
    AlmostConstantHead,
    AlmostConstantTail,
    ConstantDiag,
    ConstantParams,
    GeneralDiag,
    Origin,
    SymTridiagonal,
    analytic_decomposition,
    build_jacobi,
    decomposition_residuals,
    diagonal_profile,
    numeric_decomposition,
    numeric_eigenvalues,
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


def test_analytic_decomposition_equals_two_loop_reference():
    # Bit for bit against the forward-and-mirrored-backward recurrence,
    # wherever that gave a column of finite, positive norm.
    fams = []
    for N in (0, 1, 2, 5, 12, 31, 47, 63):
        fams += [
            ConstantParams(N=N),
            KrawtchoukParams(N=N, p=0.5),
            KrawtchoukParams(N=N, p=0.3),
            HahnParams(N=N, alpha=0.5, beta=0.5),
            HahnParams(N=N, alpha=2.0, beta=-0.5),
            HahnParams(N=N, alpha=-N - 2.5, beta=-N - 1.5),
            DualQKrawtchoukParams(N=N, cbar=-1.0, q=1.6),
            DualQKrawtchoukParams(N=N, cbar=-1.0, q=0.7),
            DualQKrawtchoukParams(N=N, cbar=-2.5, q=2.0),
        ]
    compared = 0
    for fam in fams:
        got = analytic_decomposition(fam).vectors
        want, norms = oracles.stitched_decomposition_reference(fam)
        for j in np.flatnonzero((norms > 0.0) & (norms < math.inf)):
            assert got[:, j].tobytes() == want[:, j].tobytes(), (fam, j)
            compared += 1
    assert compared > 0.95 * sum(fam.N + 1 for fam in fams)


@pytest.mark.parametrize(
    "fam",
    [
        KrawtchoukParams(N=300, p=0.02),
        KrawtchoukParams(N=150, p=0.001),
        DualQKrawtchoukParams(N=48, cbar=-1.0, q=2.0),
    ],
)
def test_analytic_columns_stay_unit_where_sum_of_squares_overflows(fam):
    # Stitched entries reach 1e250, so their sum of squares overflows and a
    # plain division by the norm gives a zero column.
    ortho, _ = decomposition_residuals(build_jacobi(fam), analytic_decomposition(fam))
    assert ortho <= 1e-12


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


def test_numeric_no_convergence():
    m = SymTridiagonal(diag=(1.0, 2.0), offdiag=(0.5,))
    for solve in (numeric_decomposition, numeric_eigenvalues):
        with pytest.raises(NoConvergence) as info:
            solve(m, max_sweeps=0)
        assert info.value.row == 0


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


def test_numeric_decomposition_equals_column_ql_reference():
    mats = [build_jacobi(fam) for fam in _grid((0, 1, 9, 31))]
    mats += _custom_quadratic_forms() + [_SPLIT_EXAMPLE]
    for m in mats:
        values, vectors = oracles.column_ql_reference(m)
        dec = numeric_decomposition(m)
        assert dec.eigenvalues == values, m
        assert np.array_equal(dec.vectors, vectors), m
        assert numeric_eigenvalues(m) == values, m


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
    return SymTridiagonal(diag=tuple(diag), offdiag=tuple(off))


@given(_sym_tridiagonals())
@example(_SPLIT_EXAMPLE)
@settings(max_examples=150, deadline=None)
def test_property_eigenvalue_only_ql_matches_decomposition(m):
    # bit for bit, signed zeros included
    assert _ql_outcome(numeric_eigenvalues, m) == _ql_outcome(
        lambda mat: numeric_decomposition(mat).eigenvalues, m
    )


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


# -- diagonal classification -----------------------------------------------------


def test_diagonal_profile_constant_cases():
    profile = diagonal_profile(KrawtchoukParams(N=9, p=0.5))
    assert profile == ConstantDiag(value=4.5)
    profile = diagonal_profile(HahnParams(N=4, alpha=-0.5, beta=-0.5))
    assert isinstance(profile, ConstantDiag)
    assert profile.value == pytest.approx(2.0, rel=1e-13)
    profile = diagonal_profile(DualQKrawtchoukParams(N=4, cbar=-1.0, q=2.0))
    assert isinstance(profile, ConstantDiag)
    assert profile.value == pytest.approx(1.0 - 2.0 ** -4, rel=1e-15)
    assert diagonal_profile(ConstantParams(N=5)) == ConstantDiag(value=2.0)
    # single-entry diagonal counts as constant
    assert isinstance(diagonal_profile(KrawtchoukParams(N=0, p=0.3)), ConstantDiag)


def test_diagonal_profile_almost_constant_cases():
    profile = diagonal_profile(HahnParams(N=3, alpha=0.4, beta=-0.4))
    assert isinstance(profile, AlmostConstantHead)
    assert profile.head == pytest.approx(2.1, rel=1e-13)
    assert profile.value == pytest.approx(1.3, rel=1e-13)
    profile = diagonal_profile(HahnParams(N=3, alpha=-4.5, beta=-3.5))
    assert isinstance(profile, AlmostConstantTail)
    assert profile.value == pytest.approx(1.75, rel=1e-13)
    assert profile.tail == pytest.approx(0.75, rel=1e-13)


def test_diagonal_profile_general_and_precedence():
    assert isinstance(diagonal_profile(KrawtchoukParams(N=5, p=0.3)), GeneralDiag)
    # two distinct entries: the head classification wins over the tail one
    profile = diagonal_profile(HahnParams(N=1, alpha=0.4, beta=-0.4))
    assert isinstance(profile, AlmostConstantHead)
