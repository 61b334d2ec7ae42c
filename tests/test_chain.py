"""Tests for the oscillator chain: couplings, bounds, spectra and levels."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from chain_spectra.chain import (
    ChainSpec,
    ConstantInteraction,
    CustomInteraction,
    DualQKrawtchoukInteraction,
    HahnInteraction,
    KrawtchoukInteraction,
    LevelGroup,
    ModeSpectrum,
    SpacingProfile,
    SpectrumOrigin,
    assemble_quadratic_form,
    coupling_coefficients,
    enumerate_levels,
    ground_energy,
    is_positive_definite,
    max_coupling,
    mode_frequencies,
    rescale_levels,
    single_phonon_levels,
    spacing_profile,
    state_energy,
)
from chain_spectra.errors import (
    ClosedFormUnavailable,
    CombinatorialLimit,
    DegenerateRange,
    DimensionMismatch,
    InvalidParams,
    NotPositiveDefinite,
    TooFewLevels,
    UnsupportedFamily,
)
from chain_spectra.jacobi import build_jacobi, numeric_decomposition
from chain_spectra.polynomials import HahnParams

CLOSED_VS_NUMERIC_RTOL = 1e-9


def _chain(interaction, n, c, omega=1.0, hbar=1.0):
    return ChainSpec(n=n, omega=omega, coupling=c, interaction=interaction, hbar=hbar)


# -- construction and validation ----------------------------------------------


def test_chainspec_validation():
    good = KrawtchoukInteraction()
    with pytest.raises(InvalidParams):
        ChainSpec(n=0, omega=1.0, coupling=0.1, interaction=good)
    with pytest.raises(InvalidParams):
        ChainSpec(n=3, omega=0.0, coupling=0.1, interaction=good)
    with pytest.raises(InvalidParams):
        ChainSpec(n=3, omega=1.0, coupling=-0.1, interaction=good)
    with pytest.raises(InvalidParams):
        ChainSpec(n=3, omega=1.0, coupling=0.1, interaction=good, hbar=0.0)
    with pytest.raises(DimensionMismatch):
        _chain(CustomInteraction(gammas=(1.0, 1.0)), 4, 0.1)
    with pytest.raises(InvalidParams):
        _chain(CustomInteraction(gammas=(1.0, -1.0, 1.0)), 4, 0.1)
    # the solvable Hahn range has a gap between the two branches
    with pytest.raises(InvalidParams):
        _chain(HahnInteraction(alpha=-2.0), 4, 0.1)
    _chain(HahnInteraction(alpha=-3.5), 4, 0.1)
    with pytest.raises(InvalidParams):
        _chain(DualQKrawtchoukInteraction(q=1.0), 4, 0.1)
    # a chain past its coupling bound still constructs; the spectrum
    # operations are the ones that refuse it
    bad = _chain(KrawtchoukInteraction(), 4, 0.7)
    assert not is_positive_definite(bad)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"coupling": math.inf},
        {"coupling": math.nan},
        {"omega": math.inf},
        {"omega": math.nan},
        {"omega": 1.35e154},  # omega**2 overflows
        {"omega": 1.49e-154},  # omega**2 is subnormal
        {"omega": 1e-200},  # omega**2 underflows to 0
        {"hbar": math.inf},
        {"n": True},
        {"n": 2.5},
        {"n": 3.0},
        {"interaction": CustomInteraction(gammas=(1.0, math.nan))},
        {"interaction": CustomInteraction(gammas=(math.inf, 1.0))},
        {"interaction": HahnInteraction(alpha=math.inf)},
        {"interaction": DualQKrawtchoukInteraction(q=math.inf)},
    ],
)
def test_chainspec_rejects_non_finite_and_non_integer_inputs(kwargs):
    spec = {"n": 3, "omega": 1.0, "coupling": 0.1, "interaction": KrawtchoukInteraction()}
    spec.update(kwargs)
    with pytest.raises(InvalidParams):
        ChainSpec(**spec)


def test_chainspec_accepts_omega_range_ends():
    for omega in (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max)):
        (w,) = mode_frequencies(_chain(KrawtchoukInteraction(), 1, 0.0, omega=omega)).omegas
        assert w == omega


def test_frequencies_and_energies_outside_float_range():
    # omega^2 + c mu overflows: refused by the closed form as by the numeric path
    huge = _chain(ConstantInteraction(), 1, 1e308)
    for call in (mode_frequencies, is_positive_definite, single_phonon_levels):
        with pytest.raises(InvalidParams):
            call(huge)
    with pytest.raises(InvalidParams):
        enumerate_levels(huge, 2)
    # the levels overflow, the zero-point energy does not
    chain = _chain(KrawtchoukInteraction(), 3, 0.1, hbar=1e308)
    assert ground_energy(chain, mode_frequencies(chain)) < math.inf
    with pytest.raises(InvalidParams):
        single_phonon_levels(chain)
    with pytest.raises(InvalidParams):
        state_energy(chain, (0, 0, 1))
    with pytest.raises(InvalidParams):
        enumerate_levels(chain, 1)
    with pytest.raises(InvalidParams):
        ground_energy(_chain(KrawtchoukInteraction(), 9, 0.1, hbar=1e308),
                      mode_frequencies(_chain(KrawtchoukInteraction(), 9, 0.1)))
    # a single oscillator at hbar = 7e307: 3.5 hbar overflows, 1.5 hbar does not
    single = _chain(ConstantInteraction(), 1, 0.0, hbar=7e307)
    assert [g.energy for g in enumerate_levels(single, 1)] == [3.5e307, 1.05e308]
    with pytest.raises(InvalidParams):
        enumerate_levels(single, 3)


def test_energies_are_left_to_right_sums():
    # A compensated sum (built-in sum() from Python 3.12 on) gives 1e16 + 2.
    chain = _chain(KrawtchoukInteraction(), 3, 0.1)
    spectrum = ModeSpectrum(
        omegas=(1e16, 1.0, 1.0), origin=SpectrumOrigin.NUMERIC, family_index=(0, 1, 2)
    )
    assert ground_energy(chain, spectrum) == 0.5e16


def test_single_site_hahn_chain_at_alpha_minus_one():
    # N = 0, alpha = beta = -1: B_0 = (alpha + 1) N / (alpha + beta + 2) is 0/0
    assert build_jacobi(HahnParams(N=0, alpha=-1.0, beta=-1.0)).diag == (0.0,)
    chain = _chain(HahnInteraction(alpha=-1.0), 1, 0.3)
    assert mode_frequencies(chain).omegas == (1.0,)
    assert mode_frequencies(chain, method="numeric").omegas == (1.0,)


def test_chainspec_accepts_numpy_integer_length():
    chain = _chain(KrawtchoukInteraction(), np.int64(4), 0.1)
    assert mode_frequencies(chain) == mode_frequencies(_chain(KrawtchoukInteraction(), 4, 0.1))


def test_chainspec_rejects_dual_q_out_of_float_range():
    # q^(n-1) overflows once (n - 1) |ln q| reaches ln(float max) = 1024 ln 2
    for q in (0.5, 2.0):
        with pytest.raises(InvalidParams):
            _chain(DualQKrawtchoukInteraction(q=q), 1025, 0.0)
        chain = _chain(DualQKrawtchoukInteraction(q=q), 1024, 0.0)
        assert max_coupling(chain) > 0.0
    with pytest.raises(InvalidParams):
        _chain(DualQKrawtchoukInteraction(q=0.001), 200, 0.0)


# -- coupling coefficients ------------------------------------------------------


def test_coupling_coefficients_frozen():
    assert coupling_coefficients(_chain(KrawtchoukInteraction(), 4, 0.1)) == (
        pytest.approx(oracles.GAMMAS_KRAWTCHOUK_N4, rel=1e-15)
    )
    assert coupling_coefficients(_chain(HahnInteraction(alpha=0.5), 3, 0.1)) == (
        pytest.approx(oracles.GAMMAS_HAHN_05_N3, rel=1e-14)
    )
    assert coupling_coefficients(_chain(DualQKrawtchoukInteraction(q=2.0), 3, 0.1)) == (
        pytest.approx(oracles.GAMMAS_DUALQ_Q2_N3, rel=1e-14)
    )
    assert coupling_coefficients(_chain(HahnInteraction(alpha=-0.5), 5, 0.1)) == (
        pytest.approx(oracles.GAMMAS_HAHN_M05_N5, rel=1e-14)
    )
    assert coupling_coefficients(_chain(ConstantInteraction(), 5, 0.1)) == (
        2.0,
        2.0,
        2.0,
        2.0,
    )
    gammas = (0.3, 1.7)
    assert coupling_coefficients(_chain(CustomInteraction(gammas=gammas), 3, 0.1)) == gammas


def test_coupling_coefficients_match_closed_formulas():
    n = 9
    got = coupling_coefficients(_chain(KrawtchoukInteraction(), n, 0.1))
    for r in range(1, n):
        assert got[r - 1] == pytest.approx(math.sqrt(r * (n - r)), rel=1e-14)
    for a in (0.5, 2.0, -n - 0.5):
        got = coupling_coefficients(_chain(HahnInteraction(alpha=a), n, 0.1))
        for r in range(1, n):
            radicand = (
                r * (n - r) * (r + 2 * a) * (r + 2 * a + n)
                / ((2 * r + 2 * a - 1) * (2 * r + 2 * a + 1))
            )
            assert got[r - 1] == pytest.approx(math.sqrt(radicand), rel=1e-12), (a, r)
    # alpha = 1/2 has the simplified closed form sqrt((n-r)(n+r+1))/2
    got = coupling_coefficients(_chain(HahnInteraction(alpha=0.5), n, 0.1))
    for r in range(1, n):
        assert got[r - 1] == pytest.approx(
            math.sqrt((n - r) * (n + r + 1)) / 2.0, rel=1e-12
        )
    for q in (0.7, 1.6):
        got = coupling_coefficients(_chain(DualQKrawtchoukInteraction(q=q), n, 0.1))
        for r in range(1, n):
            expected = 2.0 * math.sqrt(
                q ** (r + 1 - 2 * n) * (1 - q ** r) * (1 - q ** (n - r))
            )
            assert got[r - 1] == pytest.approx(expected, rel=1e-12), (q, r)


def test_reflection_and_limit_identities():
    n = 12
    kraw = coupling_coefficients(_chain(KrawtchoukInteraction(), n, 0.1))
    for r in range(1, n):
        assert kraw[r - 1] == kraw[n - r - 1]
    plus = coupling_coefficients(_chain(HahnInteraction(alpha=0.5), 9, 0.1))
    minus = coupling_coefficients(_chain(HahnInteraction(alpha=-9.5), 9, 0.1))
    for r in range(1, 9):
        assert minus[r - 1] == pytest.approx(plus[9 - r - 1], rel=1e-12)
    large = coupling_coefficients(_chain(HahnInteraction(alpha=1e6), n, 0.1))
    rel = max(abs(g - k) / k for g, k in zip(large, kraw))
    assert rel <= 1e-5
    assert rel == pytest.approx(oracles.HAHN_1E6_VS_KRAWTCHOUK_REL, rel=0.5)


# -- quadratic form assembly -----------------------------------------------------


def test_assemble_quadratic_form_examples():
    A = assemble_quadratic_form(_chain(KrawtchoukInteraction(), 3, 0.4))
    assert A.diag == (1.0, 1.0, 1.0)
    assert A.offdiag == pytest.approx((0.2 * math.sqrt(2),) * 2, rel=1e-15)
    A = assemble_quadratic_form(_chain(ConstantInteraction(), 2, 1.0))
    assert A.diag == (3.0, 3.0)
    assert A.offdiag == (1.0,)
    A = assemble_quadratic_form(_chain(HahnInteraction(alpha=0.5), 4, 0.0))
    assert A.diag == (1.0,) * 4
    assert A.offdiag == (0.0,) * 3


def test_assembly_matches_shifted_jacobi():
    cases = [
        (KrawtchoukInteraction(), lambda n, c: 1.0 - c * (n - 1) / 2.0),
        (HahnInteraction(alpha=0.5), lambda n, c: 1.0 - c * (n - 1) / 2.0),
        (
            DualQKrawtchoukInteraction(q=1.6),
            lambda n, c: 1.0 - c * (1.0 - 1.6 ** (1 - n)),
        ),
        (
            DualQKrawtchoukInteraction(q=0.7),
            lambda n, c: 1.0 - c * (1.0 - 0.7 ** (1 - n)),
        ),
        (ConstantInteraction(), lambda n, c: 1.0),
    ]
    for interaction, shift_of in cases:
        for n in (2, 9, 32):
            chain = _chain(interaction, n, 0.01)
            from chain_spectra.chain import _family_params

            M = build_jacobi(_family_params(chain))
            A = assemble_quadratic_form(chain)
            shift = shift_of(n, chain.coupling)
            for i in range(n):
                assert A.diag[i] == pytest.approx(
                    shift + chain.coupling * M.diag[i], rel=1e-12
                )
            for i in range(n - 1):
                assert A.offdiag[i] == pytest.approx(
                    chain.coupling * M.offdiag[i], rel=1e-12, abs=1e-300
                )


# -- coupling bounds ---------------------------------------------------------------


def test_max_coupling_values():
    assert max_coupling(_chain(KrawtchoukInteraction(), 4, 0.1)) == 2.0 / 3.0
    assert max_coupling(_chain(HahnInteraction(alpha=0.5), 4, 0.1)) == 2.0 / 3.0
    assert max_coupling(_chain(ConstantInteraction(), 5, 0.1)) == math.inf
    assert max_coupling(_chain(KrawtchoukInteraction(), 1, 0.1)) == math.inf
    assert max_coupling(
        _chain(DualQKrawtchoukInteraction(q=0.7), 12, 0.01)
    ) == pytest.approx(oracles.FLIP_DUALQ_Q07_N12, rel=1e-14)
    assert max_coupling(
        _chain(DualQKrawtchoukInteraction(q=1.6), 12, 0.01)
    ) == pytest.approx(oracles.FLIP_DUALQ_Q16_N12, rel=1e-14)
    with pytest.raises(UnsupportedFamily):
        max_coupling(_chain(CustomInteraction(gammas=(1.0,)), 2, 0.1))
    # omega scaling: the bound is proportional to omega^2
    assert max_coupling(
        _chain(KrawtchoukInteraction(), 4, 0.1, omega=2.0)
    ) == pytest.approx(8.0 / 3.0, rel=1e-15)


def test_positive_definiteness_boundary_flip():
    interactions = [
        (KrawtchoukInteraction(), 2),
        (KrawtchoukInteraction(), 4),
        (KrawtchoukInteraction(), 9),
        (HahnInteraction(alpha=0.5), 9),
        (HahnInteraction(alpha=-9.5), 9),
        (DualQKrawtchoukInteraction(q=0.7), 12),
        (DualQKrawtchoukInteraction(q=1.6), 12),
    ]
    for interaction, n in interactions:
        bound = max_coupling(_chain(interaction, n, 0.0))
        assert is_positive_definite(_chain(interaction, n, 0.999 * bound))
        assert not is_positive_definite(_chain(interaction, n, 1.001 * bound))


def test_krawtchouk_flip_confirmed_by_numeric_eigenvalue():
    low = numeric_decomposition(
        assemble_quadratic_form(_chain(KrawtchoukInteraction(), 4, 0.666))
    )
    high = numeric_decomposition(
        assemble_quadratic_form(_chain(KrawtchoukInteraction(), 4, 0.667))
    )
    assert low.eigenvalues[0] > 0.0 > high.eigenvalues[0]
    assert is_positive_definite(_chain(KrawtchoukInteraction(), 4, 0.666))
    assert not is_positive_definite(_chain(KrawtchoukInteraction(), 4, 0.667))


# -- mode frequencies ----------------------------------------------------------------


def test_mode_frequencies_frozen():
    spectrum = mode_frequencies(_chain(KrawtchoukInteraction(), 4, 0.4))
    assert spectrum.origin is SpectrumOrigin.CLOSED_FORM
    assert spectrum.omegas == pytest.approx(oracles.OMEGAS_KRAWTCHOUK_N4_C04, rel=1e-15)
    numeric = mode_frequencies(_chain(KrawtchoukInteraction(), 4, 0.4), method="numeric")
    assert numeric.origin is SpectrumOrigin.NUMERIC
    assert numeric.omegas == pytest.approx(spectrum.omegas, rel=1e-10)
    spectrum = mode_frequencies(_chain(DualQKrawtchoukInteraction(q=2.0), 3, 0.1))
    assert spectrum.omegas == pytest.approx(oracles.OMEGAS_DUALQ_Q2_N3_C01, rel=1e-15)
    spectrum = mode_frequencies(_chain(ConstantInteraction(), 2, 1.0))
    assert spectrum.omegas == pytest.approx((math.sqrt(2.0), 2.0), rel=1e-15)


def test_mode_frequencies_index_bookkeeping():
    spectrum = mode_frequencies(_chain(KrawtchoukInteraction(), 5, 0.2))
    assert spectrum.family_index == (1, 2, 3, 4, 5)
    spectrum = mode_frequencies(_chain(DualQKrawtchoukInteraction(q=1.6), 5, 0.2))
    assert spectrum.family_index == (0, 1, 2, 3, 4)
    spectrum = mode_frequencies(_chain(DualQKrawtchoukInteraction(q=0.7), 5, 0.01))
    assert spectrum.family_index == (4, 3, 2, 1, 0)
    spectrum = mode_frequencies(_chain(KrawtchoukInteraction(), 5, 0.2), method="numeric")
    assert spectrum.family_index == (0, 1, 2, 3, 4)
    with pytest.raises(InvalidParams):
        mode_frequencies(_chain(KrawtchoukInteraction(), 5, 0.2), method="fancy")


def test_mode_frequencies_ascending_positive():
    for interaction, c in (
        (ConstantInteraction(), 0.8),
        (KrawtchoukInteraction(), 0.05),
        (HahnInteraction(alpha=2.0), 0.05),
        (DualQKrawtchoukInteraction(q=0.9), 0.05),
    ):
        spectrum = mode_frequencies(_chain(interaction, 16, c))
        assert all(w > 0.0 for w in spectrum.omegas)
        assert list(spectrum.omegas) == sorted(spectrum.omegas)


def test_closed_vs_numeric_agreement():
    interactions = [
        ConstantInteraction(),
        KrawtchoukInteraction(),
        HahnInteraction(alpha=0.5),
        HahnInteraction(alpha=2.0),
        DualQKrawtchoukInteraction(q=0.7),
        DualQKrawtchoukInteraction(q=1.6),
    ]
    for interaction in interactions:
        for n in (2, 9, 32):
            bound = max_coupling(_chain(interaction, n, 0.0))
            c = 0.8 if math.isinf(bound) else 0.5 * bound
            closed = mode_frequencies(_chain(interaction, n, c), method="closed")
            numeric = mode_frequencies(_chain(interaction, n, c), method="numeric")
            rel = max(
                abs(a - b) / a for a, b in zip(closed.omegas, numeric.omegas)
            )
            assert rel <= CLOSED_VS_NUMERIC_RTOL, (interaction, n, rel)


def test_hahn_krawtchouk_spectral_equality():
    n, c = 12, 0.18
    kraw_closed = mode_frequencies(_chain(KrawtchoukInteraction(), n, c))
    kraw_numeric = mode_frequencies(_chain(KrawtchoukInteraction(), n, c), method="numeric")
    for a in (0.5, 3.0, -12.5):
        hahn_closed = mode_frequencies(_chain(HahnInteraction(alpha=a), n, c))
        hahn_numeric = mode_frequencies(
            _chain(HahnInteraction(alpha=a), n, c), method="numeric"
        )
        assert max(
            abs(x - y) for x, y in zip(hahn_closed.omegas, kraw_closed.omegas)
        ) <= 1e-10
        assert max(
            abs(x - y) for x, y in zip(hahn_numeric.omegas, kraw_numeric.omegas)
        ) <= 1e-10


def test_not_positive_definite_operations():
    bad = _chain(KrawtchoukInteraction(), 4, 0.7)
    with pytest.raises(NotPositiveDefinite):
        mode_frequencies(bad)
    with pytest.raises(NotPositiveDefinite):
        single_phonon_levels(bad)
    with pytest.raises(NotPositiveDefinite):
        enumerate_levels(bad, 1)


def test_custom_interaction_paths():
    reference = _chain(KrawtchoukInteraction(), 6, 0.2)
    chain = _chain(CustomInteraction(gammas=coupling_coefficients(reference)), 6, 0.2)
    spectrum = mode_frequencies(chain)
    assert spectrum.origin is SpectrumOrigin.NUMERIC
    closed = mode_frequencies(reference)
    assert spectrum.omegas == pytest.approx(closed.omegas, rel=1e-9)
    with pytest.raises(ClosedFormUnavailable):
        mode_frequencies(chain, method="closed")
    assert is_positive_definite(chain)
    assert not is_positive_definite(
        _chain(CustomInteraction(gammas=(50.0,)), 2, 1.0)
    )


# -- energies and levels --------------------------------------------------------------


def test_state_energy_values_and_errors():
    chain = _chain(KrawtchoukInteraction(), 4, 0.4)
    assert state_energy(chain, (0, 0, 0, 0)) == oracles.GROUND_KRAWTCHOUK_N4_C04
    omegas = mode_frequencies(chain).omegas
    ground = state_energy(chain, (0, 0, 0, 0))
    for j in range(4):
        occ = [0, 0, 0, 0]
        occ[j] = 1
        assert state_energy(chain, occ) == ground + omegas[j]
    with pytest.raises(DimensionMismatch):
        state_energy(chain, (0, 0, 1))
    with pytest.raises(InvalidParams):
        state_energy(chain, (0, -1, 0, 0))
    with pytest.raises(InvalidParams):
        state_energy(chain, (0, 0.5, 0, 0))


def test_state_energy_hbar_scaling():
    base = _chain(KrawtchoukInteraction(), 3, 0.2)
    doubled = ChainSpec(
        n=3, omega=1.0, coupling=0.2, interaction=KrawtchoukInteraction(), hbar=2.0
    )
    assert state_energy(doubled, (1, 0, 2)) == pytest.approx(
        2.0 * state_energy(base, (1, 0, 2)), rel=1e-15
    )


def test_single_phonon_levels_structure():
    chain = _chain(KrawtchoukInteraction(), 4, 0.4)
    levels = single_phonon_levels(chain)
    assert list(levels) == sorted(levels)
    for j, level in enumerate(levels):
        occ = [0] * 4
        occ[j] = 1
        assert level == state_energy(chain, occ)


def test_single_oscillator_levels():
    for interaction in (
        KrawtchoukInteraction(),
        HahnInteraction(alpha=0.5),
        DualQKrawtchoukInteraction(q=1.6),
    ):
        # a single site has no neighbours: coupling is inert
        levels = single_phonon_levels(_chain(interaction, 1, 0.7))
        assert levels == pytest.approx((1.5,), rel=1e-15)
    levels = single_phonon_levels(_chain(ConstantInteraction(), 1, 0.0))
    assert levels == pytest.approx((1.5,), rel=1e-15)


def test_enumerate_levels_frozen_constant_chain():
    chain = _chain(ConstantInteraction(), 2, 1.0)
    groups = enumerate_levels(chain, 2)
    assert len(groups) == 6
    assert tuple(g.energy for g in groups) == pytest.approx(
        oracles.ENERGIES_CONSTANT_N2_C1, rel=1e-12
    )
    assert all(g.degeneracy == 1 for g in groups)
    assert groups[0].occupations == ((0, 0),)
    # omega ascending pairs sqrt(2) with mode 0: the first excited state
    # is one phonon in the softer mode
    assert groups[1].occupations == ((1, 0),)


def test_enumerate_levels_small_counts():
    chain = _chain(KrawtchoukInteraction(), 4, 0.4)
    groups = enumerate_levels(chain, 0)
    assert len(groups) == 1 and groups[0].occupations == ((0, 0, 0, 0),)
    groups = enumerate_levels(chain, 1)
    assert len(groups) == 5
    levels = single_phonon_levels(chain)
    assert tuple(g.energy for g in groups[1:]) == pytest.approx(levels, rel=1e-12)


def test_enumerate_levels_degenerate_grouping():
    chain = _chain(KrawtchoukInteraction(), 3, 0.0)
    groups = enumerate_levels(chain, 2)
    assert [g.degeneracy for g in groups] == [1, 3, 6]
    assert [g.energy for g in groups] == pytest.approx([1.5, 2.5, 3.5], rel=1e-14)
    assert groups[1].occupations == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def _grid_couplings(interaction, n, omega):
    """c = 0, a small coupling and one near the chain's coupling bound (the
    uniform chain has none, so a large one)."""
    if isinstance(interaction, CustomInteraction):
        G = np.diag(interaction.gammas, 1)
        top = max(np.linalg.eigvalsh(G + G.T)) if n > 1 else 0.0
        bound = 2.0 * omega**2 / top if top > 0.0 else math.inf
    else:
        bound = max_coupling(_chain(interaction, n, 0.0, omega=omega))
    if math.isinf(bound):
        return (0.0, 0.05, 10.0)
    return (0.0, 0.05 * bound, 0.98 * bound)


def _grid_interactions(n):
    yield ConstantInteraction()
    yield KrawtchoukInteraction()
    yield HahnInteraction(alpha=0.5)
    yield DualQKrawtchoukInteraction(q=1.6)
    yield CustomInteraction(gammas=tuple(1.0 + 0.37 * (r % 3) for r in range(n - 1)))


@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_levels_equals_scalar_reference(n):
    # Bit for bit against the one-tuple-at-a-time enumeration, including
    # exact ties (every Krawtchouk and Hahn mode equals omega at c = 0).
    for interaction in _grid_interactions(n):
        for omega, hbar in ((1.0, 1.0), (1.3, 0.7)):
            for c in _grid_couplings(interaction, n, omega):
                chain = _chain(interaction, n, c, omega=omega, hbar=hbar)
                for K in range(6):
                    got = enumerate_levels(chain, K)
                    want = oracles.enumerate_levels_reference(chain, K)
                    where = (interaction, n, c, omega, hbar, K)
                    assert [g.energy.hex() for g in got] == [
                        g.energy.hex() for g in want
                    ], where
                    assert [(g.degeneracy, g.occupations) for g in got] == [
                        (g.degeneracy, g.occupations) for g in want
                    ], where
                    assert type(got[-1].occupations[0][0]) is int


def test_state_energy_equals_level_and_single_phonon_energies():
    # One formula, E_0 + hbar * sum_j omega_j k_j summed left to right, for
    # a state's energy, its level's energy and the single-phonon levels.
    n = 5
    for interaction in _grid_interactions(n):
        for c in _grid_couplings(interaction, n, 1.0)[1:]:
            for hbar in (1.0, 0.7):
                chain = _chain(interaction, n, c, hbar=hbar)
                where = (interaction, c, hbar)
                for group in enumerate_levels(chain, 3):
                    assert state_energy(chain, group.occupations[0]) == group.energy, where
                for j, level in enumerate(single_phonon_levels(chain)):
                    occ = [0] * n
                    occ[j] = 1
                    assert state_energy(chain, occ) == level, where


def test_enumerate_levels_budget_and_validation():
    chain = _chain(ConstantInteraction(), 50, 1.0)
    with pytest.raises(CombinatorialLimit):
        enumerate_levels(chain, 8)
    with pytest.raises(InvalidParams):
        enumerate_levels(chain, -1)


# -- spacing profiles and rescaling ------------------------------------------------


def test_spacing_profile_synthetic():
    assert spacing_profile((0.0, 1.0, 3.0, 6.0)) is SpacingProfile.INCREASING
    assert spacing_profile((0.0, 3.0, 5.0, 6.0)) is SpacingProfile.DECREASING
    assert spacing_profile((0.0, 1.0, 3.0, 4.0)) is SpacingProfile.MID_PEAK
    assert spacing_profile((0.0, 2.0, 3.0, 5.0)) is SpacingProfile.MID_DIP
    assert spacing_profile((0.0, 1.0, 2.0, 3.0)) is SpacingProfile.OTHER
    with pytest.raises(TooFewLevels):
        spacing_profile((0.0, 1.0))


def test_figure_panel_patterns():
    n = 12
    panels = [
        (ConstantInteraction(), 0.5, SpacingProfile.MID_PEAK),
        (KrawtchoukInteraction(), 0.18, SpacingProfile.DECREASING),
        (DualQKrawtchoukInteraction(q=1.6), 1.0, SpacingProfile.MID_DIP),
        (DualQKrawtchoukInteraction(q=0.7), 0.01, SpacingProfile.MID_DIP),
    ]
    for interaction, c, expected in panels:
        levels = single_phonon_levels(_chain(interaction, n, c))
        assert spacing_profile(levels) is expected, interaction


def test_rescale_levels():
    assert rescale_levels((0.0, 1.0, 2.0)) == (0.0, 0.5, 1.0)
    levels = single_phonon_levels(_chain(KrawtchoukInteraction(), 6, 0.2))
    rescaled = rescale_levels(levels)
    assert rescaled[0] == 0.0 and rescaled[-1] == 1.0
    again = rescale_levels(rescaled)
    assert again == pytest.approx(rescaled, abs=1e-15)
    span = max(levels) - min(levels)
    for t in range(len(levels) - 1):
        before = levels[t + 1] - levels[t]
        after = rescaled[t + 1] - rescaled[t]
        assert after == pytest.approx(before / span, rel=1e-12)
    shifted = rescale_levels((0.0, 1.0, 2.0), lo=2.0, hi=4.0)
    assert shifted == pytest.approx((2.0, 3.0, 4.0), rel=1e-15)
    with pytest.raises(DegenerateRange):
        rescale_levels((1.0, 1.0, 1.0))


# -- property-based checks -----------------------------------------------------------


@given(
    n=st.integers(min_value=2, max_value=5),
    seed_occ=st.lists(st.integers(min_value=0, max_value=4), min_size=5, max_size=5),
    j=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_property_state_energy_additivity(n, seed_occ, j):
    chain = _chain(KrawtchoukInteraction(), n, 0.4 * max_coupling(
        _chain(KrawtchoukInteraction(), n, 0.0)
    ) if n > 1 else 0.0)
    occ = tuple(seed_occ[:n])
    mode = j % n
    bumped = tuple(k + 1 if t == mode else k for t, k in enumerate(occ))
    omega_j = mode_frequencies(chain).omegas[mode]
    delta = state_energy(chain, bumped) - state_energy(chain, occ)
    assert abs(delta - chain.hbar * omega_j) <= 1e-12 * (
        1.0 + abs(state_energy(chain, occ))
    )
