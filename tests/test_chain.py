"""Tests for the oscillator chain: couplings, bounds, spectra and levels."""

import copy
import dataclasses
import itertools
import math
import pickle
import sys
import tracemalloc
from collections import abc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from chain_spectra import chain as chain_module
from chain_spectra import jacobi as jacobi_module
from chain_spectra.chain import (
    PD_TOL,
    ChainSpec,
    ConstantInteraction,
    CustomInteraction,
    DualQKrawtchoukInteraction,
    HahnInteraction,
    KrawtchoukInteraction,
    LevelGroup,
    LevelTable,
    ModeSpectrum,
    SpacingProfile,
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
    BudgetExceeded,
    ChainSpectraError,
    ClosedFormUnavailable,
    CombinatorialLimit,
    DegenerateRange,
    DimensionMismatch,
    InvalidParams,
    NotPositiveDefinite,
    TooFewLevels,
    UnsupportedFamily,
)
from chain_spectra.jacobi import (
    ConstantParams,
    Origin,
    SymTridiagonal,
    _all_above,
    _zero_diagonal_eigenvalues,
    build_jacobi,
    numeric_decomposition,
    numeric_eigenvalues,
)
from chain_spectra.polynomials import DualQKrawtchoukParams, HahnParams, KrawtchoukParams

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


@pytest.mark.parametrize(
    "kwargs",
    [
        {"omega": None},
        {"omega": 1j},
        {"omega": True},
        {"coupling": "0.1"},
        {"coupling": False},
        {"hbar": None},
        {"hbar": True},
        {"interaction": CustomInteraction(gammas=(None, None))},
        {"interaction": CustomInteraction(gammas=(True, 1.0))},
    ],
    ids=["omega_none", "omega_complex", "omega_bool", "coupling_string",
         "coupling_bool", "hbar_none", "hbar_bool", "gammas_none", "gammas_bool"],
)
def test_chainspec_rejects_parameters_that_are_not_real_numbers(kwargs):
    # None, a complex and a string raised a raw TypeError from a range
    # comparison; a bool was taken as 1 or 0.
    spec = {"n": 3, "omega": 1.0, "coupling": 0.1, "interaction": KrawtchoukInteraction()}
    spec.update(kwargs)
    with pytest.raises(InvalidParams, match="real number"):
        ChainSpec(**spec)


@pytest.mark.parametrize("gammas", [None, 1.0, "12", {1.0, 2.0}])
def test_chainspec_rejects_custom_gammas_that_are_not_a_sequence(gammas):
    # None raised a raw TypeError from len(gammas).
    with pytest.raises(InvalidParams, match="sequence of real numbers"):
        ChainSpec(n=3, omega=1.0, coupling=0.1, interaction=CustomInteraction(gammas=gammas))


@pytest.mark.parametrize("interaction", ["krawtchouk", None, KrawtchoukInteraction])
def test_chainspec_rejects_an_interaction_that_is_not_one(interaction):
    # A str raised ClosedFormUnavailable, "custom interactions have no
    # closed-form spectrum".
    with pytest.raises(InvalidParams, match="interaction must be one of"):
        ChainSpec(n=3, omega=1.0, coupling=0.1, interaction=interaction)


def test_chainspec_takes_custom_gammas_as_any_sequence_of_reals():
    want = mode_frequencies(_chain(CustomInteraction(gammas=(1.0, 0.5)), 3, 0.25))
    for gammas in ([1.0, 0.5], np.array([1.0, 0.5])):
        chain = _chain(CustomInteraction(gammas=gammas), 3, 0.25)
        assert mode_frequencies(chain) == want
        assert coupling_coefficients(chain) == (1.0, 0.5)


def test_chainspec_accepts_real_numbers_of_any_type():
    from fractions import Fraction

    want = mode_frequencies(_chain(CustomInteraction(gammas=(1.0, 0.5)), 3, 0.25)).omegas
    for omega, c, gammas in (
        (1, Fraction(1, 4), (1, Fraction(1, 2))),
        (np.float64(1.0), np.float64(0.25), (np.float64(1.0), np.float64(0.5))),
    ):
        chain = ChainSpec(n=3, omega=omega, coupling=c,
                          interaction=CustomInteraction(gammas=gammas), hbar=np.int64(1))
        assert mode_frequencies(chain).omegas == want


def test_chainspec_stores_what_it_checked():
    from fractions import Fraction

    chain = ChainSpec(n=np.int64(3), omega=1, coupling=Fraction(1, 4),
                      interaction=CustomInteraction(gammas=[1, np.float64(0.5)]),
                      hbar=np.float32(2.0))
    assert type(chain.n) is int and chain.n == 3
    assert [(type(v), v) for v in (chain.omega, chain.coupling, chain.hbar)] == [
        (float, 1.0), (float, 0.25), (float, 2.0)
    ]
    gammas = chain.interaction.gammas
    assert type(gammas) is tuple
    assert [(type(g), g) for g in gammas] == [(float, 1.0), (float, 0.5)]
    assert coupling_coefficients(chain) is gammas
    assert chain == ChainSpec(n=3, omega=1.0, coupling=0.25,
                              interaction=CustomInteraction(gammas=(1.0, 0.5)), hbar=2.0)


# Each interaction on n sites, and its Jacobi family on N = n - 1 (None for
# a custom chain).
_FAMILY_CASES = [
    (lambda n: ConstantInteraction(), lambda N: ConstantParams(N)),
    (lambda n: KrawtchoukInteraction(), lambda N: KrawtchoukParams(N, 0.5)),
    (lambda n: HahnInteraction(alpha=0.5), lambda N: HahnParams(N, 0.5, 0.5)),
    (lambda n: DualQKrawtchoukInteraction(q=1.6), lambda N: DualQKrawtchoukParams(N, -1.0, 1.6)),
    (lambda n: CustomInteraction(gammas=(1.0,) * (n - 1)), lambda N: None),
]
_FAMILY_IDS = ["constant", "krawtchouk", "hahn", "qkrawtchouk", "custom"]


@pytest.mark.parametrize("interaction_of, family_of", _FAMILY_CASES, ids=_FAMILY_IDS)
def test_chainspec_keeps_its_family(interaction_of, family_of):
    chain = _chain(interaction_of(5), 5, 0.1)
    assert chain.family == family_of(4)
    longer = dataclasses.replace(chain, n=9, interaction=interaction_of(9))
    assert longer.family == family_of(8)
    if chain.family is not None:
        assert dataclasses.replace(chain, n=9).family == family_of(8)
    assert pickle.loads(pickle.dumps(chain)).family == family_of(4)
    with pytest.raises(TypeError):
        ChainSpec(n=5, omega=1.0, coupling=0.1, interaction=interaction_of(5),
                  family=family_of(4))


@pytest.mark.parametrize("interaction_of, family_of", _FAMILY_CASES, ids=_FAMILY_IDS)
def test_chainspec_equality_hash_and_repr_ignore_its_family(interaction_of, family_of):
    chain = _chain(interaction_of(5), 5, 0.1)
    twin = copy.copy(chain)
    object.__setattr__(twin, "family", ConstantParams(7))
    assert twin == chain and hash(twin) == hash(chain) and repr(twin) == repr(chain)
    assert repr(chain) == (
        f"ChainSpec(n=5, omega=1.0, coupling=0.1, interaction={interaction_of(5)!r}, "
        "hbar=1.0)"
    )


@pytest.mark.parametrize("interaction_of, family_of", _FAMILY_CASES, ids=_FAMILY_IDS)
def test_chain_functions_build_no_family(monkeypatch, interaction_of, family_of):
    # The family is built once, with the chain; no function builds it again.
    family = family_of(3)
    built = []
    for name in ("ConstantParams", "KrawtchoukParams", "HahnParams", "DualQKrawtchoukParams"):
        cls = getattr(chain_module, name)

        def counting(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    chain = _chain(interaction_of(4), 4, 0.1)
    assert built == ([] if family is None else [type(family).__name__])
    built.clear()
    spectrum = mode_frequencies(chain)
    calls = [
        lambda: coupling_coefficients(chain),
        lambda: assemble_quadratic_form(chain),
        lambda: max_coupling(chain),
        lambda: mode_frequencies(chain, method="closed"),
        lambda: mode_frequencies(chain, method="numeric"),
        lambda: is_positive_definite(chain),
        lambda: state_energy(chain, (0, 1, 0, 2)),
        lambda: ground_energy(chain, spectrum),
        lambda: single_phonon_levels(chain),
        lambda: enumerate_levels(chain, 2),
    ]
    for call in calls:
        try:
            call()
        except ChainSpectraError:  # the closed form and bound of a custom chain
            assert family is None
    assert built == []


@pytest.mark.parametrize("interaction_of, family_of", _FAMILY_CASES[:4], ids=_FAMILY_IDS[:4])
def test_bound_and_refusals_build_no_spectrum(monkeypatch, interaction_of, family_of):
    # Every closed call reads K's closed form once.  The bound, the
    # positive-definiteness test and a refusal of the closed route evaluate
    # mu at the two ends alone; a chain that passes evaluates its n values
    # besides.
    n = 6
    dispatched, evaluated = [], []

    def counting(fam, _formula=jacobi_module._interaction_formula):
        dispatched.append(fam)
        mu, indices = _formula(fam)

        def counted(index):
            evaluated.append(index)
            return mu(index)

        return counted, indices

    monkeypatch.setattr(chain_module, "_interaction_formula", counting)
    monkeypatch.setattr(jacobi_module, "_interaction_formula", counting)

    def counts(call, *args, error=None):
        dispatched.clear()
        evaluated.clear()
        if error is None:
            call(*args)
        else:
            with pytest.raises(error):
                call(*args)
        assert dispatched == [family_of(n - 1)]
        return len(evaluated)

    chain = _chain(interaction_of(n), n, 0.1)
    bound = max_coupling(chain)
    assert is_positive_definite(chain)
    # omega^2 = 1e308 and c = 1e308: the top square overflows float range.
    overflowing = dataclasses.replace(chain, omega=1e154, coupling=1e308)
    assert counts(max_coupling, overflowing) == 2  # forms no square
    assert counts(is_positive_definite, chain) == 2
    assert counts(is_positive_definite, overflowing, error=InvalidParams) == 2
    refusals = [(InvalidParams, overflowing)]
    if not math.isinf(bound):  # the uniform chain has no bound
        above = dataclasses.replace(chain, coupling=2.0 * bound)
        assert not is_positive_definite(above)
        assert counts(max_coupling, above) == 2
        refusals.append((NotPositiveDefinite, above))
    for error, refused in refusals:
        for method in ("auto", "closed"):
            assert counts(mode_frequencies, refused, method, error=error) <= 2
    for method in ("auto", "closed"):
        assert counts(mode_frequencies, chain, method) == n + 2


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
    spectrum = ModeSpectrum(omegas=(1e16, 1.0, 1.0), origin=Origin.NUMERIC)
    assert ground_energy(chain, spectrum) == 0.5e16


def test_ground_energy_rejects_a_spectrum_of_another_length():
    chain = _chain(KrawtchoukInteraction(), 4, 0.1)
    spectrum = mode_frequencies(_chain(KrawtchoukInteraction(), 3, 0.1))
    for call in (ground_energy, single_phonon_levels):
        with pytest.raises(DimensionMismatch):
            call(chain, spectrum)


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
    # Dual q-Krawtchouk q = 0.01: every E_r is finite at n = 155, but the
    # largest 2 E_r overflows; at n = 154 it is 1.99e306.
    assert max(coupling_coefficients(_chain(DualQKrawtchoukInteraction(q=0.01), 154, 0.0))) == (
        pytest.approx(1.98997487421e306, rel=1e-11)
    )
    with pytest.raises(InvalidParams, match="coupling magnitudes 2 E_r overflow"):
        coupling_coefficients(_chain(DualQKrawtchoukInteraction(q=0.01), 155, 0.0))


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
            M = build_jacobi(chain.family)
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


def test_assembly_refuses_entries_outside_float_range():
    for chain in (
        _chain(ConstantInteraction(), 3, 1e308, omega=1e154),  # omega^2 + 2c
        _chain(KrawtchoukInteraction(), 9, 1e308),  # c E_r
        _chain(CustomInteraction(gammas=(1e308,)), 2, 1e308),  # c (gamma_r / 2)
    ):
        with pytest.raises(InvalidParams, match=r"quadratic form omega\^2 I \+ c K overflow"):
            assemble_quadratic_form(chain)


def test_interaction_matrix_that_is_not_finite_names_the_family():
    # At alpha = 1e154 every Hahn E_r is nan: the refusal names the family,
    # not omega or c, on every route that builds K.  The closed route does
    # not build K, and at c = 0 every mode is omega.
    chain = _chain(HahnInteraction(alpha=1e154), 4, 0.0)
    for build in (
        lambda: mode_frequencies(chain, method="numeric"),
        lambda: assemble_quadratic_form(chain),
        lambda: coupling_coefficients(chain),
    ):
        with pytest.raises(InvalidParams) as info:
            build()
        message = str(info.value)
        assert "HahnParams(N=3, alpha=1e+154" in message and "c =" not in message
    assert mode_frequencies(chain, method="closed").omegas == (1.0,) * 4


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


def _near_floor_chains(r, omega=1.5, n=12):
    """A Krawtchouk chain and a custom chain with gamma_r = 2, whose
    smallest square omega^2 + c mu_min is r omega^2: mu_min is -(n - 1) / 2
    for Krawtchouk and -2 cos(pi / (n + 1)) for the custom chain."""
    w2 = omega**2
    krawtchouk = _chain(KrawtchoukInteraction(), n, (1.0 - r) * 2.0 * w2 / (n - 1), omega)
    custom = _chain(
        CustomInteraction(gammas=(2.0,) * (n - 1)),
        n,
        (1.0 - r) * w2 / (2.0 * math.cos(math.pi / (n + 1))),
        omega,
    )
    return krawtchouk, custom


def test_positive_definiteness_floor_is_pd_tol():
    # Smallest squares a decade above and below the floor PD_TOL omega^2
    # on every route: a floor of 1e-10 refuses the first pair, one of
    # 1e-14 passes the second.
    w2 = 1.5**2
    krawtchouk, custom = _near_floor_chains(1e-11)
    assert is_positive_definite(krawtchouk) and is_positive_definite(custom)
    for chain, method in ((krawtchouk, "closed"), (krawtchouk, "numeric"), (custom, "auto")):
        omegas = mode_frequencies(chain, method).omegas
        assert omegas[0] ** 2 == pytest.approx(1e-11 * w2, rel=1e-3), (chain, method)
    krawtchouk, custom = _near_floor_chains(1e-13)
    assert not is_positive_definite(krawtchouk) and not is_positive_definite(custom)
    for chain, method in ((krawtchouk, "closed"), (krawtchouk, "numeric"), (custom, "auto")):
        with pytest.raises(NotPositiveDefinite):
            mode_frequencies(chain, method)


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
    assert spectrum.origin is Origin.ANALYTIC
    assert spectrum.omegas == pytest.approx(oracles.OMEGAS_KRAWTCHOUK_N4_C04, rel=1e-15)
    numeric = mode_frequencies(_chain(KrawtchoukInteraction(), 4, 0.4), method="numeric")
    assert numeric.origin is Origin.NUMERIC
    assert numeric.omegas == pytest.approx(spectrum.omegas, rel=1e-10)
    spectrum = mode_frequencies(_chain(DualQKrawtchoukInteraction(q=2.0), 3, 0.1))
    assert spectrum.omegas == pytest.approx(oracles.OMEGAS_DUALQ_Q2_N3_C01, rel=1e-15)
    spectrum = mode_frequencies(_chain(ConstantInteraction(), 2, 1.0))
    assert spectrum.omegas == pytest.approx((math.sqrt(2.0), 2.0), rel=1e-15)


def test_mode_frequencies_index_bookkeeping():
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
    assert spectrum.origin is Origin.NUMERIC
    closed = mode_frequencies(reference)
    assert spectrum.omegas == pytest.approx(closed.omegas, rel=1e-9)
    with pytest.raises(ClosedFormUnavailable):
        mode_frequencies(chain, method="closed")
    # Refused as custom before any square is formed, even one that overflows.
    with pytest.raises(ClosedFormUnavailable):
        mode_frequencies(dataclasses.replace(chain, coupling=1e308), method="closed")
    assert is_positive_definite(chain)
    assert not is_positive_definite(
        _chain(CustomInteraction(gammas=(50.0,)), 2, 1.0)
    )


def test_pivot_test_spares_the_eigenvalue_kernel(monkeypatch):
    # The O(n) pivot test decides positive definiteness; the dqds kernel
    # runs only for a numeric spectrum of a chain that passes it.
    calls = []

    def counting(offdiag):
        calls.append(len(offdiag) + 1)
        return _zero_diagonal_eigenvalues(offdiag)

    monkeypatch.setattr(chain_module, "_zero_diagonal_eigenvalues", counting)
    custom = CustomInteraction(gammas=(1.0, 2.0, 1.0))
    below, above = _chain(custom, 4, 0.3), _chain(custom, 4, 3.0)
    assert is_positive_definite(below)
    assert not is_positive_definite(above)
    for chain in (above, _chain(KrawtchoukInteraction(), 4, 0.7)):
        with pytest.raises(NotPositiveDefinite):
            mode_frequencies(chain, method="numeric")
    with pytest.raises(NotPositiveDefinite):
        single_phonon_levels(above)
    with pytest.raises(NotPositiveDefinite):
        enumerate_levels(above, 2)
    assert calls == []
    mode_frequencies(below, method="numeric")
    assert calls == [4]


def test_numeric_spectrum_builds_the_interaction_matrix_once(monkeypatch):
    # The pivot test and dqds share one K: its off-diagonal E_r is built
    # once per numeric spectrum of a built-in chain.
    calls = []

    def counting(B, D):
        calls.append(len(B))
        return offdiag(B, D)

    offdiag = jacobi_module._offdiag
    monkeypatch.setattr(jacobi_module, "_offdiag", counting)
    for interaction in (KrawtchoukInteraction(), HahnInteraction(alpha=0.5),
                        DualQKrawtchoukInteraction(q=0.7)):
        calls.clear()
        numeric = mode_frequencies(_chain(interaction, 9, 0.05), method="numeric")
        assert calls == [9]
        closed = mode_frequencies(_chain(interaction, 9, 0.05))
        assert numeric.omegas == pytest.approx(closed.omegas, rel=1e-14)


def test_numeric_spectrum_budget_is_checked_before_k_is_built(monkeypatch):
    # A chain of NUMERIC_CAP modes gets past the budget (to K, stubbed here
    # so that nothing is built); one more is refused on the numeric route
    # alone, from mode_frequencies and from enumerate_levels of a custom
    # chain.  The closed route has no such budget.
    class Reached(Exception):
        pass

    def reached(chain):
        raise Reached

    monkeypatch.setattr(chain_module, "_interaction", reached)
    cap = chain_module.NUMERIC_CAP
    custom = _chain(CustomInteraction(gammas=(1.0,) * cap), cap + 1, 0.1)
    krawtchouk = _chain(KrawtchoukInteraction(), cap + 1, 1e-9)
    with pytest.raises(Reached):
        mode_frequencies(dataclasses.replace(krawtchouk, n=cap), method="numeric")
    message = f"{cap + 1} modes exceed the numeric budget of {cap}$"
    for call in (
        lambda: mode_frequencies(krawtchouk, method="numeric"),
        lambda: mode_frequencies(custom),
        lambda: enumerate_levels(custom, 1),
    ):
        with pytest.raises(BudgetExceeded, match=message):
            call()
    assert len(mode_frequencies(krawtchouk).omegas) == cap + 1


def _ulps(x, k):
    """x moved by k units in the last place (down for k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@pytest.mark.parametrize("steps", range(-4, 5))
def test_numeric_spectrum_stays_above_the_floor(steps):
    # Couplings within a few ulps of the one that puts the smallest square
    # on the floor PD_TOL * omega^2, where the pivot test and the squares
    # 1 + c mu of the dqds kernel's mu can disagree: a spectrum is returned
    # only when both pass.
    reference = _chain(KrawtchoukInteraction(), 8, 0.0)
    custom = CustomInteraction(gammas=coupling_coefficients(reference))
    c = _ulps((1.0 - PD_TOL) * max_coupling(reference), steps)
    chain = _chain(custom, 8, c)
    A = assemble_quadratic_form(chain)
    mus = _zero_diagonal_eigenvalues(tuple(0.5 * g for g in custom.gammas))
    passes = _all_above(A, PD_TOL) and min(1.0 + c * mu for mu in mus) > PD_TOL
    try:
        spectrum = mode_frequencies(chain, method="numeric")
    except NotPositiveDefinite:
        assert not passes
    else:
        assert passes and len(spectrum.omegas) == 8


def test_squares_keep_the_digits_of_a_product_below_the_normal_range():
    # c mu = +-4.55e-318 is subnormal and keeps only 14 bits: omega^2 + c mu
    # formed as written is an ulp off.  Both routes form it on factors
    # scaled by powers of two instead, and give the rounded exact sum.
    c, omega = 9.1e-318, 1.97e-154
    w2 = omega**2
    exact = [float(Fraction(w2) + Fraction(c) * Fraction(mu)) for mu in (-0.5, 0.5)]
    assert [w2 + c * mu for mu in (-0.5, 0.5)] != exact
    closed = _chain(KrawtchoukInteraction(), 2, c, omega=omega)
    assert mode_frequencies(closed).omegas == tuple(map(math.sqrt, exact))
    # The dqds kernel gives mu = +-0.5 exactly for gamma = 1.
    custom = _chain(CustomInteraction(gammas=(1.0,)), 2, c, omega=omega)
    assert mode_frequencies(custom).omegas == tuple(map(math.sqrt, exact))


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
    # Occupations above float range or not a number.
    two = _chain(KrawtchoukInteraction(), 2, 0.4)
    for k in (10**400, math.inf, math.nan):
        with pytest.raises(InvalidParams):
            state_energy(two, (k, 0))
    # A bool is not an occupation number, nor is a value that is not a
    # real number (a string raised a raw TypeError).
    for k in (True, False, np.True_, "1", None):
        with pytest.raises(InvalidParams):
            state_energy(two, (k, 0))
    # Numpy integer occupations give a float with the bits of the int ones.
    for occ in ((1, 0, 2, 0), (0, 3, 0, 1)):
        got = state_energy(chain, np.array(occ))
        assert type(got) is float and got.hex() == state_energy(chain, occ).hex()


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


def _coupling_bound(interaction, n, omega):
    """Supremum of the couplings that keep the chain positive definite,
    math.inf when there is none (custom chains through LAPACK)."""
    if isinstance(interaction, CustomInteraction):
        G = np.diag(interaction.gammas, 1)
        # A Python float quotient above float range is inf, the supremum
        # then, where numpy's would warn (a subnormal top eigenvalue).
        top = float(max(np.linalg.eigvalsh(G + G.T))) if n > 1 else 0.0
        return 2.0 * omega**2 / top if top > 0.0 else math.inf
    return max_coupling(_chain(interaction, n, 0.0, omega=omega))


def _fraction_of_bound(interaction, n, omega, fraction):
    """That fraction of the chain's coupling bound, or of 10 where it has
    none."""
    bound = _coupling_bound(interaction, n, omega)
    return fraction * (10.0 if math.isinf(bound) else bound)


def _grid_couplings(interaction, n, omega):
    """c = 0, a small coupling and one near the chain's coupling bound (the
    uniform chain has none, so a large one)."""
    bound = _coupling_bound(interaction, n, omega)
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


@pytest.mark.parametrize("sort_block", [None, 5], ids=["default_block", "block_of_5"])
def test_enumerate_levels_interleaves_shared_and_single_levels(monkeypatch, sort_block):
    # Two sites coupled to nothing have equal mode frequencies, so a state
    # shares its level with those that move phonons between the two, and a
    # state with no phonon there is a level of its own: shared and single
    # levels alternate.  In some levels the tied sums differ in their last
    # bits and tie only within GROUP_RTOL.  Blocks of 5 positions make the
    # keys of the shared levels gather their states over many blocks.
    if sort_block is not None:
        monkeypatch.setattr(chain_module, "_SORT_BLOCK", sort_block)
    chain = _chain(CustomInteraction((0.0, 0.0, 1.0)), 4, 0.3, omega=1.1, hbar=0.7)
    got = enumerate_levels(chain, 6)
    shared = (got.degeneracies > 1).tolist()
    assert any(a and not b and c for a, b, c in zip(shared, shared[1:], shared[2:]))
    assert any(len({state_energy(chain, k) for k in g.occupations}) > 1 for g in got)
    want = oracles.enumerate_levels_reference(chain, 6)
    assert [g.energy.hex() for g in got] == [g.energy.hex() for g in want]
    assert [(g.degeneracy, g.occupations) for g in got] == [
        (g.degeneracy, g.occupations) for g in want
    ]


def test_enumerate_levels_budget_and_validation():
    chain = _chain(ConstantInteraction(), 50, 1.0)
    with pytest.raises(CombinatorialLimit):
        enumerate_levels(chain, 8)
    with pytest.raises(InvalidParams):
        enumerate_levels(chain, -1)
    # Budgets that are not integers are refused as ChainSpec refuses such
    # an n: bool included, numpy integers accepted.
    for bad in (2.5, 2.0, "3", None, True, False, np.float64(2.0)):
        with pytest.raises(InvalidParams):
            enumerate_levels(chain, bad)
    small = _chain(KrawtchoukInteraction(), 3, 0.1)
    for budget in (np.int64(2), np.uint8(2), np.int32(2)):
        assert [g.occupations for g in enumerate_levels(small, budget)] == [
            g.occupations for g in enumerate_levels(small, 2)
        ]


def test_level_table_sequence_protocol():
    table = enumerate_levels(_chain(KrawtchoukInteraction(), 3, 0.0), 2)
    assert isinstance(table, LevelTable) and isinstance(table, abc.Sequence)
    assert len(table) == 3
    groups = tuple(table)
    assert [g.degeneracy for g in groups] == [1, 3, 6]
    for i in range(-3, 3):
        assert table[i] == groups[i]
    assert table[np.int64(-1)] == groups[2]
    assert table[1:] == groups[1:] and type(table[1:]) is tuple
    assert table[::-2] == groups[::-2]
    assert table[5:] == ()
    for i in (3, -4, 10**20, -10**5000):
        with pytest.raises(IndexError):
            table[i]
    with pytest.raises(TypeError):
        table[1.0]
    assert list(reversed(table)) == list(groups[::-1])
    assert table.index(groups[1]) == 1 and groups[2] in table
    assert table.offsets.tolist() == [0, 1, 4, 10]
    assert table.occupations.shape == (10, 3)
    assert table.occupations.dtype == np.uint8
    for copied in (table, copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
        assert list(copied) == list(groups)
        for array in (copied.energies, copied.degeneracies, copied.offsets, copied.occupations):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.energies = np.zeros(3)


def test_level_group_is_a_frozen_slotted_record():
    # Every level read from a table is one LevelGroup, so it has slots and
    # no per-instance __dict__; it stays a frozen dataclass that compares,
    # hashes, prints, pickles, copies and replaces as before.
    chain = _chain(HahnInteraction(alpha=0.5), 4, 0.0)
    groups = list(enumerate_levels(chain, 3))
    assert groups == list(oracles.enumerate_levels_reference(chain, 3))
    group = groups[1]
    assert group.degeneracy == 4
    assert LevelGroup.__slots__ == ("energy", "degeneracy", "occupations")
    assert not hasattr(group, "__dict__")
    for name, value in (("energy", 0.0), ("degeneracy", 1), ("occupations", ())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(group, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del group.energy
    # No attribute can be added either.  For a name that is not a field,
    # the frozen __setattr__ of a slotted dataclass raises TypeError on
    # CPython 3.11: it calls super() on the class before slots were added.
    with pytest.raises((AttributeError, TypeError)):
        group.other = 0
    copies = [
        pickle.loads(pickle.dumps(group, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for copied in (*copies, copy.copy(group), copy.deepcopy(group)):
        assert type(copied) is LevelGroup
        assert copied == group and hash(copied) == hash(group)
        assert copied.occupations == group.occupations
    moved = dataclasses.replace(group, energy=group.energy + 1.0)
    assert moved == LevelGroup(group.energy + 1.0, group.degeneracy, group.occupations)
    assert moved != group
    assert repr(group) == (
        f"LevelGroup(energy={group.energy!r}, degeneracy=4, "
        f"occupations={group.occupations!r})"
    )


def test_level_table_iteration_spans_conversion_chunks():
    # Iteration converts whole levels of at most _piece_rows members at a
    # time, or one larger level: 4,096 rows of a 12-mode table.  At c = 0 a
    # Krawtchouk chain has K + 1 levels: with n = 12 and K = 8 levels 0-4
    # (1,820 members) fill the first chunk, and levels 5-8 (4,368 to 75,582
    # members) are each one chunk of their own.
    table = enumerate_levels(_chain(KrawtchoukInteraction(), 12, 0.0), 8)
    assert chain_module._piece_rows(table) == 4096
    assert [g.degeneracy for g in table] == [math.comb(11 + k, k) for k in range(9)]
    assert table[-1].degeneracy > chain_module._piece_rows(table)
    assert list(table) == [table[i] for i in range(len(table))]
    # Singleton levels, over more than two chunks of 4,915 rows.
    hahn = enumerate_levels(_chain(HahnInteraction(alpha=0.5), 10, 0.1), 9)
    assert len(hahn.occupations) > 2 * chain_module._piece_rows(hahn)
    assert list(hahn) == list(hahn[:])


def test_level_table_iteration_memory_does_not_grow_with_modes():
    # A block holds about _PIECE_ENTRIES occupation entries whatever n is:
    # one pass over Constant n = 3000, K = 1 (3,001 states, an 8.6 MiB
    # table, 16-row blocks) traces 1.1 MiB, against 138 MiB when every
    # block was 2^12 rows of 3,000 entries.
    table = enumerate_levels(_chain(ConstantInteraction(), 3000, 0.1), 1)
    assert chain_module._piece_rows(table) == 16
    tracemalloc.start()
    try:
        states = sum(g.degeneracy for g in table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert states == 3001
    assert peak <= 4 * 2**20, peak / 2**20


@pytest.mark.parametrize("c, levels", [(0.1, 601), (0.0, 2)])
def test_level_table_pieces_of_a_long_chain_match_the_reference(c, levels):
    # n = 600 gives pieces of 81 rows: singleton levels over 8 pieces, and
    # at c = 0 one level of 600 members, larger than a piece.
    chain = _chain(ConstantInteraction(), 600, c)
    table = enumerate_levels(chain, 1)
    assert (len(table), chain_module._piece_rows(table)) == (levels, 81)
    assert list(table) == list(oracles.enumerate_levels_reference(chain, 1))
    assert list(table) == [table[i] for i in range(len(table))]


def test_enumerate_levels_peak_memory_per_state():
    # The table is a few arrays: 44 bytes per state traced at its peak for
    # Krawtchouk n = 12, K = 9 (293,930 states), against 52 while the level
    # cuts were kept beside the offsets and 345 when every state was a
    # tuple in a LevelGroup.  64 bytes leaves about 45 % headroom; one
    # 12-int tuple per state alone is 152.  At c = 0 the same table has 10
    # levels, all shared, so every state's sort key is built: 37 bytes per
    # state, or 44 with int64 positions and the states gathered into the
    # keys in one piece.
    for c, levels in ((0.1, 292_110), (0.0, 10)):
        chain = _chain(KrawtchoukInteraction(), 12, c)
        enumerate_levels(chain, 2)
        tracemalloc.start()
        try:
            table = enumerate_levels(chain, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        states = len(table.occupations)
        assert (states, len(table)) == (293_930, levels)
        assert peak <= 64 * states, (c, peak / states)


def test_level_table_iteration_peak_memory():
    # One pass holds one block of at most _READ_ROWS member tuples beside
    # the group being read: 1.09 MiB traced for Krawtchouk n = 12, K = 9
    # (293,930 states, 292,110 levels), against 13.28 MiB when blocks of
    # 2^15 rows were built while the last was still alive and each
    # LevelGroup had a __dict__, and 1.65 MiB with 2^12-row blocks when
    # the last block is kept while the next is built.  The table itself
    # is 10.5 MiB; 1.5 MiB leaves about 35 % headroom.
    table = enumerate_levels(_chain(KrawtchoukInteraction(), 12, 0.1), 9)
    assert (len(table.occupations), len(table)) == (293_930, 292_110)
    tracemalloc.start()
    try:
        states = sum(g.degeneracy for g in table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert states == 293_930
    assert peak <= 1.5 * 2**20, peak / 2**20


def _lexicographic_occupations(n, max_total):
    return [
        k for k in itertools.product(range(max_total + 1), repeat=n)
        if sum(k) <= max_total
    ]


@pytest.mark.parametrize(
    "n, max_total",
    [(n, K) for n in range(1, 7) for K in range(7)] + [(1, 300), (2, 300)],
)
def test_occupation_columns_equal_lexicographic_reference(n, max_total):
    # K >= 256 takes the uint16 table.
    columns = chain_module._occupation_columns(n, max_total)
    assert columns.dtype == np.min_scalar_type(max_total)
    assert columns.shape == (n, math.comb(n + max_total, max_total))
    assert columns.T.tolist() == [list(k) for k in _lexicographic_occupations(n, max_total)]


@pytest.mark.parametrize(
    "n, max_total",
    [(6, 11), (7, 10), (8, 9), (9, 8), (10, 7), (11, 6), (12, 6), (12, 9), (38, 5),
     (1, 300), (2, 300), (3, 256)],
)
def test_occupation_columns_equal_forward_pass_reference(n, max_total):
    # The sizes the level benchmark enumerates, the state budget and the
    # uint16 tables, where the tuple reference above is too slow.
    columns = chain_module._occupation_columns(n, max_total)
    want = oracles.occupation_columns_reference(n, max_total)
    assert columns.dtype == want.dtype
    assert columns.shape == want.shape
    assert np.array_equal(columns, want)


def test_occupation_columns_peak_memory():
    # The table is built in place.  Beside it numpy holds only the buffer
    # of one block copy, as it cannot tell that the source and destination
    # rows are apart: the traced peak is 1.10 times the 36.6 MB table at
    # n = 38, K = 5 (962,598 states), against 1.76 for a forward pass that
    # held one mode's index arrays next to the table.
    tracemalloc.start()
    try:
        columns = chain_module._occupation_columns(38, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert columns.shape == (38, 962_598)
    assert peak <= 1.25 * columns.nbytes, peak / columns.nbytes


@pytest.mark.parametrize(
    "interaction, n, c, max_total",
    [(KrawtchoukInteraction(), 12, 0.0, 8), (HahnInteraction(alpha=0.5), 10, 0.1, 6)],
    ids=["krawtchouk_ties", "hahn"],
)
def test_enumerate_levels_independent_of_tie_order(monkeypatch, interaction, n, c, max_total):
    # enumerate_levels orders the energies with numpy's unstable argsort.
    # The table must not depend on the order it gives tied energies: a
    # sort that puts ties in descending state order yields the same arrays.
    # At c = 0 all states of one phonon count are exactly tied; the Hahn
    # chain's levels are single states, in an order taken by another sort.
    chain = _chain(interaction, n, c)
    want = enumerate_levels(chain, max_total)
    argsort = np.argsort
    calls = []

    def descending_ties(a, *args, **kwargs):
        calls.append(len(a))
        return len(a) - 1 - argsort(a[::-1], kind="stable")

    monkeypatch.setattr(np, "argsort", descending_ties)
    got = enumerate_levels(chain, max_total)
    assert calls == [math.comb(n + max_total, max_total)]
    for name in ("energies", "degeneracies", "offsets", "occupations"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


# -- spacing profiles and rescaling ------------------------------------------------


def test_spacing_profile_synthetic():
    assert spacing_profile((0.0, 1.0, 3.0, 6.0)) is SpacingProfile.INCREASING
    assert spacing_profile((0.0, 3.0, 5.0, 6.0)) is SpacingProfile.DECREASING
    assert spacing_profile((0.0, 1.0, 3.0, 4.0)) is SpacingProfile.MID_PEAK
    assert spacing_profile((0.0, 2.0, 3.0, 5.0)) is SpacingProfile.MID_DIP
    assert spacing_profile((0.0, 1.0, 2.0, 3.0)) is SpacingProfile.OTHER
    with pytest.raises(TooFewLevels):
        spacing_profile((0.0, 1.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidParams):
            spacing_profile((0.0, bad, 1.0, 3.0))


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


@pytest.mark.parametrize("levels", [None, ["a", "b", "c"], "abc", 3.0, (0.0, None, 1.0)])
def test_spacing_profile_refuses_levels_that_are_not_a_sequence_of_reals(levels):
    # None and the list of strings raised a raw TypeError.
    with pytest.raises(InvalidParams):
        spacing_profile(levels)


@pytest.mark.parametrize("levels", [None, ["a", "b"], "ab", 3.0, (0.0, None)])
def test_rescale_levels_refuses_levels_that_are_not_a_sequence_of_reals(levels):
    # None and the list of strings raised a raw TypeError.
    with pytest.raises(InvalidParams):
        rescale_levels(levels)


@pytest.mark.parametrize("occupations", [None, 0, 1.0, {0: 0, 1: 0}])
def test_state_energy_refuses_occupations_that_are_not_a_sequence(occupations):
    # None raised a raw TypeError from len().
    two = _chain(KrawtchoukInteraction(), 2, 0.4)
    with pytest.raises(InvalidParams, match="sequence"):
        state_energy(two, occupations)


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
    with pytest.raises(DegenerateRange):
        rescale_levels((1.0, 1.0, 1.0))
    with pytest.raises(TooFewLevels):
        rescale_levels(())
    # The last span, max - min, overflows although every level is finite.
    for bad in ((1.0, math.inf), (math.nan, 0.0, 1.0), (-math.inf, 2.0),
                (0.0, 1e308, -1e308)):
        with pytest.raises(InvalidParams):
            rescale_levels(bad)


# -- property-based checks -----------------------------------------------------------


@st.composite
def _level_chains(draw):
    """A chain of at most 7 sites of one of the five interactions, at c = 0
    (where levels are degenerate) or a random fraction of its bound."""
    n = draw(st.integers(min_value=1, max_value=7))
    interaction = draw(
        st.sampled_from(
            (
                ConstantInteraction(),
                KrawtchoukInteraction(),
                HahnInteraction(alpha=draw(st.floats(0.0, 5.0))),
                DualQKrawtchoukInteraction(
                    q=draw(st.one_of(st.floats(0.4, 0.9), st.floats(1.2, 2.5)))
                ),
                CustomInteraction(
                    gammas=tuple(
                        draw(st.lists(st.floats(0.0, 3.0), min_size=n - 1, max_size=n - 1))
                    )
                ),
            )
        )
    )
    omega = draw(st.sampled_from((1.0, 1.3)))
    fraction = draw(st.one_of(st.just(0.0), st.floats(0.01, 0.95)))
    c = _fraction_of_bound(interaction, n, omega, fraction)
    return _chain(interaction, n, c, omega=omega, hbar=draw(st.sampled_from((1.0, 0.7))))


# The largest coupling is subnormal: 2 omega^2 / top overflows.
_SUBNORMAL_TOP = CustomInteraction(gammas=(0.0, 5e-324))


@given(chain=_level_chains(), max_total=st.integers(min_value=0, max_value=5))
@example(
    chain=_chain(_SUBNORMAL_TOP, 3, _fraction_of_bound(_SUBNORMAL_TOP, 3, 1.0, 0.5)),
    max_total=3,
)
@settings(max_examples=150, deadline=None)
def test_property_level_table_equals_scalar_reference(chain, max_total):
    table = enumerate_levels(chain, max_total)
    want = [
        (g.energy.hex(), g.degeneracy, g.occupations)
        for g in oracles.enumerate_levels_reference(chain, max_total)
    ]
    for groups in (list(table), [table[i] for i in range(len(table))]):
        assert [(g.energy.hex(), g.degeneracy, g.occupations) for g in groups] == want
        assert all(type(g.energy) is float and type(g.degeneracy) is int for g in groups)


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


@st.composite
def _custom_chains(draw):
    """A custom chain of 1 to 40 sites, omega at the low end of its range,
    1 or high, and a coupling from 0 to twice the coupling bound."""
    n = draw(st.integers(min_value=1, max_value=40))
    interaction = CustomInteraction(
        gammas=tuple(draw(st.lists(st.floats(0.0, 3.0), min_size=n - 1, max_size=n - 1)))
    )
    omega = draw(st.sampled_from((1.5e-154, 1.0, 1e150)))
    c = _fraction_of_bound(interaction, n, omega, draw(st.floats(0.0, 2.0)))
    return _chain(interaction, n, c, omega=omega)


def _copied_chain(n, omega, steps):
    """Krawtchouk's gammas as a custom chain, steps ulps off the coupling
    bound."""
    reference = _chain(KrawtchoukInteraction(), n, 0.0, omega=omega)
    c = _ulps(max_coupling(reference), steps)
    custom = CustomInteraction(gammas=coupling_coefficients(reference))
    return _chain(custom, n, c, omega=omega)


@given(chain=_custom_chains())
@example(chain=_copied_chain(8, 1.0, -4))
@example(chain=_copied_chain(8, 1.0, 4))
@example(chain=_copied_chain(40, 1e150, -4))
@example(chain=_copied_chain(40, 1.5e-154, 4))
# Zero gammas split the chain into blocks; the last block fails at c = 0.8.
@example(chain=_chain(CustomInteraction(gammas=(2.0, 0.0, 0.0, 3.0)), 5, 0.6))
@example(chain=_chain(CustomInteraction(gammas=(2.0, 0.0, 0.0, 3.0)), 5, 0.8))
@example(chain=_chain(_SUBNORMAL_TOP, 3, _fraction_of_bound(_SUBNORMAL_TOP, 3, 1.0, 0.5)))
@example(chain=_chain(CustomInteraction(gammas=(50.0,)), 2, 1.0))
@settings(max_examples=200, deadline=None)
def test_property_pivot_test_matches_ql(chain):
    # Outside the rounding band of the floor, all LDL^T pivots of
    # A - floor I are positive exactly when the QL's smallest eigenvalue of
    # A is above the floor.
    A = assemble_quadratic_form(chain)
    floor = PD_TOL * chain.omega**2
    above = _all_above(A, floor)
    assert type(above) is bool
    lowest = min(numeric_eigenvalues(A))
    band = 8 * chain.n * sys.float_info.epsilon * max(A.diag + A.offdiag)
    if abs(lowest - floor) > band:
        assert above == (lowest > floor)
