"""Tests for the single spectral core: jacobi.interaction_spectrum against the
QL eigensolver, the chain layer against the per-family closed forms it
replaced, and CLI payloads against frozen goldens."""

import dataclasses
import hashlib
import json
import math
import pathlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from chain_spectra import cli
from chain_spectra.chain import (
    PD_TOL,
    ChainSpec,
    ConstantInteraction,
    CustomInteraction,
    DualQKrawtchoukInteraction,
    HahnInteraction,
    KrawtchoukInteraction,
    _squares,
    is_positive_definite,
    max_coupling,
    mode_frequencies,
)
from chain_spectra.errors import (
    ChainSpectraError,
    ClosedFormUnavailable,
    InvalidParams,
    NotPositiveDefinite,
)
from chain_spectra.jacobi import (
    ConstantParams,
    SymTridiagonal,
    _zero_diagonal_eigenvalues,
    build_jacobi,
    interaction_spectrum,
    numeric_decomposition,
)
from chain_spectra.polynomials import (
    DualQKrawtchoukParams,
    HahnParams,
    KrawtchoukParams,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"
GOLDENS = json.loads((GOLDEN_DIR / "cli_payloads.json").read_text(encoding="utf-8"))
# sha256 of export payloads too large to store: thousands of singleton
# levels (Hahn) and a few large degenerate groups (Krawtchouk at c = 0).
EXPORT_SHA256 = json.loads((GOLDEN_DIR / "export_sha256.json").read_text(encoding="utf-8"))


# -- interaction_spectrum against QL ------------------------------------------


def _chain_families(N):
    yield ConstantParams(N=N)
    yield KrawtchoukParams(N=N, p=0.5)
    for alpha in (0.5, 1.37, -N - 1.5):
        yield HahnParams(N=N, alpha=alpha, beta=alpha)
    for q in (1.6, 0.7):
        yield DualQKrawtchoukParams(N=N, cbar=-1.0, q=q)


@pytest.mark.parametrize("n", [1, 2, 5, 33])
def test_interaction_spectrum_matches_ql(n):
    for fam in _chain_families(n - 1):
        M = build_jacobi(fam)
        if isinstance(fam, ConstantParams):
            shift = 0.0
        else:
            shift = oracles.constant_diagonal(M)
            assert shift is not None, fam
        K = SymTridiagonal(diag=tuple(d - shift for d in M.diag), offdiag=M.offdiag)
        closed = sorted(interaction_spectrum(fam))
        numeric = numeric_decomposition(K).eigenvalues
        assert len(closed) == n
        scale = 1.0 + max(abs(x) for x in K.diag + K.offdiag)
        dev = max(abs(a - b) for a, b in zip(closed, numeric))
        assert dev <= 1e-12 * scale, (fam, dev, scale)


@pytest.mark.parametrize(
    "fam",
    [
        KrawtchoukParams(N=4, p=0.3),
        HahnParams(N=4, alpha=0.5, beta=1.5),
        DualQKrawtchoukParams(N=4, cbar=-2.0, q=1.6),
    ],
)
def test_interaction_spectrum_unavailable(fam):
    with pytest.raises(ClosedFormUnavailable):
        interaction_spectrum(fam)
    assert oracles.constant_diagonal(build_jacobi(fam)) is None


def test_constant_diagonal_values():
    # F_0 of each family whose K = M - F_0 I has a closed-form spectrum.
    assert oracles.constant_diagonal(build_jacobi(KrawtchoukParams(N=9, p=0.5))) == 4.5
    hahn = oracles.constant_diagonal(build_jacobi(HahnParams(N=4, alpha=-0.5, beta=-0.5)))
    assert hahn == pytest.approx(2.0, rel=1e-13)
    dualq = build_jacobi(DualQKrawtchoukParams(N=4, cbar=-1.0, q=2.0))
    assert oracles.constant_diagonal(dualq) == pytest.approx(1.0 - 2.0 ** -4, rel=1e-15)
    assert oracles.constant_diagonal(build_jacobi(ConstantParams(N=5))) == 2.0
    # A single-entry diagonal is constant, whatever the family.
    one = build_jacobi(KrawtchoukParams(N=0, p=0.3))
    assert oracles.constant_diagonal(one) == one.diag[0]


# -- chain layer against the per-family closed forms --------------------------


@st.composite
def _builtin_chains(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    kind = draw(st.sampled_from(["constant", "krawtchouk", "hahn", "qkrawtchouk"]))
    if kind == "constant":
        interaction = ConstantInteraction()
    elif kind == "krawtchouk":
        interaction = KrawtchoukInteraction()
    elif kind == "hahn":
        alpha = draw(
            st.floats(min_value=-1.0, max_value=50.0, exclude_min=True)
            | st.floats(min_value=-200.0, max_value=-(n - 1.0), exclude_max=True)
        )
        interaction = HahnInteraction(alpha=alpha)
    else:
        # q^(n-1) and q^-(n-1) stay far inside float range for n <= 40.
        q = draw(st.floats(min_value=0.3, max_value=3.0).filter(lambda q: q != 1.0))
        interaction = DualQKrawtchoukInteraction(q=q)
    omega = draw(st.floats(min_value=0.05, max_value=20.0))
    c = draw(st.just(0.0) | st.floats(min_value=0.0, max_value=10.0))
    return ChainSpec(n=n, omega=omega, coupling=c, interaction=interaction)


@given(chain=_builtin_chains())
@settings(max_examples=400, deadline=None)
def test_property_closed_forms_bit_equal_to_reference(chain):
    squares = _squares(chain, interaction_spectrum(chain.family))
    assert squares == oracles.closed_squares_reference(chain)
    assert max_coupling(chain) == oracles.max_coupling_reference(chain)


@st.composite
def _edge_chains(draw):
    """_builtin_chains widened to the edges of the closed forms: the Hahn
    branch alpha < -N up to alpha = -1e300, dual q-Krawtchouk with q within
    1e-6 of 1 on both sides or N |ln q| within 10 of the float-range limit,
    a single site, no coupling, and c near float max, where an end square
    overflows."""
    chain = draw(_builtin_chains())
    if draw(st.booleans()):
        chain = dataclasses.replace(chain, n=1)
    N = chain.n - 1
    edge = draw(st.sampled_from(["none", "hahn", "q_near_one", "q_range_limit"]))
    if edge == "hahn":
        alpha = draw(
            st.just(math.nextafter(-N, -math.inf))
            | st.floats(min_value=-1e300, max_value=-N, exclude_max=True)
        )
        chain = dataclasses.replace(chain, interaction=HahnInteraction(alpha=alpha))
    elif edge == "q_near_one":
        side = draw(st.sampled_from([1.0, -1.0]))
        q = 1.0 + side * draw(st.floats(min_value=2.3e-16, max_value=1e-6))
        chain = dataclasses.replace(chain, interaction=DualQKrawtchoukInteraction(q=q))
    elif edge == "q_range_limit" and N > 0:
        side = draw(st.sampled_from([1.0, -1.0]))
        # ln(float max) = 709.7827...
        log_q = side * draw(st.floats(min_value=700.0, max_value=709.78)) / N
        q = math.exp(log_q)
        chain = dataclasses.replace(chain, interaction=DualQKrawtchoukInteraction(q=q))
    c = draw(
        st.just(chain.coupling)
        | st.just(0.0)
        | st.floats(min_value=1e307, max_value=sys.float_info.max)
    )
    return dataclasses.replace(chain, coupling=c)


def _outcome(call, *args):
    try:
        return call(*args)
    except ChainSpectraError as exc:
        return type(exc), str(exc)


def _reference_squares(chain):
    """The closed-form squares in family order, refused as the full-tuple
    computation refuses them when one overflows."""
    squares = oracles.closed_squares_reference(chain)
    if not all(map(math.isfinite, squares)):
        raise InvalidParams(
            f"squared mode frequencies omega^2 + c mu overflow float range "
            f"(omega = {chain.omega}, c = {chain.coupling})"
        )
    return squares


def _reference_positive_definite(chain):
    return min(_reference_squares(chain)) > PD_TOL * chain.omega**2


def _reference_closed_omegas(chain):
    squares = sorted(_reference_squares(chain))
    floor = PD_TOL * chain.omega**2
    if squares[0] <= floor:
        raise NotPositiveDefinite(
            f"smallest squared mode frequency {squares[0]:.6g} is not above {floor:.6g}"
        )
    return tuple(map(math.sqrt, squares))


@given(chain=_edge_chains())
@settings(max_examples=600, deadline=None)
def test_property_end_values_equal_the_full_tuple(chain):
    # The bound, the positive-definiteness test and the closed route read
    # the two ends of K's spectrum, and give the floats, or the exception
    # type and text, of the computation over all n squares.
    bound = max_coupling(chain)
    assert bound == oracles.max_coupling_reference(chain)
    lowest = min(interaction_spectrum(chain.family))
    assert bound == (math.inf if lowest >= 0.0 else chain.omega**2 / -lowest)
    assert _outcome(is_positive_definite, chain) == _outcome(
        _reference_positive_definite, chain
    )
    for method in ("auto", "closed"):
        got = _outcome(lambda: mode_frequencies(chain, method).omegas)
        assert got == _outcome(_reference_closed_omegas, chain)


def _hexes(values):
    return [float.hex(v) for v in values]


@given(chain=_builtin_chains())
@settings(max_examples=400, deadline=None)
def test_property_closed_omegas_are_roots_of_the_sorted_reference_squares(chain):
    # Bit for bit: the closed route takes the reference squares ascending and
    # their square roots, or raises when the smallest is not above the floor.
    squares = sorted(oracles.closed_squares_reference(chain))
    if squares[0] <= PD_TOL * chain.omega**2:
        with pytest.raises(NotPositiveDefinite):
            mode_frequencies(chain, "closed")
    else:
        omegas = mode_frequencies(chain, "closed").omegas
        assert _hexes(omegas) == _hexes(map(math.sqrt, squares))


@st.composite
def _chains_above_the_floor(draw):
    """A built-in chain at up to 0.95 of its coupling bound, or a custom chain
    with gammas up to 3 and c up to 0.95 omega^2 / 3: by Gershgorin every
    squared mode frequency is at least 0.05 omega^2."""
    fraction = draw(st.floats(min_value=0.0, max_value=0.95))
    if draw(st.booleans()):
        chain = draw(_builtin_chains())
        bound = max_coupling(chain)
        c = chain.coupling if math.isinf(bound) else fraction * bound
        return dataclasses.replace(chain, coupling=c)
    n = draw(st.integers(min_value=1, max_value=40))
    gammas = draw(st.lists(st.floats(0.0, 3.0), min_size=n - 1, max_size=n - 1))
    omega = draw(st.floats(min_value=0.05, max_value=20.0))
    return ChainSpec(
        n=n,
        omega=omega,
        coupling=fraction * omega**2 / 3.0,
        interaction=CustomInteraction(tuple(gammas)),
    )


@given(chain=_chains_above_the_floor())
@settings(max_examples=300, deadline=None)
def test_property_numeric_omegas_are_roots_of_the_kernel_squares(chain):
    # Bit for bit: the numeric route takes mu = kappa_0 + t for the dqds
    # kernel's ascending eigenvalues t of K's zero-diagonal part, the
    # squares omega^2 + c mu and their square roots.
    if chain.family is None:
        k_diag, offdiag = 0.0, tuple(0.5 * g for g in chain.interaction.gammas)
    elif isinstance(chain.family, ConstantParams):
        k_diag, offdiag = 2.0, (1.0,) * (chain.n - 1)
    else:
        k_diag, offdiag = 0.0, build_jacobi(chain.family).offdiag
    mus = [k_diag + t for t in _zero_diagonal_eigenvalues(offdiag)]
    squares = [chain.omega**2 + chain.coupling * mu for mu in mus]
    omegas = mode_frequencies(chain, "numeric").omegas
    assert _hexes(omegas) == _hexes(map(math.sqrt, squares))


# -- CLI payloads against goldens ---------------------------------------------
# goldens/cli_payloads.json holds payloads written by the CLI while the chain
# layer still spelled out each family's closed form, with the since-removed
# "mass" echo taken out of the spectrum payloads.


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_cli_payload_golden(name, capsys, tmp_path):
    argv = list(GOLDENS[name]["argv"])
    out_path = tmp_path / "payload.svg"
    if argv[0] == "plot":
        argv += ["--out", str(out_path)]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    got = out_path.read_text(encoding="utf-8") if argv[0] == "plot" else captured.out
    assert got == GOLDENS[name]["payload"]
    assert "wall_ms=" in captured.err


@pytest.mark.parametrize("name", sorted(EXPORT_SHA256))
def test_cli_export_sha256_golden(name, capsys):
    assert cli.main(list(EXPORT_SHA256[name]["argv"])) == 0
    payload = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(payload).hexdigest() == EXPORT_SHA256[name]["sha256"]
