"""Tests for the single spectral core: jacobi.interaction_spectrum against the
QL eigensolver, the chain layer against the per-family closed forms it
replaced, and CLI payloads against frozen goldens."""

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from chain_spectra import cli
from chain_spectra.chain import (
    ChainSpec,
    ConstantInteraction,
    DualQKrawtchoukInteraction,
    HahnInteraction,
    KrawtchoukInteraction,
    _closed_squares,
    max_coupling,
)
from chain_spectra.errors import ClosedFormUnavailable
from chain_spectra.jacobi import (
    ConstantDiag,
    ConstantParams,
    SymTridiagonal,
    build_jacobi,
    diagonal_profile,
    interaction_spectrum,
    numeric_decomposition,
)
from chain_spectra.polynomials import (
    DualQKrawtchoukParams,
    HahnParams,
    KrawtchoukParams,
)

GOLDENS = json.loads(
    (pathlib.Path(__file__).parent / "goldens" / "cli_payloads.json").read_text(
        encoding="utf-8"
    )
)


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
            profile = diagonal_profile(fam)
            assert isinstance(profile, ConstantDiag), fam
            shift = profile.value
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
    assert _closed_squares(chain) == oracles.closed_squares_reference(chain)
    assert max_coupling(chain) == oracles.max_coupling_reference(chain)


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
