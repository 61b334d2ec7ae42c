"""Tests for the discrete orthogonal polynomial module.

Exact-rational oracles (tests/oracles.py) pin the series values, weights,
norms and the orthogonality relations; float paths are then compared
against the exact values, and the series/recurrence pair is cross-checked
under a first-order rounding-error budget.
"""

import dataclasses
import hashlib
import math
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from chain_spectra import polynomials
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
    assert polynomials._pochhammer(7.3, 0) == 1.0
    assert polynomials._pochhammer(3.0, 4) == 360.0
    assert polynomials._pochhammer(-2.0, 4) == 0.0
    assert polynomials._pochhammer(0.5, 2) == 0.75


def test_q_pochhammer_basics():
    assert polynomials._q_pochhammer(5.0, 0.7, 0) == 1.0
    assert polynomials._q_pochhammer(1.0, 0.7, 3) == 0.0
    assert polynomials._q_pochhammer(2.0, 2.0, 2) == 3.0


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
    ],
    ids=["lattice_point", "weight", "norm", "family_eval_degree",
         "family_eval_node", "recurrence_eval_degree", "recurrence_eval_node"],
)
def test_degree_and_node_must_be_integers(call, bad):
    # Unchecked, a float node is evaluated off the lattice, True is taken
    # as node 1 and a string raises a raw TypeError.
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


@pytest.mark.parametrize(
    "evaluate, alpha, i, x",
    [
        (family_eval, -1e308, 1, 2),
        (family_eval, -1e308, 3, 3),
        (recurrence_eval, -1e308, 1, 0),
        (recurrence_eval, -1e308, 2, 2),
        (recurrence_eval, -1e154, 2, 1),
        (recurrence_eval, -1e154, 3, 3),
    ],
)
def test_evaluators_outside_float_range_raise_invalid_params(evaluate, alpha, i, x):
    # Both parameters are finite and below -N, so the family is valid, but
    # alpha + beta overflows at -1e308 and the recurrence's products do at
    # -1e154: the values were NaN.
    fp = HahnParams(N=3, alpha=alpha, beta=alpha)
    with pytest.raises(InvalidParams, match="outside float range"):
        evaluate(fp, i, lattice_point(fp, x))
    # Degree 0, and the series at node 0 (a single term), stay exact.
    assert evaluate(fp, 0, lattice_point(fp, x)) == 1.0
    assert family_eval(fp, i, lattice_point(fp, 0)) == 1.0


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


# -- memoised tables and stored parameters ------------------------------------


def _memo_pin_families():
    for N in (8, 12, 16, 20, 24):
        yield "krawtchouk", KrawtchoukParams(N=N, p=0.5)
        yield "hahn(0.5)", HahnParams(N=N, alpha=0.5, beta=0.5)
        yield "hahn(2.0)", HahnParams(N=N, alpha=2.0, beta=2.0)
        yield "hahn(-N-1.5)", HahnParams(N=N, alpha=-N - 1.5, beta=-N - 1.5)
        yield "qkrawtchouk(0.7)", DualQKrawtchoukParams(N=N, cbar=-1.0, q=0.7)
        yield "qkrawtchouk(1.6)", DualQKrawtchoukParams(N=N, cbar=-1.0, q=1.6)


def _int_twin(fp):
    """The family fp built with an int wherever its float field is integral."""
    fields = {f.name: getattr(fp, f.name) for f in dataclasses.fields(fp)}
    return type(fp)(**{k: int(v) if float(v).is_integer() else v for k, v in fields.items()})


_MEMO_TABLES = {
    "bidiagonal_split": lambda fp: [v for half in bidiagonal_split(fp) for v in half],
    "weight": lambda fp: [weight(fp, x) for x in range(fp.N + 1)],
    "norm": lambda fp: [norm(fp, i) for i in range(fp.N + 1)],
    "recurrence_eval": lambda fp: [
        recurrence_eval(fp, i, pt) for i in range(fp.N + 1) for pt in lattice(fp)
    ],
    "orthonormal_eval": lambda fp: [
        orthonormal_eval(fp, i, pt) for i in range(fp.N + 1) for pt in lattice(fp)
    ],
}

# sha256 over the float.hex of each table, for the families of
# _memo_pin_families in their order, as computed before the memo existed.
_MEMO_PINS = {
    "krawtchouk bidiagonal_split": "7395a0556ad6965729229aa362f14e794092a53dc078f72f8b821ed26795083f",
    "krawtchouk weight": "ef7bc18238fa9b7613ba690326c1a530f8e156ca6425ee6fa235f6bad952a5c6",
    "krawtchouk norm": "547a081d79237ef851cfd54c62fe722c73adbb63f3bbbe40210b71971f208951",
    "krawtchouk recurrence_eval": "f19195f7eea9ec5a638f22a8fbad38ce8de50ddb3c0238e8c396098f80761fee",
    "krawtchouk orthonormal_eval": "df88beb5688a29462326cb7c7ace8ad22fc84a82de9cf930c431aa96c637e2f3",
    "hahn(0.5) bidiagonal_split": "3c918eb9eb69b4ae78193698d0787ac6095e573afc709c00ad4b9a9ba211f440",
    "hahn(0.5) weight": "e246c3ae40d87ed9857d8c30eda39935199826f6f35508721ddcd226621b4304",
    "hahn(0.5) norm": "bdbad8bbb14e4df19b49a5cb843956de5b261e70beb9298404bd7025b8517ce0",
    "hahn(0.5) recurrence_eval": "ed398b4f1af6f4acbc708e94cb8441edd6353259d56a257ec5579987dd402706",
    "hahn(0.5) orthonormal_eval": "f800e386b8bae3dfb0a12e6868c297a145f98c43a38ab2d94b4b4e95bc5e3ceb",
    "hahn(2.0) bidiagonal_split": "16723e36a2b49cbfdcb84fa36ec830f4b2633330828964baa631aaa4375d6f5a",
    "hahn(2.0) weight": "c353cb41268d46ebbdb6ef6a77869c992e2118d3df43061374acf3dc94041aae",
    "hahn(2.0) norm": "2b542627d92aff23c70c17057eb73a0ddad37366c052ce357c45646d66b4eb02",
    "hahn(2.0) recurrence_eval": "7fbf1e379510e3af4cb93a44e4fc9f24e27c5172ca9dbc297f9a47a700e29f06",
    "hahn(2.0) orthonormal_eval": "042d271ed8cd7036c95e3f3bd70e667d3655fa872eeb3fe092ab7432dde89a1c",
    "hahn(-N-1.5) bidiagonal_split": "6240ac5a3b65ed3979a6ed0ebadf3fcff623635f92b3ad3bf64df9c6e372caca",
    "hahn(-N-1.5) weight": "0c6a4933c926e39c73de2abdb6fa24d2a10663ba27bddf35581ec6ebaff46aec",
    "hahn(-N-1.5) norm": "c3ee2dd0367cd0c0e315a22ba7056a31f3550dc99b55d9b139e99adebd811702",
    "hahn(-N-1.5) recurrence_eval": "e7d2ee34a764db1f4f89413f71f6a31595878d7d65c4bd7dbef10cf302dccd42",
    "hahn(-N-1.5) orthonormal_eval": "4a0948f0e8100fd221c708e4b474d185e8eaaf5da1c91852313fc9c0ea57fae1",
    "qkrawtchouk(0.7) bidiagonal_split": "92a100bec9b97878777f80edaf0f9714f93015a786d04561b6cf32a33c453b2b",
    "qkrawtchouk(0.7) weight": "a191abadefb78e7a56d582452312881d65b42875eda61ea1c5a80be85e502ce9",
    "qkrawtchouk(0.7) norm": "fa438d44c34736d6e70f06ddf67da94fd5c36313ac4e232da6f375a066202212",
    "qkrawtchouk(0.7) recurrence_eval": "2c58ed518124497dbd78b731ddd7531ae7cd80f067e0356bdd08b3e1e6588bb9",
    "qkrawtchouk(0.7) orthonormal_eval": "3bae6d51ca3e8784bb1b38f852a7bbdceeb2821adec7b3f7a91ff784d4467904",
    "qkrawtchouk(1.6) bidiagonal_split": "f375c54a4e0558ca9e040821adb8709e127397f90afe78c9d1f11a5c07e7e63c",
    "qkrawtchouk(1.6) weight": "19ed7e6b165eeab70b84749a437d8df7e0dc5abbf70f29bdbbfe42ae0f76a2c6",
    "qkrawtchouk(1.6) norm": "25a01cf03e9c40b5b9afe7707a3e1977c75cf9e8e0b6759a6cc3db870ce39ddc",
    "qkrawtchouk(1.6) recurrence_eval": "c07847f380ccf02b1562af7b30ab1832b99fd86472de75299db89f4a5a05d61d",
    "qkrawtchouk(1.6) orthonormal_eval": "633602ca356cf18a087d481787dcecae4f947cfed1930f7bf95376f242b4f081",
}


def test_memoised_tables_match_their_pins_cold_warm_and_after_an_int_twin():
    # Each table is taken three times: with the memo cleared, with it warm,
    # and after an equal family built from ints has filled it.
    passes = ("cold", "warm", "after int twin")
    hashes = {run: {} for run in passes}
    for kind, fp in _memo_pin_families():
        for name, table in _MEMO_TABLES.items():
            polynomials._memo.cache_clear()
            values = {"cold": table(fp), "warm": table(fp)}
            polynomials._memo.cache_clear()
            twin = _int_twin(fp)
            assert twin == fp and hash(twin) == hash(fp)
            table(twin)
            values["after int twin"] = table(fp)
            for run in passes:
                digest = hashes[run].setdefault(f"{kind} {name}", hashlib.sha256())
                digest.update(" ".join(v.hex() for v in values[run]).encode())
    for run in passes:
        assert {k: h.hexdigest() for k, h in hashes[run].items()} == _MEMO_PINS, run


def test_memo_never_holds_an_error():
    fp = KrawtchoukParams(N=3, p=0.5)
    point = lattice_point(fp, 1)
    for _ in range(2):
        with pytest.raises(DegreeOutOfRange):
            recurrence_eval(fp, 4, point)
        with pytest.raises(DegreeOutOfRange):
            weight(fp, 4)
        with pytest.raises(DegreeOutOfRange):
            norm(fp, -1)
        with pytest.raises(DegreeOutOfRange):
            orthonormal_eval(fp, 4, point)
    # A norm that underflows raises again on every call.
    far = KrawtchoukParams(N=300, p=0.999)
    for _ in range(2):
        with pytest.raises(InvalidParams, match="outside float range"):
            norm(far, 200)


@pytest.mark.parametrize(
    "make, fields",
    [
        (lambda: KrawtchoukParams(N=4, p=Fr(1, 2)), {"p": 0.5}),
        (lambda: HahnParams(N=4, alpha=2, beta=Fr(1, 2)), {"alpha": 2.0, "beta": 0.5}),
        (lambda: HahnParams(N=4, alpha=-6, beta=-7), {"alpha": -6.0, "beta": -7.0}),
        (lambda: DualQKrawtchoukParams(N=4, cbar=-1, q=10), {"cbar": -1.0, "q": 10.0}),
    ],
)
def test_family_parameters_are_stored_as_floats(make, fields):
    fp = make()
    for name, want in fields.items():
        got = getattr(fp, name)
        assert type(got) is float and got == want, name


def test_numpy_lattice_size_is_stored_as_an_int():
    # Stored as given, an np.int64 N made the recurrence pair numpy floats,
    # and through the memo also the values of an equal family built with
    # an int N.
    import numpy as np

    polynomials._memo.cache_clear()
    fp = KrawtchoukParams(N=np.int64(4), p=0.5)
    assert type(fp.N) is int
    assert type(recurrence_eval(fp, 2, lattice_point(fp, 1))) is float
    twin = KrawtchoukParams(N=4, p=0.5)
    assert type(recurrence_eval(twin, 2, lattice_point(twin, 1))) is float


def test_numpy_node_and_degree_are_memoised_as_ints():
    # p ** np.int64(x) is a numpy float: stored under a key equal to the int
    # x, it would then be what an int caller gets back.
    import numpy as np

    for fp in (
        KrawtchoukParams(N=6, p=0.3),
        DualQKrawtchoukParams(N=6, cbar=-0.5, q=1.6),
    ):
        polynomials._memo.cache_clear()
        assert type(weight(fp, np.int64(3))) is float
        assert type(norm(fp, np.int64(2))) is float
        assert type(weight(fp, 3)) is float
        assert type(norm(fp, 2)) is float
        assert type(orthonormal_eval(fp, 2, lattice_point(fp, 3))) is float


def test_numpy_node_and_degree_give_int_points_and_float_values():
    # i + alpha + beta + 1.0 and q ** -i with an np.int64 degree were numpy
    # floats, and so was what family_eval and orthonormal_eval returned; a
    # numpy node was stored in the lattice point as given, which made the
    # dual q coordinate and the recurrence value numpy floats too.
    import numpy as np

    for fp in (
        KrawtchoukParams(N=6, p=0.3),
        HahnParams(N=6, alpha=0.5, beta=2.0),
        HahnParams(N=6, alpha=-7.5, beta=-8.0),
        DualQKrawtchoukParams(N=6, cbar=-0.5, q=1.6),
    ):
        polynomials._memo.cache_clear()
        point = lattice_point(fp, np.int64(3))
        assert type(point.x) is int and type(point.value) is float
        assert point == lattice_point(fp, 3)
        given_as_is = LatticePoint(x=np.int64(3), value=point.value)
        for evaluate in (family_eval, recurrence_eval, orthonormal_eval):
            want = evaluate(fp, 2, lattice_point(fp, 3))
            for pt in (point, given_as_is):
                got = evaluate(fp, np.int64(2), pt)
                assert type(got) is float, (fp, evaluate.__name__)
                assert got.hex() == want.hex(), (fp, evaluate.__name__)


def test_equal_families_from_int_and_float_q_give_the_same_values():
    # With q stored as given, an int q made the powers q**k exact: at N = 20
    # the weights of q = 10 and q = 10.0 differed at 6 of 21 nodes.
    from_int = DualQKrawtchoukParams(N=20, cbar=-1.0, q=10)
    polynomials._memo.cache_clear()
    tables = {name: table(from_int) for name, table in _MEMO_TABLES.items()}
    polynomials._memo.cache_clear()
    from_float = DualQKrawtchoukParams(N=20, cbar=-1.0, q=10.0)
    for name, table in _MEMO_TABLES.items():
        assert [v.hex() for v in table(from_float)] == [v.hex() for v in tables[name]], name


@pytest.mark.parametrize(
    "make",
    [
        lambda: HahnParams(N=3, alpha=-10**400, beta=-10**400),
        lambda: DualQKrawtchoukParams(N=2, cbar=-10**400, q=2.0),
        lambda: DualQKrawtchoukParams(N=2, cbar=-1.0, q=10**400),
        lambda: KrawtchoukParams(N=2, p=10**400),
        lambda: HahnParams(N=2, alpha=10**5000, beta=0.5),
        lambda: KrawtchoukParams(N=2, p="0.5"),
        lambda: KrawtchoukParams(N=2, p=True),
        lambda: HahnParams(N=2, alpha=None, beta=0.5),
        lambda: DualQKrawtchoukParams(N=2, cbar=-1.0, q=2j),
    ],
    ids=["hahn_int_overflow", "cbar_int_overflow", "q_int_overflow", "p_int_overflow",
         "alpha_int_without_repr", "p_string", "p_bool", "alpha_none", "q_complex"],
)
def test_parameters_that_do_not_convert_to_float_raise_invalid_params(make):
    # The int overflows raised a raw OverflowError, or (cbar) were accepted
    # and overflowed later in bidiagonal_split and family_eval; an int of
    # 5001 digits has no repr for the message.
    with pytest.raises(InvalidParams):
        make()


def test_hahn_signed_zero_parameters_give_identical_values():
    # alpha = 0.0 and -0.0 are equal memo keys, so they must give the same
    # bits: every use of a parameter adds a nonzero term to it first.
    mismatches = []
    for N in range(31):
        tables = []
        for a, b in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)):
            polynomials._memo.cache_clear()
            fp = HahnParams(N=N, alpha=a, beta=b)
            pts = lattice(fp)
            tables.append(
                [v.hex() for half in bidiagonal_split(fp) for v in half]
                + [weight(fp, x).hex() for x in range(N + 1)]
                + [norm(fp, i).hex() for i in range(N + 1)]
                + [f(fp, i, pt).hex() for f in (family_eval, recurrence_eval)
                   for i in range(N + 1) for pt in pts]
            )
        mismatches += [N for t in tables[1:] if t != tables[0]]
    assert not mismatches


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


@st.composite
def _series_family(draw):
    N = draw(st.integers(min_value=0, max_value=30))
    kind = draw(st.sampled_from(("krawtchouk", "hahn+", "hahn-", "dualq")))
    if kind == "krawtchouk":
        return KrawtchoukParams(N=N, p=draw(st.floats(min_value=1e-3, max_value=1 - 1e-3)))
    if kind == "hahn+":
        a, b = (draw(st.floats(min_value=-1.0, max_value=40.0, exclude_min=True))
                for _ in range(2))
        return HahnParams(N=N, alpha=a, beta=b)
    if kind == "hahn-":
        a, b = (draw(st.floats(min_value=-N - 40.0, max_value=-N, exclude_max=True))
                for _ in range(2))
        return HahnParams(N=N, alpha=a, beta=b)
    step = draw(st.one_of(
        st.floats(min_value=1e-9, max_value=1e-3),  # q near 1
        st.floats(min_value=0.05, max_value=3.0),  # q far from 1
    ))
    q = draw(st.sampled_from((1.0 + step, 1.0 / (1.0 + step))))
    cbar = draw(st.one_of(st.sampled_from((-1.0, -0.5, -2.0)),
                          st.floats(min_value=-20.0, max_value=-1e-3)))
    return DualQKrawtchoukParams(N=N, cbar=cbar, q=q)


@given(_series_family())
@settings(max_examples=60, deadline=None)
def test_property_family_eval_is_the_frozen_series_bit_for_bit(fp):
    # Beyond the fixed grid of the pinned test: the factors of each term
    # ratio are rounded in the frozen order for any valid parameters.
    # Where the series leaves float range, family_eval refuses the value.
    for x in range(fp.N + 1):
        point = lattice_point(fp, x)
        for i in range(fp.N + 1):
            want = oracles.hypergeometric_series_reference(fp, i, x)
            if math.isfinite(want):
                assert family_eval(fp, i, point).hex() == want.hex(), (fp, i, x)
            else:
                with pytest.raises(InvalidParams):
                    family_eval(fp, i, point)
