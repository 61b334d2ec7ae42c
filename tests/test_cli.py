"""End-to-end tests for the command-line interface, via subprocess and (for
the argv grammar property) in process."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from chain_spectra import cli
from chain_spectra.chain import (
    ChainSpec,
    KrawtchoukInteraction,
    mode_frequencies,
    single_phonon_levels,
    state_energy,
)


def _run(argv, config=None):
    env = dict(os.environ)
    env.pop("CHAIN_SPECTRA_CONFIG", None)
    if config is not None:
        env["CHAIN_SPECTRA_CONFIG"] = config
    return subprocess.run(
        [sys.executable, "-m", "chain_spectra.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


# -- spectrum -----------------------------------------------------------------


def test_spectrum_json_roundtrip_matches_api():
    proc = _run(
        ["spectrum", "--family", "krawtchouk", "--n", "4", "--c", "0.4"]
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert set(payload) == {
        "spec",
        "omegas_closed",
        "omegas_numeric",
        "ground_energy",
        "single_phonon_levels",
        "residual_closed_vs_numeric",
    }
    chain = ChainSpec(n=4, omega=1.0, coupling=0.4, interaction=KrawtchoukInteraction())
    # JSON floats round-trip exactly, so equality here is bitwise
    assert payload["omegas_closed"] == list(mode_frequencies(chain).omegas)
    assert payload["ground_energy"] == state_energy(chain, (0, 0, 0, 0))
    assert payload["single_phonon_levels"] == list(single_phonon_levels(chain))
    assert payload["residual_closed_vs_numeric"] <= 1e-10
    assert payload["spec"] == {
        "family": "krawtchouk",
        "n": 4,
        "omega": 1.0,
        "coupling": 0.4,
        "hbar": 1.0,
    }
    assert "wall_ms" in proc.stderr
    assert "wall_ms" not in proc.stdout


def test_spectrum_text_format():
    proc = _run(
        [
            "spectrum",
            "--family",
            "krawtchouk",
            "--n",
            "4",
            "--c",
            "0.4",
            "--format",
            "text",
        ]
    )
    assert proc.returncode == 0
    assert "0.632456" in proc.stdout
    assert "1.26491" in proc.stdout


def test_spectrum_csv_format():
    proc = _run(
        [
            "spectrum",
            "--family",
            "qkrawtchouk",
            "--q",
            "1.6",
            "--n",
            "3",
            "--c",
            "0.2",
            "--format",
            "csv",
        ]
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "index,omega_closed,omega_numeric,single_phonon_level"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(float(first[2]), rel=1e-10)


def test_spectrum_custom_family_numeric_only():
    proc = _run(
        [
            "spectrum",
            "--family",
            "custom",
            "--gamma",
            "1.0,1.5",
            "--n",
            "3",
            "--c",
            "0.1",
        ]
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["omegas_closed"] is None
    assert payload["residual_closed_vs_numeric"] is None
    assert payload["spec"]["gamma"] == [1.0, 1.5]
    assert len(payload["omegas_numeric"]) == 3


def test_spectrum_out_file(tmp_path):
    out = tmp_path / "spectrum.json"
    proc = _run(
        [
            "spectrum",
            "--family",
            "constant",
            "--n",
            "2",
            "--c",
            "1.0",
            "--out",
            str(out),
        ]
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    payload = json.loads(out.read_text())
    assert payload["omegas_closed"] == pytest.approx(
        [math.sqrt(2.0), 2.0], rel=1e-15
    )


def test_spectrum_not_positive_definite_exit3():
    proc = _run(
        ["spectrum", "--family", "krawtchouk", "--n", "4", "--c", "0.7"]
    )
    assert proc.returncode == 3
    assert "maximum admissible coupling" in proc.stderr
    assert "0.666" in proc.stderr
    assert proc.stdout == ""
    assert "wall_ms" not in proc.stderr


# -- verify -------------------------------------------------------------------


def test_verify_reports_integer_lattice():
    proc = _run(["verify", "--family", "krawtchouk", "--n", "12"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "eigenvalues 0 1 2 3 4 5 6 7 8 9 10 11"
    assert lines[1] == "check value threshold status"
    assert all(line.endswith("pass") for line in lines[2:5])
    proc = _run(
        ["verify", "--family", "hahn", "--alpha", "0.5", "--n", "12"]
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "eigenvalues 0 1 2 3 4 5 6 7 8 9 10 11"


def test_verify_qkrawtchouk_passes():
    # At q = 2, n = 49 the sum of squares of some stitched columns
    # overflows before they are normalised.
    for q, n in (("1.6", "12"), ("2", "49")):
        proc = _run(["verify", "--family", "qkrawtchouk", "--q", q, "--n", n])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.startswith("eigenvalues 0 ")


def test_verify_perturbed_matrix_fails():
    proc = _run(
        ["verify", "--family", "krawtchouk", "--n", "12", "--perturb"]
    )
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout
    assert "wall_ms" in proc.stderr


def test_verify_custom_rejected():
    proc = _run(
        ["verify", "--family", "custom", "--gamma", "1.0", "--n", "2"]
    )
    assert proc.returncode == 2
    assert proc.stderr == "custom interactions have no closed-form spectrum\n"


# -- bound --------------------------------------------------------------------


def test_bound_values():
    proc = _run(["bound", "--family", "krawtchouk", "--n", "4"])
    assert proc.returncode == 0
    assert proc.stdout == "0.6666666666666666\n"
    proc = _run(["bound", "--family", "constant", "--n", "5"])
    assert proc.returncode == 0
    assert proc.stdout == "unbounded\n"
    proc = _run(
        ["bound", "--family", "qkrawtchouk", "--q", "0.7", "--n", "12"]
    )
    assert float(proc.stdout) == pytest.approx(
        oracles.FLIP_DUALQ_Q07_N12, rel=1e-14
    )
    proc = _run(["bound", "--family", "custom", "--gamma", "1.0,1.0", "--n", "3"])
    assert proc.returncode == 2
    assert proc.stderr == "no closed-form coupling bound for custom gammas\n"


# -- flag validation ----------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--family", "qkrawtchouk", "--q", "0.001", "--n", "200", "--c", "0"],
        ["bound", "--family", "qkrawtchouk", "--q", "0.001", "--n", "200"],
        ["spectrum", "--family", "krawtchouk", "--n", "4", "--c", "inf"],
        ["spectrum", "--family", "custom", "--n", "3", "--gamma", "1,nan"],
        ["spectrum", "--family", "krawtchouk", "--n", "4", "--c", "0.1", "--omega", "1e155"],
        ["bound", "--family", "krawtchouk", "--n", "4", "--c", "0.1", "--omega", "1e155"],
        ["export", "--family", "krawtchouk", "--n", "4", "--c", "0.1", "--omega", "1e155",
         "--levels", "2"],
        ["spectrum", "--family", "constant", "--n", "12", "--out", "/nonexistent-dir/x.out"],
        ["plot", "--out", "/nonexistent-dir/p.svg"],
        ["spectrum", "--family", "krawtchouk", "--n", "3", "--c", "0", "--omega", "1e-200"],
        ["bound", "--family", "krawtchouk", "--n", "3", "--c", "0", "--omega", "1e-200"],
        ["export", "--family", "constant", "--n", "1", "--c", "1e308", "--levels", "2"],
        ["plot", "--panel", "constant:c=1e308", "--n", "3", "--out", "{tmp}/p.svg"],
        ["spectrum", "--family", "krawtchouk", "--n", "3", "--c", "0.1", "--hbar", "1e308"],
        ["export", "--family", "krawtchouk", "--n", "3", "--c", "0.1", "--hbar", "1e308",
         "--levels", "2"],
    ],
)
def test_out_of_range_chains_exit2_without_traceback(argv, tmp_path):
    proc = _run([a.replace("{tmp}", str(tmp_path)) for a in argv])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not any(tmp_path.iterdir())


def test_small_q_chain_where_jacobi_products_overflow():
    # (n - 1) |ln q| = 455.9 is past ln(float max) / 2, so the products
    # B_{i-1} D_i behind this family's Jacobi matrix overflow float range.
    argv = ["spectrum", "--family", "qkrawtchouk", "--q", "0.01", "--n", "100"]
    proc = _run([*argv, "--c", "0", "--omega", "1.3"])
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["omegas_closed"] == [1.3] * 100
    assert payload["omegas_numeric"] == [1.3] * 100
    proc = _run([*argv, "--c", "1e-300"])
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["omegas_closed"] == payload["omegas_numeric"]


def test_single_site_custom_chain_takes_empty_gamma():
    proc = _run(["spectrum", "--family", "custom", "--n", "1", "--gamma", "", "--omega", "2"])
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["spec"]["gamma"] == []
    assert payload["omegas_numeric"] == [2.0]
    proc = _run(["spectrum", "--family", "custom", "--n", "3", "--gamma", ""])
    assert proc.returncode == 2
    assert "0 coupling magnitudes for a chain of 3 sites" in proc.stderr


def test_flag_errors_exit2():
    assert _run(["spectrum", "--family", "krawtchouk", "--n", "4", "--frob", "1"]).returncode == 2
    assert _run(["spectrum", "--family", "hahn", "--n", "4"]).returncode == 2
    assert (
        _run(
            ["spectrum", "--family", "krawtchouk", "--alpha", "0.5", "--n", "4"]
        ).returncode
        == 2
    )
    assert _run(["spectrum", "--family", "qkrawtchouk", "--n", "4"]).returncode == 2
    assert (
        _run(["spectrum", "--family", "constant", "--q", "2.0", "--n", "4"]).returncode
        == 2
    )
    assert _run(["spectrum", "--family", "custom", "--n", "4"]).returncode == 2
    assert (
        _run(
            ["spectrum", "--family", "custom", "--gamma", "1,zap,3", "--n", "4"]
        ).returncode
        == 2
    )
    assert _run(["spectrum", "--family", "krawtchouk", "--n", "0"]).returncode == 2
    assert (
        _run(
            ["spectrum", "--family", "hahn", "--alpha", "-2.0", "--n", "4"]
        ).returncode
        == 2
    )
    # A family's parameter flag is refused for every other family.
    for argv, flag, family in (
        (["--family", "hahn", "--alpha", "0.5", "--q", "2"], "--q", "qkrawtchouk"),
        (["--family", "hahn", "--alpha", "0.5", "--gamma", "1,2,3"], "--gamma", "custom"),
        (["--family", "qkrawtchouk", "--q", "1.6", "--gamma", "1"], "--gamma", "custom"),
    ):
        proc = _run(["spectrum", *argv, "--n", "4"])
        assert proc.returncode == 2
        assert f"{flag} only applies to the {family} family" in proc.stderr


# -- argv grammar -------------------------------------------------------------

# Values that probe the edges of float range and of argparse's types.
_EDGE_VALUES = ("nan", "inf", "1e308", "1e-200", "zap", "0", "-1")
# Typical values of each family parameter, keyed by flag and panel key.
_PARAMS = {
    "alpha": ("0.5", "2", "-0.5"),
    "q": ("1.6", "0.7", "3"),
    "gamma": ("1", "1,2", "1,1.5,1,2", "0.5,1,1,1,2,1,1,3"),
}
_FAMILY_PARAM = {"constant": None, "krawtchouk": None, "hahn": "alpha",
                 "qkrawtchouk": "q", "custom": "gamma"}


def _rarely(draw) -> bool:
    return draw(st.integers(0, 7)) == 0


@st.composite
def _value(draw, typical):
    """Mostly one of the typical values, sometimes an edge value."""
    return draw(st.sampled_from(_EDGE_VALUES if _rarely(draw) else typical))


@st.composite
def _panel(draw):
    family = draw(st.sampled_from((*_FAMILY_PARAM, "sine")))
    keys = ["c", _FAMILY_PARAM.get(family)]
    if _rarely(draw):
        keys = draw(st.lists(st.sampled_from(("c", *_PARAMS)), unique=True))
    typical = dict(_PARAMS, c=("0.05", "0.1", "0.3"))
    items = [f"{k}={draw(_value(typical[k]))}" for k in keys if k is not None]
    return family + ":" + ",".join(items)


@st.composite
def _argv(draw):
    """A mostly valid argv of any subcommand, with stray flags and edge
    values, and the --out name (None, a file or a file in a missing
    directory)."""
    sub = draw(st.sampled_from(("spectrum", "verify", "bound", "plot", "export")))
    argv = [sub]
    if sub == "plot":
        for _ in range(draw(st.integers(0, 3))):
            argv += ["--panel", draw(_panel())]
        argv += ["--n", draw(_value(("3", "6", "9")))]
    else:
        family = draw(st.sampled_from(tuple(_FAMILY_PARAM)))
        n = draw(st.integers(1, 9))
        argv += ["--family", family, "--n", draw(_value((str(n),)))]
        own = _FAMILY_PARAM[family]
        # The family's own flag is mostly given, a foreign flag rarely.
        for key, typical in _PARAMS.items():
            if key == own and _rarely(draw) or key != own and not _rarely(draw):
                continue
            if key == "gamma" and not _rarely(draw):
                typical = (",".join(["1.5"] * (n - 1)),)
            argv += [f"--{key}", draw(_value(typical))]
        argv += ["--c", draw(_value(("0", "0.05", "0.1", "0.3")))]
        if sub == "spectrum":
            argv += ["--format", draw(st.sampled_from(("json", "csv", "text")))]
        if sub == "verify" and draw(st.booleans()):
            argv.append("--perturb")
        if sub == "export":
            argv += ["--levels", draw(_value(("0", "1", "2", "3")))]
    for flag in ("--omega", "--hbar"):
        if draw(st.booleans()):
            argv += [flag, draw(_value(("1", "0.7", "1.3")))]
    out = draw(st.sampled_from((None, "payload.out", "missing/payload.out")))
    if sub == "plot" and out is None:
        out = "payload.svg"
    return argv, out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_argv())
def test_argv_grammar_exit_codes_and_payloads(case):
    argv, out = case
    with tempfile.TemporaryDirectory() as tmp:
        if out is not None:
            out = os.path.join(tmp, out)
            argv = argv + ["--out", out]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        payload = stdout.getvalue()
        if out is not None and os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                payload += fh.read()
    assert code in (0, 1, 2, 3, 4), (argv, stderr.getvalue())
    assert code != 1 or argv[0] == "verify", (argv, stderr.getvalue())
    if code == 0:
        assert not re.search(r"(?i)\b(inf|infinity|nan)\b", payload), (argv, payload)


# -- plot ---------------------------------------------------------------------


def test_plot_default_panels_deterministic(tmp_path):
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    assert _run(["plot", "--out", str(first)]).returncode == 0
    assert _run(["plot", "--out", str(second)]).returncode == 0
    blob = first.read_bytes()
    assert blob == second.read_bytes()
    root = ET.parse(first).getroot()
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    text = blob.decode("utf-8")
    for label in ("(a) constant", "(b) krawtchouk", "(c) qkrawtchouk", "(d) qkrawtchouk"):
        assert label in text
    # four panels, twelve levels each
    assert text.count('stroke="black"') == 48


def test_plot_custom_panels_and_flags(tmp_path):
    out = tmp_path / "two.svg"
    proc = _run(
        [
            "plot",
            "--panel",
            "hahn:alpha=0.5,c=0.2",
            "--panel",
            "constant:c=0.3",
            "--n",
            "6",
            "--out",
            str(out),
        ]
    )
    assert proc.returncode == 0, proc.stderr
    text = out.read_text()
    assert "(a) hahn" in text and "(b) constant" in text
    assert text.count('stroke="black"') == 12
    assert _run(["plot", "--panel", "sine:c=0.1", "--out", str(out)]).returncode == 2
    assert _run(["plot", "--panel", "hahn:alpha=0.5", "--out", str(out)]).returncode == 2
    assert _run(["plot", "--panel", "constant:c=0.1,q=2", "--out", str(out)]).returncode == 2


def test_plot_config_file_changes_geometry(tmp_path):
    out_default = tmp_path / "default.svg"
    out_wide = tmp_path / "wide.svg"
    cfg = tmp_path / "chain.cfg"
    cfg.write_text("# wider canvas\nsvg_width=900\n")
    assert _run(["plot", "--out", str(out_default)]).returncode == 0
    assert _run(["plot", "--out", str(out_wide)], config=str(cfg)).returncode == 0
    assert out_default.read_bytes() != out_wide.read_bytes()
    assert 'width="900.00"' in out_wide.read_text()


def test_config_file_errors(tmp_path):
    out = tmp_path / "x.svg"
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("svg_girth=900\n")
    proc = _run(["plot", "--out", str(out)], config=str(bad_key))
    assert proc.returncode == 2
    assert "unknown config key" in proc.stderr
    bad_value = tmp_path / "bad_value.cfg"
    bad_value.write_text("svg_width=broad\n")
    assert _run(["plot", "--out", str(out)], config=str(bad_value)).returncode == 2
    for line in ("verify_ortho_tol=nan", "svg_width=inf", "svg_margin=-1"):
        cfg = tmp_path / "out_of_range.cfg"
        cfg.write_text(f"# range check\n{line}\n")
        proc = _run(["verify", "--family", "krawtchouk", "--n", "4"], config=str(cfg))
        assert proc.returncode == 2
        assert f"{cfg}:2: value for" in proc.stderr
        assert proc.stdout == ""
    missing = tmp_path / "nowhere.cfg"
    proc = _run(["plot", "--out", str(out)], config=str(missing))
    assert proc.returncode == 2
    assert "cannot read config file" in proc.stderr


# -- export -------------------------------------------------------------------


def test_export_header_and_rows():
    proc = _run(
        [
            "export",
            "--family",
            "krawtchouk",
            "--n",
            "4",
            "--c",
            "0.4",
            "--levels",
            "1",
        ]
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "energy,degeneracy,occupations"
    assert len(lines) == 6
    energy, degeneracy, occ = lines[1].split(",")
    assert float(energy) == state_energy(
        ChainSpec(n=4, omega=1.0, coupling=0.4, interaction=KrawtchoukInteraction()),
        (0, 0, 0, 0),
    )
    assert degeneracy == "1"
    assert occ == "0|0|0|0"


def test_export_degenerate_members_joined():
    proc = _run(
        [
            "export",
            "--family",
            "krawtchouk",
            "--n",
            "3",
            "--c",
            "0.0",
            "--levels",
            "1",
        ]
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "0|0|0"
    assert lines[2].split(",")[1] == "3"
    assert lines[2].split(",")[2] == "0|0|1;0|1|0;1|0|0"


def test_export_budget_exit4():
    proc = _run(
        [
            "export",
            "--family",
            "constant",
            "--n",
            "50",
            "--c",
            "1.0",
            "--levels",
            "8",
        ]
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "wall_ms" not in proc.stderr
