"""End-to-end tests for the command-line interface, via subprocess and (for
the argv grammar property) in process."""

import argparse
import contextlib
import errno
import inspect
import io
import json
import math
import os
import pathlib
import re
import resource
import subprocess
import sys
import tempfile
import tracemalloc
import typing
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chain_spectra
import oracles
from chain_spectra import chain as chain_module
from chain_spectra import cli
from chain_spectra.chain import (
    ChainSpec,
    ConstantInteraction,
    KrawtchoukInteraction,
    enumerate_levels,
    mode_frequencies,
    single_phonon_levels,
    state_energy,
)


def _run(argv, env=None):
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
    for q, n in (("1.6", "12"), ("2", "49")):
        proc = _run(["verify", "--family", "qkrawtchouk", "--q", q, "--n", n])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.startswith("eigenvalues 0 ")


@pytest.mark.parametrize(
    "q, n", [("1.6", "64"), ("0.7", "96"), ("2", "256"), ("10", "64"), ("0.01", "100")]
)
def test_verify_qkrawtchouk_passes_without_nan_or_warning(q, n):
    # Eigenvalues of M that cluster near F_0 or span hundreds of decades:
    # the analytic vectors come from K, scaled by a power of two.
    proc = _run(["verify", "--family", "qkrawtchouk", "--q", q, "--n", n])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "nan" not in proc.stdout
    assert "Warning" not in proc.stderr


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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_stdout_exits2_without_traceback():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "chain_spectra.cli", "bound", "--family", "krawtchouk",
             "--n", "12"],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    assert proc.returncode == 2
    assert proc.stderr == f"cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["bound", "--family", "krawtchouk", "--n", "12"], 0),
        (["bound", "--family", "custom", "--n", "3", "--gamma", "1,1"], 2),
        (["spectrum", "--family", "krawtchouk", "--n", "12", "--c", "5"], 3),
        (["export", "--family", "constant", "--n", "50", "--levels", "8"], 4),
    ],
)
def test_a_full_stderr_keeps_the_exit_code(argv, code):
    # The wall_ms line, a typed error's message, the not-positive-definite
    # lines and the budget message are lost, and the run exits as it would
    # with a stderr that works: a full stderr made the first two exit 1.
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "chain_spectra.cli", *argv],
            stdout=subprocess.PIPE, stderr=full, text=True, timeout=120,
        )
    assert proc.returncode == code
    assert proc.stdout == ("0.18181818181818182\n" if code == 0 else "")


def test_a_stdout_pipe_whose_reader_has_closed_exits2_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "chain_spectra.cli", "export", "--family", "krawtchouk",
             "--n", "12", "--c", "0.1", "--levels", "6"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == f"cannot write stdout: {os.strerror(errno.EPIPE)}\n"


@pytest.mark.parametrize(
    "argv, omega",
    [
        (["--family", "constant", "--n", "3", "--c", "1e308", "--omega", "1e154"], "1e+154"),
        (["--family", "custom", "--n", "2", "--gamma", "1e308", "--c", "1e308"], "1.0"),
    ],
)
def test_spectrum_names_omega_and_c_when_the_quadratic_form_overflows(argv, omega):
    # Both printed SymTridiagonal's "matrix entries must be finite".
    proc = _run(["spectrum", *argv])
    assert proc.returncode == 2
    assert proc.stderr == (
        "entries of the quadratic form omega^2 I + c K overflow float range "
        f"(omega = {omega}, c = 1e+308)\n"
    )
    assert proc.stdout == ""


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_bounded(argv):
    """_run with 1 GiB of address space and 60 s, so that a run which
    allocates without bound fails rather than filling the machine."""
    return subprocess.run(
        [sys.executable, "-m", "chain_spectra.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )


@pytest.mark.parametrize("command", ["spectrum", "bound", "verify"])
def test_chain_length_past_sys_maxsize_exits2(command):
    # 10**20 is past sys.maxsize.  spectrum raised a raw OverflowError and
    # exited 1; bound and verify allocated until they were killed.
    proc = _run_bounded([command, "--family", "krawtchouk", "--n", "100000000000000000000"])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "chain length must be <= " in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--family", "constant", "--n", "4", "--c", "0.1"],
        ["verify", "--family", "krawtchouk", "--n", "12"],
    ],
    ids=["spectrum", "verify"],
)
def test_a_command_out_of_memory_exits4_without_traceback(argv, monkeypatch, capsys):
    # Exit 1 means only a failed verification; spectrum at n = 10**9 and
    # verify at n = 30000 died with a raw MemoryError (numpy's, for verify)
    # and exit 1.  Those sizes are now refused by their budgets (below), so
    # the backstop is shown with a command that raises MemoryError.
    def out_of_memory(parser, args):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, argv[0], out_of_memory)
    assert cli.main(argv) == 4
    assert capsys.readouterr() == ("", f"{argv[0]} ran out of memory\n")


_GAMMAS_PAST_NUMERIC_CAP = ",".join(["1"] * chain_module.NUMERIC_CAP)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--family", "krawtchouk", "--n", "2049"],
         "2049 modes exceed the verify budget of 2048"),
        (["verify", "--family", "hahn", "--alpha", "0.5", "--n", "30000"],
         "30000 modes exceed the verify budget of 2048"),
        (["spectrum", "--family", "custom", "--n", "8193",
          "--gamma", _GAMMAS_PAST_NUMERIC_CAP],
         "8193 modes exceed the numeric budget of 8192"),
        (["spectrum", "--family", "constant", "--n", "1000000000", "--c", "0.1"],
         "1000000000 modes exceed the numeric budget of 8192"),
    ],
    ids=["verify", "verify-30000", "spectrum-custom", "spectrum-1e9"],
)
def test_sizes_past_a_budget_exit4_without_numpy(argv, message):
    # verify holds about 4 n^2 doubles and numeric spectrum runs an O(n^2)
    # dqds: n one past VERIFY_CAP or NUMERIC_CAP is refused in one line
    # before numpy is imported or any array is built.  The two larger
    # sizes once ran out of memory under 1 GiB of address space.
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert proc.stderr.splitlines() == [message, "4 False"]
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "n, levels, count",
    [
        ("50", "8", "1916797311"),
        ("10000", "10000", "2**19992 or more"),
        ("4000000", "4000000", "2**32770 or more"),
    ],
)
def test_export_over_budget_prints_its_state_count_and_exits4(n, levels, count):
    # C(20000, 10000) has about 6,000 digits, more than Python turns into a
    # string: the message raised a raw ValueError and exited 1.  A count
    # short enough to print is printed as it was.  C(8000000, 4000000) was
    # still being counted after 60 s; the count now stops at its first
    # partial product above 2**32768, a lower bound on it.
    proc = _run_bounded(["export", "--family", "constant", "--n", n, "--levels", levels])
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == f"{count} occupation states exceed the budget of 1000000\n"
    assert proc.stdout == ""


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


def _custom_spectrum(n, omega, c):
    gamma = ",".join(["1"] * (n - 1))
    argv = ["spectrum", "--family", "custom", "--n", str(n), "--gamma", gamma]
    proc = _run([*argv, "--omega", omega, "--c", c])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)["omegas_numeric"]


@pytest.mark.parametrize("n", [4, 6, 10, 20])
def test_custom_chain_near_the_smallest_normal_float(n):
    # omega^2 = 2.25e-308, where eps (|d_m| + |d_m+1|) of an unscaled QL
    # deflation test underflows to 0.  The same chain with omega and c
    # times 1e154 and 1e308 has 1e154 times the frequencies.
    omegas = _custom_spectrum(n, "1.5e-154", "1e-308")
    assert [w * 1e154 for w in omegas] == pytest.approx(_custom_spectrum(n, "1.5", "1"), rel=1e-12)


def test_custom_chain_near_the_largest_float():
    # omega^2 = 1.69e308, where eps (|d_m| + |d_m+1|) of an unscaled QL
    # deflation test overflows to inf and every row deflates at once, so
    # each frequency would read 1.3e154.
    omegas = _custom_spectrum(3, "1.3e154", "1e307")
    assert [w / 1e154 for w in omegas] == pytest.approx(_custom_spectrum(3, "1.3", "0.1"), rel=1e-12)


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
    # A value the library refuses is its one line, without a usage banner.
    proc = _run(["spectrum", "--family", "hahn", "--alpha", "-2.0", "--n", "4"])
    assert proc.returncode == 2
    assert proc.stderr == (
        "(alpha, beta) = (-2.0, -2.0) lies outside both valid branches for N = 3\n"
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


@pytest.mark.parametrize(
    "panel, argv, text",
    [
        ("constant:c=0.1,q=2", ["--family", "constant", "--q", "2"],
         "--q only applies to the qkrawtchouk family"),
        ("hahn:c=0.2", ["--family", "hahn"], "--alpha is required for the hahn family"),
    ],
)
def test_plot_panels_and_chain_flags_share_one_family_rule(panel, argv, text, tmp_path):
    # One family rule, in the same words, for argv flags and panel keys.
    svg = tmp_path / "p.svg"
    from_panel = _run(["plot", "--panel", panel, "--out", str(svg)])
    from_flags = _run(["spectrum", *argv, "--n", "4"])
    for proc in (from_panel, from_flags):
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines()[-1] == f"chain-spectra: error: {text}"
    assert not svg.exists()


def test_only_spectrum_and_export_take_hbar():
    # verify and bound never read hbar, so they refuse it as an unknown flag.
    for command, code in (("verify", 2), ("bound", 2), ("spectrum", 0), ("export", 0)):
        extra = ["--levels", "1"] if command == "export" else []
        proc = _run([command, "--family", "krawtchouk", "--n", "4", "--hbar", "2", *extra])
        assert proc.returncode == code, (command, proc.stderr)
        if code == 2:
            assert "unrecognized arguments: --hbar 2" in proc.stderr
            assert proc.stdout == ""


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
    # Only spectrum and export take --hbar.
    for flag in ("--omega", "--hbar") if sub in ("spectrum", "export") else ("--omega",):
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
    # A repeated key is refused, not overwritten by its last value.
    assert _run(["plot", "--panel", "krawtchouk:c=0.18,c=0.5", "--out", str(out)]).returncode == 2
    # An entry without "=" is a usage error with its one-line message.
    proc = _run(["plot", "--panel", "krawtchouk:c", "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == (
        "chain-spectra: error: panel entry 'c' is not key=value"
    )
    assert "Traceback" not in proc.stderr


# -- inputs -------------------------------------------------------------------


def test_output_depends_on_argv_alone(tmp_path):
    # The payload and exit code depend on argv alone: a config file that
    # would loosen verify's thresholds and widen the SVG, or a path that does
    # not exist, changes no command.
    loose = tmp_path / "loose.cfg"
    loose.write_text(
        "verify_ortho_tol=1\nverify_recon_tol=1\nverify_eig_tol=1\nsvg_width=900\n"
    )
    unset = {k: v for k, v in os.environ.items() if k != "CHAIN_SPECTRA_CONFIG"}
    svg = tmp_path / "levels.svg"
    commands = (
        ["spectrum", "--family", "krawtchouk", "--n", "4", "--c", "0.4"],
        ["bound", "--family", "krawtchouk", "--n", "12"],
        ["verify", "--family", "krawtchouk", "--n", "12"],
        ["verify", "--family", "krawtchouk", "--n", "12", "--perturb"],
        ["plot", "--out", str(svg)],
    )

    def observe(argv, env):
        svg.unlink(missing_ok=True)
        proc = _run(argv, env=env)
        return proc.returncode, proc.stdout, svg.read_bytes() if svg.exists() else None

    expected = [observe(argv, unset) for argv in commands]
    assert [code for code, _, _ in expected] == [0, 0, 0, 1, 0]
    for setting in (loose, tmp_path / "nowhere.cfg"):
        env = dict(unset, CHAIN_SPECTRA_CONFIG=str(setting))
        assert [observe(argv, env) for argv in commands] == expected, setting


# Every subcommand's options: option -> (required, choices, default).
_CHAIN_FLAGS = {
    "--family": (True, ("constant", "krawtchouk", "hahn", "qkrawtchouk", "custom"), None),
    "--alpha": (False, None, None),
    "--q": (False, None, None),
    "--gamma": (False, None, None),
    "--n": (True, None, None),
    "--omega": (False, None, 1.0),
    "--c": (False, None, 0.0),
    "--out": (False, None, None),
}
# Only spectrum and export read hbar.
_HBAR = {"--hbar": (False, None, 1.0)}
_CLI_SURFACE = {
    "spectrum": {
        **_CHAIN_FLAGS, **_HBAR, "--format": (False, ("json", "csv", "text"), "json")
    },
    "verify": {**_CHAIN_FLAGS, "--perturb": (False, None, False)},
    "bound": _CHAIN_FLAGS,
    "plot": {
        "--panel": (False, None, None),
        "--n": (False, None, 12),
        "--omega": (False, None, 1.0),
        "--out": (True, None, None),
    },
    "export": {**_CHAIN_FLAGS, **_HBAR, "--levels": (True, None, None)},
}


def test_cli_surface_is_pinned():
    # A change to any subcommand's options shows up here, on purpose.
    parser = cli._build_parser()
    (commands,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    observed = {
        name: [
            (
                " ".join(a.option_strings),
                (a.required, None if a.choices is None else tuple(a.choices), a.default),
            )
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for name, sub in commands.choices.items()
    }
    assert list(observed) == list(_CLI_SURFACE)
    for name, options in _CLI_SURFACE.items():
        assert observed[name] == list(options.items()), name


_PUBLIC_NAMES = [
    "BudgetExceeded", "ChainSpec", "ChainSpectraError", "ClosedFormUnavailable",
    "CombinatorialLimit",
    "ConstantInteraction", "ConstantParams", "CustomInteraction", "DegenerateRange",
    "DegreeOutOfRange", "DimensionMismatch",
    "DualQKrawtchoukInteraction", "DualQKrawtchoukParams", "FamilyParams",
    "HahnInteraction", "HahnParams", "InteractionKind", "InvalidParams",
    "JacobiFamily", "KrawtchoukInteraction", "KrawtchoukParams", "LatticePoint",
    "LevelGroup", "LevelTable", "ModeSpectrum", "NoConvergence",
    "NotPositiveDefinite", "Origin", "SpacingProfile", "SpectralDecomposition",
    "SymTridiagonal", "TooFewLevels", "UnsupportedFamily",
    "analytic_decomposition", "assemble_quadratic_form", "bidiagonal_split",
    "build_jacobi", "coupling_coefficients", "decomposition_residuals",
    "enumerate_levels", "family_eval", "is_positive_definite", "lattice",
    "lattice_point", "max_coupling", "mode_frequencies", "norm",
    "numeric_decomposition", "numeric_eigenvalues", "orthonormal_eval",
    "recurrence_eval", "rescale_levels",
    "single_phonon_levels", "spacing_profile", "state_energy", "weight",
]


def test_public_surface_is_pinned():
    # A name added to or removed from the package shows up here, on purpose.
    assert sorted(chain_spectra.__all__) == _PUBLIC_NAMES


def test_public_functions_are_plain_functions():
    # perfbench's tracer wraps only plain functions (inspect.isfunction): a
    # public function behind a decorator such as functools.lru_cache would
    # drop its spans from every traced run without an error.
    values = [getattr(chain_spectra, name) for name in chain_spectra.__all__]
    callables = [v for v in values if not inspect.isclass(v) and typing.get_origin(v) is None]
    assert callables and all(inspect.isfunction(v) for v in callables), [
        v for v in callables if not inspect.isfunction(v)
    ]


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


@pytest.mark.parametrize(
    "family, c",
    [
        # Ten levels of up to 11,440 members at c = 0, which span the
        # 6,144-row pieces an 8-mode CSV is formatted in; singleton levels
        # at c = 0.1.
        (["--family", "krawtchouk"], "0"),
        (["--family", "hahn", "--alpha", "0.5"], "0.1"),
    ],
)
def test_export_pieces_join_to_the_level_groups(family, c, capsys, tmp_path):
    argv = ["export", *family, "--n", "8", "--c", c, "--levels", "9"]
    assert cli.main(argv) == 0
    payload = capsys.readouterr().out
    assert cli.main([*argv, "--out", str(tmp_path / "levels.csv")]) == 0
    assert (tmp_path / "levels.csv").read_text(encoding="utf-8") == payload
    interaction = cli._FAMILIES[family[1]][0]
    chain = ChainSpec(
        n=8,
        omega=1.0,
        coupling=float(c),
        interaction=interaction(*map(float, family[3:])),
    )
    groups = enumerate_levels(chain, 9)
    assert chain_module._piece_rows(groups) == 6144
    assert sum(g.degeneracy for g in groups) == 24_310 > 3 * 6144
    rows = [
        f"{g.energy!r},{g.degeneracy},"
        + ";".join("|".join(str(k) for k in ks) for ks in g.occupations)
        for g in groups
    ]
    assert payload == "\n".join(["energy,degeneracy,occupations", *rows]) + "\n"


def test_export_piece_memory_does_not_grow_with_modes():
    # Constant n = 3000, K = 1 (3,001 states, an 8.6 MiB table) is
    # formatted 16 rows at a time: 0.4 MiB traced for the whole CSV,
    # against 69 MiB in pieces of 2^14 rows of 3,000 entries.  Its text is
    # that of the level groups.
    chain = ChainSpec(n=3000, omega=1.0, coupling=0.1, interaction=ConstantInteraction())
    table = enumerate_levels(chain, 1)
    assert chain_module._piece_rows(table) == 16
    tracemalloc.start()
    try:
        for _ in cli._csv_chunks(table, 1):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, peak / 2**20
    lines = "".join(cli._csv_chunks(table, 1)).splitlines()
    assert lines[0] == "energy,degeneracy,occupations"
    assert len(lines) == 3002
    for i in (0, 1, 1500, 3000):
        g = table[i]
        row = ";".join("|".join(map(str, ks)) for ks in g.occupations)
        assert lines[i + 1] == f"{g.energy!r},{g.degeneracy},{row}"


def test_payload_memory_error_exits_4(monkeypatch, capsys):
    # The pieces of export are computed while main writes them: a
    # MemoryError there is exit 4 with one line, as in the command.
    def pieces(table, max_total):
        yield "energy,degeneracy,occupations"
        raise MemoryError

    monkeypatch.setattr(cli, "_csv_chunks", pieces)
    argv = ["export", "--family", "krawtchouk", "--n", "4", "--c", "0.4", "--levels", "1"]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert err == "export ran out of memory\n"


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


# -- start-up -----------------------------------------------------------------

_GOLDENS = json.loads(
    (pathlib.Path(__file__).parent / "goldens" / "cli_payloads.json").read_text(
        encoding="utf-8"
    )
)

# Runs cli.main on its arguments and reports, as the last stderr line, the
# exit code and whether numpy was imported.
_PROBE = """
import sys
from chain_spectra import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, "numpy" in sys.modules, file=sys.stderr)
"""


def test_numpy_loads_only_for_verify_and_export(tmp_path):
    svg = tmp_path / "levels.svg"
    golden = (
        "bound_krawtchouk",
        "spectrum_custom_json",
        "spectrum_hahn_csv",
        "spectrum_qkrawtchouk_text",
        "plot_default",
        "verify_hahn",
        "export_krawtchouk",
    )
    cases = {
        **{name: _GOLDENS[name]["argv"] for name in golden},
        "plot_panel": ["plot", "--panel", "hahn:alpha=0.5,c=0.2", "--n", "6"],
        "usage_error": ["spectrum", "--family", "sine", "--n", "4"],
        "not_positive_definite": ["spectrum", "--family", "krawtchouk", "--n", "12", "--c", "5"],
        "over_level_cap": ["export", "--family", "constant", "--n", "50", "--levels", "8"],
    }
    observed = {}
    for name, argv in cases.items():
        if argv[0] == "plot":
            argv = [*argv, "--out", str(svg)]
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE, *argv],
            capture_output=True,
            text=True,
            timeout=120,
        )
        code, numpy_loaded = proc.stderr.splitlines()[-1].split()
        observed[name] = (int(code), numpy_loaded == "True")
        if name in golden:
            payload = svg.read_text(encoding="utf-8") if argv[0] == "plot" else proc.stdout
            assert payload == _GOLDENS[name]["payload"], name
    # The two numpy loads show that the probe sees one.
    assert observed == {
        **{name: (0, name in ("verify_hahn", "export_krawtchouk")) for name in golden},
        "plot_panel": (0, False),
        "usage_error": (2, False),
        "not_positive_definite": (3, False),
        "over_level_cap": (4, False),
    }


@pytest.mark.parametrize(
    "argv, stdout, code",
    [
        (["bound", "--family", "constant"], "unbounded\n", 0),
        (["bound", "--family", "krawtchouk"], "2e-18\n", 0),
        (["bound", "--family", "hahn", "--alpha", "0.5"], "2e-18\n", 0),
        (["export", "--family", "constant", "--levels", "4000000"], "", 4),
    ],
    ids=["bound-constant", "bound-krawtchouk", "bound-hahn", "export"],
)
def test_huge_chain_lengths_answer_without_numpy_in_bounded_memory(argv, stdout, code):
    # bound reads the two ends of K's spectrum, and export refuses a state
    # count past its budget, at n = 10**18 (4e6 for export), under 1 GiB of
    # address space: bound died with a raw MemoryError building all n
    # values, and export was still counting after 60 s.
    n = "4000000" if argv[0] == "export" else "1000000000000000000"
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv, "--n", n],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert proc.stdout == stdout
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == f"{code} False"


def test_plot_over_budget_exits4_before_building_a_panel(tmp_path):
    # One panel of 1,000,001 levels is past LEVEL_CAP: refused at once, in
    # one line and without numpy.  At n = 10**11 the default panels grew
    # lists for about 8 s until a MemoryError ended the run.
    svg = tmp_path / "levels.svg"
    argv = ["plot", "--panel", "constant:c=0.5", "--n", "1000001", "--out", str(svg)]
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert proc.stderr.splitlines() == [
        "1 x 1000001 plot levels exceed the budget of 1000000",
        "4 False",
    ]
    assert proc.stdout == ""
    assert not svg.exists()


def test_package_import_leaves_numpy_unloaded():
    probe = """
import sys
import chain_spectra
print("numpy" in sys.modules)
from chain_spectra import (
    KrawtchoukParams, LevelTable, SpectralDecomposition, analytic_decomposition,
    enumerate_levels,
)
table = enumerate_levels(chain_spectra.ChainSpec(
    n=3, omega=1.0, coupling=0.1, interaction=chain_spectra.KrawtchoukInteraction()), 2)
dec = analytic_decomposition(KrawtchoukParams(N=3, p=0.5))
assert isinstance(table, LevelTable) and isinstance(dec, SpectralDecomposition)
print(len(table), sum(table.degeneracies.tolist()), dec.vectors.shape)
"""
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["False", "10 10 (4, 4)", ""]
