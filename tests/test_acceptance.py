"""Top-level acceptance battery: one test per headline guarantee.

Each test recomputes its residuals directly from dense numpy arrays (not
through the package's own residual helpers), enforces the pinned
tolerance, and prints a one-line summary with the measured values.
Failures list every offending configuration.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from chain_spectra.chain import (
    ChainSpec,
    ConstantInteraction,
    DualQKrawtchoukInteraction,
    HahnInteraction,
    KrawtchoukInteraction,
    SpacingProfile,
    assemble_quadratic_form,
    coupling_coefficients,
    max_coupling,
    mode_frequencies,
    single_phonon_levels,
    spacing_profile,
    state_energy,
)
from chain_spectra.jacobi import (
    ConstantParams,
    analytic_decomposition,
    build_jacobi,
    numeric_eigenvalues,
)
from chain_spectra.polynomials import (
    DualQKrawtchoukParams,
    HahnParams,
    KrawtchoukParams,
    family_eval,
    lattice_point,
    norm,
    recurrence_eval,
    weight,
)

ORTHO_TOL = 1e-9
RECON_TOL = 1e-9
EIG_TOL = 1e-8


def _dense_residuals(fam, d_diag):
    """Max-norm residuals of the analytic eigendecomposition, recomputed
    from scratch: orthogonality, reconstruction against the prescribed
    eigenvalue diagonal, and the deviation from the numeric eigensolver."""
    M = np.array(build_jacobi(fam).dense(), dtype=float)
    dec = analytic_decomposition(fam)
    U = np.array(dec.vectors, dtype=float)
    n = M.shape[0]
    ortho = float(np.abs(U @ U.T - np.eye(n)).max())
    recon = float(np.abs(M @ U - U @ np.diag(np.asarray(d_diag, dtype=float))).max())
    numeric = numeric_eigenvalues(build_jacobi(fam))
    eig = max(abs(a - b) for a, b in zip(sorted(dec.eigenvalues), numeric))
    return ortho, recon, eig


def test_criterion_01_krawtchouk_decomposition():
    t0 = time.perf_counter()
    worst = [0.0, 0.0, 0.0]
    for n in range(2, 33):
        fam = KrawtchoukParams(p=0.5, N=n - 1)
        dec = analytic_decomposition(fam)
        assert dec.eigenvalues == tuple(float(j) for j in range(n))
        triple = _dense_residuals(fam, range(n))
        worst = [max(a, b) for a, b in zip(worst, triple)]
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 01: ortho {worst[0]:.3e} recon {worst[1]:.3e} "
        f"eig {worst[2]:.3e} wall {elapsed:.3f}s"
    )
    assert worst[0] <= ORTHO_TOL
    assert worst[1] <= RECON_TOL
    assert worst[2] <= EIG_TOL
    assert elapsed < 1.0


def test_criterion_02_hahn_decomposition():
    worst = [0.0, 0.0, 0.0]
    for n in range(2, 33):
        for a in (-0.5, 0.5, 2.0, -n - 0.5):
            fam = HahnParams(N=n - 1, alpha=a, beta=a)
            triple = _dense_residuals(fam, range(n))
            worst = [max(x, y) for x, y in zip(worst, triple)]
    print(
        f"criterion 02: ortho {worst[0]:.3e} recon {worst[1]:.3e} "
        f"eig {worst[2]:.3e}"
    )
    assert worst[0] <= ORTHO_TOL
    assert worst[1] <= RECON_TOL
    assert worst[2] <= EIG_TOL


def test_criterion_03_dual_q_decomposition():
    failures = []
    for q in (0.5, 0.7, 0.9, 1.1, 1.6, 2.0):
        worst = [0.0, 0.0, 0.0]
        for n in range(2, 33):
            fam = DualQKrawtchoukParams(N=n - 1, cbar=-1.0, q=q)
            dec = analytic_decomposition(fam)
            target = tuple(
                (1.0 - q ** -j) * (1.0 + q ** (j - n + 1)) for j in range(n)
            )
            for got, want in zip(dec.eigenvalues, target):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
            triple = _dense_residuals(fam, dec.eigenvalues)
            worst = [max(x, y) for x, y in zip(worst, triple)]
        print(
            f"criterion 03: q={q} ortho {worst[0]:.3e} recon {worst[1]:.3e} "
            f"eig {worst[2]:.3e}"
        )
        if worst[0] > ORTHO_TOL:
            failures.append(f"q={q}: orthogonality {worst[0]:.3e} > 1e-9")
        if worst[1] > RECON_TOL:
            failures.append(f"q={q}: reconstruction {worst[1]:.3e} > 1e-9")
        if worst[2] > EIG_TOL:
            failures.append(f"q={q}: eigenvalue deviation {worst[2]:.3e} > 1e-8")
    # at q = 0.5 the matrix entries and eigenvalues reach ~1e9 for n = 32,
    # so these absolute thresholds demand ~1e-19 relative accuracy, below
    # what float64 can represent; the relative error itself stays ~1e-16
    assert not failures, "; ".join(failures)


def test_criterion_04_constant_chain_eigenvalues():
    worst = 0.0
    for n in range(1, 65):
        numeric = numeric_eigenvalues(build_jacobi(ConstantParams(N=n - 1)))
        closed = sorted(
            2.0 - 2.0 * math.cos(j * math.pi / (n + 1)) for j in range(1, n + 1)
        )
        dev = max(abs(a - b) for a, b in zip(numeric, closed))
        worst = max(worst, dev)
    print(f"criterion 04: eigenvalue deviation {worst:.3e}")
    assert worst <= 1e-10


_PANELS = (
    ("(a)", ConstantInteraction(), 0.5, SpacingProfile.MID_PEAK),
    ("(b)", KrawtchoukInteraction(), 0.18, SpacingProfile.DECREASING),
    ("(c)", DualQKrawtchoukInteraction(q=1.6), 1.0, SpacingProfile.MID_DIP),
    ("(d)", DualQKrawtchoukInteraction(q=0.7), 0.01, SpacingProfile.MID_DIP),
)


def test_criterion_05_panel_spectra():
    t0 = time.perf_counter()
    failures = []
    gaps_by_panel = {}
    for label, interaction, c, expected in _PANELS:
        chain = ChainSpec(n=12, omega=1.0, coupling=c, interaction=interaction)
        closed = mode_frequencies(chain, method="closed")
        numeric = mode_frequencies(chain, method="numeric")
        rel = max(abs(a - b) / a for a, b in zip(closed.omegas, numeric.omegas))
        if rel > 1e-9:
            failures.append(f"{label}: closed-vs-numeric {rel:.3e} > 1e-9")
        profile = spacing_profile(single_phonon_levels(chain))
        if profile is not expected:
            failures.append(f"{label}: profile {profile} != {expected}")
        levels = single_phonon_levels(chain)
        gaps = [b - a for a, b in zip(levels, levels[1:])]
        gaps_by_panel[label] = gaps
    elapsed = time.perf_counter() - t0
    gc, gd = gaps_by_panel["(c)"], gaps_by_panel["(d)"]
    print(
        f"criterion 05: (c) first gap {gc[0]:.6f} last gap {gc[-1]:.6f}; "
        f"(d) first gap {gd[0]:.6f} last gap {gd[-1]:.6f}; wall {elapsed*1e3:.2f}ms"
    )
    if not gc[-1] > gc[0]:
        failures.append(
            f"(c): last gap {gc[-1]:.6f} is not > first gap {gc[0]:.6f}"
            " (the level ladder tightens towards the top on both sides)"
        )
    if not gd[0] > gd[-1]:
        failures.append(f"(d): first gap {gd[0]:.6f} is not > last gap {gd[-1]:.6f}")
    if elapsed >= 0.1:
        failures.append(f"wall time {elapsed:.3f}s >= 100ms")
    assert not failures, "; ".join(failures)


def test_criterion_06_hahn_krawtchouk_spectrum_equality():
    chain_k = ChainSpec(
        n=12, omega=1.0, coupling=0.18, interaction=KrawtchoukInteraction()
    )
    base = mode_frequencies(chain_k).omegas
    worst = 0.0
    for a in (0.5, 3.0, -12.5):
        chain_h = ChainSpec(
            n=12, omega=1.0, coupling=0.18, interaction=HahnInteraction(alpha=a)
        )
        omegas = mode_frequencies(chain_h).omegas
        worst = max(worst, max(abs(x - y) for x, y in zip(omegas, base)))
    print(f"criterion 06: max frequency deviation {worst:.3e}")
    assert worst <= 1e-10


def _min_eig(interaction, n, c):
    chain = ChainSpec(n=n, omega=1.0, coupling=c, interaction=interaction)
    return numeric_eigenvalues(assemble_quadratic_form(chain))[0]


def test_criterion_07_coupling_bound_flips():
    failures = []
    low = _min_eig(KrawtchoukInteraction(), 4, 0.666)
    high = _min_eig(KrawtchoukInteraction(), 4, 0.667)
    print(f"criterion 07: krawtchouk n=4 min eig {low:.3e} @0.666, {high:.3e} @0.667")
    if not (low > 0.0 > high):
        failures.append(f"krawtchouk: no sign flip between 0.666 and 0.667")
    for q, claimed in ((0.7, 0.01398), (1.6, 1.6237)):
        interaction = DualQKrawtchoukInteraction(q=q)
        below = _min_eig(interaction, 12, 0.99 * claimed)
        above = _min_eig(interaction, 12, 1.01 * claimed)
        true_flip = max_coupling(
            ChainSpec(n=12, omega=1.0, coupling=0.0, interaction=interaction)
        )
        print(
            f"criterion 07: q={q} min eig {below:.6e} @0.99x{claimed}, "
            f"{above:.6e} @1.01x{claimed}; actual flip at {true_flip!r}"
        )
        if not (below > 0.0 > above):
            failures.append(
                f"q={q}: smallest eigenvalue does not change sign at {claimed}"
                f" (it flips at {true_flip!r})"
            )
    assert not failures, "; ".join(failures)


def test_criterion_08_limits_and_symmetries():
    n = 12

    def gammas(interaction, size=n):
        chain = ChainSpec(
            n=size, omega=1.0, coupling=0.1, interaction=interaction
        )
        return coupling_coefficients(chain)

    kraw = gammas(KrawtchoukInteraction())
    large = gammas(HahnInteraction(alpha=1e6))
    rel = max(abs(g - k) / k for g, k in zip(large, kraw))
    assert rel <= 1e-5
    for r in range(1, n):
        assert kraw[r - 1] == kraw[n - r - 1]
    plus = gammas(HahnInteraction(alpha=0.5))
    minus = gammas(HahnInteraction(alpha=-n - 0.5))
    mirror = max(
        abs(m - p) / p for m, p in zip(minus, reversed(plus))
    )
    assert mirror <= 1e-12
    simplified = tuple(
        math.sqrt((n - r) * (n + r + 1)) / 2.0 for r in range(1, n)
    )
    half = max(abs(g - s) / s for g, s in zip(plus, simplified))
    assert half <= 1e-12
    print(
        f"criterion 08: alpha=1e6 rel {rel:.3e}; reflection exact; "
        f"mirror rel {mirror:.3e}; simplified-form rel {half:.3e}"
    )


def _polynomial_grid(N):
    for p in (0.3, 0.5, 0.7):
        yield f"krawtchouk p={p}", KrawtchoukParams(p=p, N=N)
    for a in (-0.5, 0.5, 2.0):
        yield f"hahn alpha={a}", HahnParams(N=N, alpha=a, beta=a)
    for q in (0.5, 0.9, 1.1, 2.0):
        yield f"dualq q={q}", DualQKrawtchoukParams(N=N, cbar=-1.0, q=q)


def test_criterion_09_property_suites():
    failures = []
    worst_ortho = (0.0, "")
    worst_path = (0.0, "")
    for N in (6, 12, 18, 24):
        for label, fam in _polynomial_grid(N):
            points = [lattice_point(fam, x) for x in range(N + 1)]
            w = [weight(fam, x) for x in range(N + 1)]
            h = [norm(fam, i) for i in range(N + 1)]
            P = np.array(
                [[family_eval(fam, i, pt) for pt in points] for i in range(N + 1)]
            )
            G = (P * np.asarray(w)) @ P.T
            resid = np.abs(G - np.diag(h)) / np.asarray(h)[:, None]
            m = float(resid.max())
            if m > worst_ortho[0]:
                worst_ortho = (m, f"{label} N={N}")
            if m > 1e-10:
                failures.append(f"orthogonality {m:.3e} > 1e-10 for {label} N={N}")
            for i in range(N + 1):
                for x in range(N + 1):
                    s = P[i][x]
                    r = recurrence_eval(fam, i, points[x])
                    if s == r:
                        continue
                    rel = abs(s - r) / max(abs(s), abs(r))
                    if rel > worst_path[0]:
                        worst_path = (rel, f"{label} N={N} i={i} x={x} {s!r} vs {r!r}")
                    if rel > 1e-10:
                        failures.append(
                            f"dual-path rel {rel:.3e} > 1e-10 for {label} "
                            f"N={N} i={i} x={x}"
                        )
    rng = random.Random(20260819)
    worst_add = 0.0
    for _ in range(200):
        n = rng.randint(2, 6)
        interaction = KrawtchoukInteraction()
        bound = max_coupling(
            ChainSpec(n=n, omega=1.0, coupling=0.0, interaction=interaction)
        )
        chain = ChainSpec(
            n=n, omega=1.0, coupling=0.4 * bound, interaction=interaction
        )
        occ = tuple(rng.randint(0, 5) for _ in range(n))
        j = rng.randrange(n)
        bumped = tuple(k + 1 if t == j else k for t, k in enumerate(occ))
        omega_j = mode_frequencies(chain).omegas[j]
        base = state_energy(chain, occ)
        dev = abs(state_energy(chain, bumped) - base - chain.hbar * omega_j)
        scaled = dev / (1.0 + abs(base))
        worst_add = max(worst_add, scaled)
        if scaled > 1e-12:
            failures.append(f"additivity residual {scaled:.3e} > 1e-12 for n={n}")
    print(
        f"criterion 09: worst orthogonality {worst_ortho[0]:.3e} ({worst_ortho[1]}); "
        f"worst dual-path rel {worst_path[0]:.3e} ({worst_path[1]}); "
        f"worst additivity {worst_add:.3e}"
    )
    # cap the failure list so the assertion message stays readable
    assert not failures, "; ".join(failures[:12]) + (
        f"; ... {len(failures) - 12} more" if len(failures) > 12 else ""
    )


def _run_cli(argv):
    env = dict(os.environ)
    env.pop("CHAIN_SPECTRA_CONFIG", None)
    return subprocess.run(
        [sys.executable, "-m", "chain_spectra.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_criterion_10_cli_plot_and_verify(tmp_path):
    first = tmp_path / "first.svg"
    second = tmp_path / "second.svg"
    assert _run_cli(["plot", "--out", str(first)]).returncode == 0
    assert _run_cli(["plot", "--out", str(second)]).returncode == 0
    assert first.read_bytes() == second.read_bytes()
    root = ET.parse(first).getroot()
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    for family_args in (
        ["--family", "krawtchouk"],
        ["--family", "hahn", "--alpha", "0.5"],
        ["--family", "qkrawtchouk", "--q", "1.6"],
    ):
        proc = _run_cli(["verify", *family_args, "--n", "12"])
        assert proc.returncode == 0, proc.stdout + proc.stderr
    proc = _run_cli(["verify", "--family", "krawtchouk", "--n", "12", "--perturb"])
    assert proc.returncode != 0
    print("criterion 10: plot byte-deterministic, verify battery behaves")
