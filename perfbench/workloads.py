"""Workloads of the chain_spectra benchmark: case generation, timed calls
and per-case oracles.

Every workload is a closed loop over rounds: one client runs one case at a
time.  A round is a fixed list of cases.  The families, sizes and
subcommands in it never change, so the case mix and the failure share are
properties of the workload, not of the seed.  The seed picks the continuous
parameters (Hahn alpha, dual q-Krawtchouk base, couplings, custom gammas,
omega) and the order of the cases.

Every round repeats the same inputs, so a case's latency can be taken as
its best run; the heaviest cases (`repeat = False`) only run in full rounds.

A case has three steps.  `prepare` builds its inputs and the references it
is checked against, before the case is timed.  `call` makes the calls into
chain_spectra and is the only timed step.  `check` compares what `call`
returned with the references and gives an Outcome.  A typed error that a
case is meant to raise counts as a pass.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import chain_spectra.chain as C
import chain_spectra.jacobi as J
import chain_spectra.polynomials as P
from chain_spectra.errors import (
    ChainSpectraError,
    ClosedFormUnavailable,
    CombinatorialLimit,
    NotPositiveDefinite,
    UnsupportedFamily,
)
from tracer import read_spans

HERE = Path(__file__).resolve().parent
EPS = 2.0**-52
# Thresholds of `chain-spectra verify` at its default configuration.
VERIFY_ORTHO_TOL = 1e-10
VERIFY_RECON_TOL = 1e-9
VERIFY_EIG_TOL = 1e-8
# Payload numbers must equal the library's to this relative precision.
PAYLOAD_RTOL = 1e-12
# Rescaled level heights in an SVG are rounded to 0.01 px.
SVG_LEVEL_TOL = 1e-4


@dataclass
class Outcome:
    """Result of one case's checks.

    deviation is the worst normalised deviation from the case's independent
    check (None where the case has no common scale, such as value tables or
    pixel positions).  known_defect marks the documented dual q-Krawtchouk
    eigenvector breakdown.  residuals and counts feed per-layer metrics.
    """

    ok: bool
    reason: str = ""
    deviation: float | None = None
    known_defect: bool = False
    expected_errors: int = 0
    residuals: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


class Case:
    """Base of the case kinds; `subcommand` is set for CLI runs only."""

    repeat = True  # False: too heavy to repeat after the full rounds
    timed = True  # False: runs in traced runs only
    subcommand = None


def _attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except ChainSpectraError as exc:
        return None, exc


def _verdict(problems, **kwargs) -> Outcome:
    return Outcome(ok=not problems, reason="; ".join(problems), **kwargs)


@dataclass
class Context:
    """What a case needs from the run: where to put files, the environment
    for child processes and, in a traced run, the tracer."""

    root: Path
    tmp: Path
    env: dict
    tracer: object = None
    timeout_s: float = 120.0
    child_import_ms: list = field(default_factory=list)
    _pending: list = field(default_factory=list)

    def cli(self, argv: list[str]) -> subprocess.CompletedProcess:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "chain_spectra.cli", *argv]
        else:
            spans = self.tmp / f"child{len(self._pending)}.tsv.gz"
            self._pending.append(spans)
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans), *argv]
        return subprocess.run(
            cmd, capture_output=True, env=self.env, cwd=self.root, timeout=self.timeout_s
        )

    def collect(self, case_id) -> None:
        """Adopt the spans of traced children, outside the timed step.  A
        child that timed out or died before writing them leaves none; its
        case fails on its exit code or output."""
        for path in self._pending:
            side = Path(f"{path}.import_ms")
            if path.is_file() and side.is_file():
                self.tracer.adopt(read_spans(path), case_id)
                self.child_import_ms.append(float(side.read_text()))
            path.unlink(missing_ok=True)
            side.unlink(missing_ok=True)
        self._pending.clear()


# -- families and reference spectra -------------------------------------------


def _family_name(fam) -> str:
    if isinstance(fam, (J.ConstantParams, C.ConstantInteraction)):
        return "constant"
    if isinstance(fam, (P.KrawtchoukParams, C.KrawtchoukInteraction)):
        return "krawtchouk"
    if isinstance(fam, (P.HahnParams, C.HahnInteraction)):
        return "hahn"
    if isinstance(fam, (P.DualQKrawtchoukParams, C.DualQKrawtchoukInteraction)):
        return "qkrawtchouk"
    return "custom"


def _family_tag(fam) -> str:
    """Family name with its shape parameter, for case labels."""
    name = _family_name(fam)
    if name == "hahn":
        return f"hahn(alpha={fam.alpha:.3g})"
    if name == "qkrawtchouk":
        return f"qkrawtchouk(q={fam.q:.3g})"
    return name


def _jacobi_family(slot: str, N: int, alpha: float):
    """Lattice family on 0..N of a closed_form_check slot."""
    if slot == "constant":
        return J.ConstantParams(N=N)
    if slot == "krawtchouk":
        return P.KrawtchoukParams(N=N, p=0.5)
    if slot == "hahn_half":
        return P.HahnParams(N=N, alpha=0.5, beta=0.5)
    if slot == "hahn_seeded":
        return P.HahnParams(N=N, alpha=alpha, beta=alpha)
    return P.DualQKrawtchoukParams(N=N, cbar=-1.0, q=float(slot.split("_")[1]))


def _interaction(kind: str, rng: random.Random, n: int):
    if kind == "constant":
        return C.ConstantInteraction()
    if kind == "krawtchouk":
        return C.KrawtchoukInteraction()
    if kind == "hahn":
        return C.HahnInteraction(alpha=rng.uniform(-0.5, 3.0))
    if kind == "qk_hi":
        return C.DualQKrawtchoukInteraction(q=rng.uniform(1.3, 2.0))
    if kind == "qk_lo":
        return C.DualQKrawtchoukInteraction(q=rng.uniform(0.6, 0.85))
    return C.CustomInteraction(gammas=tuple(rng.uniform(0.5, 2.0) for _ in range(n - 1)))


def _chain_at(interaction, n: int, omega: float, fraction: float):
    """Chain whose coupling is `fraction` of the reference bound (of
    omega^2 for the uniform chain, which has none), with the dense quadratic
    form from an independent LAPACK diagonalisation.

    Returns (chain, A, eigenvalues of A ascending, reference bound)."""
    probe = C.ChainSpec(n=n, omega=omega, coupling=1.0, interaction=interaction)
    K = C.assemble_quadratic_form(probe).dense() - omega**2 * np.eye(n)
    lowest = float(np.linalg.eigvalsh(K)[0])
    bound = omega**2 / -lowest if lowest < 0.0 else math.inf
    c = fraction * (omega**2 if math.isinf(bound) else bound)
    chain = C.ChainSpec(n=n, omega=omega, coupling=c, interaction=interaction)
    A = omega**2 * np.eye(n) + c * K
    return chain, A, np.linalg.eigvalsh(A), bound


def _profile(levels) -> str:
    """Reference classification of a gap sequence (see chain.spacing_profile)."""
    gaps = [b - a for a, b in zip(levels, levels[1:])]
    L = len(gaps)
    rising = [gaps[t + 1] > gaps[t] for t in range(L - 1)]
    falling = [gaps[t + 1] < gaps[t] for t in range(L - 1)]
    if all(falling):
        return "decreasing"
    if all(rising):
        return "increasing"
    m = max(range(L), key=lambda t: gaps[t])
    if 0 < m < L - 1 and all(rising[:m]) and all(falling[m:]):
        return "mid_peak"
    m = min(range(L), key=lambda t: gaps[t])
    if 0 < m < L - 1 and all(falling[:m]) and all(rising[m:]):
        return "mid_dip"
    return "other"


# -- closed_form_check ---------------------------------------------------------


def _kappa_value(fp, x: int) -> float:
    if isinstance(fp, P.DualQKrawtchoukParams):
        return (1.0 - fp.q**-x) * (1.0 - fp.cbar * fp.q ** (x - fp.N))
    return float(x)


def _recurrence_budgets(B, D, kap: float, N: int) -> list[float]:
    """First-order rounding-error bound of the upward three-term recurrence
    at one node, for every degree 0..N."""
    out = [0.0] * (N + 1)
    pm1, p0, em1, e0 = 0.0, 1.0, 0.0, 0.0
    for k in range(N):
        c1 = B[k] + D[k] - kap
        p1 = (c1 * p0 - D[k] * pm1) / B[k]
        e1 = (
            (abs(c1) * e0 + abs(D[k]) * em1) / abs(B[k])
            + EPS * (abs(c1 * p0) + abs(D[k] * pm1)) / abs(B[k])
            + 4.0 * EPS * abs(p1)
        )
        pm1, p0, em1, e0 = p0, p1, e0, e1
        out[k + 1] = e0
    return out


def _series_budget(fp, i: int, x: int) -> float:
    """Naive-summation bound eps * (terms) * sum |term| of the hypergeometric
    series, with headroom for the per-term products."""
    d = min(i, x)
    term = 1.0
    total_abs = 1.0
    if isinstance(fp, P.KrawtchoukParams):
        for k in range(d):
            term *= (k - i) * (k - x) / ((k - fp.N) * (k + 1)) / fp.p
            total_abs += abs(term)
    elif isinstance(fp, P.HahnParams):
        a, b = fp.alpha, fp.beta
        for k in range(d):
            term *= (
                (k - i) * (k + i + a + b + 1) * (k - x)
                / ((k + a + 1) * (k - fp.N) * (k + 1))
            )
            total_abs += abs(term)
    else:
        q, cbar, N = fp.q, fp.cbar, fp.N
        a1, a2, a3, b1 = q**-i, q**-x, cbar * q ** (x - N), q**-N
        for k in range(d):
            qk = q**k
            term *= (
                q * (1 - a1 * qk) * (1 - a2 * qk) * (1 - a3 * qk)
                / ((1 - b1 * qk) * (1 - q ** (k + 1)))
            )
            total_abs += abs(term)
    return 8.0 * EPS * (d + 1) * total_abs


class TableCase(Case):
    """Series, recurrence and orthonormal value tables of one family.

    Series and recurrence must agree within the first-order rounding budget
    (the same budget as the package's dual-path test); the orthonormal
    values must equal sqrt(w/h) times the recurrence values within that
    budget carried through the factor."""

    def __init__(self, fp):
        self.fp = fp
        self.label = f"table.{_family_tag(fp)}.N{fp.N}"

    def key(self):
        return ("table", repr(self.fp))

    def prepare(self):
        fp, N = self.fp, self.fp.N
        B, D = P.bidiagonal_split(fp)
        budget = np.empty((N + 1, N + 1))
        for x in range(N + 1):
            rec = _recurrence_budgets(B, D, _kappa_value(fp, x), N)
            for i in range(N + 1):
                budget[i, x] = 4.0 * (rec[i] + _series_budget(fp, i, x))
        w = np.array([P.weight(fp, x) for x in range(N + 1)])
        h = np.array([P.norm(fp, i) for i in range(N + 1)])
        self.budget = budget
        self.factor = np.sqrt(np.outer(1.0 / h, w))

    def call(self, ctx):
        fp = self.fp
        pts = [P.lattice_point(fp, x) for x in range(fp.N + 1)]
        degrees = range(fp.N + 1)
        series = [[P.family_eval(fp, i, pt) for pt in pts] for i in degrees]
        rec = [[P.recurrence_eval(fp, i, pt) for pt in pts] for i in degrees]
        ortho = [[P.orthonormal_eval(fp, i, pt) for pt in pts] for i in degrees]
        return series, rec, ortho

    def check(self, raw) -> Outcome:
        S, R, O = (np.asarray(t, dtype=float) for t in raw)
        shape = self.budget.shape
        if S.shape != shape or R.shape != shape or O.shape != shape:
            return Outcome(False, "value table has the wrong shape")
        if not (np.isfinite(S).all() and np.isfinite(R).all() and np.isfinite(O).all()):
            return Outcome(False, "non-finite polynomial value")
        tol = np.maximum(1e-10 * np.maximum(np.abs(S), np.abs(R)), self.budget)
        headroom = float(np.max(np.abs(S - R) / tol))
        problems = []
        if headroom > 1.0:
            problems.append(f"series vs recurrence at {headroom:.3g} x the rounding budget")
        err = np.abs(O - self.factor * R)
        if np.any(err > self.factor * tol + 4.0 * EPS * np.abs(O)):
            problems.append("orthonormal values disagree with sqrt(w/h) * recurrence")
        return _verdict(problems, residuals={"polynomials.dual_path": headroom})


def _dualq_vectors_break_down(fam) -> bool:
    # Documented defect: the stitched analytic eigenvectors of dual
    # q-Krawtchouk lose orthogonality from N ~ 63 (q > 1) and N ~ 95 (q < 1)
    # on, with RuntimeWarnings, while the eigenvalues still agree with QL.
    return isinstance(fam, P.DualQKrawtchoukParams) and fam.N >= (63 if fam.q > 1.0 else 95)


class DecompCase(Case):
    """The package's check path for one family at one size: build the
    Jacobi matrix, decompose it in closed form and by QL, take both residual
    pairs and compare closed and QL eigenvalues under the `verify` default
    thresholds."""

    def __init__(self, fam):
        self.fam = fam
        self.n = fam.N + 1
        self.repeat = self.n <= 128
        self.label = f"decomp.{_family_tag(fam)}.n{self.n}"

    def key(self):
        return ("decomp", repr(self.fam))

    def prepare(self):
        pass

    def call(self, ctx):
        M = J.build_jacobi(self.fam)
        analytic = J.analytic_decomposition(self.fam)
        numeric = J.numeric_decomposition(M)
        return (
            M,
            analytic,
            numeric,
            J.decomposition_residuals(M, analytic),
            J.decomposition_residuals(M, numeric),
        )

    def check(self, raw) -> Outcome:
        M, analytic, numeric, (ortho, recon), (q_ortho, q_recon) = raw
        if len(analytic.eigenvalues) != self.n or len(numeric.eigenvalues) != self.n:
            return Outcome(False, "wrong number of eigenvalues")
        scale = 1.0 + max(abs(v) for v in M.diag + M.offdiag)
        closed = np.sort(np.asarray(analytic.eigenvalues, dtype=float))
        eig = float(np.max(np.abs(closed - np.asarray(numeric.eigenvalues))))
        tests = (
            ("orthogonality", ortho, VERIFY_ORTHO_TOL),
            ("reconstruction", recon, VERIFY_RECON_TOL * scale),
            ("closed_vs_ql_eigenvalues", eig, VERIFY_EIG_TOL * scale),
            ("ql_orthogonality", q_ortho, VERIFY_ORTHO_TOL),
            ("ql_reconstruction", q_recon, VERIFY_RECON_TOL * scale),
        )
        residuals = {"jacobi.ortho": ortho, "jacobi.recon": recon / scale,
                     "jacobi.eig": eig / scale}
        failed = [name for name, value, thr in tests if not value <= thr]
        if not failed:
            dev = max(ortho, recon / scale, eig / scale, q_ortho, q_recon / scale)
            return Outcome(True, deviation=dev, residuals=residuals)
        known = _dualq_vectors_break_down(self.fam) and set(failed) <= {
            "orthogonality", "reconstruction"}
        reason = ", ".join(f"{name}={value:.3g}" for name, value, thr in tests
                           if name in failed)
        return Outcome(False, reason, known_defect=known, residuals=residuals)


CLOSED_FORM_SLOTS = ("constant", "krawtchouk", "hahn_half", "hahn_seeded",
                     "qk_1.6", "qk_0.7")
TABLE_SLOTS = CLOSED_FORM_SLOTS[1:]
TABLE_NS = (8, 12, 16, 20, 24)


def closed_form_round(rng: random.Random) -> list:
    alpha = rng.uniform(-0.5, 3.0)
    # n = 128 twice over (with a second seeded alpha), so that the tail
    # percentile falls inside the n = 128 cases rather than on their edge.
    cases = [
        DecompCase(_jacobi_family(slot, n - 1, a))
        for n, a in ((32, alpha), (128, alpha), (128, rng.uniform(-0.5, 3.0)))
        for slot in CLOSED_FORM_SLOTS
    ]
    cases += [DecompCase(_jacobi_family(slot, 255, alpha))
              for slot in ("hahn_seeded", "qk_1.6", "qk_0.7")]
    # One 8-12 s sample per run would swing the end-to-end figures by a
    # quarter on shared hosts, so n = 512 runs only in traced runs, where it
    # gives the .n512 per-layer figures.
    top = DecompCase(P.HahnParams(N=511, alpha=0.5, beta=0.5))
    top.timed = False
    cases.append(top)
    cases += [TableCase(_jacobi_family(slot, N, alpha))
              for N in TABLE_NS for slot in TABLE_SLOTS]
    return cases


def closed_form_warmup() -> list:
    return [DecompCase(P.KrawtchoukParams(N=7, p=0.5)),
            TableCase(P.HahnParams(N=4, alpha=0.5, beta=0.5))]


# -- mode_scan -----------------------------------------------------------------


class ModeCase(Case):
    """Everything `spectrum` and `bound` compute for one chain, checked
    against a LAPACK diagonalisation of the chain's quadratic form."""

    def __init__(self, interaction, n: int, omega: float, fraction: float):
        self.interaction = interaction
        self.n = n
        self.omega = omega
        self.fraction = fraction
        self.label = f"mode.{_family_name(interaction)}.n{n}"

    def key(self):
        return ("mode", repr(self.interaction), self.n, self.omega, self.fraction)

    def prepare(self):
        self.chain, A, self.squares, self.bound = _chain_at(
            self.interaction, self.n, self.omega, self.fraction)
        self.scale = 1.0 + float(np.max(np.abs(A)))
        self.pd = bool(self.squares[0] > C.PD_TOL * self.omega**2)
        omegas = np.sqrt(np.maximum(self.squares, 0.0))
        self.levels = 0.5 * omegas.sum() + omegas

    def call(self, ctx):
        chain = self.chain
        pd = _attempt(C.is_positive_definite, chain)
        bound = _attempt(C.max_coupling, chain)
        closed = _attempt(C.mode_frequencies, chain, method="closed")
        numeric = _attempt(C.mode_frequencies, chain, method="numeric")
        levels = _attempt(C.single_phonon_levels, chain)
        profile = (_attempt(C.spacing_profile, levels[0])
                   if levels[1] is None else (None, None))
        return pd, bound, closed, numeric, levels, profile

    def _squares_dev(self, spectrum) -> float:
        w = np.asarray(spectrum.omegas, dtype=float)
        if w.shape != (self.n,) or not np.isfinite(w).all():
            return math.inf
        return float(np.max(np.abs(w**2 - self.squares))) / self.scale

    def check(self, raw) -> Outcome:
        (pd, pd_exc), (bound, bound_exc), closed, numeric, levels, profile = raw
        custom = isinstance(self.interaction, C.CustomInteraction)
        problems, devs = [], []
        expected = 0

        def expect(result, error_type, what):
            nonlocal expected
            value, exc = result
            if isinstance(exc, error_type):
                expected += 1
            else:
                problems.append(f"{what}: expected {error_type.__name__}, got "
                                f"{exc!r}" if exc else f"{what}: no {error_type.__name__}")

        if pd_exc is not None or pd != self.pd:
            problems.append(f"is_positive_definite gave {pd!r} {pd_exc!r}, reference {self.pd}")
        if bound_exc is not None:
            if custom and isinstance(bound_exc, UnsupportedFamily):
                expected += 1
            else:
                problems.append(f"max_coupling raised {bound_exc!r}")
        elif math.isinf(self.bound) or math.isinf(bound):
            if bound != self.bound:
                problems.append(f"max_coupling {bound!r}, reference {self.bound!r}")
        else:
            devs.append(abs(bound - self.bound) / self.bound)
        if custom:
            expect(closed, ClosedFormUnavailable, "closed mode_frequencies")
        elif not self.pd:
            expect(closed, NotPositiveDefinite, "closed mode_frequencies")
        if not self.pd:
            expect(numeric, NotPositiveDefinite, "numeric mode_frequencies")
            expect(levels, NotPositiveDefinite, "single_phonon_levels")
        else:
            spectra = [("numeric", numeric)] + ([] if custom else [("closed", closed)])
            for name, (value, exc) in spectra:
                if exc is not None:
                    problems.append(f"{name} mode_frequencies raised {exc!r}")
                else:
                    devs.append(self._squares_dev(value))
            lv, lv_exc = levels
            if lv_exc is not None:
                problems.append(f"single_phonon_levels raised {lv_exc!r}")
            else:
                lv = np.asarray(lv, dtype=float)
                devs.append(float(np.max(np.abs(lv - self.levels) / self.levels))
                            if lv.shape == self.levels.shape else math.inf)
                got, exc = profile
                if exc is not None or got.value != _profile(list(levels[0])):
                    problems.append(f"spacing_profile gave {got!r} {exc!r}")
        dev = max(devs) if devs else None
        if dev is not None and not dev <= VERIFY_EIG_TOL:
            problems.append(f"spectrum deviates from the reference by {dev:.3g}")
        return _verdict(problems, deviation=dev, expected_errors=expected)


MODE_KINDS = ("constant", "krawtchouk", "hahn", "qk_hi", "qk_lo", "custom")
# Fractions of the coupling bound (of omega^2 for the uniform chain): two
# below the bound and one above it.
MODE_FRACTIONS = (0.3, 0.9, 1.5)
MODE_SIZES = (8, 32, 128)


def mode_scan_round(rng: random.Random) -> list:
    cases = []
    for n in MODE_SIZES:
        for kind in MODE_KINDS:
            for f in MODE_FRACTIONS:
                cases.append(ModeCase(_interaction(kind, rng, n), n,
                                      rng.uniform(0.5, 2.0), f))
    return cases


def mode_scan_warmup() -> list:
    return [ModeCase(C.KrawtchoukInteraction(), 4, 1.0, 0.5),
            ModeCase(C.CustomInteraction(gammas=(1.0, 1.5, 1.0)), 4, 1.0, 1.5)]


# -- level_census --------------------------------------------------------------


class LevelCase(Case):
    """enumerate_levels on one chain: exact state count, ascending separated
    groups, and a seeded sample of groups whose member energies are
    recomputed from LAPACK mode frequencies."""

    SAMPLE = 64

    def __init__(self, interaction, n: int, omega: float, fraction: float,
                 max_total: int):
        self.interaction = interaction
        self.n = n
        self.omega = omega
        self.fraction = fraction
        self.max_total = max_total
        self.label = f"levels.{_family_name(interaction)}.n{n}.K{max_total}"

    def key(self):
        return ("levels", repr(self.interaction), self.n, self.omega,
                self.fraction, self.max_total)

    def prepare(self):
        self.chain, _, squares, _ = _chain_at(
            self.interaction, self.n, self.omega, self.fraction)
        self.omegas = np.sqrt(squares)
        self.ground = 0.5 * math.fsum(self.omegas)
        self.count = math.comb(self.n + self.max_total, self.max_total)
        self.rng_seed = repr(self.key())

    def call(self, ctx):
        return C.enumerate_levels(self.chain, self.max_total)

    def check(self, groups) -> Outcome:
        tol = C.GROUP_RTOL * self.chain.hbar * self.omega
        problems = []
        states = sum(g.degeneracy for g in groups)
        if states != self.count:
            problems.append(f"{states} states, expected {self.count}")
        energies = [g.energy for g in groups]
        if not all(b - a > tol for a, b in zip(energies, energies[1:])):
            problems.append("group energies not ascending and separated")
        rng = random.Random(self.rng_seed)
        picks = {0, len(groups) - 1}
        picks.update(rng.randrange(len(groups)) for _ in range(self.SAMPLE))
        dev = 0.0
        for t in sorted(picks):
            g = groups[t]
            occ = g.occupations
            if len(occ) != g.degeneracy or list(occ) != sorted(set(occ)):
                problems.append(f"group {t}: members not distinct and sorted")
                continue
            closest = math.inf
            for k in occ:
                if len(k) != self.n or min(k) < 0 or sum(k) > self.max_total:
                    problems.append(f"group {t}: bad occupation {k}")
                    break
                e = self.ground + math.fsum(kj * w for kj, w in zip(k, self.omegas))
                if abs(e - g.energy) > g.degeneracy * tol + 1e-12 * e:
                    problems.append(f"group {t}: member energy {e!r} vs {g.energy!r}")
                closest = min(closest, abs(e - g.energy) / e)
            dev = max(dev, closest)
        if not dev <= 1e-10:
            problems.append(f"group energy deviates by {dev:.3g}")
        return _verdict(problems, deviation=dev,
                        counts={"states": states, "groups": len(groups)})


class OverCapCase(Case):
    """An enumeration over the state budget must raise CombinatorialLimit."""

    def __init__(self, interaction, n: int, max_total: int):
        self.interaction = interaction
        self.n = n
        self.max_total = max_total
        self.label = f"levels.over_cap.n{n}.K{max_total}"

    def key(self):
        return ("over_cap", repr(self.interaction), self.n, self.max_total)

    def prepare(self):
        self.chain, *_ = _chain_at(self.interaction, self.n, 1.0, 0.5)

    def call(self, ctx):
        return _attempt(C.enumerate_levels, self.chain, self.max_total)

    def check(self, raw) -> Outcome:
        _, exc = raw
        if isinstance(exc, CombinatorialLimit):
            return Outcome(True, expected_errors=1)
        return Outcome(False, f"expected CombinatorialLimit, got {exc!r}")


LEVEL_KINDS = ("constant", "krawtchouk", "hahn", "qk_hi")
# (chain length, phonon budget): 1.2e4 to 2.4e4 states each.
LEVEL_SHAPES = ((6, 11), (7, 10), (8, 9), (9, 8), (10, 7), (11, 6), (12, 6))
LEVEL_BIG = (12, 9)  # 293,930 states
LEVEL_OVER_CAP = (12, 12)  # 2,704,156 states, over the 10^6 budget


def level_census_round(rng: random.Random) -> list:
    cases = [
        LevelCase(_interaction(kind, rng, n), n, rng.uniform(0.5, 2.0),
                  rng.uniform(0.2, 0.8), K)
        for kind in LEVEL_KINDS
        for n, K in LEVEL_SHAPES
    ]
    n, K = LEVEL_BIG
    big = LevelCase(C.KrawtchoukInteraction(), n, rng.uniform(0.5, 2.0),
                    rng.uniform(0.2, 0.8), K)
    big.repeat = False
    cases.append(big)
    n, K = LEVEL_OVER_CAP
    cases.append(OverCapCase(_interaction(rng.choice(LEVEL_KINDS), rng, n), n, K))
    return cases


def level_census_warmup() -> list:
    return [LevelCase(C.KrawtchoukInteraction(), 3, 1.0, 0.5, 3),
            OverCapCase(C.KrawtchoukInteraction(), 12, 12)]


# -- cli_session ---------------------------------------------------------------


def _family_flags(interaction) -> list[str]:
    name = _family_name(interaction)
    flags = ["--family", name]
    if name == "hahn":
        flags += ["--alpha", repr(interaction.alpha)]
    elif name == "qkrawtchouk":
        flags += ["--q", repr(interaction.q)]
    elif name == "custom":
        flags += ["--gamma", ",".join(repr(g) for g in interaction.gammas)]
    return flags


def _chain_flags(chain) -> list[str]:
    return _family_flags(chain.interaction) + [
        "--n", str(chain.n), "--omega", repr(chain.omega), "--c", repr(chain.coupling)]


def _chain_family(chain):
    """Lattice family behind a built-in interaction (see chain.ChainSpec)."""
    N, kind = chain.n - 1, chain.interaction
    if isinstance(kind, C.ConstantInteraction):
        return J.ConstantParams(N=N)
    if isinstance(kind, C.KrawtchoukInteraction):
        return P.KrawtchoukParams(N=N, p=0.5)
    if isinstance(kind, C.HahnInteraction):
        return P.HahnParams(N=N, alpha=kind.alpha, beta=kind.alpha)
    return P.DualQKrawtchoukParams(N=N, cbar=-1.0, q=kind.q)


def _same(got, want) -> float:
    """Relative difference of two equal-length number lists (inf when the
    lengths differ or an entry is missing)."""
    if got is None or want is None:
        return 0.0 if got is want else math.inf
    if len(got) != len(want):
        return math.inf
    dev = 0.0
    for a, b in zip(got, want):
        if a is None or b is None:
            if a is not b:
                return math.inf
            continue
        d = abs(a - b)
        dev = max(dev, d / abs(b) if b else d)
    return dev


def _g6(v: float) -> float:
    return float(format(v, ".6g"))


def _parse_spectrum(fmt: str, text: str) -> dict:
    if fmt == "json":
        d = json.loads(text)
        return {
            "closed": d["omegas_closed"],
            "numeric": d["omegas_numeric"],
            "levels": d["single_phonon_levels"],
            "ground": [d["ground_energy"]],
            "residual": [d["residual_closed_vs_numeric"]],
        }
    lines = text.splitlines()
    out = {"closed": [], "numeric": [], "levels": []}
    if fmt == "csv":
        rows = [line.split(",") for line in lines[1:]]
        missing = ""
    else:
        out["ground"] = [float(lines[1].split()[1])]
        rows = [line.split() for line in lines[3:]]
        if rows and rows[-1][0] == "residual_closed_vs_numeric":
            out["residual"] = [float(rows.pop()[1])]
        else:
            out["residual"] = [None]
        missing = "-"
    for _, wc, wn, lv in rows:
        out["closed"].append(None if wc == missing else float(wc))
        out["numeric"].append(float(wn))
        out["levels"].append(float(lv))
    if all(v is None for v in out["closed"]):
        out["closed"] = None
    return out


def _svg_panels(text: str) -> list[tuple[str, list[float]]]:
    """(label, rescaled level heights) per panel, read back from the SVG
    through each panel's axis line."""
    ns = "{http://www.w3.org/2000/svg}"
    panels = []
    bottom = top = None
    for el in ET.fromstring(text):
        if el.tag == ns + "text" and el.get("font-size") == "11":
            panels.append((el.text, []))
        elif el.tag == ns + "line" and el.get("stroke") == "gray" and el.get("x1") == el.get("x2"):
            bottom, top = float(el.get("y1")), float(el.get("y2"))
        elif el.tag == ns + "line" and el.get("stroke") == "black":
            panels[-1][1].append((bottom - float(el.get("y1"))) / (bottom - top))
    return panels


def _panel_chain(label: str, n: int):
    # Labels read "(a) family key=value ..." with values printed by %g.
    _, fam, *items = label.split()
    keys = dict(item.split("=") for item in items)
    interaction = {
        "constant": lambda: C.ConstantInteraction(),
        "krawtchouk": lambda: C.KrawtchoukInteraction(),
        "hahn": lambda: C.HahnInteraction(alpha=float(keys["alpha"])),
        "qkrawtchouk": lambda: C.DualQKrawtchoukInteraction(q=float(keys["q"])),
    }[fam]()
    return C.ChainSpec(n=n, omega=1.0, coupling=float(keys["c"]), interaction=interaction)


class CliCase(Case):
    """One whole-process CLI run: exit code, no traceback, and the parsed
    payload equal to library results computed before the run."""

    def __init__(self, kind: str, chain=None, expect_code: int = 0, **extra):
        self.kind = kind
        self.chain = chain
        self.expect_code = expect_code
        self.extra = extra
        self.label = f"cli.{kind}" + (f".{_family_name(chain.interaction)}" if chain else "")

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    def key(self):
        return ("cli", self.kind, repr(self.chain), self.expect_code,
                repr(sorted(self.extra.items())))

    def prepare(self):
        chain, kind = self.chain, self.kind
        self.out_path = None
        if kind.startswith("spectrum_"):
            self.argv = ["spectrum", *_chain_flags(chain), "--format", kind[9:]]
            if self.expect_code:
                return
            custom = isinstance(chain.interaction, C.CustomInteraction)
            numeric = list(C.mode_frequencies(chain, method="numeric").omegas)
            closed = None if custom else list(C.mode_frequencies(chain, method="closed").omegas)
            residual = None if closed is None else max(
                abs(a - b) / a for a, b in zip(closed, numeric))
            self.want = {
                "closed": closed,
                "numeric": numeric,
                "levels": list(C.single_phonon_levels(chain)),
                "ground": [C.state_energy(chain, (0,) * chain.n)],
                "residual": [residual],
            }
            if kind == "spectrum_text":
                self.want = {k: None if v is None else [None if x is None else _g6(x) for x in v]
                             for k, v in self.want.items()}
        elif kind == "verify":
            perturb = self.extra.get("perturb", False)
            self.argv = ["verify", *_chain_flags(chain)] + (["--perturb"] if perturb else [])
            fam = _chain_family(chain)
            M = J.build_jacobi(fam)
            if perturb:
                diag = list(M.diag)
                diag[0] += 1e-6 * (1.0 + abs(diag[0]))
                M = J.SymTridiagonal(diag=tuple(diag), offdiag=M.offdiag)
            analytic = J.analytic_decomposition(fam)
            numeric = J.numeric_decomposition(M)
            ortho, recon = J.decomposition_residuals(M, analytic)
            scale = 1.0 + max(abs(x) for x in M.diag + M.offdiag)
            eig = max(abs(a - b) for a, b in zip(sorted(analytic.eigenvalues),
                                                 numeric.eigenvalues))
            eigs = " ".join(format(v, ".6g") for v in sorted(analytic.eigenvalues))
            self.want = [f"eigenvalues {eigs}", "check value threshold status"]
            for name, value, thr in (
                ("orthogonality", ortho, VERIFY_ORTHO_TOL),
                ("reconstruction", recon, VERIFY_RECON_TOL * scale),
                ("closed_vs_numeric_eigenvalues", eig, VERIFY_EIG_TOL * scale),
            ):
                status = "pass" if value <= thr else "FAIL"
                self.want.append(f"{name} {value:.3e} {thr:.3e} {status}")
        elif kind == "bound":
            self.argv = ["bound", *_chain_flags(chain)]
            bound = C.max_coupling(chain)
            self.want = "unbounded" if math.isinf(bound) else repr(bound)
        elif kind.startswith("plot"):
            self.argv = ["plot"]
            n = self.extra.get("n", 12)
            if "panels" in self.extra:
                self.argv += ["--n", str(n)]
                for fam, keys, _ in self.extra["panels"]:
                    spec = ",".join(f"{k}={v!r}" for k, v in keys)
                    self.argv += ["--panel", f"{fam}:{spec}"]
            self.n = n
        elif kind == "export":
            self.argv = ["export", *_chain_flags(chain), "--levels", str(self.extra["levels"])]
            if not self.expect_code:
                self.want = C.enumerate_levels(chain, self.extra["levels"])
        else:
            self.argv = list(self.extra["argv"])

    def call(self, ctx):
        argv = self.argv
        if self.kind.startswith("plot"):
            self.out_path = ctx.tmp / "plot.svg"
            argv = argv + ["--out", str(self.out_path)]
        return ctx.cli(argv)

    def check(self, proc) -> Outcome:
        # A plot's file is read and removed whatever the run's verdict.
        self.svg = None
        if self.out_path is not None and self.out_path.is_file():
            self.svg = self.out_path.read_text(encoding="utf-8")
            self.out_path.unlink()
        out = proc.stdout.decode("utf-8", "replace")
        err = proc.stderr.decode("utf-8", "replace")
        counts = {"stdout_bytes": len(proc.stdout)}
        problems = []
        if "Traceback" in err:
            problems.append("traceback on stderr")
        if proc.returncode != self.expect_code:
            problems.append(f"exit {proc.returncode}, expected {self.expect_code}")
        if problems or self.expect_code not in (0, 1):
            if not problems and not err.strip():
                problems.append("no diagnostic on stderr")
            return _verdict(problems, counts=counts)
        dev = 0.0
        try:
            dev = self._payload_dev(out, counts)
        except (ValueError, KeyError, IndexError, TypeError, ET.ParseError) as exc:
            problems.append(f"unparsable payload: {exc!r}")
        if not dev <= (SVG_LEVEL_TOL if self.kind.startswith("plot") else PAYLOAD_RTOL):
            problems.append(f"payload deviates from the library by {dev:.3g}")
        return _verdict(problems, counts=counts,
                        deviation=None if self.kind.startswith("plot") else dev)

    def _payload_dev(self, out: str, counts: dict) -> float:
        kind = self.kind
        if kind.startswith("spectrum_"):
            got = _parse_spectrum(kind[9:], out)
            return max(_same(got.get(k), self.want[k]) for k in got)
        if kind == "verify":
            return 0.0 if out.splitlines() == self.want else math.inf
        if kind == "bound":
            return 0.0 if out.strip() == self.want else math.inf
        if kind == "export":
            rows = out.splitlines()
            if rows[0] != "energy,degeneracy,occupations" or len(rows) != len(self.want) + 1:
                return math.inf
            dev = 0.0
            for row, g in zip(rows[1:], self.want):
                energy, degeneracy, occ = row.split(",")
                members = tuple(tuple(int(k) for k in m.split("|")) for m in occ.split(";"))
                if int(degeneracy) != g.degeneracy or members != g.occupations:
                    return math.inf
                dev = max(dev, _same([float(energy)], [g.energy]))
            counts["states"] = sum(g.degeneracy for g in self.want)
            counts["groups"] = len(self.want)
            return dev
        if self.svg is None:
            return math.inf
        panels = _svg_panels(self.svg)
        specs = self.extra.get("panels")
        if specs is None:
            # The default figure: its panel parameters are read from the labels.
            chains = [_panel_chain(label, self.n) for label, _ in panels]
            if len(panels) != 4:
                return math.inf
        else:
            chains = [chain for _, _, chain in specs]
            if [label.split()[1] for label, _ in panels] != [f for f, _, _ in specs]:
                return math.inf
        dev = 0.0
        for (_, heights), chain in zip(panels, chains):
            want = C.rescale_levels(C.single_phonon_levels(chain))
            if len(heights) != len(want):
                return math.inf
            dev = max(dev, max(abs(a - b) for a, b in zip(heights, want)))
        return dev


def _cli_chain(kind: str, rng: random.Random, n: int, fraction: float | None = None):
    interaction = _interaction(kind, rng, n)
    if fraction is None:
        fraction = rng.uniform(0.2, 0.8)
    return _chain_at(interaction, n, rng.uniform(0.5, 2.0), fraction)[0]


def cli_round(rng: random.Random) -> list:
    R = rng.randint
    cases = []
    for kind in ("constant", "krawtchouk", "hahn", "qk_lo", "custom"):
        cases.append(CliCase("spectrum_json", _cli_chain(kind, rng, R(4, 16))))
    for kind in ("krawtchouk", "hahn", "qk_hi"):
        cases.append(CliCase("spectrum_csv", _cli_chain(kind, rng, R(4, 16))))
    for kind in ("hahn", "custom"):
        cases.append(CliCase("spectrum_text", _cli_chain(kind, rng, R(4, 16))))
    for kind in ("constant", "krawtchouk", "hahn", "qk_lo"):
        cases.append(CliCase("verify", _cli_chain(kind, rng, R(8, 24))))
    for kind in ("krawtchouk", "hahn"):
        cases.append(CliCase("verify", _cli_chain(kind, rng, R(8, 24)),
                             expect_code=1, perturb=True))
    for kind in ("constant", "hahn", "qk_hi"):
        cases.append(CliCase("bound", _cli_chain(kind, rng, R(4, 24))))
    cases += [CliCase("plot_default"), CliCase("plot_default")]
    for _ in range(2):
        n = R(6, 12)
        hahn = _chain_at(_interaction("hahn", rng, n), n, 1.0, rng.uniform(0.2, 0.8))[0]
        const = C.ChainSpec(n=n, omega=1.0, coupling=rng.uniform(0.1, 1.0),
                            interaction=C.ConstantInteraction())
        cases.append(CliCase("plot_panels", n=n, panels=(
            ("hahn", (("alpha", hahn.interaction.alpha), ("c", hahn.coupling)), hahn),
            ("constant", (("c", const.coupling),), const),
        )))
    for kind in ("constant", "krawtchouk", "hahn", "qk_hi"):
        cases.append(CliCase("export", _cli_chain(kind, rng, R(4, 6)), levels=R(3, 5)))
    cases.append(CliCase("usage_error", expect_code=2,
                         argv=("spectrum", "--family", "hahn", "--n", str(R(4, 16)))))
    cases.append(CliCase("spectrum_json", _cli_chain("krawtchouk", rng, R(4, 16), 1.5),
                         expect_code=3))
    n, K = LEVEL_OVER_CAP
    cases.append(CliCase("export", _cli_chain("krawtchouk", rng, n), expect_code=4, levels=K))
    return cases


def cli_warmup() -> list:
    chain = C.ChainSpec(n=4, omega=1.0, coupling=0.1, interaction=C.KrawtchoukInteraction())
    return [CliCase("bound", chain)]


# -- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    build_round: Callable[[random.Random], list]
    warmup: Callable[[], list]
    calibration: str  # a name in calibration.REFERENCE_NS

    def make_round(self, seed: int) -> list:
        """The cases of a round, in seeded order, not yet prepared."""
        rng = random.Random(f"{self.name}/{seed}")
        cases = self.build_round(rng)
        rng.shuffle(cases)
        return cases


WORKLOADS = {
    w.name: w
    for w in (
        Workload("closed_form_check", closed_form_round, closed_form_warmup, "numeric"),
        Workload("mode_scan", mode_scan_round, mode_scan_warmup, "numeric"),
        Workload("level_census", level_census_round, level_census_warmup, "enumeration"),
        Workload("cli_session", cli_round, cli_warmup, "interpreter"),
    )
}
