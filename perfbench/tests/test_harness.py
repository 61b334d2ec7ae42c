"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

They check the harness, not chain_spectra's speed: seeded case lists are
deterministic, oracles count negative controls and untyped errors as
failures and expected typed errors as passes, the tracer attributes nested
calls to the layer that defines them, and every metric the benchmark
promises is produced.
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import chain_spectra.chain as C  # noqa: E402
import chain_spectra.jacobi as J  # noqa: E402
import chain_spectra.polynomials as P  # noqa: E402

import calibration  # noqa: E402
import workloads as W  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

# Every metric name the benchmark's design promises; a name that is not in
# BENCHMARK.json must be explained under "Renamed or dropped metrics" in
# perfbench/README.md.
PROMISED = [
    "setup_s", "cases_per_s", "case_p50_ms", "case_tail_ms", "failed_frac",
    "accuracy_digits", "peak_rss_mb",
    "polynomials.self_ms", "polynomials.calls", "polynomials.eval.self_ms",
    "polynomials.weight_norm_calls_per_entry",
    "polynomials.bidiagonal_split.calls_per_case", "polynomials.dual_path_digits",
    "jacobi.self_ms", "jacobi.build.calls_per_case", "jacobi.analytic.self_ms",
    "jacobi.ql.self_ms", "jacobi.ql.calls", "jacobi.residuals.self_ms",
    *(f"jacobi.analytic.self_ms.n{n}" for n in (32, 128, 256, 512)),
    *(f"jacobi.ql.self_ms.n{n}" for n in (32, 128, 256, 512)),
    "jacobi.ql.vectors_discarded_frac", "jacobi.ortho_digits",
    "jacobi.recon_digits", "jacobi.eig_digits", "jacobi.runtime_warnings",
    "chain.self_ms", "chain.mode_frequencies.closed.self_ms",
    "chain.mode_frequencies.numeric.self_ms", "chain.mode_frequencies.calls_per_case",
    "chain.is_positive_definite.self_ms", "chain.max_coupling.self_ms",
    "chain.expected_errors", "chain.enumerate_levels.self_ms", "chain.states",
    "chain.groups", "chain.states_per_s",
    "cli.interpreter_ms", "cli.import_ms",
    *(f"cli.process_ms.{s}" for s in ("spectrum", "verify", "bound", "plot", "export")),
    "cli.self_ms", "cli.mode_frequencies_per_spectrum", "cli.stdout_bytes",
    "trace_overhead_frac",
]


@pytest.fixture
def ctx(tmp_path):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("CHAIN_SPECTRA_CONFIG", None)
    return W.Context(root=ROOT, tmp=tmp_path, env=env)


def run(case, ctx):
    case.prepare()
    return worker.run_case(case, ctx, "0.0")


def _slots(cases):
    return Counter((type(c).__name__, getattr(c, "n", None), getattr(c, "kind", None),
                    c.repeat) for c in cases)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_case_lists_are_deterministic_per_seed(name):
    w = W.WORKLOADS[name]
    first = w.make_round(7)
    assert [c.key() for c in first] == [c.key() for c in w.make_round(7)]
    other = w.make_round(8)
    assert [c.key() for c in first] != [c.key() for c in other]
    # The seed picks parameters and order, never the kinds of case in a round.
    assert _slots(first) == _slots(other)
    assert w.calibration in calibration.REFERENCE_NS


def test_perturbed_jacobi_counts_as_failed(ctx, monkeypatch):
    case = W.DecompCase(P.HahnParams(N=15, alpha=0.5, beta=0.5))
    assert run(case, ctx).outcome.ok
    build = J.build_jacobi

    def perturbed(fam):  # the `verify --perturb` negative control
        M = build(fam)
        diag = list(M.diag)
        diag[0] += 1e-6 * (1.0 + abs(diag[0]))
        return J.SymTridiagonal(diag=tuple(diag), offdiag=M.offdiag)

    monkeypatch.setattr(J, "build_jacobi", perturbed)
    outcome = run(case, ctx).outcome
    assert not outcome.ok and not outcome.known_defect


def test_cli_perturb_must_exit_1(ctx):
    chain = C.ChainSpec(n=10, omega=1.0, coupling=0.1, interaction=C.KrawtchoukInteraction())
    case = W.CliCase("verify", chain, expect_code=1, perturb=True)
    result = run(case, ctx)
    assert result.outcome.ok, result.outcome.reason
    passed = subprocess.CompletedProcess(case.argv, 0, b"", b"")
    assert not case.check(passed).ok


def test_dual_q_breakdown_is_counted_as_a_known_defect(ctx):
    outcome = run(W.DecompCase(P.DualQKrawtchoukParams(N=127, cbar=-1.0, q=1.6)), ctx).outcome
    assert not outcome.ok and outcome.known_defect
    assert run(W.DecompCase(P.DualQKrawtchoukParams(N=31, cbar=-1.0, q=1.6)), ctx).outcome.ok


def test_expected_typed_errors_count_as_passes(ctx):
    above = run(W.ModeCase(C.KrawtchoukInteraction(), 8, 1.0, 1.5), ctx).outcome
    assert above.ok and above.expected_errors == 3  # closed, numeric, levels
    custom = W.ModeCase(C.CustomInteraction(gammas=(1.0, 0.5, 2.0, 1.0)), 5, 1.0, 0.5)
    outcome = run(custom, ctx).outcome
    assert outcome.ok and outcome.expected_errors == 2  # bound, closed form
    over = run(W.OverCapCase(C.KrawtchoukInteraction(), 12, 12), ctx).outcome
    assert over.ok and over.expected_errors == 1
    usage = W.CliCase("usage_error", expect_code=2, argv=("spectrum", "--family", "hahn", "--n", "4"))
    assert run(usage, ctx).outcome.ok


def test_missing_or_untyped_errors_count_as_failures(ctx, monkeypatch):
    monkeypatch.setattr(C, "enumerate_levels", lambda chain, k: ())
    assert not run(W.OverCapCase(C.KrawtchoukInteraction(), 12, 12), ctx).outcome.ok
    monkeypatch.undo()

    def broken(chain):
        raise ValueError("not a ChainSpectraError")

    monkeypatch.setattr(C, "max_coupling", broken)
    outcome = run(W.ModeCase(C.KrawtchoukInteraction(), 8, 1.0, 0.5), ctx).outcome
    assert not outcome.ok and "untyped" in outcome.reason


def test_cli_payload_is_compared_with_the_library(ctx):
    chain = C.ChainSpec(n=5, omega=1.0, coupling=0.2, interaction=C.KrawtchoukInteraction())
    case = W.CliCase("spectrum_json", chain)
    result = run(case, ctx)
    assert result.outcome.ok and result.outcome.deviation == 0.0
    payload = json.loads(ctx.cli(case.argv).stdout)
    payload["omegas_numeric"][2] *= 1.0 + 1e-9
    tampered = subprocess.CompletedProcess(case.argv, 0, json.dumps(payload).encode(), b"")
    assert not case.check(tampered).ok


def test_traced_child_that_dies_early_is_a_failed_case(ctx, tmp_path):
    chain = C.ChainSpec(n=5, omega=1.0, coupling=0.2, interaction=C.KrawtchoukInteraction())
    ctx.tracer = Tracer()
    # A child that cannot import chain_spectra exits before writing spans.
    ctx.env = dict(ctx.env, PYTHONPATH=str(tmp_path))
    outcome = run(W.CliCase("bound", chain), ctx).outcome
    assert not outcome.ok and "exit 1" in outcome.reason
    # A child killed by the timeout writes none either.
    ctx.env["PYTHONPATH"] = str(ROOT / "src")
    ctx.timeout_s = 0.01
    outcome = run(W.CliCase("plot_default"), ctx).outcome
    assert not outcome.ok and "TimeoutExpired" in outcome.reason
    assert not ctx.tracer.spans and not list(tmp_path.iterdir())


def test_tracer_attributes_nested_calls_to_the_defining_layer():
    chain = C.ChainSpec(n=4, omega=1.0, coupling=0.1,
                        interaction=C.CustomInteraction(gammas=(1.0, 1.0, 1.0)))
    original = C.numeric_decomposition
    tracer = Tracer()
    tracer.install()
    try:
        tracer.case = "0.0"
        C.mode_frequencies(chain)
        tracer.case = None
        C.mode_frequencies(chain)  # outside a case: not recorded
    finally:
        tracer.uninstall()
    assert C.numeric_decomposition is original
    by_name = {s[3]: s for s in tracer.spans}
    mf, ql = by_name["chain.mode_frequencies"], by_name["jacobi.numeric_decomposition"]
    assert ql[1] == mf[0] and mf[1] == -1 and mf[4] == "numeric" and ql[4] == 4
    assert Counter(s[3] for s in tracer.spans)["chain.mode_frequencies"] == 1
    # Spans of a traced CLI child are renumbered into the same id space.
    child = [(1, 0, None, "chain.mode_frequencies", "closed", 5, 6),
             (0, -1, None, "cli.main", "spectrum", 1, 9)]
    tracer.adopt(child, "1.0")
    ids = [s[0] for s in tracer.spans]
    assert len(set(ids)) == len(ids)
    main, mf = tracer.spans[-1], tracer.spans[-2]
    assert mf[1] == main[0] and main[1] == -1 and mf[2] == main[2] == "1.0"


def test_latency_is_the_best_run_at_the_reference_speed():
    ok, a, b = W.Outcome(True), W.OverCapCase(None, 1, 1), W.OverCapCase(None, 2, 1)
    runs = [worker.Result(a, 0, 0, 30_000_000, ok, Counter(), calib_ns=3_000_000),
            worker.Result(a, 1, 0, 12_000_000, ok, Counter(), calib_ns=2_000_000),
            worker.Result(b, 0, 1, 4_000_000, ok, Counter(), calib_ns=1_000_000)]
    metrics, _ = worker.end_to_end(runs, 2, 0.5)
    # Slot 0: the best run, 12 ms, over the best calibration after its
    # runs, 2 ms, is 6 times the 1 ms reference; slot 1 is 4.
    assert metrics["case_p50_ms"][0] == 4.0
    assert metrics["cases_per_s"][0] == 2 / 0.010


def test_every_promised_metric_is_produced_or_explained(ctx):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    readme = (BENCH / "README.md").read_text()
    explained = readme.split("## Renamed or dropped metrics", 1)[1]
    for name in PROMISED:
        assert name in e2e or name in layer or f"`{name}`" in explained, name

    cases = [W.DecompCase(P.KrawtchoukParams(N=7, p=0.5)),
             W.TableCase(P.HahnParams(N=4, alpha=0.5, beta=0.5)),
             W.ModeCase(C.KrawtchoukInteraction(), 4, 1.0, 0.5),
             W.LevelCase(C.KrawtchoukInteraction(), 3, 1.0, 0.5, 3)]
    untraced = [run(case, ctx) for case in cases]
    metrics, _ = worker.end_to_end(untraced, len(cases), 0.5)
    assert list(metrics) == e2e
    assert all(value > 0 for value, _ in metrics.values())
    ctx.tracer = Tracer()
    ctx.tracer.install()
    try:
        traced = [run(case, ctx) for case in cases]
    finally:
        ctx.tracer.uninstall()
    metrics = worker.per_layer(ctx.tracer.spans, traced, untraced, 1, [100.0], 50.0)
    assert sorted(metrics) == sorted(layer)
    assert {m["unit"] for m in bench["per_layer"]} >= {u for _, u in metrics.values()}
    assert metrics["polynomials.weight_norm_calls_per_entry"][0] == 2.0


def test_traced_run_prints_every_per_layer_metric(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "level_census", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, timeout=170)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    layer = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert result["correct"] and sorted(result["metrics"]) == sorted(layer)
    # Cases, not runs: each case runs untraced and traced, and counts once.
    assert (result["attempted"], result["failed"]) == (len(W.WORKLOADS["level_census"].make_round(1)), 0)


def test_run_refuses_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mode_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == b""
