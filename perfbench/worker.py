"""One benchmark run of one workload, in its own process.

Started by run.py, which sets PYTHONPATH to the checkout's `src` and pins
the BLAS threads.  Set-up covers the import of chain_spectra, generating
and preparing the round (inputs and references) and a warm-up.  A timed
run then does full rounds, at least MIN_FULL_ROUNDS of them and more while
the next one fits in --seconds, and then repeats only the cases not marked
`repeat = False` while those fit.  A case's latency is its best run, which
keeps the machine's bursts of contention out of the figures, and it is
reported at a reference speed (see calibration.py).  With
--trace 1 every round runs in full, untraced and then traced, and the
per-layer metrics come from the traced passes.  The last line of stdout is
one JSON object {"result": ..., "info": ...}.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
LADDER = (32, 128, 256, 512)
SUBCOMMANDS = ("spectrum", "verify", "bound", "plot", "export")
DIGITS_CAP = 16.0
INTERPRETER_RUNS = 5
# Timed runs do at least this many full rounds, so that every case, the
# heavy ones included, has a best of two or more runs.
MIN_FULL_ROUNDS = 2


@dataclass
class Result:
    case: object
    round: int
    slot: int  # the case's index in the round
    latency_ns: int
    outcome: object
    warnings: Counter
    # Calibration time right after the run (see calibration.py); None where
    # no calibration ran.
    calib_ns: int | None = None


def run_case(case, ctx, case_id) -> Result:
    # Imported here, not at the top, so that main() can time the package's
    # import on its own.
    from chain_spectra.errors import ChainSpectraError
    from workloads import Outcome

    if ctx.tracer is not None:
        ctx.tracer.case = case_id
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter_ns()
        try:
            raw, exc = case.call(ctx), None
        except Exception as e:  # a case boundary: any escape is that case's failure
            raw, exc = None, e
        t1 = time.perf_counter_ns()
    if ctx.tracer is not None:
        ctx.tracer.case = None
        ctx.collect(case_id)
    if exc is not None:
        kind = "unexpected typed" if isinstance(exc, ChainSpectraError) else "untyped"
        outcome = Outcome(False, f"{kind} exception {type(exc).__name__}: {exc}")
    else:
        try:
            outcome = case.check(raw)
        except Exception as e:  # a malformed result that the oracle cannot read
            outcome = Outcome(False, f"check failed on the result: {e!r}")
    by_module = Counter(
        Path(w.filename).stem for w in caught if issubclass(w.category, RuntimeWarning)
    )
    r, slot = map(int, case_id.split("."))
    return Result(case, r, slot, t1 - t0, outcome, by_module)


def prepared(cases):
    for case in cases:
        case.prepare()
    return cases


def nearest_rank(values, pct):
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered) - 1e-9)  # 1e-9: float round-off
    return ordered[max(0, rank - 1)]


def digits(x):
    return DIGITS_CAP if x <= 10.0**-DIGITS_CAP else min(DIGITS_CAP, -math.log10(x))


def end_to_end(results, per_round, setup_s, reference_ns=1_000_000):
    """End-to-end metrics over the cases of a round.  A case's latency is
    its best run at the reference speed: its best time over the best
    calibration time right after its runs, times the calibration's
    reference time.  A run without a calibration counts as at the reference
    speed.  A case passes when every run of it passed.  cases_per_s is one
    client's closed-loop rate over those latencies, the number of cases
    over the sum of their latencies."""
    best, calib, ok = {}, {}, {}
    for r in results:
        best[r.slot] = min(best.get(r.slot, r.latency_ns), r.latency_ns)
        calib[r.slot] = min(calib.get(r.slot, math.inf), r.calib_ns or reference_ns)
        ok[r.slot] = ok.get(r.slot, True) and r.outcome.ok
    lat_ms = [best[k] / calib[k] * reference_ns / 1e6 for k in best]
    labels = {r.slot: r.case.label for r in results}
    tail_pct = 100.0 * (1.0 - 10.0 / per_round)
    devs = [r.outcome.deviation for r in results
            if r.outcome.ok and r.outcome.deviation is not None]
    rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": (setup_s, "s"),
        "cases_per_s": (len(lat_ms) / (sum(lat_ms) / 1e3), "1/s"),
        "case_p50_ms": (nearest_rank(lat_ms, 50.0), "ms"),
        "case_tail_ms": (nearest_rank(lat_ms, tail_pct), "ms"),
        "pass_frac": (sum(ok.values()) / len(ok), "ratio"),
        "accuracy_digits": (min(map(digits, devs)) if devs else 0.0, "digits"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
    }
    runs = Counter(r.slot for r in results).values()
    info = {"tail_percentile": tail_pct,
            "tail_beyond": sum(1 for x in lat_ms if x > metrics["case_tail_ms"][0]),
            "runs_per_case": {"min": min(runs), "max": max(runs)},
            "latency_ms": sorted((x, labels[k]) for k, x in zip(best, lat_ms))}
    return metrics, info


def per_layer(spans, traced, untraced, n_rounds, import_ms, interpreter_ms):
    """Per-layer metrics, per round of the workload, from the traced pass."""
    dur = {s[0]: s[6] - s[5] for s in spans}
    child = defaultdict(int)
    for sid, parent, *_ in spans:
        if parent >= 0:
            child[parent] += dur[sid]
    names = {s[0]: s[3] for s in spans}
    self_ms = defaultdict(float)
    calls = Counter()
    for sid, parent, case, name, tag, t0, t1 in spans:
        own = (dur[sid] - child[sid]) / 1e6 / n_rounds
        layer = name.split(".", 1)[0]
        self_ms[layer] += own
        self_ms[name] += own
        calls[layer] += 1
        calls[name] += 1
        if tag is not None:
            self_ms[f"{name}[{tag}]"] += own

    n_cases = len(traced)
    ok = [r.outcome for r in traced if r.outcome.ok]
    cases = {f"{r.round}.{r.slot}": r.case for r in traced}

    def min_digits(key):
        vals = [o.residuals[key] for o in ok if key in o.residuals]
        return min(map(digits, vals)) if vals else 0.0

    def per_round(n):
        return n / n_rounds

    ql = [s for s in spans if s[3] == "jacobi.numeric_decomposition"]
    ortho_children = [s for s in spans if s[1] >= 0 and names.get(s[1]) == "polynomials.orthonormal_eval"]
    entries = calls["polynomials.orthonormal_eval"]
    levels_ns = sum(dur[s[0]] for s in spans if s[3] == "chain.enumerate_levels")
    states = sum(r.outcome.counts.get("states", 0) for r in traced)
    spectrum_cases = {cid for cid, c in cases.items()
                      if c.subcommand == "spectrum" and c.expect_code == 0}
    spectrum_mf = sum(1 for s in spans if s[3] == "chain.mode_frequencies" and s[2] in spectrum_cases)
    eval_names = ("family_eval", "recurrence_eval", "orthonormal_eval",
                  "terminating_hypergeometric", "terminating_basic_hypergeometric")

    m = {
        "polynomials.self_ms": (self_ms["polynomials"], "ms"),
        "polynomials.calls": (per_round(calls["polynomials"]), "count"),
        "polynomials.eval.self_ms": (sum(self_ms[f"polynomials.{f}"] for f in eval_names), "ms"),
        "polynomials.weight_norm_calls_per_entry": (
            sum(1 for s in ortho_children if s[3] in ("polynomials.weight", "polynomials.norm"))
            / entries if entries else 0.0, "calls/entry"),
        "polynomials.bidiagonal_split.calls_per_case": (
            calls["polynomials.bidiagonal_split"] / n_cases, "calls/case"),
        "polynomials.dual_path_digits": (min_digits("polynomials.dual_path"), "digits"),
        "jacobi.self_ms": (self_ms["jacobi"], "ms"),
        "jacobi.build.calls_per_case": (calls["jacobi.build_jacobi"] / n_cases, "calls/case"),
        "jacobi.analytic.self_ms": (self_ms["jacobi.analytic_decomposition"], "ms"),
        "jacobi.ql.self_ms": (self_ms["jacobi.numeric_decomposition"], "ms"),
        "jacobi.ql.calls": (per_round(len(ql)), "count"),
        "jacobi.residuals.self_ms": (self_ms["jacobi.decomposition_residuals"], "ms"),
        # A QL call made from inside the package (mode_frequencies,
        # is_positive_definite, cli verify) keeps only the eigenvalues; the
        # benchmark's own closed_form_check call feeds the vectors to the
        # residuals.
        "jacobi.ql.vectors_discarded_frac": (
            sum(1 for s in ql if s[1] >= 0) / len(ql) if ql else 0.0, "ratio"),
        "jacobi.ortho_digits": (min_digits("jacobi.ortho"), "digits"),
        "jacobi.recon_digits": (min_digits("jacobi.recon"), "digits"),
        "jacobi.eig_digits": (min_digits("jacobi.eig"), "digits"),
        "jacobi.runtime_warnings": (per_round(sum(r.warnings["jacobi"] for r in traced)), "count"),
        "chain.self_ms": (self_ms["chain"], "ms"),
        "chain.mode_frequencies.closed.self_ms": (self_ms["chain.mode_frequencies[closed]"], "ms"),
        "chain.mode_frequencies.numeric.self_ms": (self_ms["chain.mode_frequencies[numeric]"], "ms"),
        "chain.mode_frequencies.calls_per_case": (calls["chain.mode_frequencies"] / n_cases, "calls/case"),
        "chain.is_positive_definite.self_ms": (self_ms["chain.is_positive_definite"], "ms"),
        "chain.max_coupling.self_ms": (self_ms["chain.max_coupling"], "ms"),
        "chain.expected_errors": (per_round(sum(r.outcome.expected_errors for r in traced)), "count"),
        "chain.enumerate_levels.self_ms": (self_ms["chain.enumerate_levels"], "ms"),
        "chain.states": (per_round(states), "count"),
        "chain.groups": (per_round(sum(r.outcome.counts.get("groups", 0) for r in traced)), "count"),
        "chain.states_per_s": (states / (levels_ns / 1e9) if levels_ns else 0.0, "1/s"),
        "cli.interpreter_ms": (interpreter_ms, "ms"),
        "cli.import_ms": (statistics.median(import_ms), "ms"),
        "cli.self_ms": (self_ms["cli"], "ms"),
        "cli.mode_frequencies_per_spectrum": (
            spectrum_mf / len(spectrum_cases) if spectrum_cases else 0.0, "calls/run"),
        "cli.stdout_bytes": (per_round(sum(r.outcome.counts.get("stdout_bytes", 0) for r in traced)), "bytes"),
    }
    for n in LADDER:
        m[f"jacobi.analytic.self_ms.n{n}"] = (self_ms[f"jacobi.analytic_decomposition[{n}]"], "ms")
        m[f"jacobi.ql.self_ms.n{n}"] = (self_ms[f"jacobi.numeric_decomposition[{n}]"], "ms")
    by_sub = defaultdict(list)
    for r in untraced:
        if r.case.subcommand is not None:
            by_sub[r.case.subcommand].append(r.latency_ns / 1e6)
    for sub in SUBCOMMANDS:
        m[f"cli.process_ms.{sub}"] = (statistics.median(by_sub[sub]) if by_sub[sub] else 0.0, "ms")
    m["trace_overhead_frac"] = (
        sum(r.latency_ns for r in traced) / sum(r.latency_ns for r in untraced) - 1.0, "ratio")
    return m


def interpreter_ms(env):
    from calibration import interpreter_start_ns

    return statistics.median(interpreter_start_ns(env) for _ in range(INTERPRETER_RUNS)) / 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import chain_spectra.cli  # noqa: F401

    own_import_ms = 1e3 * (time.perf_counter() - t0)
    import numpy

    import calibration as C
    import workloads as W
    from tracer import Tracer

    workload = W.WORKLOADS[args.workload]
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    ctx = W.Context(root=ROOT, tmp=tmp, env=dict(os.environ))
    cases = [c for c in workload.make_round(args.seed) if c.timed or args.trace]
    prepared(cases)
    for i, case in enumerate(prepared(workload.warmup())):
        run_case(case, ctx, f"-1.{i}")
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        shutil.rmtree(tmp)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    results, traced = [], []
    tracer = Tracer() if args.trace else None
    min_full = 1 if tracer else MIN_FULL_ROUNDS
    calibrate = C.calibrator(workload.calibration, ctx.env)
    reference_ns = C.REFERENCE_NS[workload.calibration]
    start = time.perf_counter()
    n, full, full_s, light_s = 0, True, 0.0, 0.0
    while True:
        elapsed = time.perf_counter() - start
        if n >= min_full:
            if full and elapsed + full_s > args.seconds:
                full = False
            if not full and (tracer is not None or elapsed + light_s > args.seconds):
                break
        todo = [(i, c) for i, c in enumerate(cases) if full or c.repeat]
        round_start = time.perf_counter()
        done = []
        for i, c in todo:
            done.append(run_case(c, ctx, f"{n}.{i}"))
            done[-1].calib_ns = calibrate()
        results += done
        if tracer is not None:
            # The same round again, traced, so that drift in machine speed
            # falls on both sides of the overhead ratio alike.
            ctx.tracer = tracer
            tracer.install()
            try:
                done += [run_case(c, ctx, f"{n}.{i}") for i, c in todo]
            finally:
                tracer.uninstall()
                ctx.tracer = None
            traced += done[len(todo):]
        # The next round's wall time, calibrations and checks included, is
        # estimated from this one's, in proportion to case time.
        round_s = time.perf_counter() - round_start
        if full:
            full_s = round_s
        light_s = round_s * (sum(r.latency_ns for r in done if r.case.repeat)
                             / sum(r.latency_ns for r in done))
        n += 1
    shutil.rmtree(tmp)
    by_label = defaultdict(list)
    for r in results:
        by_label[r.case.label].append(r.latency_ns / 1e6)
    if tracer is not None:
        metrics = per_layer(tracer.spans, traced, results, n,
                            [own_import_ms] + ctx.child_import_ms, interpreter_ms(ctx.env))
        if args.spans is not None:
            tracer.write(args.spans)
        info = {}
        results += traced
    else:
        metrics, info = end_to_end(results, len(cases), setup_s, reference_ns)

    failed = [r for r in results if not r.outcome.ok]
    unexpected = [r for r in failed if not r.outcome.known_defect]
    # attempted and failed count the cases of the round, not their runs: the
    # number of runs follows the machine's speed, while which cases fail is
    # fixed by the seed.  A case fails when any of its runs failed.
    failed_cases = {r.slot for r in failed}
    info.update(
        rounds=n,
        runs_attempted=len(results),
        runs_failed=len(failed),
        case_ms={k: statistics.median(v) for k, v in sorted(by_label.items())},
        cases_per_round=len(cases),
        setup_s=setup_s,
        calibration_ms=statistics.median(r.calib_ns for r in results if r.calib_ns) / 1e6,
        numpy=numpy.__version__,
        known_defect_failures=len(failed) - len(unexpected),
        failures=[{"round": r.round, "case": r.case.label, "known_defect": r.outcome.known_defect,
                   "reason": r.outcome.reason} for r in failed],
    )
    result = {
        "correct": not unexpected,
        "attempted": len({r.slot for r in results}),
        "failed": len(failed_cases),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"result": result, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
