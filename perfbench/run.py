#!/usr/bin/env python3
"""Benchmark of chain_spectra: four closed-loop workloads, end-to-end
metrics and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src`.
Each workload runs in a process of its own.  With --trace 0 the last line
of stdout is {"correct", "attempted", "failed", "metrics"} with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics.
`--workload all` runs every workload in turn.  The lines before it are a
readable table and the run's provenance; a full record goes to
perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("closed_form_check", "mode_scan", "level_census", "cli_session")
# Kept out of development runs; use it once to confirm a claimed gain.
HELD_OUT_SEED = 271828
# Set-up is measured in this many extra processes besides the measured one.
SETUP_PROBES = 4
BLAS_THREADS = 1
# Every run, set-up probes included, ends within this many seconds.
RUN_BUDGET_S = 175.0


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CHAIN_SPECTRA_CONFIG"}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _provenance() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chain_spectra").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


def _worker(args: list[str], env: dict, deadline: float) -> dict | None:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"worker {' '.join(args)} ran past the {RUN_BUDGET_S:.0f} s budget",
              file=sys.stderr)
        return None
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker {' '.join(args)} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict | None:
    env = _child_env()
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = _worker(common + ["--setup-only"], env, deadline)
            if probe is None:
                return None
            setups.append(probe["setup_s"])
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{trace}"
    extra = ["--spans", f"{stem}-spans.tsv.gz"] if trace else []
    run = _worker(common + ["--seconds", str(seconds), "--trace", str(trace)] + extra,
                  env, deadline)
    if run is None:
        return None
    result, info = run["result"], run["info"]
    if not trace:
        setups.append(info["setup_s"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        info["setup_samples_s"] = setups
    info["provenance"] = dict(_provenance(), numpy=info.pop("numpy"),
                              seed=seed, held_out_seed=seed == HELD_OUT_SEED)
    (stem.parent / f"{stem.name}.json").write_text(
        json.dumps({"workload": name, "result": result, "info": info}, indent=1) + "\n")
    _print_table(name, seed, seconds, trace, result, info)
    return result


def _print_table(name, seed, seconds, trace, result, info) -> None:
    prov = " ".join(f"{k}={v}" for k, v in info["provenance"].items())
    print(f"== {name}  seed={seed} seconds={seconds} trace={trace}")
    print(f"   {prov}")
    print(f"   rounds={info['rounds']} cases attempted={result['attempted']} "
          f"failed={result['failed']} runs={info['runs_attempted']} "
          f"failed runs={info['runs_failed']} (known defect: "
          f"{info['known_defect_failures']}) correct={result['correct']}")
    for key, metric in result["metrics"].items():
        note = ""
        if key == "case_tail_ms":
            note = (f"p{info['tail_percentile']:.1f}: {info['tail_beyond']} of "
                    f"{info['cases_per_round']} cases beyond it")
        elif key == "pass_frac":
            note = f"failed_frac {1.0 - metric['value']:.6g}"
        elif key == "setup_s":
            note = "median of " + ", ".join(f"{s:.3f}" for s in info["setup_samples_s"])
        print(f"   {key:44s} {metric['value']:>14.6g} {metric['unit']:<12s} {note}")
    for failure in info["failures"][:12]:
        tag = "known defect" if failure["known_defect"] else "FAILED"
        print(f"   {tag}: round {failure['round']} {failure['case']}: {failure['reason']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25,
                    help="timed wall time: at least two full rounds, then more "
                         "rounds while they fit (0: the shortest run)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "chain_spectra" / "__init__.py").is_file():
        print(f"no chain_spectra sources under {ROOT / 'src'}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[name] = result
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
