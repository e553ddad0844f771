"""spinphase benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each measured pass of the workload is a
fresh process (`perfbench/worker.py`) with BLAS/OpenMP threads pinned to 1,
so every pass starts with cold caches and reads its own peak RSS.  Passes
repeat, on the same seeded inputs, until --seconds is used up (at least
MIN_PASSES).  Single-threaded numpy makes every pass compute the same
outputs, so only the first pass runs the oracle checks.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics:

  --trace 0: the end-to-end metrics, each the median over the passes
             (success_ratio is 1 - total failed / total attempted calls);
  --trace 1: passes alternate untraced and traced; the per-layer metrics
             are medians over the traced passes, computed from the span
             files they write to perfbench/out/, and bench.trace_overhead_s
             is traced minus untraced median wall_s.

wall_s and setup_s are rescaled to a nominal host speed: each pass measures
the host's speed with a fixed reference kernel run between its timed calls
(see HostClock in worker.py).  The unscaled times are printed per pass and,
traced, reported as bench.raw_wall_s next to bench.host_speed.

Exits 2 without a result when the package source is not beside perfbench/,
and 1 when a pass crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = BENCH_DIR / "out"
SRC = ROOT / "src"

WORKLOADS = ("cold_sweep", "warm_states", "singlet")
MIN_PASSES = 3  # untraced; a traced run makes at least two untraced/traced pairs
RUN_LIMIT_S = 165.0  # never start a pass that would end after this
PASS_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
    "accuracy_digits": "digits",
}

# public calls the workers wrap, as <module>.<function>
LAYER_CALLS = (
    "cli.load_density_file",
    "fano.DensityMatrix",
    "fano.BipartiteDensityMatrix",
    "fano.decompose",
    "fano.reconstruct",
    "fano.rotate_tensors",
    "fano.decompose_bipartite",
    "fano.reconstruct_bipartite",
    "fano.reduce",
    "fano.is_product",
    "fano.singlet_tensors",
    "tensor_ops.operator_components",
    "tensor_ops.operator_from_components",
    "distributions.evaluate_many",
    "distributions.expectation",
    "distributions.correlation",
    "distributions.singlet_profile",
    "quadrature.build_grid",
    "quadrature.integrate",
)
# work handed to a call, summed over its spans: sum n^2, points, N^2
LAYER_COUNTS = {
    "fano.decompose": "labels",
    "distributions.evaluate_many": "points",
    "distributions.correlation": "joint_entries",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in LAYER_CALLS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.fail"] = "count"
        if name in LAYER_COUNTS:
            units[f"{name}.{LAYER_COUNTS[name]}"] = "count"
    units["bench.job.self_s"] = "s"
    units["bench.trace_overhead_s"] = "s"
    units["bench.raw_wall_s"] = "s"
    units["bench.host_speed"] = "ratio"
    return units


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced pass from its spans."""
    out = {}
    for name in LAYER_CALLS:
        mine = [s for s in spans if s["name"] == name]
        out[f"{name}.calls"] = len(mine)
        out[f"{name}.busy_s"] = sum(s["end"] - s["start"] for s in mine)
        out[f"{name}.fail"] = sum(1 for s in mine if s["error"])
        if name in LAYER_COUNTS:
            out[f"{name}.{LAYER_COUNTS[name]}"] = sum(s["count"] for s in mine)
    child_s: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + s["end"] - s["start"]
    out["bench.job.self_s"] = sum(
        s["end"] - s["start"] - child_s.get(s["id"], 0.0) - s["ref_s"]
        for s in spans if s["name"] == "bench.job"
    )
    return out


def run_pass(workload: str, seed: int, trace: bool, check: bool, timeout: float) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(int(trace)), "--t-spawn", repr(started),
         "--out-dir", str(OUT_DIR), "--check", str(int(check))],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} pass exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["package"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"pass imported spinphase from {result['package']}, not {SRC}")
    result["elapsed_s"] = time.monotonic() - started
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Untraced passes, or untraced/traced pairs when tracing."""
    start = time.monotonic()
    group = 2 if trace else 1
    passes: list[dict] = []
    while True:
        for i in range(group):
            left = RUN_LIMIT_S + 10.0 - (time.monotonic() - start)
            passes.append(run_pass(workload, seed, trace and i == 1, not passes,
                                   min(PASS_TIMEOUT_S, left)))
        elapsed = time.monotonic() - start
        next_group = group * statistics.median(p["elapsed_s"] for p in passes)
        if elapsed + next_group > RUN_LIMIT_S:
            return passes
        if len(passes) >= (4 if trace else MIN_PASSES) and elapsed + next_group > seconds:
            return passes


def end_to_end(passes: list[dict]) -> dict[str, float]:
    med = lambda key: statistics.median(p[key] for p in passes)  # noqa: E731
    return {
        "wall_s": med("wall_s"),
        "setup_s": med("setup_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "success_ratio": 1.0 - sum(p["failed"] for p in passes) / sum(p["attempted"] for p in passes),
        "accuracy_digits": passes[0]["checks"]["accuracy_digits"],
    }


def per_layer(passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p["spans_file"]]
    plain = [p for p in passes if not p["spans_file"]]
    figures = [layer_metrics(json.loads(Path(p["spans_file"]).read_text(encoding="utf-8")))
               for p in traced]
    out = {name: statistics.median(f[name] for f in figures) for name in figures[0]}
    out["bench.trace_overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                     - statistics.median(p["wall_s"] for p in plain))
    out["bench.raw_wall_s"] = statistics.median(p["raw_wall_s"] for p in plain)
    out["bench.host_speed"] = statistics.median(p["host_speed"] for p in plain)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spinphase" / "__init__.py").is_file():
        print(f"spinphase source not found under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(passes)
        units = per_layer_units()
    else:
        metrics = end_to_end(passes)
        units = END_TO_END_UNITS
    first = passes[0]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{first['checks']['n_checks']} checks on the first, fail_ratio {failed}/{attempted}")
    print("  unscaled wall_s per pass: " + " ".join(f"{p['raw_wall_s']:.3f}" for p in passes)
          + "; host speed: " + " ".join(f"{p['host_speed']:.3f}" for p in passes))
    for f in first["failures"]:
        print(f"  failed: {f['call']} at 2s={f['twice_spin']}: {f['count']} x {f['error']} "
              f"(first: {f['message']})")
    for violation in first["checks"]["violations"]:
        print(f"  check violated: {violation}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": first["checks"]["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
