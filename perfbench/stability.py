"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/stability.py --seeds 1 2 3 4 5 6 7 8 9 10 \
        [--workloads cold_sweep ...] [--trace] [--out perfbench/results/NAME.json]

For every workload it runs `perfbench/run.py` once per seed with the
`run_seconds` of BENCHMARK.json, checks that the result line has the keys and
metric names BENCHMARK.json promises, and prints for each metric the median,
the quartiles from statistics.quantiles(values, n=4), and the spread
(Q3 - Q1) / median next to the metric's bound.  With --trace it reports the
per-layer medians instead, plus the per-spin figures that ROADMAP.md's
baseline table also gives, read from the span files of the runs.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

# (workload, span name, 2s, kind, job_id or None) -> ROADMAP baseline seconds
ROADMAP_FIGURES = [
    ("cold_sweep", "fano.decompose", 32, None, "cold-32", 0.94),
    ("warm_states", "distributions.evaluate_many", 8, "Q", None, 0.0016),
    ("singlet", "fano.singlet_tensors", 8, None, None, 0.020),
    ("singlet", "distributions.correlation", 8, "F", None, 0.026),
]


def run_once(bench: dict, workload: str, seed: int, trace: bool) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(int(trace))]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"unexpected result keys {sorted(result)}")
    if sorted(result["metrics"]) != sorted(expected):
        raise SystemExit(f"metric names differ from BENCHMARK.json: {sorted(result['metrics'])}")
    result["run_s"] = time.monotonic() - start
    return result


def spread_table(runs: list[dict], specs: list[dict]) -> dict:
    table = {}
    for spec in specs:
        values = [r["metrics"][spec["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        row = {"median": med, "q1": q1, "q3": q3, "values": values}
        if "bound" in spec:
            row["spread"] = (q3 - q1) / med if med else float("inf")
            row["bound"] = spec["bound"]
        table[spec["name"]] = row
    return table


def roadmap_figures(span_files: list[tuple[str, Path]]) -> list[dict]:
    spans = [(w, s) for w, f in span_files for s in json.loads(f.read_text(encoding="utf-8"))]
    out = []
    for workload, name, ts, kind, job_id, baseline in ROADMAP_FIGURES:
        times = [s["end"] - s["start"] for w, s in spans
                 if w == workload and s["name"] == name and s["twice_spin"] == ts
                 and s.get("kind") == kind and (job_id is None or s["job_id"] == job_id)
                 and not s["error"]]
        out.append({"workload": workload, "call": name, "twice_spin": ts, "kind": kind,
                    "job_id": job_id, "roadmap_s": baseline,
                    "median_s": statistics.median(times) if times else None, "n_spans": len(times)})
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    report = {"machine": {"python": platform.python_version(), "platform": platform.platform(),
                          "processor": platform.processor() or platform.machine()},
              "run_seconds": bench["run_seconds"], "seeds": args.seeds, "trace": args.trace,
              "workloads": {}}
    specs = bench["per_layer" if args.trace else "end_to_end"]
    span_files: list[tuple[str, Path]] = []
    for workload in args.workloads:
        started = time.time()
        runs = []
        for seed in args.seeds:
            runs.append(run_once(bench, workload, seed, args.trace))
            print(f"{workload} seed {seed}: {runs[-1]['run_s']:.1f} s, correct "
                  f"{runs[-1]['correct']}, failed {runs[-1]['failed']}/{runs[-1]['attempted']}",
                  flush=True)
        table = spread_table(runs, specs)
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "run_s": [r["run_s"] for r in runs],
            "metrics": table,
        }
        for name, row in table.items():
            line = f"  {name:44s} median {row['median']:.6g}  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}"
            if "spread" in row:
                line += f"  spread {row['spread']:.4f} (bound {row['bound']})"
            print(line)
        if args.trace:
            for f in OUT_DIR.glob(f"spans-{workload}-seed*.json"):
                if f.stat().st_mtime >= started:
                    span_files.append((workload, f))
    if args.trace:
        report["roadmap_figures"] = roadmap_figures(span_files)
        for row in report["roadmap_figures"]:
            print(f"  ROADMAP {row['workload']} {row['call']} 2s={row['twice_spin']} "
                  f"{row['kind'] or ''}: {row['median_s']} s here vs {row['roadmap_s']} s")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
