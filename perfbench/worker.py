"""One pass of a spinphase benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --t-spawn MONOTONIC_S --out-dir DIR [--check 0|1]

`perfbench/run.py` starts this once per measured pass, with BLAS/OpenMP
threads pinned to 1 and `src/` on PYTHONPATH.  The pass generates its inputs
from the seed (set-up), runs the workload's fixed job list (the timed
section), reads its own peak RSS, then, with --check 1, checks every output
of a call that did not fail against independent oracles (`oracles.py`).  It
prints one JSON object on stdout.

Set-up and timed section are each followed or interleaved by a reference
kernel whose speed rescales their times to a nominal host speed (`HostClock`);
the reference time itself is excluded from both.

Every call into the package goes through `Recorder.call`, which counts
attempts and failures per public function and exception class.  With
`--trace 1` it also keeps a span {id, name, start, end, parent, job_id, ...}
per call and per job in memory and writes them to a JSON file at the end.
A call fails when it raises anything on a valid input; the job's later steps
are then skipped.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import spinphase
from spinphase import cli, distributions, fano, quadrature, tensor_ops
from spinphase.distributions import DistributionKind

import oracles

P, Q, F = DistributionKind.P, DistributionKind.Q, DistributionKind.F

# decompose rejects the state at 2s = 44 for every seed (its largest symmetry
# defect is at least 1.07e-12 against the 1e-12 tolerance for seeds 0-399) and
# about 1 random state in 8 at 2s = 40, which would make the share of failed
# calls depend on the seed; 2s = 36 passes (largest defect 6.6e-13, seeds 0-399)
COLD_SPINS = (4, 8, 16, 24, 32, 36, 44)
WARM_SPINS = (4, 8, 16, 24)
WARM_STATES_PER_SPIN = 8
BIPARTITE_SPINS = ((2, 2), (4, 4), (6, 6))
BIPARTITE_STATES_PER_PAIR = 4
SINGLET_SPINS = (2, 4, 8, 12, 16)
SINGLET_JOBS_PER_SPIN = 2
PROFILE_STEP_DEG = 0.5
IS_PRODUCT_TOL = 1e-9


class StepFailed(Exception):
    """A public call raised; the rest of the job is skipped."""


# The host's speed drifts by a third within minutes; a fixed reference kernel,
# run between the timed calls for REF_SHARE of their time, measures it, and
# the benchmark reports times rescaled to the nominal speed REF_CHUNK_S.
REF_SHARE = 0.25
SETUP_REF_SHARE = 0.5  # set-up is short, so a larger share steadies its reference
REF_CHUNK_S = 3.0e-3  # one reference chunk on a 2-vCPU Xeon VM, typical spell
_REF_MATRIX = np.random.default_rng(0).normal(size=(40, 40))
_REF_VECTOR = np.random.default_rng(1).normal(size=200_000)


def _reference_chunk() -> None:
    """Small einsums, tuple-keyed dicts built and read, and a vector pass:
    the kinds of work the jobs do, without any spinphase code."""
    for _ in range(10):
        np.einsum("ab,ba->", _REF_MATRIX, _REF_MATRIX)
        labels = {(k, q): complex(k, q) for k in range(12) for q in range(-k, k + 1)}
    table = {(i, j): float(i * j) for i in range(60) for j in range(60)}
    rows = [[table[(i, j)] for j in range(0, 60, 3)] for i in range(60)]
    np.asarray(rows).sum()
    np.cumsum(_REF_VECTOR)
    del labels


class HostClock:
    """Reference chunks interleaved with timed work, a share of its duration."""

    def __init__(self, share: float):
        self.share = share
        self.chunks = 0
        self.elapsed = 0.0
        self._owed = 0.0

    def follow(self, busy_s: float) -> None:
        self._owed += self.share * busy_s
        while self._owed > 0.0:
            start = time.perf_counter()
            _reference_chunk()
            dt = time.perf_counter() - start
            self.chunks += 1
            self.elapsed += dt
            self._owed -= dt

    def speed(self) -> float:
        """Nominal over measured reference time: below 1 on a slow host."""
        return self.chunks * REF_CHUNK_S / self.elapsed


class Recorder:
    """Counts public calls and their failures; keeps spans when tracing.

    With a `clock`, each call is followed by its share of reference chunks,
    outside the call's span.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.attempted = 0
        # (call name, exception class, 2s) -> count, and the first message
        self.failures: Counter = Counter()
        self.failure_notes: dict[tuple, str] = {}
        self._parent = None
        self._job_id = None
        self.clock: HostClock | None = None

    def _open(self, name: str, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter() - self.t0,
            "end": None,
            "parent": self._parent,
            "job_id": self._job_id,
            "error": None,
            **attrs,
        }
        self.spans.append(span)
        return span

    @contextmanager
    def group(self, name: str, job_id: str):
        """A job (or the set-up phase); a failed step ends only its job."""
        self._job_id = job_id
        span = self._open(name) if self.trace else None
        if span is not None:
            self._parent = span["id"]
        ref_before = self.clock.elapsed if self.clock else 0.0
        try:
            yield
        except StepFailed:
            pass
        finally:
            if span is not None:
                span["end"] = time.perf_counter() - self.t0
                span["ref_s"] = (self.clock.elapsed if self.clock else 0.0) - ref_before
            self._parent = self._job_id = None

    def call(self, name: str, fn, *args, twice_spin: int, count: int | None = None,
             kind: str | None = None):
        self.attempted += 1
        span = None
        if self.trace:
            span = self._open(name, twice_spin=twice_spin, count=count, kind=kind)
        start = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:
            error = type(exc).__name__
            key = (name, error, twice_spin)
            self.failures[key] += 1
            self.failure_notes.setdefault(key, (str(exc).splitlines() or [""])[0][:160])
            if span is not None:
                span["error"] = error
            raise StepFailed from exc
        finally:
            end = time.perf_counter()
            if span is not None:
                span["end"] = end - self.t0
            if self.clock is not None:
                self.clock.follow(end - start)


# ---------------------------------------------------------------- inputs


def random_state(rng, n: int) -> np.ndarray:
    """Seeded full-rank density matrix: normalized G G^dag, Gaussian G."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = g @ g.conj().T
    h = 0.5 * (h + h.conj().T)
    return h / np.trace(h).real


def random_hermitian(rng, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (g + g.conj().T)


def random_unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def write_density_file(path: Path, ts: int, matrix: np.ndarray) -> None:
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in matrix]
    path.write_text(json.dumps({"twice_spin": ts, "matrix": rows}), encoding="utf-8")


# ------------------------------------------------------------- workloads
#
# Each set-up returns a list of (job_id, run(rec, out)) pairs; a job writes
# every output it obtains into its `out` dict for the checks after timing.


def setup_cold_sweep(rng, rec: Recorder, work_dir: Path):
    jobs = []
    for ts in COLD_SPINS:
        n = ts + 1
        rho = random_state(rng, n)
        obs = random_hermitian(rng, n)
        path = work_dir / f"state-{ts}.json"
        write_density_file(path, ts, rho)

        def run(rec, out, ts=ts, n=n, path=str(path), rho=rho, obs=obs):
            out.update(ts=ts, rho=rho, obs=obs)
            out["loaded"] = rec.call("cli.load_density_file", cli.load_density_file, path,
                                     twice_spin=ts)
            out["t"] = rec.call("fano.decompose", fano.decompose, out["loaded"],
                                twice_spin=ts, count=n * n)
            out["back"] = rec.call("fano.reconstruct", fano.reconstruct, out["t"],
                                   twice_spin=ts)
            out["comps"] = rec.call("tensor_ops.operator_components",
                                    tensor_ops.operator_components, obs, twice_spin=ts)
            out["obs_back"] = rec.call("tensor_ops.operator_from_components",
                                       tensor_ops.operator_from_components, ts / 2.0,
                                       out["comps"], twice_spin=ts)

        jobs.append((f"cold-{ts}", run))
    return jobs


def setup_warm_states(rng, rec: Recorder, work_dir: Path):
    grids = {}
    with rec.group("bench.setup", "setup"):
        for ts in WARM_SPINS:
            grids[ts] = rec.call("quadrature.build_grid", quadrature.build_grid, ts,
                                 twice_spin=ts)
    # cache warm-up, outside the counted calls: tensor operators, CG and
    # coefficient tables for every spin the jobs use
    for ts in WARM_SPINS:
        n = ts + 1
        fano.decompose(fano.DensityMatrix(ts / 2.0, np.eye(n) / n))
        for kind in (P, Q, F):
            distributions.coefficient_table(kind, ts / 2.0)
    for ts1, ts2 in BIPARTITE_SPINS:
        n = (ts1 + 1) * (ts2 + 1)
        fano.decompose_bipartite(
            fano.BipartiteDensityMatrix(ts1 / 2.0, ts2 / 2.0, np.eye(n) / n))

    jobs = []
    for i in range(WARM_STATES_PER_SPIN):
        for ts in WARM_SPINS:
            n = ts + 1
            matrix = random_state(rng, n)
            angles = tuple(float(x) for x in rng.uniform(0.0, 2.0 * math.pi, size=3))
            sz = np.diag(np.arange(ts, -ts - 1, -2) / 2.0)
            grid = grids[ts]

            def run(rec, out, ts=ts, n=n, matrix=matrix, angles=angles, sz=sz, grid=grid):
                out.update(ts=ts, matrix=matrix, angles=angles, sz=sz, grid=grid)
                call = rec.call
                rho = out["rho"] = call("fano.DensityMatrix", fano.DensityMatrix, ts / 2.0,
                                        matrix, twice_spin=ts)
                t = out["t"] = call("fano.decompose", fano.decompose, rho,
                                    twice_spin=ts, count=n * n)
                # P last: its known failure at 2s = 24 then skips only P's own steps
                for kind in (Q, F):
                    _distribution_steps(rec, out, kind, t, grid, ts)
                out["expect_sz"] = call("distributions.expectation",
                                        distributions.expectation, Q, t, sz, grid,
                                        twice_spin=ts, kind=Q.value)
                out["rotated"] = call("fano.rotate_tensors", fano.rotate_tensors, t,
                                      *angles, twice_spin=ts)
                out["back"] = call("fano.reconstruct", fano.reconstruct, t, twice_spin=ts)
                _distribution_steps(rec, out, P, t, grid, ts)

            jobs.append((f"warm-{ts}-{i}", run))
        if i >= BIPARTITE_STATES_PER_PAIR:
            continue
        for ts1, ts2 in BIPARTITE_SPINS:
            matrix = random_state(rng, (ts1 + 1) * (ts2 + 1))

            def run(rec, out, ts1=ts1, ts2=ts2, matrix=matrix):
                out.update(ts=(ts1, ts2), matrix=matrix, is_product_tol=IS_PRODUCT_TOL)
                call = rec.call
                rho12 = out["rho12"] = call("fano.BipartiteDensityMatrix",
                                            fano.BipartiteDensityMatrix, ts1 / 2.0,
                                            ts2 / 2.0, matrix, twice_spin=ts1)
                t12 = out["t12"] = call("fano.decompose_bipartite", fano.decompose_bipartite,
                                        rho12, twice_spin=ts1,
                                        count=((ts1 + 1) * (ts2 + 1)) ** 2)
                out["reduced"] = tuple(
                    call("fano.reduce", fano.reduce, rho12, which, twice_spin=ts1)
                    for which in (1, 2)
                )
                out["is_product"] = call("fano.is_product", fano.is_product, t12,
                                         IS_PRODUCT_TOL, twice_spin=ts1)
                out["back"] = call("fano.reconstruct_bipartite", fano.reconstruct_bipartite,
                                   t12, twice_spin=ts1)

            jobs.append((f"bipartite-{ts1}-{i}", run))
    return jobs


def _distribution_steps(rec, out, kind, t, grid, ts):
    values = rec.call("distributions.evaluate_many", distributions.evaluate_many, kind, t,
                      grid.node_thetas, grid.node_phis, twice_spin=ts, count=grid.n_nodes,
                      kind=kind.value)
    out[f"values_{kind.value}"] = values
    out[f"norm_{kind.value}"] = rec.call("quadrature.integrate", quadrature.integrate, grid,
                                         values, twice_spin=ts, kind=kind.value)


def setup_singlet(rng, rec: Recorder, work_dir: Path):
    grids = {}
    with rec.group("bench.setup", "setup"):
        for ts in SINGLET_SPINS:
            grids[ts] = rec.call("quadrature.build_grid", quadrature.build_grid,
                                 max(2, ts), twice_spin=ts)
    steps = int(round(360.0 / PROFILE_STEP_DEG))
    angles = np.deg2rad(np.arange(steps + 1) * PROFILE_STEP_DEG)
    jobs = []
    for i in range(SINGLET_JOBS_PER_SPIN):
        for ts in SINGLET_SPINS:
            a, b = random_unit(rng), random_unit(rng)
            grid = grids[ts]

            def run(rec, out, ts=ts, a=a, b=b, grid=grid):
                out.update(ts=ts, a=a, b=b, angles=angles)
                s = ts / 2.0
                call = rec.call
                out["t12"] = call("fano.singlet_tensors", fano.singlet_tensors, s,
                                  twice_spin=ts)
                for kind in (P, Q, F):
                    out[f"profile_{kind.value}"] = call(
                        "distributions.singlet_profile", distributions.singlet_profile,
                        kind, s, angles, twice_spin=ts, kind=kind.value)
                # P last: its known failure at 2s >= 14 then skips nothing else
                for kind in (Q, F, P):
                    out[f"corr_{kind.value}"] = call(
                        "distributions.correlation", distributions.correlation, kind, s, a,
                        b, grid, twice_spin=ts, count=grid.n_nodes ** 2, kind=kind.value)

            jobs.append((f"singlet-{ts}-{i}", run))
    return jobs


WORKLOADS = {
    "cold_sweep": (setup_cold_sweep, oracles.check_cold_sweep),
    "warm_states": (setup_warm_states, oracles.check_warm_states),
    "singlet": (setup_singlet, oracles.check_singlet),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t-spawn", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1,
                        help="run the oracle checks after the timed section")
    args = parser.parse_args(argv)

    setup, check = WORKLOADS[args.workload]
    out_dir = Path(args.out_dir)
    work_dir = out_dir / f"work-{args.workload}-{args.seed}-{time.monotonic_ns()}"
    work_dir.mkdir(parents=True)
    try:
        rec = Recorder(bool(args.trace))
        rng = np.random.default_rng([args.seed % 2**64, sorted(WORKLOADS).index(args.workload)])
        jobs = setup(rng, rec, work_dir)
        setup_raw_s = time.monotonic() - args.t_spawn
        setup_clock = HostClock(SETUP_REF_SHARE)
        setup_clock.follow(setup_raw_s)

        rec.clock = HostClock(REF_SHARE)
        start = time.perf_counter()
        outputs = []
        for job_id, run in jobs:
            out = {}
            with rec.group("bench.job", job_id):
                run(rec, out)
            outputs.append(out)
        raw_wall_s = time.perf_counter() - start - rec.clock.elapsed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    spans_file = None
    if rec.trace:
        spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}-{time.monotonic_ns()}.json"
        spans_file.write_text(json.dumps(rec.spans), encoding="utf-8")

    checks = check(outputs) if args.check else None
    result = {
        "setup_s": setup_raw_s * setup_clock.speed(),
        "wall_s": raw_wall_s * rec.clock.speed(),
        "raw_wall_s": raw_wall_s,
        "host_speed": rec.clock.speed(),
        "peak_rss_mb": peak_rss_mb,
        "attempted": rec.attempted,
        "failed": sum(rec.failures.values()),
        "failures": [
            {"call": name, "error": error, "twice_spin": ts, "count": n,
             "message": rec.failure_notes[(name, error, ts)]}
            for (name, error, ts), n in sorted(rec.failures.items())
        ],
        "checks": checks,
        "spans_file": str(spans_file) if spans_file else None,
        "package": spinphase.__file__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
