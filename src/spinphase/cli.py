"""Command-line front end.

Subcommands: tensors (multipole decomposition of a density-matrix file),
singlet (joint-angle profiles to CSV), correlation (quadrature vs closed
form), limit (coefficient convergence table), dist (distribution on a
quadrature grid).

Spins cross the CLI boundary as twice-spin integers and angles as degrees;
everything is radians and half-integers internally.  Exit codes: 0 success,
2 usage error, 3 input validation error, 4 internal-consistency error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .distributions import (
    DistributionKind,
    classical_limit_table,
    correlation,
    correlation_exact,
    evaluate_many,
    singlet_profile,
)
from .errors import ConsistencyError, DomainError, ValidationError
from .fano import (
    BipartiteDensityMatrix,
    DensityMatrix,
    decompose,
    decompose_bipartite,
)
from .quadrature import build_grid, integrate


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _entry_to_complex(entry, row: int, col: int) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
    ):
        raise ValidationError(
            f"matrix entry at row {row}, col {col} must be a [re, im] number pair, "
            f"got {entry!r}"
        )
    return complex(float(entry[0]), float(entry[1]))


def _parse_matrix(raw, what: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise ValidationError(f"{what}: 'matrix' must be a non-empty nested array")
    n = len(raw)
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != n:
            raise ValidationError(
                f"{what}: matrix row {i} has length "
                f"{len(row) if isinstance(row, list) else 'non-list'}, expected {n}"
            )
        for j, entry in enumerate(row):
            out[i, j] = _entry_to_complex(entry, i, j)
    return out


def load_density_file(path: str):
    """Parse a density-matrix file into a validated state object.

    Format: a JSON object with `twice_spin` (single system) or
    `twice_spin_1`/`twice_spin_2` (bipartite) and `matrix` as a nested array
    of [re, im] pairs, rows in the descending-m (product lexicographic)
    ordering.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top level must be a JSON object")
    if "matrix" not in doc:
        raise ValidationError(f"{path}: missing field 'matrix'")
    matrix = _parse_matrix(doc["matrix"], path)
    bipartite = "twice_spin_1" in doc or "twice_spin_2" in doc
    spins = []
    for key in ("twice_spin_1", "twice_spin_2") if bipartite else ("twice_spin",):
        if key not in doc:
            hint = "" if bipartite else " (or 'twice_spin_1'/'twice_spin_2')"
            raise ValidationError(f"{path}: missing field {key!r}{hint}")
        # a JSON boolean loads as a Python int, but it is no spin
        if isinstance(doc[key], bool) or not isinstance(doc[key], int):
            raise ValidationError(f"{path}: {key!r} must be an integer, got {doc[key]!r}")
        spins.append(doc[key] / 2.0)
    try:
        return (BipartiteDensityMatrix if bipartite else DensityMatrix)(*spins, matrix)
    except DomainError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _cmd_tensors(args) -> int:
    state = load_density_file(args.input)
    out = sys.stdout
    if isinstance(state, DensityMatrix):
        t = decompose(state)
        out.write("k,q,re,im\n")
        ts = state.s.twice_value
        for k in range(ts + 1):
            for q in range(k, -k - 1, -1):
                v = t.value(k, q)
                out.write(f"{k},{q},{_fmt(v.real)},{_fmt(v.imag)}\n")
    else:
        t12 = decompose_bipartite(state)
        out.write("k1,q1,k2,q2,re,im\n")
        ts1 = state.s1.twice_value
        ts2 = state.s2.twice_value
        for k1 in range(ts1 + 1):
            for q1 in range(k1, -k1 - 1, -1):
                for k2 in range(ts2 + 1):
                    for q2 in range(k2, -k2 - 1, -1):
                        v = t12.value(k1, q1, k2, q2)
                        out.write(f"{k1},{q1},{k2},{q2},{_fmt(v.real)},{_fmt(v.imag)}\n")
    return 0


def _profile_angles(step_deg: float) -> np.ndarray:
    n = int(math.floor(360.0 / step_deg + 1e-9))
    angles = [i * step_deg for i in range(n + 1)]
    if angles[-1] < 360.0 - 1e-9:
        angles.append(360.0)
    else:
        angles[-1] = 360.0
    return np.asarray(angles)


def _cmd_singlet(args, parser) -> int:
    if args.twice_spin < 1:
        parser.error(f"--twice-spin must be >= 1, got {args.twice_spin}")
    if not (0.0 < args.step_deg <= 90.0):
        parser.error(f"--step-deg must be in (0, 90], got {args.step_deg}")
    s = args.twice_spin / 2.0
    deg = _profile_angles(args.step_deg)
    rad = np.deg2rad(deg)
    kinds = ["p", "q", "f"] if args.kind == "all" else [args.kind]
    columns: list[tuple[str, np.ndarray]] = []
    for name in kinds:
        vals = singlet_profile(DistributionKind.from_string(name), s, rad)
        columns.append((name, vals))
        if name == "p":
            columns.append(("p_normalized", vals / (args.twice_spin + 1) ** 2))
    header = "theta12_deg," + ",".join(name for name, _ in columns)
    lines = [header]
    for i, angle in enumerate(deg):
        row = [_fmt(float(angle))] + [_fmt(float(vals[i])) for _, vals in columns]
        lines.append(",".join(row))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_correlation(args, parser) -> int:
    if args.twice_spin < 1:
        parser.error(f"--twice-spin must be >= 1, got {args.twice_spin}")
    from .distributions import DirectionVector

    try:
        a = DirectionVector.normalized(args.a)
        b = DirectionVector.normalized(args.b)
    except DomainError as exc:
        parser.error(str(exc))
    s = args.twice_spin / 2.0
    grid = build_grid(max(2, args.twice_spin))
    exact = correlation_exact(s, a, b)
    print("kind,quadrature,exact,abs_error")
    worst = 0.0
    for name in ("p", "q", "f"):
        value = correlation(DistributionKind.from_string(name), s, a, b, grid)
        err = abs(value - exact)
        worst = max(worst, err)
        print(f"{name},{_fmt(value)},{_fmt(exact)},{_fmt(err)}")
    print(f"max_abs_deviation,{_fmt(worst)}")
    return 0


def _cmd_limit(args, parser) -> int:
    if args.k < 0:
        parser.error(f"--k must be >= 0, got {args.k}")
    for ts in args.twice_spins:
        if ts < args.k:
            parser.error(f"listed twice-spin {ts} violates k <= 2s for k={args.k}")
    spins = [ts / 2.0 for ts in args.twice_spins]
    values = classical_limit_table(DistributionKind.from_string(args.kind), args.k, spins)
    print("twice_spin,coefficient,abs_gap")
    for ts, value in zip(args.twice_spins, values):
        print(f"{ts},{_fmt(value)},{_fmt(abs(value - 1.0))}")
    return 0


def _cmd_dist(args, parser) -> int:
    state = load_density_file(args.input)
    if not isinstance(state, DensityMatrix):
        raise ValidationError(f"{args.input}: expected a single-system file")
    ts = state.s.twice_value
    band = args.band_limit if args.band_limit is not None else max(ts, 0)
    if band < ts:
        parser.error(f"--band-limit must be >= 2s = {ts} for an exact normalization")
    kind = DistributionKind.from_string(args.kind)
    grid = build_grid(band)
    t = decompose(state)
    vals = evaluate_many(kind, t, grid.node_thetas, grid.node_phis)
    lines = ["theta_deg,phi_deg,weight,value"]
    for theta, phi, w, v in zip(grid.node_thetas, grid.node_phis, grid.weights, vals):
        lines.append(
            f"{_fmt(math.degrees(theta))},{_fmt(math.degrees(phi))},{_fmt(w)},{_fmt(v)}"
        )
    norm = integrate(grid, vals)
    lines.append(f"# normalization,{_fmt(norm)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinphase",
        description="Sphere distributions (P, Q, F) for single and bipartite spins.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tensors = sub.add_parser(
        "tensors", help="multipole decomposition of a density-matrix file"
    )
    p_tensors.add_argument("input", help="density-matrix JSON file")

    p_singlet = sub.add_parser("singlet", help="singlet joint-angle profile CSV")
    p_singlet.add_argument("--kind", choices=["p", "q", "f", "all"], required=True)
    p_singlet.add_argument("--twice-spin", type=int, required=True)
    p_singlet.add_argument("--step-deg", type=float, default=0.5)
    p_singlet.add_argument("--out", required=True)

    p_corr = sub.add_parser("correlation", help="joint spin correlation for the singlet")
    p_corr.add_argument("--twice-spin", type=int, required=True)
    p_corr.add_argument("--a", type=float, nargs=3, required=True, metavar=("AX", "AY", "AZ"))
    p_corr.add_argument("--b", type=float, nargs=3, required=True, metavar=("BX", "BY", "BZ"))

    p_limit = sub.add_parser("limit", help="coefficient convergence toward 1")
    p_limit.add_argument("--kind", choices=["p", "q", "f"], required=True)
    p_limit.add_argument("--k", type=int, required=True)
    p_limit.add_argument("--twice-spins", type=int, nargs="+", required=True)

    p_dist = sub.add_parser("dist", help="distribution values on a quadrature grid")
    p_dist.add_argument("input", help="single-system density-matrix JSON file")
    p_dist.add_argument("--kind", choices=["p", "q", "f"], required=True)
    p_dist.add_argument("--band-limit", type=int, default=None)
    p_dist.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "tensors":
            return _cmd_tensors(args)
        if args.command == "singlet":
            return _cmd_singlet(args, parser)
        if args.command == "correlation":
            return _cmd_correlation(args, parser)
        if args.command == "limit":
            return _cmd_limit(args, parser)
        if args.command == "dist":
            return _cmd_dist(args, parser)
        parser.error(f"unknown command {args.command!r}")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
