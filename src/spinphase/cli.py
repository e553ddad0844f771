"""Command-line front end.

Subcommands: tensors (multipole decomposition of a density-matrix file),
singlet (joint-angle profiles to CSV), correlation (quadrature vs closed
form), limit (coefficient convergence table), dist (distribution on a
quadrature grid).

Spins cross the CLI boundary as twice-spin integers and angles as degrees;
everything is radians and half-integers internally.  Exit codes: 0 success,
2 usage error, 3 input validation error, 4 internal-consistency error.
correlation prints a row for every kind, a refused one included, before it
exits 4 on a refusal.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from .angular import HalfInteger
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
    try:
        return complex(float(entry[0]), float(entry[1]))
    except OverflowError:  # a JSON integer beyond the float range
        raise ValidationError(
            f"matrix entry at row {row}, col {col} is outside the float range"
        ) from None


def _parse_matrix(raw, what: str, booleans: bool) -> np.ndarray:
    """The [n, n] complex matrix of a nested [re, im] array.  One np.array
    conversion when it gives real numbers of shape (n, n, 2) and the file
    holds no JSON true or false (numpy reads true as 1); any other input takes
    the per-entry loop, which names the first bad row or entry."""
    if not isinstance(raw, list) or not raw:
        raise ValidationError(f"{what}: 'matrix' must be a non-empty nested array")
    n = len(raw)
    out = np.zeros((n, n), dtype=complex)
    if not booleans:
        try:
            bulk = np.array(raw)
        except (TypeError, ValueError, OverflowError):
            bulk = None
        if bulk is not None and bulk.dtype.kind in "fiu" and bulk.shape == (n, n, 2):
            out.real, out.imag = bulk[..., 0], bulk[..., 1]
            return out
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
            text = fh.read()
        doc = json.loads(text)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # bytes that are not UTF-8, or an integer past the digit limit
        raise ValidationError(f"{path}: unreadable JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top level must be a JSON object")
    if "matrix" not in doc:
        raise ValidationError(f"{path}: missing field 'matrix'")
    matrix = _parse_matrix(doc["matrix"], path, "true" in text or "false" in text)
    bipartite = "twice_spin_1" in doc or "twice_spin_2" in doc
    spins = []
    for key in ("twice_spin_1", "twice_spin_2") if bipartite else ("twice_spin",):
        if key not in doc:
            hint = "" if bipartite else " (or 'twice_spin_1'/'twice_spin_2')"
            raise ValidationError(f"{path}: missing field {key!r}{hint}")
        # a JSON boolean loads as a Python int, but it is no spin
        if isinstance(doc[key], bool) or not isinstance(doc[key], int):
            raise ValidationError(f"{path}: {key!r} must be an integer, got {doc[key]!r}")
        if doc[key] >= len(matrix):  # no factor's dimension 2s + 1 exceeds the matrix's
            raise ValidationError(
                f"{path}: {key!r} = {doc[key]} declares dimension {doc[key] + 1}, "
                f"more than the matrix's {len(matrix)} rows"
            )
        spins.append(HalfInteger(doc[key]))
    try:
        return (BipartiteDensityMatrix if bipartite else DensityMatrix)(*spins, matrix)
    except DomainError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _labels(ts: int) -> list[tuple[str, tuple[int, int]]]:
    """One factor's printed "k,q" and [k, 2s + q] index, k ascending, q descending."""
    return [(f"{k},{q}", (k, ts + q)) for k in range(ts + 1) for q in range(k, -k - 1, -1)]


def _cmd_tensors(args) -> int:
    state = load_density_file(args.input)
    if isinstance(state, DensityMatrix):
        t, spins, header = decompose(state), (state.s,), "k,q"
    else:
        t, spins, header = decompose_bipartite(state), (state.s1, state.s2), "k1,q1,k2,q2"
    out = sys.stdout
    out.write(f"{header},re,im\n")
    for labels in itertools.product(*(_labels(s.twice_value) for s in spins)):
        v = t.values[sum((index for _, index in labels), ())]
        out.write(f"{','.join(text for text, _ in labels)},{_fmt(v.real)},{_fmt(v.imag)}\n")
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


def _unit(v: list[float], parser) -> list[float]:
    """v scaled to unit length.  v is first scaled by the power of two that
    brings its largest |component| into [0.5, 1), which is exact, so the
    norm neither overflows nor underflows and the result is the unscaled
    v / |v| wherever that is representable."""
    if not all(map(math.isfinite, v)) or not any(v):
        parser.error("cannot normalize a zero or non-finite vector")
    w = np.ldexp(v, -math.frexp(max(map(abs, v)))[1])
    return [float(c) for c in w / np.linalg.norm(w)]


def _cmd_correlation(args, parser) -> int:
    if args.twice_spin < 1:
        parser.error(f"--twice-spin must be >= 1, got {args.twice_spin}")
    a, b = (_unit(v, parser) for v in (args.a, args.b))
    s = args.twice_spin / 2.0
    # band >= s is exact for correlation: a quarter of band 2s's nodes, a smaller bound
    grid = build_grid(max(2, (args.twice_spin + 1) // 2))
    exact = correlation_exact(s, a, b)
    print("kind,quadrature,exact,abs_error")
    errors, refusals = [], []
    for name in ("p", "q", "f"):
        try:
            value = correlation(DistributionKind.from_string(name), s, a, b, grid)
        except ConsistencyError as exc:
            # the refusal names its bound and tolerance; the other kinds still answer
            refusals.append(exc)
            print(f"{name},refused,{_fmt(exact)},{exc}")
            continue
        errors.append(abs(value - exact))
        print(f"{name},{_fmt(value)},{_fmt(exact)},{_fmt(errors[-1])}")
    print(f"max_abs_deviation,{_fmt(max(errors, default=math.nan))}")
    if refusals:
        raise refusals[0]
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
