import json
import math
import re
import warnings

import numpy as np
import pytest

from spinphase import (
    BipartiteDensityMatrix,
    DensityMatrix,
    DomainError,
    ValidationError,
    decompose_bipartite,
    distributions,
    singlet_density,
)
from spinphase.cli import load_density_file, main
from conftest import random_bipartite_density, random_density

FOUR_PI = 4.0 * math.pi


def write_state(path, twice_spin, matrix):
    doc = {
        "twice_spin": twice_spin,
        "matrix": [[[v.real, v.imag] for v in row] for row in np.asarray(matrix, complex)],
    }
    path.write_text(json.dumps(doc))
    return str(path)


def write_bipartite(path, ts1, ts2, matrix):
    doc = {
        "twice_spin_1": ts1,
        "twice_spin_2": ts2,
        "matrix": [[[v.real, v.imag] for v in row] for row in np.asarray(matrix, complex)],
    }
    path.write_text(json.dumps(doc))
    return str(path)


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, np.asarray(rows)


# ----------------------------------------------------------------- tensors


def test_tensors_maximally_mixed(tmp_path, capsys):
    path = write_state(tmp_path / "mixed.json", 1, np.eye(2) / 2)
    assert main(["tensors", path]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "k,q,re,im"
    rows = [ln.split(",") for ln in out[1:]]
    assert len(rows) == 4  # complete label set
    nonzero = [r for r in rows if abs(float(r[2])) > 1e-13 or abs(float(r[3])) > 1e-13]
    assert len(nonzero) == 1
    assert nonzero[0][:2] == ["0", "0"]
    assert float(nonzero[0][2]) == pytest.approx(1.0, abs=1e-13)


def test_tensors_singlet_pattern(tmp_path, capsys):
    path = write_bipartite(tmp_path / "singlet.json", 1, 1, singlet_density(0.5).matrix)
    assert main(["tensors", path]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "k1,q1,k2,q2,re,im"
    table = {}
    for ln in out[1:]:
        k1, q1, k2, q2, re, im = ln.split(",")
        table[(int(k1), int(q1), int(k2), int(q2))] = complex(float(re), float(im))
    assert len(table) == 16
    assert table[(1, 1, 1, -1)] == pytest.approx(1.0, abs=1e-12)
    assert table[(1, 0, 1, 0)] == pytest.approx(-1.0, abs=1e-12)
    for (k1, q1, k2, q2), v in table.items():
        if k1 != k2 or q1 != -q2:
            assert abs(v) < 1e-12


def test_tensors_ordering_is_k_ascending_q_descending(tmp_path, capsys):
    path = write_state(tmp_path / "mixed.json", 2, np.eye(3) / 3)
    main(["tensors", path])
    out = capsys.readouterr().out.strip().splitlines()[1:]
    labels = [tuple(int(v) for v in ln.split(",")[:2]) for ln in out]
    assert labels == [
        (0, 0),
        (1, 1), (1, 0), (1, -1),
        (2, 2), (2, 1), (2, 0), (2, -1), (2, -2),
    ]


def test_tensors_unequal_spins_rows_match_decomposition(tmp_path, capsys, rng):
    rho12 = random_bipartite_density(rng, 2, 1)
    path = write_bipartite(tmp_path / "unequal.json", 2, 1, rho12.matrix)
    assert main(["tensors", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k1,q1,k2,q2,re,im"
    # JSON round-trips the floats exactly, so every printed digit must match
    t12 = decompose_bipartite(BipartiteDensityMatrix(1, 0.5, rho12.matrix))
    labels = [
        (k1, q1, k2, q2)
        for k1 in range(3)
        for q1 in range(k1, -k1 - 1, -1)
        for k2 in range(2)
        for q2 in range(k2, -k2 - 1, -1)
    ]
    assert len(lines) == 1 + len(labels) == 1 + 9 * 4
    for line, label in zip(lines[1:], labels):
        v = t12.value(*label)
        assert line == ",".join(map(str, label)) + f",{v.real:.12e},{v.imag:.12e}"


def test_tensors_rejects_non_hermitian(tmp_path, capsys):
    mat = np.array([[0.5, 0.2], [0.1, 0.5]])
    path = write_state(tmp_path / "bad.json", 1, mat)
    assert main(["tensors", path]) == 3
    assert "hermiticity" in capsys.readouterr().err


def test_tensors_reports_measured_trace(tmp_path, capsys):
    path = write_state(tmp_path / "bad.json", 1, np.eye(2))
    assert main(["tensors", path]) == 3
    err = capsys.readouterr().err
    assert "trace" in err and "2" in err


def test_tensors_parse_error_has_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"twice_spin": 1, "matrix": [[')
    assert main(["tensors", str(path)]) == 3
    assert "line" in capsys.readouterr().err


def test_tensors_rejects_bad_entry_with_position(tmp_path, capsys):
    path = tmp_path / "entry.json"
    path.write_text('{"twice_spin": 1, "matrix": [[[1.0, 0.0], [0.0]], [[0.0, 0.0], [0.0, 0.0]]]}')
    assert main(["tensors", str(path)]) == 3
    err = capsys.readouterr().err
    assert "row 0" in err and "col 1" in err


# ----------------------------------------------------------------- singlet


def test_singlet_csv_quarter_spin_column(tmp_path):
    out = tmp_path / "q.csv"
    assert main(["singlet", "--kind", "q", "--twice-spin", "1", "--step-deg", "5",
                 "--out", str(out)]) == 0
    header, rows = parse_csv(out.read_text())
    assert header == ["theta12_deg", "q"]
    for theta_deg, value in rows:
        expected = (1 - math.cos(math.radians(theta_deg))) / FOUR_PI**2
        assert value == pytest.approx(expected, abs=1e-12)


def test_singlet_csv_rows_cover_full_circle(tmp_path):
    out = tmp_path / "f.csv"
    main(["singlet", "--kind", "f", "--twice-spin", "1", "--step-deg", "0.5",
          "--out", str(out)])
    _, rows = parse_csv(out.read_text())
    angles = rows[:, 0]
    assert angles[0] == 0.0
    assert angles[-1] == 360.0
    assert np.all(np.diff(angles) > 0)
    at_180 = rows[np.nonzero(angles == 180.0)[0][0], 1]
    assert at_180 == pytest.approx(4 / FOUR_PI**2, rel=1e-12)


def test_singlet_csv_all_kinds_with_normalized_column(tmp_path):
    out = tmp_path / "all.csv"
    main(["singlet", "--kind", "all", "--twice-spin", "4", "--step-deg", "0.5",
          "--out", str(out)])
    header, rows = parse_csv(out.read_text())
    assert header == ["theta12_deg", "p", "p_normalized", "q", "f"]
    angles = rows[:, 0]
    # normalized column is p / (2s+1)^2
    assert np.allclose(rows[:, 2], rows[:, 1] / 25.0, atol=1e-15)
    # every kind peaks at the antipodal angle
    for col in (1, 2, 3, 4):
        assert angles[int(np.argmax(rows[:, col]))] == 180.0


def test_singlet_csv_line_endings_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["singlet", "--kind", "all", "--twice-spin", "2", "--step-deg", "1"]
    main(args + ["--out", str(out1)])
    main(args + ["--out", str(out2)])
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    assert b"\r" not in data


def test_singlet_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["singlet", "--kind", "q", "--twice-spin", "0", "--step-deg", "1",
              "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["singlet", "--kind", "q", "--twice-spin", "1", "--step-deg", "0",
              "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


# ------------------------------------------------------------- correlation


def parse_correlation(out_text):
    lines = out_text.strip().splitlines()
    assert lines[0] == "kind,quadrature,exact,abs_error"
    values = {}
    for ln in lines[1:4]:
        kind, quad, exact, err = ln.split(",")
        values[kind] = (float(quad), float(exact), float(err))
    worst = float(lines[4].split(",")[1])
    return values, worst


def test_correlation_parallel(capsys):
    assert main(["correlation", "--twice-spin", "1", "--a", "0", "0", "1",
                 "--b", "0", "0", "1"]) == 0
    values, worst = parse_correlation(capsys.readouterr().out)
    for kind in ("p", "q", "f"):
        quad, exact, err = values[kind]
        assert exact == pytest.approx(-0.25, abs=1e-12)
        assert err <= 1e-8
    assert worst <= 1e-8


def test_correlation_orthogonal(capsys):
    main(["correlation", "--twice-spin", "4", "--a", "1", "0", "0",
          "--b", "0", "1", "0"])
    values, _ = parse_correlation(capsys.readouterr().out)
    for kind in ("p", "q", "f"):
        quad, exact, _ = values[kind]
        assert exact == 0.0
        assert abs(quad) < 1e-10


def test_correlation_antiparallel_spin_three_half(capsys):
    main(["correlation", "--twice-spin", "3", "--a", "0", "0", "1",
          "--b", "0", "0", "-1"])
    values, _ = parse_correlation(capsys.readouterr().out)
    for kind in ("p", "q", "f"):
        _, exact, err = values[kind]
        assert exact == pytest.approx(1.25, abs=1e-12)
        assert err <= 1e-8


def test_correlation_accepts_unnormalized_input(capsys):
    main(["correlation", "--twice-spin", "1", "--a", "0", "0", "5",
          "--b", "0", "0", "5"])
    values, _ = parse_correlation(capsys.readouterr().out)
    assert values["p"][1] == pytest.approx(-0.25, abs=1e-12)


def test_correlation_spin_seven(capsys):
    # P's coefficients reach about 1e4 at this spin and amplify any roundoff
    assert main(["correlation", "--twice-spin", "14", "--a", "0", "0", "1",
                 "--b", "0", "1", "1"]) == 0
    _, worst = parse_correlation(capsys.readouterr().out)
    assert worst < 1e-9


@pytest.mark.parametrize("ts", [26, 64])
def test_correlation_answers_q_and_f_where_p_is_refused(ts, capsys):
    # P's c_k grow like 4^s, but the correlation reads c_0 and c_1 only, so
    # P answers with Q and F
    assert main(["correlation", "--twice-spin", str(ts), "--a", "0", "0", "1",
                 "--b", "0", "1", "1"]) == 0
    captured = capsys.readouterr()
    values, worst = parse_correlation(captured.out)
    assert list(values) == ["p", "q", "f"]
    s = ts / 2
    expected = -s * (s + 1) / 3 * math.sqrt(0.5)
    for quad, exact, err in values.values():
        assert exact == pytest.approx(expected, rel=1e-12)
        assert quad == pytest.approx(expected, rel=1e-12)
        assert err <= 1e-12 * abs(expected)
    assert worst == max(err for _, _, err in values.values())
    assert captured.err == ""


@pytest.mark.scale
def test_correlation_answers_at_twice_spin_1007(capsys):
    # the command integrates on the coarsest exact grid, band ceil(s): on
    # band 2s the roundoff bound, which grows with the node count, refuses
    # every kind from 2s = 1007 on
    assert main(["correlation", "--twice-spin", "1007", "--a", "0", "0", "1",
                 "--b", "0", "1", "1"]) == 0
    values, _ = parse_correlation(capsys.readouterr().out)
    assert list(values) == ["p", "q", "f"]
    expected = -503.5 * 504.5 / 3 * math.sqrt(0.5)
    for quad, exact, _ in values.values():
        assert exact == pytest.approx(expected, rel=1e-12)
        assert quad == pytest.approx(expected, rel=1e-12)


def test_correlation_refusal_row_names_bound_and_tolerance(monkeypatch, capsys):
    # a tolerance no roundoff bound meets forces the certificate's refusal:
    # every kind prints a refused row, and the command exits 4 on P's reason
    monkeypatch.setattr(distributions, "_CORRELATION_RTOL", 1e-40)
    assert main(["correlation", "--twice-spin", "26", "--a", "0", "0", "1",
                 "--b", "0", "1", "1"]) == 4
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "kind,quadrature,exact,abs_error"
    expected = -13 * 14 / 3 * math.sqrt(0.5)
    reasons = []
    for name, ln in zip("pqf", lines[1:4]):
        kind, verdict, exact, reason = ln.split(",")
        assert (kind, verdict) == (name, "refused")
        assert float(exact) == pytest.approx(expected, rel=1e-12)
        assert re.fullmatch(
            rf"correlation\({name.upper()}\): roundoff bound \S+ exceeds tolerance \S+ "
            r"\(1e-40 s\(s\+1\)/3\)",
            reason,
        )
        reasons.append(reason)
    assert lines[4] == "max_abs_deviation,nan"
    assert captured.err == f"internal consistency error: {reasons[0]}\n"


def test_correlation_zero_vector_is_usage_error(capsys):
    for a in (["0", "0", "0"], ["nan", "0", "1"], ["0", "nan", "1"], ["1", "inf", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(["correlation", "--twice-spin", "1", "--a", *a, "--b", "0", "0", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: cannot normalize a zero or non-finite vector\n"
        )


@pytest.mark.parametrize("scale", ["1e200", "1e308", "1e-170", "1e-320"])
def test_correlation_scales_huge_and_tiny_vectors(scale, capsys):
    # the norm neither overflows nor underflows: the direction is (1, 1, 0)'s
    def rows(a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["correlation", "--twice-spin", "4", "--a", *a, "--b", "1", "0", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        return parse_correlation(captured.out)[0]

    expected = rows(["1", "1", "0"])
    for kind, (quad, exact, _) in rows([scale, scale, "0"]).items():
        assert quad == pytest.approx(expected[kind][0], rel=1e-15, abs=0)
        assert exact == pytest.approx(expected[kind][1], rel=1e-15, abs=0)


def test_correlation_unit_scaling_is_v_over_its_norm():
    # the power-of-two prescaling is exact: in the float range the direction
    # is v / np.linalg.norm(v) bit for bit, and a power-of-two multiple of v
    # gives the same direction
    from spinphase.cli import _unit

    rng = np.random.default_rng(5)
    for _ in range(200):
        v = rng.normal(size=3) * 10.0 ** rng.uniform(-100, 100, size=3)
        assert _unit(v.tolist(), None) == (v / np.linalg.norm(v)).tolist()
        v = rng.choice([-1.0, 1.0], size=3) * rng.uniform(0.5, 1.0, size=3)
        for k in (-1000, -300, 1, 700, 1023):
            assert _unit(np.ldexp(v, k).tolist(), None) == _unit(v.tolist(), None)


# ------------------------------------------------------------------- limit


def test_limit_gap_column_decreases(capsys):
    assert main(["limit", "--kind", "p", "--k", "1",
                 "--twice-spins"] + [str(t) for t in (1, 2, 4, 8, 12, 16, 20)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "twice_spin,coefficient,abs_gap"
    gaps = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_limit_rank_zero_all_ones(capsys):
    main(["limit", "--kind", "q", "--k", "0", "--twice-spins", "1", "3", "9"])
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    for ln in lines:
        assert float(ln.split(",")[1]) == pytest.approx(1.0, abs=1e-12)


def test_limit_f_rank_two_near_one_at_large_spin(capsys):
    main(["limit", "--kind", "f", "--k", "2", "--twice-spins", "200"])
    line = capsys.readouterr().out.strip().splitlines()[1]
    assert float(line.split(",")[2]) < 1e-2


def test_limit_violating_entry_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["limit", "--kind", "p", "--k", "3", "--twice-spins", "4", "2"])
    assert exc.value.code == 2


def test_limit_p_overflow_is_usage_error(capsys):
    # c_2s of P leaves the float range at 2s = 1027; 2s = 1026 still fits
    assert main(["limit", "--kind", "p", "--k", "1026", "--twice-spins", "1026"]) == 0
    assert main(["limit", "--kind", "p", "--k", "1027", "--twice-spins", "1027"]) == 2
    assert "P coefficients at 2s = 1027" in capsys.readouterr().err


# -------------------------------------------------------------------- dist


def test_dist_maximally_mixed_constant(tmp_path, capsys):
    path = write_state(tmp_path / "mixed.json", 1, np.eye(2) / 2)
    assert main(["dist", path, "--kind", "q"]) == 0
    text = capsys.readouterr().out
    header, rows = parse_csv(text)
    assert header == ["theta_deg", "phi_deg", "weight", "value"]
    assert np.allclose(rows[:, 3], 1 / FOUR_PI, atol=1e-12)
    norm_line = [ln for ln in text.splitlines() if ln.startswith("#")][0]
    assert float(norm_line.split(",")[1]) == pytest.approx(1.0, abs=1e-10)


def test_dist_reported_normalization_matches_resummed_rows(tmp_path, capsys):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = a @ a.conj().T
    path = write_state(tmp_path / "state.json", 2, h / np.trace(h))
    out = tmp_path / "dist.csv"
    assert main(["dist", path, "--kind", "p", "--out", str(out)]) == 0
    text = out.read_text()
    _, rows = parse_csv(text)
    reported = float(
        [ln for ln in text.splitlines() if ln.startswith("#")][0].split(",")[1]
    )
    resummed = math.fsum(rows[:, 2] * rows[:, 3])
    assert resummed == pytest.approx(reported, abs=1e-10)
    assert reported == pytest.approx(1.0, abs=1e-10)


def test_dist_pole_state_peaks_at_smallest_polar_angle(tmp_path, capsys):
    mat = np.zeros((3, 3), dtype=complex)
    mat[2, 2] = 1.0  # pure |s, -s>, the theta = 0 coherent state
    path = write_state(tmp_path / "pole.json", 2, mat)
    main(["dist", path, "--kind", "q", "--band-limit", "6"])
    _, rows = parse_csv(capsys.readouterr().out)
    peak_theta = rows[int(np.argmax(rows[:, 3])), 0]
    assert peak_theta == rows[:, 0].min()


def test_dist_rejects_bipartite_file(tmp_path, capsys):
    path = write_bipartite(tmp_path / "pair.json", 1, 1, singlet_density(0.5).matrix)
    assert main(["dist", path, "--kind", "q"]) == 3
    assert "single-system" in capsys.readouterr().err


def test_dist_band_limit_usage_error(tmp_path):
    path = write_state(tmp_path / "mixed.json", 4, np.eye(5) / 5)
    with pytest.raises(SystemExit) as exc:
        main(["dist", path, "--kind", "q", "--band-limit", "1"])
    assert exc.value.code == 2


def test_missing_spin_field_is_validation_error(tmp_path, capsys):
    path = tmp_path / "nospin.json"
    path.write_text('{"matrix": [[[1.0, 0.0]]]}')
    assert main(["tensors", str(path)]) == 3
    assert "twice_spin" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields, key",
    [
        ({"twice_spin": True}, "twice_spin"),
        ({"twice_spin_1": False, "twice_spin_2": 1}, "twice_spin_1"),
        ({"twice_spin_1": 1, "twice_spin_2": True}, "twice_spin_2"),
    ],
)
def test_boolean_spin_field_is_validation_error(tmp_path, capsys, fields, key):
    # a JSON boolean loads as a Python int; it must not load as spin 1/2 or 0
    path = tmp_path / "bool.json"
    matrix = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    path.write_text(json.dumps({**fields, "matrix": matrix}))
    assert main(["tensors", str(path)]) == 3
    assert f"{key!r} must be an integer" in capsys.readouterr().err


def test_nan_matrix_entry_is_validation_error(tmp_path, capsys):
    matrix = np.eye(2, dtype=complex) / 2
    matrix[1, 1] = np.nan
    path = write_state(tmp_path / "nan.json", 1, matrix)
    assert "NaN" in open(path).read()
    assert main(["tensors", path]) == 3
    assert "hermiticity violated (max |M - M^dag| = nan" in capsys.readouterr().err


def test_oversized_matrix_entry_is_validation_error(tmp_path, capsys):
    # 10^400 is a JSON integer that no float holds
    path = tmp_path / "huge.json"
    big = "1" + "0" * 400
    path.write_text(f'{{"twice_spin": 1, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, {big}]]]}}')
    assert main(["tensors", str(path)]) == 3
    err = capsys.readouterr().err
    assert "row 1, col 1" in err and "outside the float range" in err


@pytest.mark.parametrize("twice_spin", [10**400, 10**19 + 1], ids=["1e400", "1e19+1"])
@pytest.mark.parametrize("key", ["twice_spin", "twice_spin_2"])
def test_oversized_spin_field_is_validation_error(tmp_path, capsys, twice_spin, key):
    # read exactly: as a float, 10^400 overflows and 10^19 + 1 loses its parity
    path = tmp_path / "huge.json"
    fields = {key: twice_spin} if key == "twice_spin" else {"twice_spin_1": 0, key: twice_spin}
    matrix = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    path.write_text(json.dumps({**fields, "matrix": matrix}))
    assert main(["tensors", str(path)]) == 3
    expected = f"{key!r} = {twice_spin} declares dimension {twice_spin + 1}, more than"
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [b'{"twice_spin": %s, "matrix": [[[1.0, 0.0]]]}' % (b"1" * 5000), b'{"twice_spin": \xff}'],
    ids=["5000-digit integer", "not UTF-8"],
)
def test_unreadable_json_is_validation_error(tmp_path, capsys, content):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    assert main(["tensors", str(path)]) == 3
    assert str(path) in capsys.readouterr().err


# ------------------------------------------------------- bulk matrix read


def loop_matrix(raw, what):
    """The matrix field read entry by entry (transcribed from the loader's
    per-entry route): the [n, n] complex matrix, or its ValidationError."""
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
            numbers = isinstance(entry, (list, tuple)) and len(entry) == 2 and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry
            )
            if not numbers:
                raise ValidationError(
                    f"matrix entry at row {i}, col {j} must be a [re, im] number pair, "
                    f"got {entry!r}"
                )
            try:
                out[i, j] = complex(float(entry[0]), float(entry[1]))
            except OverflowError:
                raise ValidationError(
                    f"matrix entry at row {i}, col {j} is outside the float range"
                ) from None
    return out


def bulk_files(tmp_path):
    rng = np.random.default_rng(27)
    files = []
    for ts in (0, 1, 4, 44):
        files.append(write_state(tmp_path / f"s{ts}.json", ts, random_density(rng, ts).matrix))
    files.append(write_bipartite(
        tmp_path / "b23.json", 2, 3, random_bipartite_density(rng, 2, 3).matrix
    ))
    # integer entries, signed zeros, and a JSON true outside the matrix
    path = tmp_path / "ints.json"
    path.write_text('{"twice_spin": 1, "note": true, "matrix": '
                    '[[[1, -0.0], [0, 0]], [[-0.0, 0], [0, -0.0]]]}')
    files.append(str(path))
    path = tmp_path / "half.json"
    path.write_text('{"twice_spin": 1, "matrix": [[[0.5, 0], [0, -0.0]], [[0, 0.0], [0.5, 0]]]}')
    files.append(str(path))
    return files


def test_bulk_read_is_bytes_equal_to_entry_loop(tmp_path):
    for path in bulk_files(tmp_path):
        doc = json.loads(open(path).read())
        state = load_density_file(path)
        expected = loop_matrix(doc["matrix"], path)
        assert state.matrix.dtype == expected.dtype and state.matrix.shape == expected.shape
        assert state.matrix.tobytes() == expected.tobytes(), path


BIG = "1" + "0" * 400
REFUSED_MATRICES = {
    "string entry": '[[["0.5", 0], [0, 0]], [[0, 0], [0.5, 0]]]',
    "string pair": '[["0.5 0", [0, 0]], [[0, 0], [0.5, 0]]]',
    "boolean entry": "[[[0.5, 0], [0, 0]], [[0, 0], [true, 0]]]",
    "boolean false": "[[[0.5, false], [0, 0]], [[0, 0], [0.5, 0]]]",
    "null entry": "[[[0.5, 0], [0, null]], [[0, 0], [0.5, 0]]]",
    "over-long integer": f"[[[0.5, 0], [0, 0]], [[0, 0], [0.5, {BIG}]]]",
    "over-long integer among floats": f"[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [{BIG}, 0.0]]]",
    "over-long integers only": f"[[[{BIG}, 0], [0, 0]], [[0, 0], [1, 0]]]",
    "ragged row": "[[[0.5, 0], [0, 0]], [[0, 0]]]",
    "long row": "[[[0.5, 0], [0, 0], [0, 0]], [[0, 0], [0.5, 0]]]",
    "row not a list": "[[[0.5, 0], [0, 0]], 3]",
    "entry a number": "[[0.5, [0, 0]], [[0, 0], [0.5, 0]]]",
    "entry of three": "[[[0.5, 0, 0], [0, 0]], [[0, 0], [0.5, 0]]]",
    "entry of one": "[[[0.5], [0, 0]], [[0, 0], [0.5, 0]]]",
    "entry too deep": "[[[[0.5, 0]], [0, 0]], [[0, 0], [0.5, 0]]]",
    "all pairs of three": "[[[0.5, 0, 0], [0, 0, 0]], [[0, 0, 0], [0.5, 0, 0]]]",
    "empty": "[]",
    "not a list": '{"a": 1}',
    "NaN entry": "[[[0.5, 0], [0, 0]], [[0, 0], [NaN, 0]]]",
    "infinite entry": "[[[0.5, 0], [0, 0]], [[0, 0], [Infinity, 0]]]",
}


@pytest.mark.parametrize("name", list(REFUSED_MATRICES))
def test_bulk_read_keeps_every_refusal(tmp_path, name):
    path = tmp_path / "refused.json"
    path.write_text(f'{{"twice_spin": 1, "matrix": {REFUSED_MATRICES[name]}}}')
    raw = json.loads(path.read_text())["matrix"]
    try:
        expected = loop_matrix(raw, str(path))
    except ValidationError as exc:
        with pytest.raises(ValidationError) as info:
            load_density_file(str(path))
        assert str(info.value) == str(exc)
        return
    # finite-pair matrices that parse reach the state check: the same refusal
    with pytest.raises(ValidationError) as info:
        load_density_file(str(path))
    with pytest.raises(ValidationError) as oracle:
        try:
            DensityMatrix(0.5, expected)
        except DomainError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    assert str(info.value) == str(oracle.value)
