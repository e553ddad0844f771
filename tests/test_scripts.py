import importlib.util
from pathlib import Path

import numpy as np

from spinphase import DistributionKind, singlet_profile

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_singlet_profiles_table_reads_back_its_csv(tmp_path, capsys):
    script = load_script("singlet_profiles")
    step = 2.5
    script.run(tmp_path, step, [1, 4])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["2s", "kind", "peak_deg", "max", "min"]
    assert len(lines) == 1 + 2 * (len(DistributionKind) + 1)
    deg = np.arange(0.0, 360.0 + step / 2, step)
    rows = iter(lines[1:])
    for ts in (1, 4):
        for kind in DistributionKind:
            fields = next(rows).split()
            assert fields[:2] == [str(ts), kind.value]
            # the direct profile, which the table once recomputed
            vals = singlet_profile(kind, ts / 2.0, np.deg2rad(deg))
            assert float(fields[2]) == deg[int(np.argmax(vals))] == 180.0
            assert float(fields[3]) == float(f"{np.max(vals):.6e}")
            assert float(fields[4]) == float(f"{np.min(vals):.6e}")
        out = tmp_path / f"singlet_profile_2s{ts}.csv"
        assert next(rows) == f"wrote {out}"
        assert out.read_text(encoding="utf-8").startswith("theta12_deg,p,p_normalized,q,f\n")
