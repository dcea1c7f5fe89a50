"""The reproduction scripts run end to end, with asserts compiled out."""

import subprocess
import sys
from pathlib import Path

from test_cli import subprocess_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, "-O", str(SCRIPTS / name), *args],
        env=subprocess_env(), capture_output=True, text=True, timeout=120,
    )


def test_reproduce_family_partitions():
    proc = run_script("reproduce_family_partitions.py", "--max-r", "5", "--max-bg", "4")
    assert proc.returncode == 0, proc.stderr
    *rows, last = proc.stdout.splitlines()
    names = [row.split()[0] for row in rows]
    expected = [f"KG({2 * r - 1},{r - 1})" for r in range(2, 6)] + [
        f"BG({r - 1},{s - 1})" for r in range(2, 5) for s in range(2, 5)
    ]
    assert names == expected
    for row in rows:
        assert "valid=True count-ok=True" in row
        if row.startswith("KG"):
            assert row.endswith("extremal=True")
    assert last.startswith("all constructions verified")


def test_petersen_partition_data():
    proc = run_script("petersen_partition_data.py")
    assert proc.returncode == 0, proc.stderr
    assert "extremal disjointness-graph case: True" in proc.stdout.splitlines()
