"""The CLI's tables, byte for byte against golden copies.

Each run in ``RUNS`` prints one CSV table, and ``golden/<name>.csv``
holds the bytes that run printed when the file was recorded. A run goes
through ``python -m catamp.cli`` in a fresh process with one BLAS
thread, the setting the tables are published with. A change that moves
a digit on purpose (a truncation fix) records the tables again with
``python tests/test_tables.py`` and names every changed cell.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import catamp

GOLDEN = Path(__file__).with_name("golden")
SRC = Path(catamp.__file__).resolve().parents[1]

RUNS = {
    "fig2": ["fig2"],
    "fig2_eta06": ["fig2", "--eta", "0.6"],
    "fig3": ["fig3"],
    "fig4": ["fig4"],
    "fig4_eta06": ["fig4", "--eta", "0.6"],
    "purify": ["purify"],
    "amplify": ["amplify", "--alpha-target", "2.0", "--iterations", "4"],
    "amplify_mixed": ["amplify", "--alpha-target", "2.0", "--iterations", "4",
                      "--source", "mixed-photon", "--p", "0.3"],
    "amplify_ideal_eta08": ["amplify", "--alpha-target", "2.0", "--iterations", "4",
                            "--source", "ideal-cat", "--eta", "0.8"],
    "amplify_target4": ["amplify", "--alpha-target", "4.0", "--iterations", "5"],
    "amplify_mixed_cutoff40": ["amplify", "--alpha-target", "1.5", "--iterations", "3",
                               "--source", "mixed-photon", "--p", "0.1", "--cutoff", "40"],
}


def render(args) -> bytes:
    """Standard output of ``catamp <args>`` in a fresh one-thread process."""
    one = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    proc = subprocess.run([sys.executable, "-m", "catamp.cli", *args], capture_output=True,
                          env={**os.environ, **one, "PYTHONPATH": str(SRC)}, check=False)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize("name", sorted(RUNS))
def test_table_matches_golden(name):
    assert render(RUNS[name]) == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, args in RUNS.items():
        (GOLDEN / f"{name}.csv").write_bytes(render(args))
