"""Every entry of ``run_schedule`` on a fixed set of schedules, held to
the bit against its recorded digest.

``golden/stages.json`` keeps, per (source, p, target) of ``CASES`` at
cutoff 30, the sha256 of every entry ``run_schedule`` gave for n = 0..6
stages when the file was recorded, on the recording machine's numpy and
BLAS: each entry's output matrix (dtype and bytes), probability,
fidelity, purity and ``leakage_warning``. The cases are fig4's default
targets from the squeezed photon and the mixed photon at target 0.5, so
a change to the stage, the sources or the judging that claims to leave
every entry bit-identical is checked here rather than by hand. A change
meant to move bits records the file again with
``python tests/test_stages.py`` and says so.
"""

import hashlib
import json
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from catamp import Schedule, SourceModel, run_schedule
from catamp.cli import FIG4_GRID

DIGESTS = Path(__file__).with_name("golden") / "stages.json"
CUTOFF = 30
MAX_N = 6
# fig4's default targets from the squeezed photon, and the mixed photon
# at target 0.5 for three production inefficiencies
CASES = ([("squeezed-photon", 0.0, t) for t in FIG4_GRID]
         + [("mixed-photon", p, 0.5) for p in (0.05, 0.15, 0.25)])


def _case_id(kind, p, target):
    """One case's key in the digest file, e.g. ``mixed-photon p=0.05 0.5``."""
    return f"{kind} p={p} {target}"


@cache  # the recording test reuses the digest tests' digests
def _digest(kind, p, target):
    """sha256 of every entry of the schedules of n = 0..MAX_N stages."""
    digest = hashlib.sha256()
    for n in range(MAX_N + 1):
        for res in run_schedule(Schedule(target, n), SourceModel(kind, p=p), cutoff=CUTOFF):
            m = res.output.matrix
            digest.update(m.dtype.str.encode())
            digest.update(m.tobytes())
            digest.update(np.array([res.probability, res.fidelity, res.purity,
                                    res.leakage_warning], dtype=np.float64).tobytes())
    return digest.hexdigest()


@cache
def _recorded():
    return json.loads(DIGESTS.read_text())


def _record(path):
    """Write every case's digest to ``path`` as sorted JSON."""
    digests = {_case_id(*case): _digest(*case) for case in CASES}
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def test_digest_file_names_exactly_the_cases():
    # a case added or dropped without recording the file again fails here
    assert sorted(_recorded()) == sorted(_case_id(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[_case_id(*case) for case in CASES])
def test_schedule_entries_are_bit_for_bit(case):
    # any byte of any entry of any depth that moves fails its case
    assert _digest(*case) == _recorded().get(_case_id(*case))


def test_recording_again_writes_the_same_bytes(tmp_path):
    # the recorded file is the first run, this is the second
    _record(tmp_path / "stages.json")
    assert (tmp_path / "stages.json").read_bytes() == DIGESTS.read_bytes()


if __name__ == "__main__":
    _record(DIGESTS)
