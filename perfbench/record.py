"""Regenerate recorded.json: the deep-schedule final fidelities.

For every (source, target) of the deep-schedule workload it runs
run_schedule for n = 0..6 at cutoff 30 and stores the final fidelities,
which the workload's gate compares against. Run from the repository root:

    python3 perfbench/record.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import catamp  # noqa: E402
from workloads import CUTOFF, RECORDED_PATH, DeepSchedule  # noqa: E402


def main() -> int:
    combos = ([("squeezed-photon", 0.0, t) for t in DeepSchedule.squeezed_targets]
              + [("mixed-photon", p, t) for t in DeepSchedule.mixed_targets
                 for p in DeepSchedule.mixed_p])
    recorded = {}
    for kind, p, t in combos:
        source = catamp.SourceModel(kind, p=p)
        recorded[DeepSchedule.key(kind, p, t)] = [
            catamp.run_schedule(catamp.plan_schedule(t, n), source, cutoff=CUTOFF)[-1].fidelity
            for n in range(DeepSchedule.max_n + 1)]
    RECORDED_PATH.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
