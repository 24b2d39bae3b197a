"""Record the output digests the sweep workloads check against.

Run from the repository root after a change that is *meant* to move
simulated results (never after a speed-only change)::

    python3 hostbench/record_digests.py

Every point of both Figure 3 sweeps (the instrumented workload's points
are a subset) is simulated uninstrumented.  Points of seed-free apps
are simulated at input seeds 0 and 1 and must agree; points of the
seeded matrix apps are recorded for every input seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import sweeps  # noqa: E402


def main() -> int:
    digests = {}
    for system in sweeps.SYSTEMS:
        for point in sweeps.fig3_points(system):
            app = point[1]
            seeds = (
                range(sweeps.INPUT_SEEDS) if app in sweeps.SEEDED_APPS else (0, 1)
            )
            found = {
                sweeps.point_key(point, s): sweeps.result_digest(
                    sweeps.simulate(point, s)
                )
                for s in seeds
            }
            if app not in sweeps.SEEDED_APPS and len(set(found.values())) != 1:
                print(f"{point}: seed-dependent output; add it to SEEDED_APPS")
                return 1
            digests.update(found)
    sweeps.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {sweeps.DIGESTS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
