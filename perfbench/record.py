"""Record the output digests the benchmark checks.

    python3 perfbench/record.py [--seeds 1-10] [--workloads a,b]

Writes ``perfbench/digests.json``: per workload, the digest of the tiny
variant at the canonical seed (checked by every run) and the digest of
the full-size workload at each listed seed and at the canonical seed
(checked by runs at those seeds).  Regenerate only after a change that
alters simulated behaviour on purpose, and review the new digests as a
separate step.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench.run import DIGESTS_PATH, measure  # noqa: E402
from perfbench.workloads import CANONICAL_SEED, WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"1,4,9"`` -> a sorted list of seeds."""
    seeds: set[int] = set()
    for part in text.split(","):
        low, __, high = part.partition("-")
        seeds.update(range(int(low), int(high or low) + 1))
    return sorted(seeds)


def _checked(workload, params, seed):
    it = measure(workload, params, seed)
    if it.problems:
        raise SystemExit(f"{workload.name} seed {seed}: "
                         + "; ".join(it.problems))
    print(f"{workload.name} seed {seed}: {it.digest} "
          f"({it.wall_s:.1f} s)", flush=True)
    return it.digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10",
                        help="full-size seeds to record (default 1-10)")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    seeds = sorted(set(parse_seeds(args.seeds)) | {CANONICAL_SEED})
    document = json.loads(DIGESTS_PATH.read_text())
    for name in args.workloads.split(","):
        workload = WORKLOADS[name]
        entry = document["workloads"].setdefault(name, {})
        entry["tiny"] = _checked(workload, workload.tiny, CANONICAL_SEED)
        entry["full"] = {str(seed): _checked(workload, workload.full, seed)
                         for seed in seeds}
    document["canonical_seed"] = CANONICAL_SEED
    DIGESTS_PATH.write_text(json.dumps(document, indent=2, sort_keys=True)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
