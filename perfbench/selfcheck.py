"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs each workload's tiny variant end to end through the benchmark's own
code paths and checks that

1. at the canonical seed it passes against its recorded digest;
2. traced, its output equals the bare output (tracing is passive);
3. at a held-out seed every invariant still holds, while the digest
   differs from the one recorded for the canonical seed;
4. against a deliberately wrong recorded digest it is reported as a
   failed run, with every operation counted as failed.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.run import DIGESTS_PATH, run_bench, run_traced  # noqa: E402
from perfbench.workloads import CANONICAL_SEED, WORKLOADS  # noqa: E402

#: A seed no digest is recorded for.
HELD_OUT_SEED = 1009


def check_workload(workload, tiny_digest: str) -> list[tuple[str, bool]]:
    recorded = {str(CANONICAL_SEED): tiny_digest}
    bare = run_bench(workload, workload.tiny, CANONICAL_SEED, 0, recorded)
    traced = run_traced(workload, workload.tiny, CANONICAL_SEED, recorded)
    held_out = run_bench(workload, workload.tiny, HELD_OUT_SEED, 0, recorded)
    wrong = run_bench(workload, workload.tiny, CANONICAL_SEED, 0,
                      {str(CANONICAL_SEED): "0" * 64})
    return [
        ("canonical seed matches its recorded digest",
         bare.correct and bare.digest == tiny_digest),
        ("traced output equals the bare output",
         traced.correct and traced.digest == bare.digest),
        (f"held-out seed {HELD_OUT_SEED} keeps every invariant",
         held_out.correct),
        ("held-out seed gives another digest",
         held_out.digest not in ("", tiny_digest)),
        ("a wrong recorded digest fails the run",
         not wrong.correct and wrong.failed >= 1
         and wrong.metrics["ok_rate"] == 0.0),
    ]


def main() -> int:
    digests = json.loads(DIGESTS_PATH.read_text())["workloads"]
    ok = True
    for name, workload in WORKLOADS.items():
        for claim, holds in check_workload(workload, digests[name]["tiny"]):
            ok = ok and holds
            print(f"{name}: {'ok  ' if holds else 'FAIL'} {claim}",
                  flush=True)
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
