"""One cold set-up of a workload in a fresh interpreter, a sample of run.py's setup_s.

    python3 perfbench/setup_once.py <workload> <seed> <work_dir>

run.py starts this once for each extra set-up sample and waits for it. It
prints one JSON line: the set-up's seconds, the jobs its warm-up pass
attempted and the failures among them.
"""

import json
import sys
from pathlib import Path

import run


def main() -> int:
    workload, seed, work_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(run.SRC))
    seconds, _, warmup = run.set_up(workload, seed, work_dir)
    print(json.dumps({"setup_s": seconds, "attempted": len(warmup.latencies),
                      "failures": warmup.failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
