"""Print the set-up time of one workload in a fresh process.

    python3 perfbench/probe_setup.py <workload> <seed>

Set-up is what ``run.py`` does before its first round: import the program,
parse the workload's config and generate its population.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
root = Path.cwd()
sys.path.insert(0, str(root / "src"))
import workloads  # noqa: E402

workloads.make(sys.argv[1], root, int(sys.argv[2]))
print(time.perf_counter() - start)
