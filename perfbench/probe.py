"""Set-up probe, run in a fresh process by run.py.

    python3 perfbench/probe.py <src dir> <jobs as JSON> <seed>

Times from before ``import pgrv`` until the first draw has returned on
each (kind, b, z) job, and prints the seconds.  numpy and scipy are
imported through pgrv, so their import counts too.
"""

import json
import sys
import time

src, jobs, seed = sys.argv[1], json.loads(sys.argv[2]), int(sys.argv[3])
t0 = time.perf_counter()
sys.path.insert(0, src)
import pgrv  # noqa: E402
import workloads  # noqa: E402

workloads.run_setup(jobs, pgrv.RngStream(seed))
print(repr(time.perf_counter() - t0))
