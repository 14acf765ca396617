"""Time one set-up in a fresh interpreter: import proxbo and build the landscape.

Usage: python3 setup_probe.py nk N K V SEED | python3 setup_probe.py lookup PATH
Prints the elapsed seconds. The caller puts the repository's `src` on
PYTHONPATH.
"""

import sys
from time import perf_counter

t0 = perf_counter()
import proxbo  # noqa: E402

if sys.argv[1] == "nk":
    n, k, v, seed = (int(a) for a in sys.argv[2:6])
    proxbo.make_nk(n, k, v, seed)
else:
    proxbo.load_lookup(sys.argv[2])
print(repr(perf_counter() - t0))
