"""Set-up probe, run in a fresh interpreter by ``run.py``.

    python3 bench/probe.py WORKLOAD     (with src/ on PYTHONPATH)

Imports togglekit, then makes one warm call of each kind of operation the
workload runs.  Prints [perf_counter once togglekit is imported, seconds
spent in the warm calls].
"""

import json
import sys
import time

import togglekit  # noqa: F401  (the import is what is timed)

imported = time.perf_counter()

import importlib  # noqa: E402

wl = importlib.import_module(f"wl_{sys.argv[1]}")
t0 = time.perf_counter()
wl.warm()
print(json.dumps([imported, time.perf_counter() - t0]))
