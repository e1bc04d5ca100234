"""Time qroute's import and device set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py SPEC

Prints one JSON object mapping each set-up span to its duration in seconds,
and ``reference`` to the mean of the reference loop timed just before and
just after set-up.  The clock starts after interpreter start-up, at
``import qroute``.
"""
import json
import sys

import frontend
from run import reference_s

if __name__ == "__main__":
    frontend.use_source_tree()
    tr = frontend.Tracer()
    before = reference_s()
    frontend.device_setup(sys.argv[1], tr)
    after = reference_s()
    out = {name: (end - start) / 1e9 for name, start, end, _ in tr.spans}
    print(json.dumps({**out, "reference": (before + after) / 2}))
