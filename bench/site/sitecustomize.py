"""Host-speed sampling inside a child the benchmark times.

The benchmark puts this directory on a child's PYTHONPATH, so `site` imports
this module at interpreter start.  When BENCH_PROBE_FILE is set, the child
probes its own CPU (see ../hostspeed.py) from here until it exits, and then
writes its probes there for the parent.  Otherwise it does nothing.
"""
import os
import sys

if os.environ.get("BENCH_PROBE_FILE"):
    sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    try:
        import hostspeed
    finally:
        sys.path.pop()
    hostspeed.sample_until_exit(os.environ["BENCH_PROBE_FILE"])
