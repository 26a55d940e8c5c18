"""Installs the benchmark's tracer in every Python process of a traced run.

The benchmark puts this directory first on ``PYTHONPATH`` and sets
``MORLBENCH_TRACE_DIR`` only for traced runs; otherwise it is never on the
path and this file does nothing.
"""

import os

if os.environ.get("MORLBENCH_TRACE_DIR"):
    import benchtrace

    benchtrace.install(os.environ["MORLBENCH_TRACE_DIR"])
