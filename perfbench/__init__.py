"""The repository benchmark: three closed-loop workloads and a traced run.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload declared in ``BENCHMARK.json`` and prints its metrics,
the last line being one JSON object.  ``--trace 0`` times the workload
from outside and reports the end-to-end metrics, with times scaled to a
reference host (see :mod:`perfbench.hostspeed`); ``--trace 1`` wraps
each layer's public functions (see :mod:`perfbench.tracing`) and reports
the per-layer metrics.  ``perfbench/record.json`` records why each
workload exists and which end-to-end metric each layer should move.
"""
