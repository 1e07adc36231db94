"""The repository's end-to-end benchmark: real training rounds, measured.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
drives rounds of one workload (see :mod:`perfbench.workloads`) through the
public ``SessionBuilder``/``Session`` API in a closed loop and prints one JSON
result line last.  ``--trace 1`` re-runs the workload with every layer's
public functions wrapped from :mod:`perfbench.layers` and reports per-layer
metrics instead of end-to-end ones.
"""
