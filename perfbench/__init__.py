"""End-to-end benchmark of the Homework router reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
builds the router from ``src/``, runs one workload and prints one JSON
result line.  See ``perfbench/NOTES.md`` for the workloads, metrics and
the layer-to-metric predictions.
"""
