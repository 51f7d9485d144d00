"""End-to-end and per-layer benchmark for the powerauctions package.

Run it from the repository root:

    python3 perfbench/run.py --workload paper_cli --seed 1 --seconds 25 --trace 0

See perfbench/README.md for the workloads, the metrics and the checks.
"""
