"""Seeded end-to-end and per-layer benchmark of the repro platform.

Run ``python3 perfbench/run.py --workload <name> --seed <n>``; see
``perfbench/README.md``.
"""
