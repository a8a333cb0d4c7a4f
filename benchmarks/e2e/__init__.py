"""The repo's end-to-end benchmark (see README.md in this directory).

``run.py`` is the one command; ``BENCHMARK.json`` at the repo root names
the workloads and metrics it must print.
"""
