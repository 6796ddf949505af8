"""perfbench: the benchmark of record for the U1 back-end simulator.

``python3 perfbench/run.py`` is the entry point; see ``perfbench/README.md``.
"""
