"""Repository-level pytest configuration.

Ensures ``src/`` is importable even when the package has not been installed
(e.g. in offline environments where ``pip install -e .`` cannot build an
editable wheel).
"""

import sys
from pathlib import Path

from hypothesis import Phase, settings

_SRC = Path(__file__).parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

#: Every property suite runs without hypothesis's shrink phase: shrinking a
#: failing example through a replay or a dataset route is unbounded and can
#: take minutes, while the unshrunk counterexamples are small already.
settings.register_profile(
    "repro", phases=[phase for phase in Phase if phase is not Phase.shrink])
settings.load_profile("repro")


def pytest_addoption(parser):
    """Scale knobs of the shared benchmark dataset (see benchmarks/conftest).

    Registered here (the rootdir conftest) so the options are recognised no
    matter which part of the tree is being run.
    """
    parser.addoption("--repro-users", action="store", type=int, default=900,
                     help="synthetic user population for the benchmark dataset")
    parser.addoption("--repro-days", action="store", type=float, default=10.0,
                     help="synthetic trace duration in days")
    parser.addoption("--repro-seed", action="store", type=int, default=2014,
                     help="seed of the synthetic workload")
