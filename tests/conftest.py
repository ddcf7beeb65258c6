"""Shared test setup.

``pythonpath`` in pyproject.toml makes ``src`` importable inside the test
process; the tests also start the CLI as ``python -m framelab`` in child
processes, which see only the environment, so ``src`` is put on their
``PYTHONPATH`` as well.

Every hypothesis test runs under one profile, loaded here before any test
module builds its ``settings``: derandomized, with no example database and
no deadline, so the suite draws the same examples on every run and every
machine.  A test's own ``settings`` set ``max_examples`` alone.
"""

import os

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


def pytest_configure(config):
    src = str(config.rootpath / "src")
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if src not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in [src, *paths] if p)
