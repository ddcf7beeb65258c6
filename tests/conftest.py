"""Shared test setup.

``pythonpath`` in pyproject.toml makes ``src`` importable inside the test
process; the tests also start the CLI as ``python -m framelab`` in child
processes, which see only the environment, so ``src`` is put on their
``PYTHONPATH`` as well.
"""

import os


def pytest_configure(config):
    src = str(config.rootpath / "src")
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if src not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in [src, *paths] if p)
