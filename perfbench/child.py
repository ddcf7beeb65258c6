"""One framelab CLI run, as a fresh process, with benchmark-side timing.

Usage: python3 child.py STATS_JSON TRACE -- <framelab CLI arguments>

Runs ``framelab.cli.main`` on the given arguments and writes STATS_JSON
with the time taken by ``import framelab.cli`` and the CLOCK_MONOTONIC
instants at which ``cli.run_config`` was entered and left; the parent
subtracts its own spawn instant from those.  With TRACE=1 every public
function and public method of every ``framelab`` module is wrapped first,
so STATS_JSON also holds, per function, its call count, inclusive time and
self time (inclusive time minus that of traced calls made inside it).

The program itself is not modified: the wrappers are installed from here,
on every module attribute that is bound to the function, because framelab
modules import each other's functions by name.
"""

from __future__ import annotations

import enum
import functools
import inspect
import json
import sys
import time


# Computed (not measured) bytes of the dense complex matrix a call forms,
# from its result: the analysis matrix itself, and the P x P Gabor Gram
# behind the P eigenvalues returned.
BYTES_HOOKS = {
    "operators.analysis_matrix": lambda result: int(result.size) * 16,
    "shiftinv.gabor_gram_spectrum": lambda result: int(result.size) ** 2 * 16,
}


class Tracer:
    """Call counts, inclusive and self time per wrapped function."""

    def __init__(self):
        self.stats = {}  # name -> [calls, inclusive_s, self_s, bytes]
        self._stack = []  # per active call: time spent in traced callees

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        hook = BYTES_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                stats[3] += hook(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap public functions and class methods of all framelab modules."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "framelab" or n.startswith("framelab."))
        ]
        wrappers = {}  # id(original function) -> wrapper
        for mod in modules:
            short = mod.__name__.removeprefix("framelab.")
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self.wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                    self._wrap_class(f"{short}.{name}", obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])

    def _wrap_class(self, prefix: str, cls) -> None:
        for attr, val in list(vars(cls).items()):
            if attr == "__init__" and inspect.isfunction(val):
                setattr(cls, attr, self.wrap(prefix, val))
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(val):
                setattr(cls, attr, self.wrap(f"{prefix}.{attr}", val))
            elif isinstance(val, (classmethod, staticmethod)):
                wrapped = self.wrap(f"{prefix}.{attr}", val.__func__)
                setattr(cls, attr, type(val)(wrapped))


def main(argv) -> int:
    stats_path, trace, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit(__doc__)
    t0 = time.perf_counter()
    import framelab.cli as cli

    stats = {"import_s": time.perf_counter() - t0}
    tracer = None
    if trace == "1":
        tracer = Tracer()
        tracer.install()
    run_config = cli.run_config

    def timed_run_config(config, out_dir):
        stats["enter"] = time.monotonic()
        try:
            return run_config(config, out_dir)
        finally:
            stats["exit"] = time.monotonic()

    cli.run_config = timed_run_config
    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            stats["spans"] = tracer.stats
        with open(stats_path, "w") as fh:
            json.dump(stats, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
