"""Span timer for the traced benchmark run.

The tracer wraps the public functions and methods of the package from outside: it
replaces each target with a timing wrapper in every loaded `ambcest` module that holds
a reference to it (a function imported by name into another module is a separate
reference), and puts the originals back on `uninstall`.  Nothing under `src/` changes.

Each target aggregates a call count, total time and self time.  Self time is the total
minus the time spent in wrapped calls made from inside it, so nested targets (for
example `ResidualDenoiser.forward` around `Conv2D.forward`) do not double-count.
A target may also carry a counter: a function of the call's arguments and result that
returns extra quantities (computed FLOPs, bytes) to add up per call.
"""

import functools
import sys
import time


class Tracer:
    """Installs timing wrappers around named targets and aggregates their spans."""

    def __init__(self, targets):
        # targets: list of (name, owner, attribute, counter-or-None); owner is a module
        # or a class
        self._targets = targets
        self._saved = []
        self._stack = []
        self.stats = {name: {"count": 0, "total_s": 0.0, "self_s": 0.0} for name, *_ in targets}
        self.extra = {name: {} for name, *_ in targets}

    def _wrap(self, name, fn, counter):
        stats, extra, stack = self.stats[name], self.extra[name], self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stats["count"] += 1
                stats["total_s"] += dt
                stats["self_s"] += dt - inner
                if stack:
                    stack[-1] += dt
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    extra[key] = extra.get(key, 0) + value
            return result

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "ambcest" or n.startswith("ambcest.")]
        for name, owner, attr, counter in self._targets:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if getattr(m, attr, None) is original
            ]
            for holder in holders:
                self._saved.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()
