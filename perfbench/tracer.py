"""Span tracer that wraps spintorus functions from outside the package.

``Tracer.install()`` replaces every public function of the layer modules,
the subcommand bodies in ``cli.COMMANDS`` and the named checks in
``checks.CHECKS`` with a timing wrapper, in every ``spintorus`` module that
bound the function by name. Spans are aggregated in memory per
(name, parent): call count, outermost inclusive time and self time (span
duration minus the time covered by child spans). ``restore()`` puts the
original functions back.

The wrapper's own work lands in the spans it runs in: the part before and
after the timed window in the caller's self time, the part inside it in the
callee's. ``install()`` first times the wrapper on an empty function
(``calibrate``) and every span subtracts that cost for itself and for the
traced calls it makes, so self and inclusive times estimate the untraced
program; ``wrapper_s`` is the total subtracted.
"""
from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

LAYERS = ("cli", "checks", "rmatrix", "monodromy", "tensor_core",
          "sov_basis", "spectrum", "eigenstate")

# The recursive per-element report renderer; wrapping it would add a span
# per JSON value, and its time is cli self time either way.
SKIP = {"cli.render_json"}

# Calibration: median over TRIALS loops of CALLS calls of an empty function.
CALLS, TRIALS = 50_000, 5


class Tracer:
    def __init__(self, caller_s: float = 0.0, callee_s: float = 0.0):
        # Wrapper cost per traced call, outside / inside the callee's window.
        self.caller_s, self.callee_s = caller_s, callee_s
        # Open spans: [name, child seconds, direct child calls, nested calls].
        self.stack = []
        self.depth = {}        # name -> open spans, so recursion counts once
        self.spans = {}        # (name, parent) -> [calls, outer_s, self_s]
        self.counts = [0, 0]   # traced calls, of which root calls (no parent)
        self.root_s = 0.0      # raw duration of root spans
        self.block_points = set()
        self._undo = []

    def _wrap(self, name, fn):
        stack, depth, spans, counts = self.stack, self.depth, self.spans, self.counts
        caller_s, callee_s = self.caller_s, self.callee_s
        points = self.block_points if name == "monodromy.monodromy_blocks" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if points is not None:
                points.add((complex(args[0]), args[1]))
            stack.append([name, 0.0, 0, 0])
            depth[name] = depth.get(name, 0) + 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                _, children, direct, nested = stack.pop()
                depth[name] -= 1
                counts[0] += 1
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    parent[2] += 1
                    parent[3] += 1 + nested
                    parent = parent[0]
                else:
                    parent = None
                    counts[1] += 1
                    self.root_s += duration
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                if depth[name] == 0:
                    rec[1] += duration - callee_s - nested * (caller_s + callee_s)
                rec[2] += duration - children - direct * caller_s - callee_s
        return traced

    @staticmethod
    def calibrate():
        """Median wrapper cost per call (caller side, callee side), seconds."""
        def leaf():
            pass

        def loop(fn):
            for _ in range(CALLS):
                fn()

        samples = []
        for _ in range(TRIALS):
            start = time.perf_counter()
            loop(leaf)
            bare = time.perf_counter() - start
            probe = Tracer()
            probe._wrap("loop", loop)(probe._wrap("leaf", leaf))
            totals = probe.totals()
            samples.append(((totals["loop"]["self_s"] - bare) / CALLS,
                            totals["leaf"]["self_s"] / CALLS))
        return tuple(statistics.median(x) for x in zip(*samples))

    def install(self) -> None:
        modules = {layer: sys.modules[f"spintorus.{layer}"] for layer in LAYERS}
        wrappers = {}                  # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in SKIP
                        or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[id(obj)] = self._wrap(name, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "spintorus" and not mod_name.startswith("spintorus."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        commands = modules["cli"].COMMANDS
        for key, fn in list(commands.items()):
            self._undo.append((commands, key, fn))
            commands[key] = wrappers.get(id(fn), fn)
        checks = modules["checks"]
        self._undo.append((checks, "CHECKS", checks.CHECKS))
        checks.CHECKS = tuple((label, self._wrap(f"checks.{label}", fn), tol)
                              for label, fn, tol in checks.CHECKS)

    def restore(self) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    def wrapper_s(self) -> float:
        """Wrapper cost subtracted from the spans: the callee side of every
        traced call and the caller side of every call made inside a span."""
        calls, roots = self.counts
        return calls * self.callee_s + (calls - roots) * self.caller_s

    def totals(self) -> dict:
        """Per span name: calls, outermost inclusive seconds, self seconds."""
        out = {}
        for (name, _), (calls, outer, own) in self.spans.items():
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += outer
            rec[2] += own
        return {name: {"calls": c, "s": s, "self_s": own}
                for name, (c, s, own) in out.items()}
