"""Spans around calls into flowspec's public functions, recorded from the
benchmark's own code.

``Tracer.install`` replaces each function named in ``TIMED`` by a wrapper,
in its own module and wherever another flowspec module imported it by name
(``cli`` does), so calls the program makes between layers are caught too.
Each call becomes a span ``(name, start, end, parent, counts)``, where the
counts of the work done are taken from the call's arguments and result.  ``uninstall``
restores the original functions, so untraced code runs unwrapped.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from functools import wraps

TIMED = {
    "replay": ("check_suite", "explore"),
    "patterns": ("lint",),
    "cli": ("run",),
    "dsl": ("parse_dsl", "serialize_dsl"),
    "xmlio": ("parse_xml",),
    "feature": ("parse_feature", "format_feature"),
    "emit": ("emit_feature",),
    "infer": ("infer_model",),
    "canon": ("isomorphic",),
    "dot": ("render_dot",),
    "skeletons": ("emit_skeletons",),
    "generator": ("random_model",),
}


def _explore_counts(args, result):
    return {
        "replay.explore.steps": sum(len(run) for run in result),
        "replay.explore.configs": len({s.after for run in result for s in run}),
    }


# Counts of the work a call did, from its arguments and result.
COUNTS = {
    "replay.check_suite": lambda args, result: {"replay.scenarios": len(args[1].scenarios)},
    "replay.explore": _explore_counts,
    "dsl.parse_dsl": lambda args, result: {"dsl.bytes_parsed": len(args[0].encode())},
    "feature.parse_feature": lambda args, result: {"feature.bytes": len(args[0].encode())},
    "feature.format_feature": lambda args, result: {"feature.bytes": len(result.encode())},
    "emit.emit_feature": lambda args, result: {"emit.scenarios": len(result.scenarios)},
}


class Tracer:
    def __init__(self):
        # (name, start, end, parent index, work counts or None)
        self.spans: list[tuple[str, float, float, int | None, dict | None]] = []
        self._stack: list[int] = []
        self._taken = 0
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        count = COUNTS.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, None))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, None)
            if count is not None:
                self.spans[index] = (name, start, end, parent, count(args, result))
            return result

        return wrapper

    def install(self):
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "flowspec" or key.startswith("flowspec.")
        ]
        for layer, names in TIMED.items():
            home = sys.modules[f"flowspec.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._originals.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in self._originals:
            setattr(mod, attr, original)
        self._originals.clear()

    def take(self, scale) -> dict[str, float]:
        """Totals over the spans recorded since the last ``take``.

        Per span name: ``<name>_s`` inclusive seconds and ``<name>.calls``;
        ``cli.self_s``, the time in ``cli.run`` outside traced calls; and
        the work counts.  A span's seconds are multiplied by
        ``scale(midpoint)``."""
        out: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        first = self._taken
        seconds = [(end - start) * scale((start + end) / 2) for _, start, end, _, _ in self.spans[first:]]
        for (name, _, _, parent, counts), s in zip(self.spans[first:], seconds):
            out[f"{name}_s"] += s
            out[f"{name}.calls"] += 1
            for key, value in (counts or {}).items():
                out[key] += value
            if parent is not None:
                child_time[parent] += s
        for i, ((name, _, _, _, _), s) in enumerate(zip(self.spans[first:], seconds), first):
            if name == "cli.run":
                out["cli.self_s"] += s - child_time[i]
        self._taken = len(self.spans)
        return out
