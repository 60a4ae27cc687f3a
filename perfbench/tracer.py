"""Spans around the calls into bridgescore's modules, recorded from outside.

The tracer replaces module-level functions with timing wrappers. Modules bind
imported names into their own namespace (`from .bridge import residuals`),
so every module attribute that is the original function object is
replaced, not just the one in the defining module. Spans are kept in memory
as [name, start, end, parent] and written out when the run ends; a name
that no longer exists in the package is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import time
from collections import defaultdict

# The public functions whose calls become spans, by module. Private helpers
# and tiny per-element helpers (stable_seed, encode) stay unwrapped: their
# cost is charged to the caller's self time.
TRACED = {
    "cli": ["main"],
    "fileio": ["read_trajectories", "write_trajectories", "file_digest",
               "read_sigma_model", "write_sigma_model", "write_trainer_state"],
    "bridge": ["sample_bridge", "pooled_covariance", "mahalanobis_trace", "residuals"],
    "score": ["bbscore"],
    "numerics": ["chi_square_sf"],
    "evalsuite": ["make_shuffle_set", "discrimination_accuracy"],
    "encoder": ["train", "nll_gradient", "update_sigma_hat", "nll_objective"],
}


class Tracer:
    """Collects spans while installed; `install` returns the names found absent."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.notes: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, notes = self.spans, self.stack, self.notes
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if note is not None:
                note(notes, args, result)
            return result

        return traced

    def install(self, package) -> list[str]:
        modules = [importlib.import_module(f"{package.__name__}.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)]
        absent = []
        for short, names in TRACED.items():
            home = getattr(package, short, None)
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    absent.append(f"{short}.{fname}")
                    continue
                wrapper = self._wrap(f"{short}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        return absent

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def summary(self, lo: int = 0) -> dict[str, dict[str, float]]:
        """Per span name, over spans[lo:]: calls, inclusive seconds and self seconds.

        A span's self time is its duration minus that of its direct children.
        """
        spans = self.spans[lo:]
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= lo:
                child[parent - lo] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                                                "self_s": 0.0})
        for (name, start, end, _), inner in zip(spans, child):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - inner
        return dict(out)

    def dump(self, path, extra: dict) -> None:
        """Write every span recorded, times relative to the first, as compact JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "fields": ["name", "start_s", "end_s", "parent"], "spans": rows},
                      fh, separators=(",", ":"))


# Counters taken from a call's positional arguments and result; a call made
# with other arguments than the package makes today is not counted.


def _note_read(notes, args, result):
    notes["docs_read"] += len(result[0])
    if args:
        notes["bytes_read"] += os.path.getsize(args[0])


def _note_write(notes, args, result):
    if args:
        notes["bytes_written"] += os.path.getsize(args[0])


def _note_sf(notes, args, result):
    if len(args) > 1:
        notes["max_dof"] = max(notes["max_dof"], float(args[1]))


def _note_copies(notes, args, result):
    notes["copies_made"] += len(result)


_NOTES = {
    "fileio.read_trajectories": _note_read,
    "fileio.write_trajectories": _note_write,
    "numerics.chi_square_sf": _note_sf,
    "evalsuite.make_shuffle_set": _note_copies,
}
