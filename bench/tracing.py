"""In-memory spans recorded around logitboot's public functions.

Spans are installed from the benchmark's own files: :meth:`Tracer.installed`
replaces a public name in the namespace of the module that calls it, so
``logitboot.inference.fit_mle`` times each refit made by the bootstrap and
the jackknife while ``logitboot.cli.fit_mle`` times the CLI's own fit.  The
program's files are left untouched.

This module imports only the standard library, so a traced CLI child can
load it before ``import logitboot`` without changing what that import costs.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

# (module, name) pairs wrapped in a traced process, grouped by caller.
CALL_SITES = (
    ("logitboot.cli", ("load_csv", "encode", "simulate", "save_csv", "fit_mle",
                       "bootstrap_fit", "jackknife_estimates", "percentile_ci",
                       "wald_ci", "bca_ci", "acceleration_from_jackknife",
                       "split_sample_fit", "holdout_validate", "probability_curves")),
    ("logitboot.inference", ("fit_mle", "resample_indices")),
    ("logitboot.validation", ("fit_mle",)),
)


def _measure(result) -> dict:
    """Counts taken from a wrapped call's result (rows, iterations, kept)."""
    kind = type(result).__name__
    if kind == "FitResult":
        return {"iterations": result.iterations}
    if kind == "BootstrapResult":
        return {"kept": result.converged, "requested": result.requested}
    if kind == "list" and result and type(result[0]).__name__ == "ObservationRecord":
        return {"rows": len(result)}
    if kind == "ndarray" and result.ndim == 2:
        return {"kept": result.shape[0]}
    return {}


def _size(args) -> dict:
    data = args[0] if args else None
    n = getattr(data, "n_observations", None)
    if n is None and isinstance(data, (list, tuple)):
        n = len(data)
    return {} if n is None else {"n": n}


class Tracer:
    """Collects spans: name, start, end, parent index, operation id, counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        index = len(self.spans)
        record = {"name": name, "op": self.op,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.monotonic(), "end": None, **counts}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.monotonic()

    def wrap(self, name: str, func):
        def traced(*args, **kwargs):
            with self.span(name, **_size(args)) as record:
                result = func(*args, **kwargs)
                record.update(_measure(result))
            return result
        traced.__wrapped__ = func
        return traced

    @contextmanager
    def installed(self):
        """Wrap every call site in :data:`CALL_SITES` while the block runs."""
        saved = []
        for module_name, names in CALL_SITES:
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, self.wrap(f"{module_name}.{name}", original))
        try:
            yield self
        finally:
            for module, name, original in saved:
                setattr(module, name, original)

    def dump(self, path, **extra) -> None:
        """Write ``{"spans": [...], **extra, "dumped": now}`` as JSON."""
        record = {"spans": self.spans, **extra, "dumped": time.monotonic()}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
