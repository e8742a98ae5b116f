"""Spans around tvkit's layer functions, installed from outside the package.

`install` wraps each function named in `LAYER_FUNCTIONS` and rebinds the
wrapper under every name that holds the original in any loaded tvkit
module.  That matters because `solvers`, `functionals`, `restore` and
`flow` import the `grid` operators by value: patching `tvkit.grid` alone
would miss every call they make.  Nothing under `src/` is edited.

Spans are kept in memory as ``[name, start, end, parent, job, attrs]``
lists and written as JSON lines by `write_jsonl` when the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module under tvkit, function, span name)
LAYER_FUNCTIONS = (
    ("grid", "convolve", "grid.convolve"),
    ("grid", "convolve_adjoint", "grid.convolve_adjoint"),
    ("grid", "gradient", "grid.gradient"),
    ("grid", "divergence", "grid.divergence"),
    ("functionals", "diffusion_weights", "functionals.diffusion_weights"),
    ("functionals", "apply_weighted_laplacian", "functionals.apply_weighted_laplacian"),
    ("functionals", "tv_objective", "functionals.tv_objective"),
    ("solvers", "conjugate_gradient", "solvers.conjugate_gradient"),
    ("solvers", "tv_restore_fixed_point", "solvers.tv_restore_fixed_point"),
    ("restore", "_kernel_step", "restore.kernel_step"),
    ("restore", "_image_times_kernel_adjoint", "restore.kernel_adjoint"),
    ("flow", "apply_tensor_diffusion", "flow.apply_tensor_diffusion"),
    ("flow", "flow_smoothness_weights", "flow.flow_smoothness_weights"),
)
SPAN_NAMES = tuple(label for _, _, label in LAYER_FUNCTIONS)
CONVOLUTIONS = ("grid.convolve", "grid.convolve_adjoint")
CG = "solvers.conjugate_gradient"
JOB = "job"

NAME, START, END, PARENT, JOB_ID, ATTRS = range(6)


def _convolve_bytes(args, kwargs):
    """Computed, not measured: nonzero taps x field bytes x 2."""
    field = np.asarray(args[0] if args else kwargs["f"])
    kernel = args[1] if len(args) > 1 else kwargs["kernel"]
    return {"bytes": int(np.count_nonzero(kernel.weights)) * field.nbytes * 2}


def _cg_outcome(result):
    _, iterations, converged = result
    return {"iters": int(iterations), "converged": bool(converged)}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index):
        self._stack.pop()
        self.spans[index][END] = time.perf_counter()

    @contextmanager
    def job_span(self, job_id):
        """Root span of one job; every layer span inside it carries its id."""
        self.job = job_id
        index = self._open(JOB)
        try:
            yield
        finally:
            self._close(index)
            self.job = None

    def wrap(self, name, fn):
        tracer = self
        on_args = _convolve_bytes if name in CONVOLUTIONS else None
        on_result = _cg_outcome if name == CG else None

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if on_args is not None:
                tracer.spans[index][ATTRS] = on_args(args, kwargs)
            elif on_result is not None:
                tracer.spans[index][ATTRS] = on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, job, attrs in self.spans:
                record = {"name": name, "start": start, "end": end,
                          "parent": parent, "job": job}
                if attrs:
                    record.update(attrs)
                out.write(json.dumps(record) + "\n")


@contextmanager
def install(tracer: Tracer):
    """Rebind every layer function, in every loaded tvkit module that holds
    it, to a traced wrapper; restore the originals on exit."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "tvkit" or n.startswith("tvkit."))]
    replaced = []
    try:
        for module_name, function, label in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(f"tvkit.{module_name}"), function)
            wrapper = tracer.wrap(label, original)
            for module in modules:
                names = [k for k, v in vars(module).items() if v is original]
                for attr in names:
                    setattr(module, attr, wrapper)
                    replaced.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        intervals = sorted(
            (max(spans[c][START], start), min(spans[c][END], end))
            for c in children.get(index, ())
        )
        covered, reach = 0.0, start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def job_layer_metrics(spans) -> dict[int, dict[str, float]]:
    """Per-job layer metrics from a finished trace, keyed by job id.

    For each span name: ``<name>.calls`` and ``<name>.self_s``; for the two
    convolutions ``<name>.bytes_computed``; from the CG return values
    ``solvers.cg_iters``, ``solvers.cg_converged_ratio`` and
    ``solvers.s_per_cg_iter``; and ``other.self_s``, the job time that no
    layer span covers.
    """
    selfs = self_times(spans)
    jobs: dict[int, dict[str, float]] = {}
    cg_time: dict[int, float] = defaultdict(float)
    cg_converged: dict[int, int] = defaultdict(int)
    for span, self_s in zip(spans, selfs):
        job = span[JOB_ID]
        m = jobs.setdefault(job, _empty_job())
        name = span[NAME]
        if name == JOB:
            m["other.self_s"] += self_s
            continue
        m[f"{name}.calls"] += 1
        m[f"{name}.self_s"] += self_s
        attrs = span[ATTRS] or {}
        if name in CONVOLUTIONS:
            m[f"{name}.bytes_computed"] += attrs["bytes"]
        elif name == CG:
            m["solvers.cg_iters"] += attrs["iters"]
            cg_converged[job] += attrs["converged"]
            cg_time[job] += span[END] - span[START]
    for job, m in jobs.items():
        solves = m[f"{CG}.calls"]
        m["solvers.cg_converged_ratio"] = cg_converged[job] / solves if solves else 0.0
        iters = m["solvers.cg_iters"]
        m["solvers.s_per_cg_iter"] = cg_time[job] / iters if iters else 0.0
    return jobs


def _empty_job() -> dict[str, float]:
    m = {"other.self_s": 0.0, "solvers.cg_iters": 0}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = 0
        m[f"{name}.self_s"] = 0.0
    for name in CONVOLUTIONS:
        m[f"{name}.bytes_computed"] = 0
    return m


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports: those of
    `job_layer_metrics`, the report's outer iterations and the overhead."""
    derived = ["solvers.cg_converged_ratio", "solvers.s_per_cg_iter",
               "solvers.outer_iters", "trace_overhead"]
    return sorted([*_empty_job(), *derived])


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".calls", "_iters")):
        return "count"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith(("_ratio", "overhead")):
        return "ratio"
    return "s"


def median_over_jobs(per_job: list[dict[str, float]]) -> dict[str, float]:
    """Median across jobs of each metric."""
    return {key: statistics.median(m[key] for m in per_job) for key in per_job[0]}
