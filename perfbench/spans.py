"""Span tracing from outside the package, and the per-layer table.

``Tracer.install`` replaces the public functions of the cribmem modules,
and numpy.linalg's dense eig/solve/eigh, with wrappers that record one span
per call: (id, parent, name, start, end, info, pid).  Names read
``<module>.<function>``, with ``linalg.<function>`` for LAPACK.  Spans stay
in memory and are written out once at the end.  A pool worker forked from
a traced process leaves through ``os._exit``, so it writes its spans after
each task instead, to a file of its own.

Start and end come from ``time.perf_counter``, which on Linux reads
CLOCK_MONOTONIC, so spans of different processes share one time axis.
A span's self time is its duration minus the durations of its children in
the same process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("sweeps", "kernels", "modes", "analytic", "oracle", "quadrature",
           "laplace", "model", "cli", "propagators")
LAPACK = ("eig", "solve", "eigh")
_PID_STRIDE = 10**8  # span ids of a process start at pid * stride


def _nodes_evaluated(diag: dict) -> int:
    """Contour nodes build_transfer_kernel evaluated, from its diagnostics."""
    m = diag["contour_nodes"]
    return m // 2 if diag["assembly"] == "half" else m


# What a span records beyond its times: (from the arguments, from the result).
_INFO = {
    "linalg.eig": (lambda a, kw: len(a[0]), None),
    "linalg.solve": (lambda a, kw: len(a[0]), None),
    "linalg.eigh": (lambda a, kw: len(a[0]), None),
    "quadrature.tanh_sinh_grid": (None, lambda r: r.size),
    "kernels.build_transfer_kernel": (None, lambda r: _nodes_evaluated(r.diagnostics)),
    "oracle.fd_solve": (None, lambda r: len(r.end_times)),
}


class Tracer:
    """Records spans of wrapped calls in this process."""

    def __init__(self, spill_dir: Path | None = None):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._next = self._pid * _PID_STRIDE
        self._spill_dir = spill_dir
        self._fork_depth: int | None = None

    def _enter_fork(self) -> None:
        """First traced call in a forked child: drop the parent's spans."""
        self._pid = os.getpid()
        self.spans = []
        self._next = self._pid * _PID_STRIDE
        self._fork_depth = len(self._stack)

    def _spill(self) -> None:
        if self._spill_dir is not None and self.spans:
            with open(self._spill_dir / f"spans-{self._pid}.jsonl", "a") as fh:
                for span in self.spans:
                    fh.write(json.dumps(span) + "\n")
        self.spans = []

    def wrap(self, name: str, func):
        from_args, from_result = _INFO.get(name, (None, None))

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                self._enter_fork()
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            info = from_args(args, kwargs) if from_args else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            # A raising call leaves no span; its exception reaches the checks.
            if from_result:
                info = from_result(result)
            self.spans.append((sid, parent, name, start, end, info, self._pid))
            if self._fork_depth is not None and len(self._stack) == self._fork_depth:
                self._spill()
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every module in MODULES, and LAPACK.

        Names bound elsewhere by ``from cribmem.x import f`` are rebound to
        the wrapper too, so calls are traced whichever name they use.
        """
        wrapped = {}
        for short in MODULES:
            mod = importlib.import_module(f"cribmem.{short}")
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped[obj] = self.wrap(f"{short}.{name}", obj)
                setattr(mod, name, wrapped[obj])
        for modname, mod in list(sys.modules.items()):
            if modname == "cribmem" or modname.startswith("cribmem."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, name, wrapped[obj])
        import numpy as np
        for name in LAPACK:
            setattr(np.linalg, name, self.wrap(f"linalg.{name}",
                                               getattr(np.linalg, name)))

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(paths) -> list[tuple]:
    spans = []
    for path in paths:
        with open(path) as fh:
            spans.extend(tuple(json.loads(line)) for line in fh if line.strip())
    return spans


# Per-layer metrics: name -> unit.  README.md says which end-to-end metric
# and workload each one should move.
LAYER_UNITS = {
    "propagators.eig_calls": "count",
    "propagators.eig_s": "s",
    "propagators.eig_max_dim": "count",
    "propagators.solve_s": "s",
    "propagators.run_share": "ratio",
    "kernels.transfer_s": "s",
    "kernels.transfer_calls": "count",
    "kernels.node_s": "s",
    "kernels.assembly_self_s": "s",
    "kernels.gram_s": "s",
    "quadrature.nodes": "count",
    "modes.eigh_s": "s",
    "modes.gaussian_s": "s",
    "modes.rayleigh_calls": "count",
    "modes.rayleigh_us": "us",
    "analytic.numeric_s": "s",
    "analytic.eig_calls": "count",
    "analytic.eig_s": "s",
    "oracle.fd_s": "s",
    "oracle.steps": "count",
    "oracle.step_us": "us",
    "sweeps.point_s": "s",
    "sweeps.pool_efficiency": "ratio",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    **{f"{m}.self_s": "s" for m in MODULES + ("linalg",)},
}


def summarize(spans: list[tuple], run_s: float, pool_workers: int) -> dict:
    """Per-layer metrics of one traced pass (all but the two measured
    outside it: cli.startup_s and trace.overhead_s).

    ``run_s`` is the traced pass's wall time; ``pool_workers`` is the size
    of the process pool sweeps.run_points used, if any.
    """
    by_id = {s[0]: s for s in spans}
    child_s = defaultdict(float)
    for sid, parent, name, start, end, info, pid in spans:
        if parent in by_id and by_id[parent][6] == pid:
            child_s[parent] += end - start

    def dur(s):
        return s[4] - s[3]

    def under(s, module: str) -> bool:
        parent = by_id.get(s[1])
        while parent is not None:
            if parent[2].startswith(module + "."):
                return True
            parent = by_id.get(parent[1])
        return False

    def named(name):
        return [s for s in spans if s[2] == name]

    def total(seq):
        return sum(dur(s) for s in seq)

    eig_k = [s for s in named("linalg.eig") if under(s, "kernels")]
    solve_k = [s for s in named("linalg.solve") if under(s, "kernels")]
    eig_a = [s for s in named("linalg.eig") if under(s, "analytic")]
    transfers = named("kernels.build_transfer_kernel")
    lapack_in_transfer = [s for s in spans if s[2].startswith("linalg.")
                          and under(s, "kernels")]
    nodes = sum(s[5] for s in transfers)
    rayleigh = named("modes.mode_efficiency")
    fd = named("oracle.fd_solve")
    steps = sum(s[5] for s in fd)
    points = named("sweeps.evaluate_point")
    pooled = named("sweeps.run_points")
    pool_pids = {s[6] for s in pooled}
    worker_points = [s for s in points if pooled and s[6] not in pool_pids]
    pool_wall = total(pooled)
    grids = [s[5] for s in named("quadrature.tanh_sinh_grid")]

    self_s = defaultdict(float)
    for s in spans:
        self_s[s[2].split(".")[0]] += dur(s) - child_s[s[0]]

    out = {
        "propagators.eig_calls": len(eig_k),
        "propagators.eig_s": total(eig_k),
        "propagators.eig_max_dim": max((s[5] for s in eig_k), default=0),
        "propagators.solve_s": total(solve_k),
        "propagators.run_share": (total(eig_k) + total(solve_k)) / run_s,
        "kernels.transfer_s": total(transfers),
        "kernels.transfer_calls": len(transfers),
        "kernels.node_s": total(transfers) / nodes if nodes else 0.0,
        "kernels.assembly_self_s": total(transfers) - total(lapack_in_transfer),
        "kernels.gram_s": total(named("kernels.build_efficiency_kernel")),
        "quadrature.nodes": max(grids, default=0),
        "modes.eigh_s": total(s for s in named("linalg.eigh") if under(s, "modes")),
        "modes.gaussian_s": total(named("modes.optimize_gaussian")),
        "modes.rayleigh_calls": len(rayleigh),
        "modes.rayleigh_us": 1e6 * total(rayleigh) / len(rayleigh) if rayleigh else 0.0,
        "analytic.numeric_s": total(named("analytic.broadening_stage_efficiency_numeric")),
        "analytic.eig_calls": len(eig_a),
        "analytic.eig_s": total(eig_a),
        "oracle.fd_s": total(fd),
        "oracle.steps": steps,
        "oracle.step_us": 1e6 * total(fd) / steps if steps else 0.0,
        "sweeps.point_s": statistics.fmean(map(dur, points)) if points else 0.0,
        "sweeps.pool_efficiency": (total(worker_points) / (pool_workers * pool_wall)
                                   if pool_workers and worker_points else 0.0),
        "trace.spans": len(spans),
    }
    for module in MODULES + ("linalg",):
        out[f"{module}.self_s"] = self_s[module]
    return out
