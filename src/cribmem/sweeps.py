"""Parameter-sweep evaluation shared by the CLI and the acceptance suite.

Each sweep point (d0, gamma_rel) is independent: it builds its own detuning
grid, schedule, transfer kernel and efficiency kernel, then extracts the
requested quantities.  Points run in a process pool; results are returned in
input order, and a single worker reproduces byte-identical output.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass

from cribmem import kernels, modes
from cribmem.errors import NumericsError
from cribmem.laplace import DEFAULT_CONTOUR_NODES, talbot_contour
from cribmem.model import (DEFAULT_EXTENT_SIGMAS, DEFAULT_GRID_POINTS, build_detuning_grid,
                           default_schedule, derive_params, min_safe_classes)
from cribmem.quadrature import tanh_sinh_grid


@dataclass(frozen=True)
class GridSettings:
    """Discretization knobs shared by every sweep point, with their defaults."""

    k: int = DEFAULT_GRID_POINTS
    n: int = DEFAULT_GRID_POINTS
    extent_sigmas: float = DEFAULT_EXTENT_SIGMAS
    quad_level: int = 6
    contour_nodes: int = DEFAULT_CONTOUR_NODES

    def as_dict(self) -> dict:
        return {
            "grid_k": self.k,
            "grid_n": self.n,
            "extent": self.extent_sigmas,
            "quad_level": self.quad_level,
            "contour_nodes": self.contour_nodes,
        }


def build_pipeline(d0: float, gamma_rel: float, settings: GridSettings):
    """Params, schedule and efficiency kernel for one sweep point.

    A passive medium returns at most what came in: an efficiency kernel
    whose top eigenvalue gives eta_max > 1 raises NumericsError, which names
    both discretizations that can cause it, the time grid and the contour.
    """
    params = derive_params(d0, gamma_rel)
    schedule = default_schedule(params)
    grid = build_detuning_grid(params.gamma0_rel, gamma_rel,
                               settings.k, settings.n, settings.extent_sigmas)
    floor = min_safe_classes(gamma_rel, schedule.tau_d, settings.extent_sigmas)
    if settings.n < floor:
        raise ValueError(f"grid_n={settings.n} lets the controlled comb rephase inside "
                         f"the broadening stages at gamma={gamma_rel:g}; use at least {floor}")
    contour = talbot_contour(settings.contour_nodes, t_scale=1.0)
    tgrid = tanh_sinh_grid(0.0, schedule.tau_r, settings.quad_level)
    kernel = kernels.build_transfer_kernel(
        params, schedule, grid, contour, tgrid, tgrid)
    eff = kernels.build_efficiency_kernel(kernel)
    if eff.eigenvalues[0] ** 2 > 1.0:
        raise NumericsError(f"eta_max = {eff.eigenvalues[0] ** 2:.6g} > 1 at d0={d0:g}, "
                            f"gamma={gamma_rel:g}: the level-{settings.quad_level} time grid "
                            f"or the {settings.contour_nodes}-node contour does not resolve "
                            f"the kernel; raise quad_level or contour_nodes")
    return params, schedule, kernel, eff


def evaluate_point(d0: float, gamma_rel: float, settings: GridSettings,
                   include_gaussian: bool = False, include_mode: bool = False) -> dict:
    params, schedule, kernel, eff = build_pipeline(d0, gamma_rel, settings)
    best = modes.optimal_mode(eff)
    row = {
        "d0": d0,
        "gamma_rel": gamma_rel,
        "tau_p": schedule.tau_p,
        "tau_r": schedule.tau_r,
        "eta_max": best.efficiency,
    }
    if include_gaussian:
        gauss = modes.optimize_gaussian(eff, schedule)
        row.update({
            "t_c_opt": gauss.gaussian_params[0],
            "t_w_opt": gauss.gaussian_params[1],
            "eta_gauss": gauss.efficiency,
        })
    if include_mode:
        row["mode_times"] = eff.grid.nodes.copy()
        row["mode"] = best.mode
    return row


def _run_one(args):
    return evaluate_point(*args[0], **args[1])


def run_points(points, settings: GridSettings, threads: int = 1,
               include_gaussian: bool = False, include_mode: bool = False) -> list[dict]:
    """Evaluate (d0, gamma_rel) points, preserving input order.

    The points run in a pool of min(threads, points, CPUs) worker processes,
    or serially when that is one.
    """
    jobs = [((d0, g, settings),
             {"include_gaussian": include_gaussian,
              "include_mode": include_mode})
            for d0, g in points]
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return [_run_one(j) for j in jobs]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, jobs))


def gaussian_map(d0: float, gamma_rel: float, settings: GridSettings,
                 tc_points: int, tw_points: int) -> list[dict]:
    """The (t_c, t_w) -> efficiency surface for Gaussian inputs."""
    params, schedule, kernel, eff = build_pipeline(d0, gamma_rel, settings)
    tcs, tws = modes.gaussian_lattice(schedule, tc_points, tw_points)
    etas = modes.gaussian_efficiencies(eff, tcs[:, None], tws[None, :])
    return [{"d0": d0, "gamma_rel": gamma_rel, "t_c": float(tc), "t_w": float(tw),
             "eta": float(eta)}
            for tc, row in zip(tcs, etas) for tw, eta in zip(tws, row)]
