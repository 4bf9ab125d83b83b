"""Command-line front end: parameter sweeps exported as CSV or JSON.

Commands
    sweep-optimal   (d0, gamma) -> maximal efficiency over all input modes
    sweep-gaussian  (d0, gamma) -> best Gaussian mode (t_c*, t_w*, eta*)
    gaussian-map    (t_c, t_w) -> eta surface at one (d0, gamma)
    modes           sampled optimal input-mode shapes
    perturbative    broadening-stage efficiency, closed form vs numeric
    transmission    unbroadened intensity transmission spectrum

--format is csv (default) or json; a leading comment line records the
resolved settings the command reads, so runs are reproducible.  Standard
output is reserved for data when the output path is "-"; errors go to
standard error.  Exit codes: 0 success, 2 configuration error (among them
a flag or config key the command does not read, such as a taud for any
command but perturbative, an empty --out, and an empty list from a flag
or a config file), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys


def _pin_blas_threads() -> None:
    """Pin BLAS to one thread before numpy is imported.

    Parallelism lives at the sweep-point process level; single-threaded BLAS
    in every worker avoids oversubscription and makes --threads 1 runs
    byte-reproducible.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_COLUMNS = {
    "sweep-optimal": ("d0", "gamma_rel", "eta_max"),
    "sweep-gaussian": ("d0", "gamma_rel", "t_c_opt", "t_w_opt", "eta_gauss"),
    "gaussian-map": ("d0", "gamma_rel", "t_c", "t_w", "eta"),
    "modes": ("d0", "gamma_rel", "t", "mode_re", "mode_im", "mode_abs"),
    "perturbative": ("gamma_rel", "eta_eq_closed", "eta_numeric"),
    "transmission": ("omega_rel", "transmission"),
}
_COMMANDS = tuple(_COLUMNS)

# One row per setting, given as --key (- for _) or as a config-file key:
# (value type, default, flag help).  Every list must be non-empty and every
# float and list finite; an integer with a default here is a count of at
# least 1, the others are checked where they are used.  resolve_config fills
# the None defaults: the discretization from sweeps.GridSettings and gamma
# log-spaced; omega None lets transmission choose its span.
_SETTINGS = {
    "out": (str, "-", "output path, '-' for stdout (default)"),
    "format": (str, "csv", "csv (default) or json"),
    "threads": (int, 1, None),
    "d0": (list, [25.0, 50.0, 100.0], "comma-separated optical depths"),
    "gamma": (list, None, "comma-separated controlled widths gamma/mu"),
    "grid_k": (int, None, None),
    "grid_n": (int, None, None),
    "extent": (float, None, None),
    "quad_level": (int, None, None),
    "contour_nodes": (int, None, None),
    "taud": (float, 1.0, "broadening duration (perturbative)"),
    "omega": (list, None, "comma-separated omega/mu (transmission)"),
    "tc_points": (int, 25, None),
    "tw_points": (int, 20, None),
}


# The settings each command reads, in the order they are recorded in the
# CSV comment and the JSON output.  Setting any other one by flag or config
# key is a configuration error; out and format serve every command.
_GRID = ("grid_k", "grid_n", "extent", "quad_level", "contour_nodes")   # GridSettings' order
_SWEEP = _GRID + ("threads", "d0", "gamma")
_READS = {
    "sweep-optimal": _SWEEP,
    "sweep-gaussian": _SWEEP,
    "gaussian-map": _GRID + ("d0", "gamma", "tc_points", "tw_points"),
    "modes": _SWEEP,
    "perturbative": ("grid_n", "extent", "contour_nodes", "taud", "gamma"),
    "transmission": ("d0", "omega"),
}


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cribmem",
        description="Storage-and-retrieval efficiency of a transverse-CRIB "
                    "two-level quantum memory.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="JSON file with the same keys as the flags")
    for key, (kind, _, text) in _SETTINGS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key,
                            type=str if kind is list else kind, help=text)
    return parser


_KIND_NAMES = {int: "an integer", float: "a number", list: "a list of numbers",
               str: "a string"}


def _checked(key: str, val, default):
    """A config-file value of the type its flag takes, or ValueError."""
    def number(v) -> bool:
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    kind = _SETTINGS[key][0]
    if val is None and default is None:
        return val
    if kind is int and number(val) and isinstance(val, int):
        return val
    if kind is float and number(val):
        return float(val)
    if kind is list:
        vals = val if isinstance(val, list) else [val]   # one number is a list
        if all(map(number, vals)):
            return [float(v) for v in vals]
    if kind is str and isinstance(val, str):
        return val
    raise ValueError(f"config key {key!r} must be {_KIND_NAMES[kind]}, got {val!r}")


def resolve_config(args: argparse.Namespace) -> dict:
    import numpy as np

    from cribmem.sweeps import GridSettings

    settings = GridSettings()
    cfg = {**{key: default for key, (_, default, _) in _SETTINGS.items()},
           **settings.as_dict(),
           "grid_n": None,   # settings.n, except that perturbative lets the library choose
           "gamma": [float(x) for x in np.geomspace(0.1, 10.0, 25)]}
    loaded = {}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("a config file must hold one JSON object")
        unknown = set(loaded) - set(_SETTINGS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update({key: _checked(key, val, cfg[key]) for key, val in loaded.items()})
    flags = {key: val for key, val in vars(args).items() if key in _SETTINGS and val is not None}
    for key, val in flags.items():
        cfg[key] = _parse_float_list(val) if _SETTINGS[key][0] is list else val
    cfg["command"] = args.command
    if cfg["grid_n"] is None and cfg["command"] != "perturbative":
        cfg["grid_n"] = settings.n
    for key in _SETTINGS:
        if key in ("format", "out") or key in _READS[args.command]:
            continue
        if key in flags or key in loaded:
            readers = ", ".join(c for c in _COMMANDS if key in _READS[c])
            raise ValueError(f"{key} is read only by {readers}; "
                             f"{args.command} ignores it")
    for key, (kind, default, _) in _SETTINGS.items():
        val = cfg[key]
        if kind is list and val == []:
            raise ValueError(f"{key} must be a non-empty list")
        if kind in (float, list) and val is not None and not all(
                map(math.isfinite, val if kind is list else [val])):
            raise ValueError(f"{key} must be finite, got {val!r}")
        if kind is int and default is not None and val < 1:
            raise ValueError(f"{key} must be at least 1")
    if cfg["format"] not in ("csv", "json"):
        raise ValueError(f"unknown format {cfg['format']!r}")
    out = cfg["out"]   # checked before any point is computed
    if not out:
        raise ValueError("output path is empty")
    if out != "-" and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
        raise ValueError(f"output path {out!r} is a directory or in a missing one")
    return cfg


def _settings(cfg: dict):
    from cribmem.sweeps import GridSettings

    return GridSettings(*(cfg[key] for key in _GRID))


def _compute_rows(cfg: dict) -> list[dict]:
    from cribmem import analytic, sweeps
    from cribmem.model import derive_params

    command = cfg["command"]
    settings = _settings(cfg)
    points = [(d0, g) for d0 in cfg["d0"] for g in cfg["gamma"]]

    if command in ("sweep-optimal", "sweep-gaussian"):
        return sweeps.run_points(points, settings, threads=cfg["threads"],
                                 include_gaussian=command == "sweep-gaussian")

    if command == "gaussian-map":
        out = []
        for d0, g in points:
            out.extend(sweeps.gaussian_map(d0, g, settings,
                                           cfg["tc_points"], cfg["tw_points"]))
        return out

    if command == "modes":
        rows = sweeps.run_points(points, settings, threads=cfg["threads"],
                                 include_mode=True)
        out = []
        for r in rows:
            for t, m in zip(r["mode_times"], r["mode"]):
                out.append({"d0": r["d0"], "gamma_rel": r["gamma_rel"],
                            "t": float(t), "mode_re": float(m.real),
                            "mode_im": float(m.imag), "mode_abs": float(abs(m))})
        return out

    if command == "perturbative":
        profile = analytic.Profile.flat()
        out = []
        for g in cfg["gamma"]:
            closed = analytic.perturbative_efficiency(profile, g, cfg["taud"])
            numeric = analytic.broadening_stage_efficiency_numeric(
                profile, g, cfg["taud"], n_classes=cfg["grid_n"],
                extent_sigmas=cfg["extent"], contour_nodes=cfg["contour_nodes"])
            out.append({"gamma_rel": g, "eta_eq_closed": closed,
                        "eta_numeric": numeric})
        return out

    if command == "transmission":
        omegas = cfg["omega"]
        out = []
        for d0 in cfg["d0"]:
            params = derive_params(d0, 0.0)   # the spectrum reads only gamma0
            if omegas is None:
                span = 4.0 * params.gamma0_rel
                omegas_here = [span * (i / 40.0 - 1.0) for i in range(81)]
            else:
                omegas_here = omegas
            for w in omegas_here:
                out.append({"omega_rel": float(w),
                            "transmission": analytic.transmission_spectrum(w, params)})
        return out

    raise ValueError(f"unknown command {command!r}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _settings_comment(cfg: dict) -> str:
    parts = []
    for k in _READS[cfg["command"]]:
        if isinstance(cfg[k], list):
            parts.append(f"{k}=" + "|".join(_fmt(x) for x in cfg[k]))
        else:
            parts.append(f"{k}={'auto' if cfg[k] is None else cfg[k]}")
    return f"# cribmem {cfg['command']} " + " ".join(parts)


def _emit(cfg: dict, rows: list[dict]) -> None:
    columns = _COLUMNS[cfg["command"]]
    if cfg["format"] == "csv":
        lines = [_settings_comment(cfg), ",".join(columns)]
        lines += [",".join(_fmt(row[c]) for c in columns) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "command": cfg["command"],
            "settings": {k: cfg[k] for k in _READS[cfg["command"]]},
            "rows": [{c: row[c] for c in columns} for row in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if cfg["out"] == "-":
        sys.stdout.write(text)
    else:
        with open(cfg["out"], "w") as fh:
            fh.write(text)


def run(cfg: dict) -> int:
    from cribmem.errors import NumericsError

    try:
        rows = _compute_rows(cfg)
    except NumericsError as exc:
        print(f"cribmem: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"cribmem: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _emit(cfg, rows)
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _pin_blas_threads()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        cfg = resolve_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"cribmem: configuration error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
