"""One benchmark pass in a fresh process: set-up, the timed call, checks.

    python3 perfbench/worker.py WORKLOAD SEED MODE

MODE is ``setup`` (stop before the timed call), ``run`` or ``trace`` (run
with spans recorded).  The last line of standard output is one JSON object:
``first_call`` (perf_counter just before the timed call, which run.py
subtracts from its spawn time to get set-up time), and for a pass also
``run_s``, ``cpu_s``, ``peak_rss_mb``, ``checks`` and, traced, ``layers``.
run.py pins BLAS to one thread in the environment it passes.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

OUT_DIR = HERE / "out"


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    """ru_maxrss of this process plus that of its largest waited-for child."""
    kib = sum(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def _libraries() -> dict:
    """Python, numpy, scipy and the BLAS numpy was built against."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version")}}


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    tracer = None
    spill = None
    if mode == "trace":
        import spans
        spill = OUT_DIR / f"spill-{os.getpid()}"
        shutil.rmtree(spill, ignore_errors=True)
        spill.mkdir(parents=True)
        tracer = spans.Tracer()
        tracer.install()

    import cribmem
    if not Path(cribmem.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"cribmem imported from {cribmem.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[workload]
    inputs = wl.setup(seed)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if mode == "trace":
        cli = [sys.executable, str(HERE / "tracecli.py"), str(spill)]
    else:
        cli = [sys.executable, "-m", "cribmem.cli"]
    ctx = {"cli": cli, "env": env, "root": ROOT}

    first_call = time.perf_counter()
    if mode == "setup":
        print(json.dumps({"first_call": first_call}))
        return 0
    cpu0 = _cpu_s()
    results = wl.run(inputs, ctx)
    run_s = time.perf_counter() - first_call
    cpu_s = _cpu_s() - cpu0

    checks = workloads.Checks()
    wl.check(inputs, results, checks)
    report = {"first_call": first_call, "run_s": run_s, "cpu_s": cpu_s,
              "peak_rss_mb": _peak_rss_mb(), "checks": checks.items,
              "params": wl.params, "libraries": _libraries()}
    if tracer is not None:
        tracer.dump(spill / f"spans-{os.getpid()}.jsonl")
        paths = sorted(spill.glob("spans-*.jsonl"))
        all_spans = spans.load(paths)
        trace_file = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        with open(trace_file, "w") as fh:
            for path in paths:
                fh.write(path.read_text())
        shutil.rmtree(spill)
        report["layers"] = spans.summarize(all_spans, run_s, wl.pool_workers)
        report["span_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
