"""Benchmark of the cribmem efficiency pipeline.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs passes of one workload (see workloads.py), each in a fresh process
with BLAS pinned to one thread, as many as fit in a window of --seconds
of wall time (at least one), and fills the rest of the window with
set-up-only processes.  ``--workload all`` runs the four in turn.
Prints every metric by name with its unit and sample count, the machine
record and the failed checks, then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With --trace 0 the
metrics are the end-to-end ones, medians over passes; with --trace 1 each
pass is run untraced and traced, and the metrics are the per-layer ones.
The full result, with every sample, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("point-kn441", "modes-q9", "small-validate", "cli-sweep")

# Set-up is sampled at least this many times per untraced run, even when
# that takes the run past its window.
SETUP_SAMPLES = 6
CLI_STARTUP_SAMPLES = 3
CLI_STARTUP_ARGS = ["transmission", "--d0", "5", "--omega", "0"]
# The window is at most this long, and every child is killed by the hard
# limit, so that a run ends well within 180 s.
WINDOW_LIMIT_S = 120.0
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    """BLAS pinned to one thread, as cribmem.cli._pin_blas_threads does."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in BLAS_ENV})
    return env


def spawn(command: list[str], deadline: float) -> tuple[float, str]:
    """Run a child in its own process group; return (spawn time, stdout).

    The whole group is killed if the child outlives the deadline, so no
    pool worker is left behind.
    """
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{command[1:]} killed at the time limit")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)   # stray grandchildren, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise ChildFailed(f"{command[1:]} exited with {proc.returncode}")
    return t_spawn, out


def run_worker(workload: str, seed: int, mode: str, deadline: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    t_spawn, out = spawn(command, deadline)
    lines = out.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{command[1:]} printed nothing")
    report = json.loads(lines[-1])
    report["setup_s"] = report["first_call"] - t_spawn
    return report


def cli_startup_s(deadline: float) -> float:
    """Wall time of a trivial CLI command in a fresh process."""
    command = [sys.executable, "-m", "cribmem.cli", *CLI_STARTUP_ARGS]
    t0 = time.perf_counter()
    spawn(command, deadline)
    return time.perf_counter() - t0


def percentile_with_tail(n: int) -> int | None:
    """Highest whole percentile with at least ten of n samples beyond it."""
    for p in range(99, 0, -1):
        if n * (100 - p) / 100.0 >= 10:
            return p
    return None


def describe(name: str, unit: str, samples: list[float]) -> str:
    med = statistics.median(samples)
    text = f"{name:<26} {med:>14.6g} {unit:<6} median of {len(samples)}"
    p = percentile_with_tail(len(samples))
    if name == "run_s":
        if p is None:
            text += "; no percentile has >= 10 samples beyond it"
        else:
            q = statistics.quantiles(samples, n=100)[p - 1]
            text += f"; p{p} {q:.6g} {unit}"
    return text


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(workload: str, args, first_pass: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        **first_pass["libraries"],
        "thread_env": {var: child_env().get(var) for var in BLAS_ENV},
        "workload": workload,
        "workload_params": first_pass["params"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cribmem" / "__init__.py").is_file():
        print(f"run.py: no cribmem package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args.workload, args)
    return max(run_workload(workload, args) for workload in WORKLOADS)


def run_workload(workload: str, args) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    t_start = time.perf_counter()
    window_end = t_start + min(args.seconds, WINDOW_LIMIT_S)
    hard = t_start + HARD_LIMIT_S
    modes = ("run", "trace") if args.trace else ("run",)

    passes: dict[str, list[dict]] = {m: [] for m in modes}
    setups: list[float] = []
    crashed: list[str] = []
    startup = ([cli_startup_s(hard) for _ in range(CLI_STARTUP_SAMPLES)]
               if args.trace else [])
    # Start another pass only if it ends within the window, taking as long
    # as the last one did; the first pass always runs.
    while True:
        started = time.perf_counter()
        for mode in modes:
            try:
                report = run_worker(workload, args.seed, mode, hard)
            except (ChildFailed, ValueError) as exc:
                crashed.append(str(exc))
                continue
            passes[mode].append(report)
            setups.append(report["setup_s"])
        now = time.perf_counter()
        if crashed or now + (now - started) > window_end:
            break
    if not passes["run"]:
        print("run.py: no pass completed: " + "; ".join(crashed), file=sys.stderr)
        return 1
    # The rest of the window goes to set-up-only processes, by the same rule.
    last = 0.0
    while not args.trace and not crashed:
        started = time.perf_counter()
        if len(setups) >= SETUP_SAMPLES and started + last > window_end:
            break
        try:
            setups.append(run_worker(workload, args.seed, "setup", hard)["setup_s"])
        except (ChildFailed, ValueError) as exc:
            crashed.append(str(exc))
        last = time.perf_counter() - started

    checks = [c for m in modes for p in passes[m] for c in p["checks"]]
    attempted = len(checks) + len(crashed)
    failed = sum(not c["ok"] for c in checks) + len(crashed)

    lines = [f"# cribmem benchmark: workload {workload}, seed {args.seed}, "
             f"trace {args.trace}"]
    if args.trace:
        if not passes["trace"]:
            print("run.py: no traced pass completed: " + "; ".join(crashed),
                  file=sys.stderr)
            return 1
        import spans
        samples = {name: [p["layers"][name] for p in passes["trace"]]
                   for name in spans.LAYER_UNITS
                   if name not in ("cli.startup_s", "trace.overhead_s")}
        samples["cli.startup_s"] = startup
        untraced = statistics.median(p["run_s"] for p in passes["run"])
        traced = statistics.median(p["run_s"] for p in passes["trace"])
        samples["trace.overhead_s"] = [traced - untraced]
        units = spans.LAYER_UNITS
        lines.append(f"untraced run_s {untraced:.6g} s, traced run_s {traced:.6g} s")
    else:
        samples = {
            "run_s": [p["run_s"] for p in passes["run"]],
            "setup_s": setups,
            "cpu_s": [p["cpu_s"] for p in passes["run"]],
            "peak_rss_mb": [p["peak_rss_mb"] for p in passes["run"]],
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": statistics.median(samples[name]), "unit": units[name]}
               for name in units}
    lines += [describe(name, units[name], samples[name]) for name in units]
    lines.append(f"{'fail_ratio':<26} {failed}/{attempted} = {failed / attempted:.6g}")
    lines += [f"FAILED {c['name']}: {c['detail']}" for c in checks if not c["ok"]]
    lines += [f"FAILED pass: {msg}" for msg in crashed]

    record = machine_record(workload, args, passes["run"][0])
    lines.append("# machine " + json.dumps(record, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    full = {"record": record, "samples": samples, "passes": passes,
            "crashed": crashed, "result": result}
    name = f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
