"""Benchmark for ``idealtop search``: end-to-end runs and a traced run.

Usage (from the repository root):

    python3 perfbench/run.py                       # all workloads, then traced
    python3 perfbench/run.py --workload certify-n4 --seed 1 --seconds 30 --trace 0

End-to-end metrics (``--trace 0``) come from launching
``python -m idealtop search ...`` as child processes and timing each from
its launch to its exit. As many launches run side by side as the cores
hold (``nproc`` divided by the command's ``--workers``: two of each serial
command on two cores, one of ``documents-w2``), which gives a run twice
the samples and spreads them over both cores, whose neighbours' load
differs. CPU time and peak RSS come from
``os.wait4`` and include the command's worker processes. ``setup_s`` times
the same command with ``--budget-assignments 0 --workers 1``, which stops
before the first assignment. Full and set-up runs alternate for
``--seconds`` seconds. ``wall_s``, ``cpu_s`` and ``assignments_per_s``
are means over the full runs (measured time divided by launches), because
on a shared host a run's launches scatter with the neighbours' load and
the mean uses every launch; ``setup_s`` and ``peak_rss_mb`` are medians.

Per-layer metrics (``--trace 1``) come from running the same command in
this process, serially, with the layer entry points wrapped in spans (see
``spans.py``); traced and untraced in-process runs alternate, and their
wall-time ratio is ``trace.overhead_ratio``.

Every output is checked (``workloads.check_run``); a mismatch or a crash
counts as a failed run. Before any timing ``idealtop repro`` must pass, and
``documents-w2`` must print the same bytes with one worker as with two.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a results file with the samples and the
machine's state goes to ``perfbench/results``.

The benchmark's own tests: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import spans
import workloads as wl

ROOT = wl.BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = wl.BENCH_DIR / "results"
CHILD_TIMEOUT_S = 150  # a hung command is killed and counts as failed
SETUP_RUNS_PER_CYCLE = 1

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "assignments_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}
LAYER_UNITS_BY_SUFFIX = {"_per_s": "1/s", "_ms": "ms", "_s": "s", "_bytes": "bytes",
                         "_ratio": "ratio", "_share": "ratio"}  # first match wins


class Tally:
    """Runs attempted and failed per workload, with the first problems seen."""

    def __init__(self):
        self.runs: dict[str, list[int]] = {}  # workload -> [attempted, failed]
        self.problems: list[str] = []

    def record(self, name: str, what: str, problems: list[str]) -> bool:
        counts = self.runs.setdefault(name, [0, 0])
        counts[0] += 1
        if problems:
            counts[1] += 1
            if len(self.problems) < 20:
                self.problems.append(f"{name} {what}: {'; '.join(problems)}")
        return not problems

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.runs.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.runs.values())


# ---------------------------------------------------------------------------
# child-process runs


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_children(argv: list[str], copies: int = 1) -> list[dict]:
    """Launch ``copies`` of ``python -m idealtop argv`` side by side and run
    each to completion; wall (its own launch to exit), CPU and RSS of each."""
    wl.WORK_DIR.mkdir(exist_ok=True)
    running = {}  # pid -> (proc, launch time, killer, stdout file, stderr file)
    results = []
    with contextlib.ExitStack() as files:
        try:
            for i in range(copies):
                out = files.enter_context(open(wl.WORK_DIR / f"stdout{i}.txt", "w+b"))
                err = files.enter_context(open(wl.WORK_DIR / f"stderr{i}.txt", "w+b"))
                t0 = time.perf_counter()
                proc = subprocess.Popen([sys.executable, "-m", "idealtop", *argv], cwd=ROOT,
                                        env=child_env(), stdin=subprocess.DEVNULL,
                                        stdout=out, stderr=err)
                killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
                killer.start()
                running[proc.pid] = (proc, t0, killer, out, err)
            while running:
                pid, status, usage = os.wait4(-1, 0)
                wall = time.perf_counter()
                proc, t0, killer, out, err = running.pop(pid)
                killer.cancel()
                proc.returncode = os.waitstatus_to_exitcode(status)
                out.seek(0)
                err.seek(-min(400, os.fstat(err.fileno()).st_size), os.SEEK_END)
                results.append({
                    "exit": proc.returncode,
                    "stdout": out.read(),
                    "stderr": err.read().decode("utf-8", "replace"),
                    "wall_s": wall - t0,
                    "cpu_s": usage.ru_utime + usage.ru_stime,
                    "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
                })
        finally:
            for proc, _, killer, _, _ in running.values():
                killer.cancel()
                proc.kill()
                proc.wait()
    return results


def check_child(tally, expected, name, seed, setup, run) -> bool:
    problems = wl.check_run(name, seed, setup, run["exit"], run["stdout"], expected)
    if problems and run["stderr"]:
        problems.append("stderr: " + run["stderr"].strip().splitlines()[-1])
    return tally.record(name, "setup run" if setup else "run", problems)


def interleaved(names, seconds):
    """Yield (cycle, workload order) until another cycle would overrun
    ``seconds`` per workload; the order reverses on every other cycle."""
    budget = seconds * len(names)
    start = time.perf_counter()
    cycle = 0
    while True:
        elapsed = time.perf_counter() - start
        if cycle and elapsed + elapsed / cycle > budget:
            return
        yield cycle, (names if cycle % 2 == 0 else names[::-1])
        cycle += 1


def measure_end_to_end(names, loads, docs, seed, seconds, expected, tally, nproc) -> dict:
    """Alternate full and set-up runs of each workload, interleaving the
    workloads."""
    samples = {name: {"full": [], "setup": [], "stdout": set()} for name in names}
    for cycle, order in interleaved(names, seconds):
        for name in order:
            load = loads[name]
            steps = [False] + [True] * SETUP_RUNS_PER_CYCLE
            if cycle % 2:
                steps.reverse()
            for setup in steps:
                argv = load.setup_argv(docs[name]) if setup else load.search_argv(docs[name])
                for run in run_children(argv, max(1, nproc // load.workers)):
                    if not check_child(tally, expected, name, seed, setup, run):
                        continue
                    run["assignments"] = wl.summarize(run["exit"], run["stdout"]).get(
                        "assignments_evaluated")
                    samples[name]["setup" if setup else "full"].append(run)
                    if not setup:
                        samples[name]["stdout"].add(run["stdout"])

    for name in names:
        outputs = samples[name]["stdout"]
        if len(outputs) > 1:
            tally.record(name, "repetitions", ["stdout differs between repetitions"])
        if loads[name].workers > 1 and outputs:
            [serial] = run_children(loads[name].search_argv(docs[name], workers=1))
            problems = [] if serial["stdout"] in outputs else [
                "stdout with --workers 1 differs from the parallel run"]
            tally.record(name, "--workers 1", problems)
    return samples


def end_to_end_metrics(sample: dict) -> dict:
    full, setup = sample["full"], sample["setup"]
    if not full or not setup:
        return {}
    wall = statistics.fmean(r["wall_s"] for r in full)
    return {
        "wall_s": (wall, len(full)),
        "setup_s": (statistics.median(r["wall_s"] for r in setup), len(setup)),
        "assignments_per_s": (full[0]["assignments"] / wall, len(full)),
        "cpu_s": (statistics.fmean(r["cpu_s"] for r in full), len(full)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in full), len(full)),
    }


# ---------------------------------------------------------------------------
# traced in-process runs


def run_in_process(argv: list[str], tracer=None) -> tuple[float, int, bytes]:
    """Run the CLI in this process; returns (wall, exit code, stdout)."""
    from idealtop import cli, search

    # A fresh process starts with an empty enumeration cache.
    getattr(search, "_TOPOLOGY_MEMBERS_CACHE", {}).clear()
    buf = io.StringIO()
    scope = spans.instrumented(tracer) if tracer else contextlib.nullcontext()
    with scope, contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
    return wall, code, buf.getvalue().encode("utf-8")


def measure_import(samples: int = 5) -> float:
    code = ("import time; t = time.perf_counter(); import idealtop; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(samples):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                             capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                             check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def measure_traced(names, loads, docs, seed, seconds, expected, tally) -> dict:
    """Alternate untraced and traced in-process runs of each workload."""
    runs = {name: {"plain": [], "traced": [], "layers": [], "stdout": set(), "tracer": None}
            for name in names}
    for cycle, order in interleaved(names, seconds):
        for name in order:
            argv = loads[name].search_argv(docs[name], workers=1)
            for traced in ((False, True) if cycle % 2 == 0 else (True, False)):
                tracer = spans.Tracer() if traced else None
                try:
                    wall, code, stdout = run_in_process(argv, tracer)
                except Exception:  # a crash is a failed run, not the end of the benchmark
                    tally.record(name, "in-process run", [traceback.format_exc(limit=3)])
                    continue
                problems = wl.check_run(name, seed, False, code, stdout, expected)
                if not tally.record(name, "in-process run", problems):
                    continue
                runs[name]["stdout"].add(stdout)
                if not traced:
                    runs[name]["plain"].append(wall)
                    continue
                runs[name]["traced"].append(wall)
                scanned = wl.summarize(code, stdout)["spaces_scanned"]
                runs[name]["layers"].append(spans.layer_metrics(tracer, scanned))
                runs[name]["tracer"] = runs[name]["tracer"] or tracer

    import_s = measure_import()
    out = {}
    for name in names:
        r = runs[name]
        if len(r["stdout"]) > 1:
            tally.record(name, "traced runs", ["stdout differs with and without tracing"])
        if not r["layers"] or not r["plain"]:
            continue
        r["tracer"].dump(RESULTS_DIR / f"trace-{name}-seed{seed}.json")
        counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in r["layers"]]
        if any(c != counts[0] for c in counts):
            tally.record(name, "traced runs", ["per-layer counts differ between runs"])
        metrics = {k: statistics.median(m[k] for m in r["layers"]) for k in r["layers"][0]}
        metrics.update(counts[0])
        metrics["cli.import_s"] = import_s
        metrics["trace.overhead_ratio"] = (
            statistics.median(r["traced"]) / statistics.median(r["plain"]))
        out[name] = (metrics, len(r["layers"]), {"in_process": r["plain"],
                                                  "in_process_traced": r["traced"]})
    return out


def layer_unit(metric: str) -> str:
    for suffix, unit in LAYER_UNITS_BY_SUFFIX.items():
        if metric.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------
# main


def git_commit() -> str:
    # The ceiling keeps git from reporting a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="certify-n4, tables-n8, documents-w2, or all (default)")
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED,
                        help=f"documents seed (default {wl.DEFAULT_SEED}; "
                             f"held-out seed {wl.HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time per workload and phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: both, end to end first)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "idealtop" / "__init__.py").is_file():
        print(f"error: no idealtop sources under {SRC}", file=sys.stderr)
        return 2
    # what `nproc` prints: the CPUs this process may run on
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    loads = wl.workloads(nproc)
    names = list(loads) if args.workload == "all" else [args.workload]
    if any(name not in loads for name in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import idealtop

    if not Path(idealtop.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: idealtop imported from {idealtop.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl.WORK_DIR.mkdir(exist_ok=True)
    RESULTS_DIR.mkdir(exist_ok=True)
    env = {
        "python": platform.python_version(),
        "nproc": nproc,
        "loadavg_start": os.getloadavg(),
        "seed": args.seed,
        "commit": git_commit(),
    }
    [repro] = run_children(["repro"])
    if repro["exit"] != 0:
        print("error: idealtop repro failed; not timing a broken build", file=sys.stderr)
        sys.stderr.write(repro["stdout"].decode("utf-8", "replace")[-2000:])
        return 1

    expected = wl.load_expected()
    docs = {name: wl.write_documents(args.seed) if name == "documents-w2" else []
            for name in names}
    phases = [args.trace] if args.trace is not None else [0, 1]
    label = f"{args.workload}-seed{args.seed}"
    tally = Tally()
    metrics: dict[str, dict] = {}
    timings: dict[str, dict] = {name: {} for name in names}
    report_lines = []
    if 0 in phases:
        samples = measure_end_to_end(names, loads, docs, args.seed, args.seconds,
                                     expected, tally, nproc)
        for name in names:
            for kind in ("full", "setup"):
                timings[name][kind] = [[r["wall_s"], r["cpu_s"], r["peak_rss_mb"]]
                                       for r in samples[name][kind]]
            for metric, (value, count) in end_to_end_metrics(samples[name]).items():
                unit = END_TO_END_UNITS[metric]
                metrics.setdefault(name, {})[metric] = {"value": value, "unit": unit}
                report_lines.append(f"{name:13} {metric:32} {value:14.6g} {unit:6} n={count}")
            attempted, failed = tally.runs.get(name, (0, 0))
            report_lines.append(f"{name:13} {'fail_ratio':32} "
                                f"{failed / max(attempted, 1):14.6g} ratio  n={attempted}")
    if 1 in phases:
        layered = measure_traced(names, loads, docs, args.seed, args.seconds, expected,
                                 tally)
        for name, (values, count, walls) in layered.items():
            timings[name].update(walls)
            for metric, value in values.items():
                unit = layer_unit(metric)
                metrics.setdefault(name, {})[metric] = {"value": value, "unit": unit}
                report_lines.append(f"{name:13} {metric:32} {value:14.6g} {unit:6} n={count}")

    env["loadavg_end"] = os.getloadavg()
    correct = tally.failed == 0 and all(name in metrics for name in names)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": (metrics.get(names[0], {}) if len(names) == 1 else
                    {f"{n}.{k}": v for n in metrics for k, v in metrics[n].items()}),
    }
    phase = "both" if args.trace is None else f"trace{args.trace}"
    with open(RESULTS_DIR / f"{label}-{phase}.json", "w", encoding="utf-8") as fh:
        json.dump({**env, "workloads": names, "problems": tally.problems, "result": result,
                   "report": report_lines, "timings": timings}, fh, indent=1)
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print("\n".join(report_lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
