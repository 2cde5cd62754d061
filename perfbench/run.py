"""Benchmark of setmeans: seeded workloads driven through ``setmeans.cli.run_command``.

Usage (from the repository root):

    python3 perfbench/run.py --workload lln-poly2d --seed 42 --seconds 15 --trace 0

One process, one caller: each command starts after the previous one
returns (a closed loop).  A pass runs every command of the workload
once; passes repeat for about ``--seconds``.  The end-to-end figures
are the slow-side decile over passes of records over the wall time of
the experiment calls (each report's ``duration_seconds``) and of the
pass wall time (see ``decile``), and the median set-up time of fresh
processes started between passes.
``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of traced passes (interleaved with
untraced ones to measure the tracing overhead) plus stand-alone layer
timings.  Every run checks its records (see ``gate.py``); the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--smoke`` runs a handful of replications per
command, for the benchmark's own tests.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads; the probes inherit this.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
SETUP_PROBES = 9          # fresh processes per run; setup_s is their median
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "records_per_s": "1/s",
    "verdict_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program to measure)."""


def import_program():
    """Import setmeans from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "setmeans", "__init__.py")):
        raise BenchError(f"no setmeans sources under {SRC}")
    sys.path.insert(0, SRC)
    import setmeans

    if os.path.dirname(os.path.abspath(setmeans.__file__)) != os.path.join(SRC, "setmeans"):
        raise BenchError(f"setmeans imported from {setmeans.__file__}, not from {SRC}")
    return setmeans


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "threads": THREAD_ENV,
    }


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" where it is not a git repository."""
    # the ceiling keeps git from reporting a repository that merely encloses the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def setup_probe_s(commands) -> float:
    """Set-up time of one fresh process (see ``setup_probe.py``)."""
    spec = json.dumps({"src": SRC, "commands": [
        {"kind": c.kind, "scene": c.scene, "direction": c.direction, "point": c.point}
        for c in commands]})
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), spec],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=ROOT, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"set-up probe took over {PROBE_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class Pass:
    """One run of every command of a workload, in order."""

    def __init__(self, commands, seed: int, out_root: str):
        from setmeans.cli import run_command

        self.out_dirs = [os.path.join(out_root, c.name) for c in commands]
        self.exit_codes = []
        self.command_s = []
        self.messages = []
        start = time.perf_counter()
        for cmd, out in zip(commands, self.out_dirs):
            captured = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                try:
                    code = run_command(cmd.argv(seed, out))
                except Exception:  # an escaped error fails the command, not the run
                    code = -1
                    traceback.print_exc()
            self.command_s.append(time.perf_counter() - t0)
            self.exit_codes.append(code)
            self.messages.append(captured.getvalue().strip())
        self.wall_s = time.perf_counter() - start
        self.records = 0
        self.experiment_s = 0.0
        digest = hashlib.sha256(repr(self.exit_codes).encode())
        for out, command_s in zip(self.out_dirs, self.command_s):
            with contextlib.suppress(OSError), open(os.path.join(out, "records.csv"), "rb") as fh:
                data = fh.read()
                digest.update(data)
                self.records += data.count(b"\n") - 1
            # the experiment call's own wall time, as the program reports it;
            # a command that wrote no report counts with its whole time
            try:
                with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
                    self.experiment_s += float(json.load(fh)["duration_seconds"])
            except (OSError, ValueError, KeyError):
                self.experiment_s += command_s
        self.digest = digest.hexdigest()

    @property
    def records_per_s(self) -> float:
        """Records over the wall time of the experiment calls."""
        return self.records / self.experiment_s


def decile(values: list[float], low: bool) -> float:
    """The 10th (``low``) or 90th percentile of per-pass values.

    On a shared host the speed can alternate between a fast and a slow
    state in phases of 10-30 s; on a 2-vCPU Xeon virtual machine a pass ran
    up to 1.8 times slower in the slow one.
    The median of a run's passes snaps to whichever state held the run
    longer, so it swings from run to run; the slow-side decile sits in the
    slow state, which nearly every run visits, and so stays steady.
    """
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[0] if low else cuts[-1]


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import gate
    import workloads
    from layers import layer_timings
    from tracer import Tracer, layer_metrics

    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    commands, inputs = workloads.prepare(workload, seed, work, ROOT, smoke=smoke)
    print("env " + json.dumps(environment(), sort_keys=True))
    print("inputs " + json.dumps(inputs, sort_keys=True))

    Pass([c.smoke() for c in commands], seed, os.path.join(work, "warmup"))

    # Set-up probes are spread over the run, between passes, so that their
    # median does not rest on one stretch of the host's speed.
    probes = 0 if trace else 1 if smoke else SETUP_PROBES
    setup, untraced, traced, layer_runs = [], [], [], []
    start = time.perf_counter()
    while True:
        if len(setup) < probes and time.perf_counter() - start >= len(setup) * seconds / probes:
            setup.append(setup_probe_s(commands))
        untraced.append(Pass(commands, seed, os.path.join(work, f"pass{len(untraced)}")))
        if trace:
            tracer = Tracer()
            with tracer.installed():
                traced.append(Pass(commands, seed, os.path.join(work, f"traced{len(traced)}")))
            layer_runs.append(layer_metrics(tracer, workloads.HAUSDORFF_TAIL_PCT[workload]))
        # Go on while the next round is expected to end within half a round
        # of the deadline, so a run lasts about --seconds whatever a pass costs.
        round_s = statistics.median(p.wall_s for p in untraced) * (2 if trace else 1)
        if time.perf_counter() - start + round_s / 2 > seconds:
            break
    while len(setup) < probes:
        setup.append(setup_probe_s(commands))
    first = untraced[0]
    for cmd, code, message in zip(commands, first.exit_codes, first.messages):
        if code != 0:
            print(f"{cmd.name}: exit {code}: {message}", file=sys.stderr)
    print("pass_records_per_s " + " ".join(f"{p.records_per_s:.4g}" for p in untraced))
    print("pass_wall_s " + " ".join(f"{p.wall_s:.4g}" for p in untraced))

    results = [gate.read_result(c, code, out) for c, code, out
               in zip(commands, first.exit_codes, first.out_dirs)]
    reference = gate.load_reference(workload, seed)
    failed_first, reasons = gate.check(results, seed, reference,
                                       verdicts_required=seed == workloads.DEFAULT_SEED
                                       and not smoke)
    per_pass = sum(c.records_per_pass for c in commands)
    passes = untraced + traced
    differing = sum(p.digest != first.digest for p in passes)
    if differing:
        reasons.append(f"{differing} passes wrote records that differ from the first pass")
    failed = failed_first * (len(passes) - differing) + per_pass * differing
    attempted = per_pass * len(passes)
    for reason in reasons:
        print(f"gate: {reason}", file=sys.stderr)

    if trace:
        tracer.dump(os.path.join(work, "spans.npz"))
        metrics = per_layer_metrics(layer_runs, untraced, traced)
        metrics.update({name: (value, "ms") for name, value in layer_timings(seed).items()})
    else:
        metrics = {
            "records_per_s": decile([p.records_per_s for p in untraced], low=True),
            "verdict_s": decile([p.wall_s for p in untraced], low=False),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
    print(f"passes {len(passes)} ({len(traced)} traced), {per_pass} records per pass")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _unit(quantity: str) -> str:
    if quantity in ("busy_s", "self_s"):
        return "s"
    if quantity.endswith("_frac"):
        return "frac"
    if quantity == "bytes":
        return "B"
    if quantity.startswith("call_ms"):
        return "ms"
    return "count"


def per_layer_metrics(layer_runs, untraced, traced) -> dict:
    """Medians over traced passes of each per-pass layer metric."""
    metrics = {name: (statistics.median(run[name] for run in layer_runs),
                      _unit(name.rsplit(".", 1)[1]))
               for name in layer_runs[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced) - 1.0, "frac")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a handful of replications per command")
    args = parser.parse_args(argv)
    try:
        import_program()
        sys.path.insert(0, HERE)
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(workloads.WORKLOADS)}")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
