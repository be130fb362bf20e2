"""Benchmark of the hyperconn CLI: three closed-loop workloads, one client.

Usage (from the repository root):

    python3 bench/run.py --workload flow --seed 1 --seconds 32 --trace 0

Set-up imports ``hyperconn`` from ``src/``, writes the workload's instance
files from the seed and derives every expected answer.  A run then makes
whole passes over the workload's operations, each one
``hyperconn.cli.main(argv)`` in this process with its output captured and
checked.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
each operation untraced and then traced and prints the per-layer metrics
and the tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import cases
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# A run makes round(--seconds / nominal) passes, so a run lasts about
# --seconds at the commit that introduced the benchmark (2-core x86-64,
# Python 3.11) and every commit takes the same number of samples; the tail
# percentile below then names the same rank on both sides of a comparison.
NOMINAL_PASS_S = {"flow": 8.0, "search": 11.2, "enumerate": 11.3}

# Set-up is timed once before the passes and this many times after each pass.
SETUP_REPEATS_PER_PASS = 3

# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10

# The gated end-to-end metrics.  op_p50_ms and op_tail_ms are printed but
# not gated: each is one operation's value out of 21-32 samples, and across
# runs it moved with the host's fast and slow states by up to 39% of its
# median, more than the largest bound allowed.
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BudgetExceeded(BaseException):
    """Raised by SIGALRM when an operation outlives its budget.

    A BaseException, so no ``except Exception`` in the program swallows it.
    """


def _on_alarm(signum, frame):
    raise BudgetExceeded()


@dataclass
class Outcome:
    case: str
    seconds: float
    status: str  # "ok", "mismatch", "timeout" or the exception's name
    detail: str = ""


def run_case(package, case: cases.Case) -> tuple[Outcome, int | None, str]:
    """One operation under its budget; the output is checked by the caller."""
    out = io.StringIO()
    code = None
    status = "ok"
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, case.budget_s)
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                # Looked up per call, so a traced pass reaches the wrapper.
                code = package.cli.main(list(case.argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        status = "timeout"
    except SystemExit as exc:
        status = f"SystemExit({exc.code})"
    except Exception as exc:  # the operation failed; the run goes on
        status = type(exc).__name__
    seconds = time.perf_counter() - start
    return Outcome(case.name, seconds, status), code, out.getvalue()


def run_pass(
    package, run_cases: list[cases.Case], tracer: tracing.Tracer | None = None
) -> tuple[list[Outcome], list[Outcome]]:
    """One pass over the cases; every output is checked after the pass.

    With a tracer, each operation runs untraced and then traced, back to
    back, so both copies meet the same state of a shared machine.  Returns
    the untraced and the traced outcomes.
    """
    raw = []
    for case in run_cases:
        raw.append((case, False, *run_case(package, case)))
        if tracer is not None:
            tracer.install(package)
            try:
                raw.append((case, True, *run_case(package, case)))
            finally:
                tracer.restore()
    untraced: list[Outcome] = []
    traced: list[Outcome] = []
    for case, is_traced, outcome, code, text in raw:
        if outcome.status == "ok":
            problem = case.check(code, text)
            if problem is not None:
                outcome.status = "mismatch"
                outcome.detail = problem
        (traced if is_traced else untraced).append(outcome)
    return untraced, traced


def set_up(workload: str, seed: int, base: Path):
    """Import hyperconn into a clean ``sys.modules`` and write the inputs
    under ``base``; returns the package, its pending cases and the time.

    The modules that were loaded before stay importable afterwards only if
    the caller puts them back (see ``repeat_set_up``).
    """
    for name in _program_modules():
        del sys.modules[name]
    shutil.rmtree(base, ignore_errors=True)
    start = time.perf_counter()
    package = importlib.import_module("hyperconn")
    importlib.import_module("hyperconn.cli")
    pending = cases.setup(workload, package, seed, base)
    seconds = time.perf_counter() - start
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"hyperconn imported from {package.__file__}, not from {SRC}")
    return package, pending, seconds


def repeat_set_up(workload: str, seed: int, base: Path) -> float:
    """Time one more set-up, then restore the modules the passes use."""
    active = {name: sys.modules[name] for name in _program_modules()}
    try:
        return set_up(workload, seed, base)[2]
    finally:
        shutil.rmtree(base, ignore_errors=True)
        for name in _program_modules():
            del sys.modules[name]
        sys.modules.update(active)


def _program_modules() -> list[str]:
    return [n for n in sys.modules if n == "hyperconn" or n.startswith("hyperconn.")]


def pass_count(workload: str, seconds: int, ops: int) -> int:
    least = max(2, math.ceil((TAIL_BEYOND + 1) / ops))
    return max(least, round(seconds / NOMINAL_PASS_S[workload]))


def latency_summary(seconds: list[float]) -> dict[str, float]:
    ms = sorted(s * 1000.0 for s in seconds)
    n = len(ms)
    rank = n - TAIL_BEYOND - 1  # exactly TAIL_BEYOND samples lie beyond it
    return {
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": ms[rank],
        "tail_percentile": 100.0 * (rank + 1) / n,
        "samples": n,
    }


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hyperconn" / "__init__.py").is_file():
        print(f"error: no hyperconn sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    base = WORK / f"{args.workload}-{os.getpid()}"
    try:
        return _run(args, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


@dataclass
class Measurement:
    pass_s: list[float]  # per pass: the sum of its untraced operation times
    traced_pass_s: list[float]
    outcomes: list[Outcome]
    tracer: tracing.Tracer | None


def measure(
    package, run_cases: list[cases.Case], passes: int, trace: bool, after_pass=None
) -> Measurement:
    """``passes`` untraced passes, or with ``trace`` half as many (at least
    one) passes that run each operation untraced and traced.  ``after_pass``
    runs after each pass, outside its time."""
    m = Measurement([], [], [], tracing.Tracer() if trace else None)
    for _ in range(max(1, passes // 2) if trace else passes):
        untraced, traced = run_pass(package, run_cases, m.tracer)
        m.pass_s.append(sum(o.seconds for o in untraced))
        if traced:
            m.traced_pass_s.append(sum(o.seconds for o in traced))
        m.outcomes += untraced + traced
        if after_pass is not None:
            after_pass()
    return m


def result_line(outcomes: list[Outcome], metrics: dict[str, float], units: dict[str, str]) -> str:
    """The final JSON line; ``correct`` is false when any output was wrong."""
    return json.dumps(
        {
            "correct": all(o.status != "mismatch" for o in outcomes),
            "attempted": len(outcomes),
            "failed": sum(o.status != "ok" for o in outcomes),
            "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        }
    )


def _run(args, base: Path) -> int:
    package, pending, seconds = set_up(args.workload, args.seed, base / "inputs")
    setup_times = [seconds]
    start = time.perf_counter()
    run_cases = cases.derive(args.workload, pending)
    derive_s = time.perf_counter() - start
    passes = pass_count(args.workload, args.seconds, len(run_cases))

    def after_pass() -> None:
        # Set-up is timed again after every pass, so its median samples the
        # same machine conditions as the passes; a 50 ms set-up timed only
        # at the start reads either a fast or a slow moment of a shared host.
        for _ in range(SETUP_REPEATS_PER_PASS):
            setup_times.append(repeat_set_up(args.workload, args.seed, base / "repeat"))

    m = measure(package, run_cases, passes, bool(args.trace), None if args.trace else after_pass)

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "setup_reps": len(setup_times),
        "untraced_passes": len(m.pass_s),
        "traced_passes": len(m.traced_pass_s),
        "budget_s": {case.name: case.budget_s for case in run_cases},
        "lemma_seed": cases.subseed(args.seed, "lemma"),
    }
    print("env " + json.dumps(env, sort_keys=True))
    _print_cases(run_cases, m.outcomes)
    failed = sum(o.status != "ok" for o in m.outcomes)
    attempted = len(m.outcomes)
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} operations)")
    print(f"derive_s {derive_s:.4f} s (expected answers, outside set-up)")
    if m.tracer is not None:
        untraced = statistics.median(m.pass_s)
        traced = statistics.median(m.traced_pass_s)
        layer = m.tracer.metrics(len(m.traced_pass_s))
        metrics = {name: layer[name] for name, _ in tracing.PER_LAYER}
        metrics["trace.overhead_s"] = traced - untraced
        units = {**dict(tracing.PER_LAYER), "trace.overhead_s": "s"}
        for line in m.tracer.table(len(m.traced_pass_s)):
            print("  " + line)
        print(
            f"symmetry.targets_free {layer['symmetry.targets_free']:g} of base "
            f"{layer['symmetry.targets_base']:g} (n-1 over completed transitivity calls)"
        )
        print(
            f"trace overhead {traced - untraced:.4f} s per pass "
            f"({100.0 * (traced - untraced) / untraced:.2f}% of untraced {untraced:.4f} s, "
            f"traced {traced:.4f} s)"
        )
    else:
        lat = latency_summary([o.seconds for o in m.outcomes])
        metrics = {
            "setup_s": statistics.median(setup_times),
            "pass_s": statistics.median(m.pass_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        q1, _, q3 = statistics.quantiles(m.pass_s, n=4)
        print(f"setup runs [s]: {' '.join(f'{t:.4f}' for t in setup_times)}")
        print(f"pass_s quartiles: q1 {q1:.4f} s, q3 {q3:.4f} s over {len(m.pass_s)} passes")
        print(f"op_p50_ms {lat['op_p50_ms']:.6g} ms (median of {lat['samples']} samples)")
        print(
            f"op_tail_ms {lat['op_tail_ms']:.6g} ms (p{lat['tail_percentile']:.1f} of "
            f"{lat['samples']} samples, {TAIL_BEYOND} beyond it)"
        )
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(result_line(m.outcomes, metrics, units))
    return 0


def _print_cases(run_cases: list[cases.Case], outcomes: list[Outcome]) -> None:
    print(f"{'case':32s} {'status':16s} {'median_ms':>12s}")
    for case in run_cases:
        mine = [o for o in outcomes if o.case == case.name]
        statuses = sorted({o.status for o in mine})
        median_ms = statistics.median(o.seconds for o in mine) * 1000.0
        print(f"{case.name:32s} {','.join(statuses):16s} {median_ms:12.2f}")
        for o in mine:
            if o.detail:
                print(f"  mismatch: {o.detail[:300]}")
                break


if __name__ == "__main__":
    sys.exit(main())
