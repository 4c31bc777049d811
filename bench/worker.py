"""One workload process: import qig, build the inputs, then run a closed loop of ops.

Started by run.py as ``python bench/worker.py <workload> <seed> <seconds>
<mode> <tiny>`` with ``src`` on PYTHONPATH.  It writes JSON lines to its
stdout: ``{"event": "ready"}`` once qig is imported and the inputs are
built, then ``{"event": "result", ...}``.  Anything else the program prints
goes to stderr.

Modes:
  probe  stop after ready (a set-up sample)
  run    warm up untimed, then time ops for the given seconds, one at a time
  trace  time a fixed number of the workload's ops, each untraced and then
         traced, then run op 0 of every other workload untraced and traced,
         so every traced op 0 is warm; its spans give the per-layer metrics
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

PROTOCOL = sys.stdout
sys.stdout = sys.stderr

import workloads  # noqa: E402  (imports qig)
import tracing  # noqa: E402

#: ops per side of the traced-versus-untraced overhead comparison
OVERHEAD_OPS = {"cli-startup": 3, "ball-integrals": 2, "pointwise": 5, "montecarlo": 1}
#: error messages kept in the result
MAX_ERRORS = 5


def emit(**payload) -> None:
    PROTOCOL.write(json.dumps(payload) + "\n")
    PROTOCOL.flush()


def timed_op(wl, run, i: int, errors: list, tracer=None):
    """Run op i and check it; return (seconds, verified).

    Only the op is timed.  Under a tracer the check runs with tracing paused,
    because the checks call qig too.
    """
    start = time.perf_counter()
    try:
        out = run(i)
    except Exception as exc:  # an op that raises is a failed op, not an aborted run
        errors.append(f"{wl.name} op {i}: raised {type(exc).__name__}: {exc}")
        return time.perf_counter() - start, False
    elapsed = time.perf_counter() - start
    try:
        if tracer is None:
            wl.check(i, out)
        else:
            with tracer.paused():
                wl.check(i, out)
    except Exception as exc:
        errors.append(f"{wl.name} op {i}: check failed: {type(exc).__name__}: {exc}")
        return elapsed, False
    return elapsed, True


def closed_loop(wl, seconds: float) -> dict:
    """Ops back to back until the next one would end past ``seconds`` (at least one)."""
    samples, errors = [], []
    attempted = failed = 0
    busy = 0.0
    while not attempted or busy + statistics.median(samples or [busy]) <= seconds:
        elapsed, ok = timed_op(wl, wl.run, attempted, errors)
        attempted += 1
        busy += elapsed
        if ok:
            samples.append(elapsed)
        else:
            failed += 1
    return {"samples": samples, "attempted": attempted, "failed": failed,
            "busy_s": busy, "errors": errors[:MAX_ERRORS]}


def inproc_op(wl, i: int, errors: list, tracer=None):
    """(seconds, verified) of in-process op i; spans are tagged (workload, i).

    For cli-startup the in-process op is one pass of ``main()`` over every
    command of the cycle.
    """
    if tracer is not None:
        tracer.op = (wl.name, i)
    if not isinstance(wl, workloads.CliStartup):
        return timed_op(wl, wl.run_inproc, i, errors, tracer)
    n = len(wl.commands)
    results = [timed_op(wl, wl.run_inproc, i * n + k, errors, tracer) for k in range(n)]
    return sum(dt for dt, _ in results), all(ok for _, ok in results)


def traced_run(name: str, seed: int, tiny: bool, root: Path, named) -> dict:
    """Overhead of tracing on the named workload, and spans of op 0 of every workload."""
    errors: list = []
    verdicts: list = []
    k = 1 if tiny else OVERHEAD_OPS[name]
    others = [cls(seed, tiny, root) for n, cls in workloads.WORKLOADS.items() if n != name]
    named.warm()
    tracer = tracing.Tracer()
    untraced, traced = [], []
    try:
        # alternate, so drift in machine speed does not read as overhead
        for i in range(k):
            dt, ok = inproc_op(named, i, errors)
            untraced.append(dt)
            verdicts.append(ok)
            tracer.install()
            dt, ok = inproc_op(named, i, errors, tracer)
            tracer.uninstall()
            traced.append(dt)
            verdicts.append(ok)
        for wl in others:
            # untraced first, so first-call costs (lazy imports, caches) stay out of the spans
            verdicts.append(inproc_op(wl, 0, errors)[1])
            tracer.install()
            verdicts.append(inproc_op(wl, 0, errors, tracer)[1])
            tracer.uninstall()
    finally:
        tracer.uninstall()
    layer_ops = {(wl.name, 0) for wl in [named, *others]}
    metrics = tracing.layer_metrics(tracer.spans, layer_ops)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    return {"layer_metrics": metrics, "attempted": len(verdicts),
            "failed": verdicts.count(False), "errors": errors[:MAX_ERRORS],
            "untraced_s": untraced, "traced_s": traced,
            "spans": [[*s[:4], list(s[4]), s[5]] for s in tracer.spans]}


def main() -> None:
    name, seed, seconds, mode, tiny = sys.argv[1:6]
    seed, seconds, tiny = int(seed), float(seconds), tiny == "1"
    root = Path.cwd()
    wl = workloads.WORKLOADS[name](seed, tiny, root)
    emit(event="ready")
    if mode == "probe":
        return
    versions = workloads.versions()
    if mode == "run":
        wl.warm()
        result = closed_loop(wl, seconds)
        # cli-startup ops are child processes; the others run in this one
        who = resource.RUSAGE_CHILDREN if name == "cli-startup" else resource.RUSAGE_SELF
        emit(event="result", versions=versions, peak_rss_kib=resource.getrusage(who).ru_maxrss,
             **result)
    else:
        emit(event="result", versions=versions, **traced_run(name, seed, tiny, root, wl))


if __name__ == "__main__":
    main()
