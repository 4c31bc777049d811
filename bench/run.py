"""qig's benchmark: one named workload, timed end to end or traced per layer.

Usage, from the root of a checkout (qig need not be installed)::

    python bench/run.py --workload ball-integrals --seed 1 --seconds 36 --trace 0

Each workload runs in fresh interpreters with ``src`` on PYTHONPATH and
QIG_THREADS / QIG_TRACE removed, as a closed loop with one client: the
next op starts when the previous one has been checked.  The last line of
stdout is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the run record.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.  The full record, and the spans
of a traced run, are written under ``bench/out/``.

See bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli-startup", "ball-integrals", "pointwise", "montecarlo")
#: set-up samples per timed run; setup_s is their median
SETUP_SAMPLES = 5
#: spawns of ``python -c pass`` and of ``python -X importtime -m qig.cli`` per traced run
STARTUP_SAMPLES, IMPORTTIME_SAMPLES = 5, 3
#: below this many verified ops the highest percentile with ten samples beyond
#: it is under the 67th, no tail, so the maximum is reported instead
TAIL_MIN_SAMPLES = 30
#: the whole run ends within this many seconds, or its processes are killed
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
                    "verified_ratio": "ratio", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("QIG_THREADS", "QIG_TRACE")}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.env = child_env(root)
        self.deadline = deadline

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run deadline passed")
        return left

    def worker(self, workload: str, seed: int, seconds: float, mode: str, tiny: bool):
        """Spawn a workload process; return (seconds until ready, result event or None)."""
        argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds),
                mode, "1" if tiny else "0"]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE)
        try:
            lines = self._lines(proc)
            ready = next(lines)
            setup = time.perf_counter() - start
            if json.loads(ready).get("event") != "ready":
                raise BenchError(f"{workload} worker did not report ready")
            result = None
            for line in lines:
                result = json.loads(line)
            rc = proc.wait(timeout=self.remaining())
        except StopIteration:
            raise BenchError(f"{workload} worker exited before it was ready "
                             f"(exit code {proc.wait()})") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if rc != 0:
            raise BenchError(f"{workload} worker exited with code {rc}")
        if mode != "probe" and (result is None or result.get("event") != "result"):
            raise BenchError(f"{workload} worker gave no result")
        return setup, result

    def _lines(self, proc):
        """Lines of the worker's stdout, each read before the run deadline."""
        buf = b""
        fd = proc.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while True:
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    yield line.decode()
                if not sel.select(timeout=self.remaining()):
                    raise BenchError("worker timed out")
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    return
                buf += chunk

    def wall(self, argv: list) -> tuple[float, subprocess.CompletedProcess]:
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=self.remaining())
        return time.perf_counter() - start, proc


def tail(samples: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest percentile with ten beyond."""
    s = sorted(samples)
    n = len(s)
    if n < TAIL_MIN_SAMPLES:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def parse_importtime(stderr: str) -> dict:
    """import.* metrics from ``python -X importtime -m qig.cli ...`` output."""
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)", line)
        if m:
            rows.append((int(m[1]) * 1e-6, int(m[2]) * 1e-6, len(m[3]) // 2, m[4]))
    # children print before their parent; walk backwards to find each parent
    parents, stack = [None] * len(rows), []
    for i in range(len(rows) - 1, -1, -1):
        level = rows[i][2]
        while stack and rows[stack[-1]][2] >= level:
            stack.pop()
        parents[i] = rows[stack[-1]][3] if stack else None
        stack.append(i)
    after_runpy = [i for i, r in enumerate(rows) if r[3] == "runpy" and r[2] == 0]
    first = after_runpy[0] + 1 if after_runpy else 0

    def is_scipy(name):
        return name is not None and (name == "scipy" or name.startswith("scipy."))

    def is_qig(name):
        return name == "qig" or name.startswith("qig.")

    return {
        "import.qig_cli_s": sum(r[1] for r in rows[first:] if r[2] == 0),
        "import.scipy_s": sum(r[1] for r, p in zip(rows, parents)
                              if is_scipy(r[3]) and not is_scipy(p)),
        "import.qig_self_s": sum(r[0] for r in rows if is_qig(r[3])),
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_out"):
        return "B"
    return "count"


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src" / "qig").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() or None


def timed_run(runner: Runner, args) -> tuple[dict, dict]:
    probes = 0 if args.tiny else SETUP_SAMPLES - 1
    setups = [runner.worker(args.workload, args.seed, 0, "probe", args.tiny)[0]
              for _ in range(probes)]
    setup, res = runner.worker(args.workload, args.seed, args.seconds, "run", args.tiny)
    setups.append(setup)
    samples = res["samples"]
    if not samples:
        raise BenchError(f"no op verified: {res['errors']}")
    tail_s, tail_pct, beyond = tail(samples)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(samples),
        "op_tail_s": tail_s,
        "ops_per_s": len(samples) / res["busy_s"],
        "verified_ratio": len(samples) / res["attempted"],
        "peak_rss_mb": res["peak_rss_kib"] / 1024.0,
    }
    record = {"setup_samples_s": setups, "op_samples": len(samples),
              "op_samples_s": samples, "tail_percentile": tail_pct, "tail_beyond": beyond,
              "failed_ratio": res["failed"] / res["attempted"], "versions": res["versions"],
              "errors": res["errors"]}
    return {"attempted": res["attempted"], "failed": res["failed"], "metrics": metrics,
            "units": END_TO_END_UNITS}, record


def traced_run(runner: Runner, args) -> tuple[dict, dict]:
    _, res = runner.worker(args.workload, args.seed, args.seconds, "trace", args.tiny)
    metrics = dict(res["layer_metrics"])
    attempted, failed = res["attempted"], res["failed"]
    n_start = 1 if args.tiny else STARTUP_SAMPLES
    n_import = 1 if args.tiny else IMPORTTIME_SAMPLES
    starts = []
    for _ in range(n_start):
        dt, proc = runner.wall([sys.executable, "-c", "pass"])
        starts.append(dt)
    metrics["python.startup_s"] = statistics.median(starts)
    imports = []
    for _ in range(n_import):
        _, proc = runner.wall([sys.executable, "-X", "importtime", "-m", "qig.cli",
                               "bound-radius"])
        attempted += 1
        if proc.returncode != 0 or not proc.stdout.strip():
            failed += 1
            continue
        imports.append(parse_importtime(proc.stderr))
    for key in ("import.qig_cli_s", "import.scipy_s", "import.qig_self_s"):
        metrics[key] = statistics.median(d[key] for d in imports) if imports else 0.0
    record = {"untraced_op_s": res["untraced_s"], "traced_op_s": res["traced_s"],
              "python_startup_samples_s": starts, "versions": res["versions"],
              "errors": res["errors"], "spans": res["spans"]}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "units": {k: unit_of(k) for k in metrics}}, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed loop of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, one op and one set-up sample (smoke test)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qig" / "__init__.py").is_file():
        print("error: run from the root of a qig checkout (no src/qig here)", file=sys.stderr)
        return 2
    runner = Runner(root, time.monotonic() + RUN_DEADLINE_S)
    load_start = os.getloadavg()
    try:
        # byte-compile untimed: installed users do not pay the compile step per run
        runner.wall([sys.executable, "-m", "compileall", "-q", "src/qig", str(HERE)])
        result, record = (traced_run if args.trace else timed_run)(runner, args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    spans = record.pop("spans", None)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "git_sha": git_sha(root),
              "src_sha256": src_digest(root), "nproc": os.cpu_count(),
              "affinity": len(os.sched_getaffinity(0)), "loadavg_start": load_start,
              "load_model": "closed loop, one client", "attempted": result["attempted"],
              "failed": result["failed"], **record,
              "metrics": {k: {"value": v, "unit": result["units"][k]}
                          for k, v in result["metrics"].items()}}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (out / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    print(json.dumps({"record": {k: v for k, v in record.items() if k != "op_samples_s"}}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
