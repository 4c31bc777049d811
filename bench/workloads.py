"""The benchmark's four workloads: seeded inputs, one timed op, and its check.

Each workload turns the benchmark seed into inputs, runs one op (the unit
of work timed end to end) and checks the op's outputs against paper
constants, closed forms from :mod:`refs`, or outputs recorded from the
unmodified package in ``recorded.json``.  A check raises
:class:`CheckError`; an op that raises or fails its check counts as failed.

This module imports qig, so it runs only inside a workload process.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy
from qig import analysis, bloch, cli, coding, estimator, infogeo, povm

import refs

HERE = Path(__file__).resolve().parent
RECORDED = HERE / "recorded.json"

#: Monte Carlo sizes fixed by the workload definition
MC_TRIALS, MC_REPS = 10 ** 5, 100
#: smaller repetition count for the smoke-test size (same trials, so the
#: expected-count guard of efficiency_report still holds)
MC_REPS_TINY = 4
MC_MODELS = ("vidal2", "vidal3", "quad")


class CheckError(AssertionError):
    """An op's output disagreed with its reference."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def interior_points(rng: np.random.Generator, n: int, rmin: float, rmax: float,
                    coord_min: float) -> np.ndarray:
    """n points with rmin < r < rmax and every |coordinate| >= coord_min."""
    pts = []
    while len(pts) < n:
        v = rng.uniform(-1.0, 1.0, 3)
        if rmin < np.linalg.norm(v) < rmax and np.min(np.abs(v)) >= coord_min:
            pts.append(v)
    return np.asarray(pts)


def model(key: str) -> infogeo.ProbModel:
    return infogeo.quadrinomial_model() if key == "quad" else povm.vidal_model(int(key[-1]))


# ---------------------------------------------------------------------------
# cli-startup
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.6f}"


class CliStartup:
    """Each op is one fresh ``python -m qig.cli`` process running a cheap command."""

    name = "cli-startup"
    #: command slugs, in cycle order
    commands = (
        "helstrom", "helstrom_spherical", "fisher_n5", "gm_trace_qb_n4",
        "bound_radius", "coding_qb", "normalize_qb", "verify_all_1_3",
    )

    def __init__(self, seed: int, tiny: bool, root: Path):
        self.seed = seed
        self.root = root

    def params(self, i: int):
        """Seeded inputs of op i: a point and two radii, printed exactly as passed."""
        rng = np.random.default_rng([self.seed, i])
        v = np.array([float(_fmt(t)) for t in interior_points(rng, 1, 0.1, 0.9, 0.05)[0]])
        r_gm, r_coding = (float(_fmt(t)) for t in rng.uniform(0.05, 0.95, 2))
        return v, r_gm, r_coding

    def argv(self, i: int) -> list[str]:
        v, r_gm, r_coding = self.params(i)
        point = ",".join(_fmt(t) for t in v)
        slug = self.commands[i % len(self.commands)]
        return {
            "helstrom": ["helstrom", f"--point={point}"],
            "helstrom_spherical": ["helstrom", f"--point={point}", "--spherical"],
            "fisher_n5": ["fisher", "--n", "5", f"--point={point}"],
            "gm_trace_qb_n4": ["gm-trace", "--metric", "quasi-bures", "--n", "4",
                               "--r", _fmt(r_gm)],
            "bound_radius": ["bound-radius"],
            "coding_qb": ["coding", "--prior", "quasi-bures", "--N", "100",
                          "--r", _fmt(r_coding)],
            "normalize_qb": ["normalize", "--prior", "quasi-bures"],
            "verify_all_1_3": ["verify-all", "--ids", "1", "3"],
        }[slug]

    def warm(self) -> None:
        pass

    def run(self, i: int):
        # the environment run.py gave this process: src on PYTHONPATH, no QIG_* settings
        proc = subprocess.run([sys.executable, "-m", "qig.cli", *self.argv(i)],
                              cwd=self.root, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    def run_inproc(self, i: int):
        """The same command through ``qig.cli.main`` in this process."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(self.argv(i))
            except SystemExit as exc:  # argparse rejects a command by exiting
                rc = exc.code
        return rc, buf.getvalue()

    def check(self, i: int, out) -> None:
        rc, text = out
        require(rc == 0, f"exit code {rc}")
        slug = self.commands[i % len(self.commands)]
        v, r_gm, r_coding = self.params(i)
        if slug == "verify_all_1_3":
            lines = text.splitlines()
            require(len(lines) == 3 and lines[0].startswith("PASS [ 1]")
                    and lines[1].startswith("PASS [ 3]")
                    and lines[2] == "2/2 checks passed", f"ledger {lines!r}")
            return
        payload = json.loads(text)
        r2 = float(v @ v)
        if slug == "helstrom":
            require(payload["point"] == v.tolist(), "point echoed")
            require(refs.close(payload["matrix"], refs.helstrom(v), 1e-8), "H_q")
        elif slug == "helstrom_spherical":
            r, theta, _ = refs.spherical(v)
            require(refs.close(payload["point_spherical"], refs.spherical(v), 1e-8),
                    "x-polar coordinates")
            want = np.diag([1.0 / (1.0 - r * r), r * r, (r * math.sin(theta)) ** 2])
            require(refs.close(payload["matrix"], want, 1e-8), "spherical H_q")
        elif slug == "fisher_n5":
            f = np.array(payload["matrix"])
            h = refs.helstrom(v)
            require(refs.close(f, f.T, 1e-12), "symmetric F_5")
            require(refs.close(np.trace(refs.helstrom_inverse(v) @ f),
                               refs.gm_trace_helstrom(5, r2), 1e-7), "trace(H^-1 F_5)")
            eig = np.linalg.eigvalsh(f - 4.0 * h)
            scale = float(np.max(np.abs(f)))
            require(eig[-1] <= 1e-7 * scale, "F_5 - 4 H_q not NSD")
            require(np.min(np.abs(eig + 3.0 / 16.0 * (5.0 + 3.0 * r2))) <= 1e-7 * scale,
                    "residual eigenvalue -(3/16)(5+3r^2)")
        elif slug == "gm_trace_qb_n4":
            require(refs.close(payload, refs.metric_trace_even("quasi_bures", 4, r_gm), 1e-8),
                    "quasi-Bures trace N=4")
        elif slug == "bound_radius":
            require(abs(payload - refs.BOUND_RADIUS) <= refs.BOUND_RADIUS_TOL
                    and abs(refs.bound_radius_residual(payload)) <= 1e-6, "bound radius")
        elif slug == "coding_qb":
            require(payload["domain"] == "quantum" and payload["N"] == 100
                    and payload["r"] == r_coding and payload["units"] == "nats", "fields")
            require(refs.close(payload["redundancy"], refs.quantum_redundancy(100, r_coding),
                               1e-8, 1e-9), "quantum redundancy")
        elif slug == "normalize_qb":
            require(abs(payload["integral"] - 1.0) <= refs.PRIOR_NORM_TOL, "prior integral")
            require(payload["constant_tabulated"] == refs.QUASI_BURES_CONSTANT, "tabulated K")
            require(abs(payload["constant_quadrature"] - refs.QUASI_BURES_CONSTANT)
                    <= refs.QUASI_BURES_TOL, "K by quadrature")


# ---------------------------------------------------------------------------
# ball-integrals
# ---------------------------------------------------------------------------

class BallIntegrals:
    """Each op is one pass of the volume integrals and the dominance bisections.

    The inputs are the paper's fixed quadrature and scan grid, so the seed
    does not change them.
    """

    name = "ball-integrals"

    def __init__(self, seed: int, tiny: bool, root: Path):
        self.volume_ns = (2, 4, 6) if tiny else (2, 3, 4, 5, 6)
        self.scalar_ns = (6,) if tiny else (3, 4, 5, 6)
        self.recorded = json.loads(RECORDED.read_text())["ball-integrals"]

    def warm(self) -> None:
        analysis.volume_integral(2)
        analysis.scan_dominance(4, 4.0)

    def run(self, i: int):
        volumes = {n: analysis.volume_integral(n) for n in self.volume_ns}
        scalars = {n: analysis.min_dominating_scalar(n, (0.0, 0.999)) for n in self.scalar_ns}
        report = analysis.scan_dominance(6, 4.99)
        return volumes, scalars, report

    run_inproc = run

    def check(self, i: int, out) -> None:
        volumes, scalars, report = out
        for n, v in volumes.items():
            require(abs(v - refs.VOLUMES[n]) <= refs.VOLUME_RTOL[n] * refs.VOLUMES[n],
                    f"volume N={n}: {v}")
        for n, c in scalars.items():
            require(c <= n - 1.0 + 1e-4, f"c_{n} above N-1 (residual not NSD)")
            require(abs(c - self.recorded["min_dominating_scalar"][str(n)]) <= 1e-4,
                    f"c_{n} = {c}")
        if 6 in scalars:
            require(refs.C6_OPEN_LOW < scalars[6] <= refs.C6_HIGH, f"c_6 = {scalars[6]}")
        require(report.n_violations == self.recorded["scan_dominance_6_4.99"]["n_violations"]
                and report.min_eigenvalue_found < 0.0, "violation count of 4.99 H_q vs F_6")
        radii = [math.sqrt(p.x ** 2 + p.y ** 2 + p.z ** 2) for p in report.violating_points]
        require(min(radii) >= refs.BOUND_RADIUS - refs.BOUND_RADIUS_TOL,
                "violations inside the boundary radius")


# ---------------------------------------------------------------------------
# pointwise
# ---------------------------------------------------------------------------

class Pointwise:
    """Each op is one pass of the scalar public calls, one point per call."""

    name = "pointwise"
    METRICS = ("helstrom", "yuen_lax", "quasi_bures")
    NS = (2, 3, 4, 5, 6)

    def __init__(self, seed: int, tiny: bool, root: Path):
        rng = np.random.default_rng(seed)
        self.xyz = interior_points(rng, 5 if tiny else 50, 0.05, 0.95, 0.02)
        self.points = [bloch.BlochCartesian(*v) for v in self.xyz]
        self.fig2_grid = np.linspace(0.5 / 200, 1.0 - 0.5 / 200, 200)
        self.models = (povm.vidal_model(2), povm.vidal_model(3))

    def warm(self) -> None:
        self.run(0)

    def run(self, i: int):
        curves = {q: analysis.curve_sample(q) for q in analysis.CURVE_QUANTITIES}
        iq = [coding.quantum_info_scalar(r) for r in self.fig2_grid]
        gm = [[[analysis.gm_trace(kind, n, p) for p in self.points] for n in self.NS]
              for kind in self.METRICS]
        fisher = [[infogeo.fisher_information(m, p).entries for p in self.points]
                  for m in self.models]
        crossing = analysis.scaled_curve_intersection()
        return curves, iq, gm, fisher, crossing

    run_inproc = run

    def check(self, i: int, out) -> None:
        curves, iq, gm, fisher, crossing = out
        self._check_curves(curves)
        require(refs.close(iq, refs.quantum_info_scalar(self.fig2_grid), 1e-10), "I_q curve")
        r2 = np.sum(self.xyz ** 2, axis=1)
        r = np.sqrt(r2)
        for k, kind in enumerate(self.METRICS):
            for j, n in enumerate(self.NS):
                got = gm[k][j]
                if kind == "helstrom":
                    want = refs.gm_trace_helstrom(n, r2) * np.ones_like(r2)
                elif n % 2 == 0:
                    want = (refs.yuen_lax_even(n, r) if kind == "yuen_lax"
                            else refs.metric_trace_even(kind, n, r))
                else:
                    # odd N has no diagonal chart; contract the reference matrix here
                    want = [refs.yuen_lax_trace_cartesian(f, v) if kind == "yuen_lax"
                            else refs.metric_trace_cartesian(kind, f, v)
                            for f, v in zip(refs.fisher_odd(n, self.xyz), self.xyz)]
                require(refs.close(got, want, 1e-9), f"{kind} trace N={n}")
        f2, f3 = fisher
        for v, a, b, f3_ref in zip(self.xyz, f2, f3, refs.fisher_odd(3, self.xyz)):
            require(refs.close(a, refs.helstrom(v), 1e-9), "Fisher of vidal-2 is H_q")
            require(refs.close(np.trace(refs.helstrom_inverse(v) @ b), 5.0, 1e-9),
                    "Gill-Massar trace of vidal-3 is 5")
            require(refs.close(b, f3_ref, 1e-9), "dual-number F_3 equals the closed form")
        for v, f5 in zip(self.xyz, refs.fisher_odd(5, self.xyz)):
            require(refs.close(np.trace(refs.helstrom_inverse(v) @ f5),
                               refs.gm_trace_helstrom(5, v @ v), 1e-9), "reference F_5 GM trace")
        require(abs(crossing - refs.CROSSING) <= refs.CROSSING_TOL, f"crossing {crossing}")
        gap = (refs.metric_trace_even("quasi_bures", 2, crossing) / refs.qb_pure_limit(2)
               - refs.metric_trace_even("quasi_bures", 4, crossing) / refs.qb_pure_limit(4))
        require(abs(gap) <= 1e-8, "scaled quasi-Bures curves cross at the root")

    def _check_curves(self, curves) -> None:
        grid = np.linspace(0.005, 0.995, 199)  # r values; s values for g_functions
        for q, tables in curves.items():
            require(len(tables) == len(analysis.CURVE_QUANTITIES[q]), f"{q} tables")
            for n, t in zip(analysis.CURVE_QUANTITIES[q], tables):
                require(refs.close(t.r, grid, 1e-15), f"{q} grid")
                if q == "gm_scaled":
                    want = refs.gm_trace_helstrom(n, grid ** 2) / (2.0 * n - 1.0)
                elif q == "yl_scaled":
                    want = refs.yuen_lax_even(n, grid) / (n - 1.0)
                elif q == "qb_scaled":
                    require(refs.close(t.scaling, refs.qb_pure_limit(n), 1e-12), "qb scale")
                    want = refs.metric_trace_even("quasi_bures", n, grid) / refs.qb_pure_limit(n)
                elif q == "entry11_over_N":
                    want = refs.even_spherical(n, grid)[0] / (1.0 - grid ** 2) / n
                else:
                    want = (refs.g_profile("helstrom", grid) / 2.0 if n == 2
                            else refs.g_profile(f"fitted_n{n}", grid))
                require(refs.close(t.value, want, 1e-9), f"{q} N={n}")


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

class MonteCarlo:
    """Each op is one pass of efficiency_report over vidal-2, vidal-3 and quadrinomial.

    The truth and Philox seed of each model are fixed and recorded in
    recorded.json with the reports of the unmodified package, so every
    report has a reference and the seed does not change the inputs: fit
    costs differ twofold between truths, so seeded truths would make a
    run measure its draw more than the estimator.
    """

    name = "montecarlo"

    def __init__(self, seed: int, tiny: bool, root: Path):
        self.reps = MC_REPS_TINY if tiny else MC_REPS
        self.cases = json.loads(RECORDED.read_text())["montecarlo"]["tiny" if tiny else "full"]
        self.models = {k: model(k) for k in MC_MODELS}

    def report(self, key: str, reps: int):
        case = self.cases[key]
        return estimator.efficiency_report(estimator.EstimationRun(
            self.models[key], bloch.BlochCartesian(*case["truth"]), MC_TRIALS, reps,
            case["seed"]))

    def warm(self) -> None:
        for key in MC_MODELS:
            self.report(key, 2)

    def run(self, i: int):
        return [self.report(key, self.reps) for key in MC_MODELS]

    run_inproc = run

    def check(self, i: int, out) -> None:
        for key, rep in zip(MC_MODELS, out, strict=True):
            case = self.cases[key]
            want = case["report"]
            v = np.array(case["truth"])
            require(rep.failures == want["failures"], f"{key} fit failures {rep.failures}")
            require(refs.close(rep.ratio_diag, want["ratio_diag"], 1e-6), f"{key} cov/CRB ratios")
            require(refs.close(rep.gm_trace, want["gm_trace"], 1e-6), f"{key} GM trace")
            require(refs.close(rep.empirical_cov, want["empirical_cov"], 1e-6),
                    f"{key} covariance")
            fisher = np.linalg.inv(rep.crb) / MC_TRIALS
            if key == "vidal3":
                require(refs.close(np.trace(refs.helstrom_inverse(v) @ fisher), 5.0, 1e-8),
                        "vidal-3 Gill-Massar trace")
            else:
                copies = 1.0 if key == "vidal2" else 4.0
                require(refs.close(fisher, copies * refs.helstrom(v), 1e-8), f"{key} Fisher")


def record_montecarlo(point_seed: int, reps: int) -> dict:
    """Draw a truth (r <= 0.8, every |coordinate| >= 0.05) and a Philox seed per
    model, and record the report of each."""
    rng = np.random.default_rng(point_seed)
    cases = {}
    for k in MC_MODELS:
        truth = [float(_fmt(t)) for t in interior_points(rng, 1, 0.1, 0.8, 0.05)[0]]
        seed = int(rng.integers(2 ** 31))
        rep = estimator.efficiency_report(estimator.EstimationRun(
            model(k), bloch.BlochCartesian(*truth), MC_TRIALS, reps, seed))
        cases[k] = {"truth": truth, "seed": seed, "report": {
            "failures": rep.failures, "ratio_diag": rep.ratio_diag.tolist(),
            "gm_trace": rep.gm_trace, "empirical_cov": rep.empirical_cov.tolist()}}
    return cases


def versions() -> dict:
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__}


WORKLOADS = {w.name: w for w in (CliStartup, BallIntegrals, Pointwise, MonteCarlo)}
