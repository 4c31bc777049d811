"""Record the reference outputs the checks compare against, into recorded.json.

Run from the repository root, on the commit whose outputs are the
reference (the package must be unmodified):

    PYTHONPATH=src python bench/record.py

Takes about ten seconds.
"""

from __future__ import annotations

import json

from qig import analysis

import workloads

#: seeds drawing the Monte Carlo truths and Philox seeds
MC_SEED, MC_TINY_SEED = 20001, 20002


def main() -> None:
    report = analysis.scan_dominance(6, 4.99)
    recorded = {
        "ball-integrals": {
            "min_dominating_scalar": {str(n): analysis.min_dominating_scalar(n, (0.0, 0.999))
                                      for n in (3, 4, 5, 6)},
            "scan_dominance_6_4.99": {"n_violations": report.n_violations},
        },
        "montecarlo": {
            "full": workloads.record_montecarlo(MC_SEED, workloads.MC_REPS),
            "tiny": workloads.record_montecarlo(MC_TINY_SEED, workloads.MC_REPS_TINY),
        },
    }
    workloads.RECORDED.write_text(json.dumps(recorded, indent=1) + "\n")


if __name__ == "__main__":
    main()
