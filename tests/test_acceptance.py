"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass/fail ledger;
``qig verify-all`` prints the same checks from the command line.
"""

import pytest

from qig import acceptance, bloch, estimator, infogeo, povm


@pytest.mark.parametrize("check_id,title,fn", acceptance.CHECKS,
                         ids=[f"{c[0]}_{c[2].__name__}" for c in acceptance.CHECKS])
def test_acceptance_criterion(check_id, title, fn):
    passed, detail = fn()
    status = "PASS" if passed else "FAIL"
    print(f"{status} [{check_id:>2}] {title}: {detail}")
    assert passed, f"[{check_id}] {title}: {detail}"


def test_batched_checks_and_report_bypass_the_pointwise_engine(monkeypatch):
    def pointwise(*args, **kwargs):
        raise AssertionError("per-point Fisher path called")
    monkeypatch.setattr(infogeo, "fisher_information", pointwise)
    monkeypatch.setattr(infogeo.ProbModel, "grad", pointwise)
    assert acceptance.check_fisher_engine()[0]
    assert acceptance.check_quadrinomial()[0]
    run = estimator.EstimationRun(povm.vidal_model(2), bloch.BlochCartesian(0.3, 0.2, 0.1),
                                  trials=10 ** 4, repetitions=5, seed=3)
    assert estimator.efficiency_report(run).failures == 0
