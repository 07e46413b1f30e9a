"""The benchmark's workloads, run once each at a tiny budget.

``perfbench/workloads.py`` calls the program through its public API, and
``perfbench/spans.py`` wraps functions where the program looks them up
(``owner.__dict__[attr]``). Each round runs under an installed tracer, so
a narrowed signature or a moved patch point fails here, in the test
suite, rather than in a benchmark run. Inputs go to tmp_path, so nothing
is written under ``perfbench/``.
"""

import dataclasses
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_round_reports_no_failure(name, tmp_path):
    spec = dataclasses.replace(workloads.WORKLOADS[name], budget=3)
    inputs = workloads.make_inputs(spec, 1, tmp_path)
    tracer = spans.Tracer()
    with tracer.installed():
        points = workloads.setup(spec, inputs)
        refs = workloads.own_references(spec, inputs)
        report = workloads.check_problem(spec, inputs, refs, points)
        results = workloads.run_round(spec, points,
                                      workloads.round_seed(1, 0))
    report += workloads.check_round(spec, refs, results,
                                    workloads.round_seed(1, 10_000))
    if spec.active is not None:
        report += workloads.check_full_space(inputs, refs)
    assert len(results) == len(spec.sweep)
    traced = {span[0] for span in tracer.spans}
    assert {"fermion.jordan_wigner", "vqe.evaluation"} <= traced
    failures = [line for line in report if line.startswith("FAIL")]
    assert not failures, "\n".join(report)
