"""The traced run's counts are deterministic and split the layers as designed.

    python3 -m pytest perfbench
"""

import pytest

import run
from workloads import WORKLOADS


def traced_counts(workload, seed):
    api, inputs, first, _ = run.setup(WORKLOADS[workload], seed)
    tracer, plain, traced = run.trace_run(api, inputs, first, passes=1)
    assert plain.failed == 0 and traced.failed == 0
    metrics = run.per_layer(tracer, plain, traced)
    return {
        name: value
        for name, (value, unit) in metrics.items()
        if name.endswith(".calls") or name.startswith("stability.witness.")
    }


@pytest.mark.parametrize("workload", ["verdict-GFp", "element-Q"])
def test_counts_repeat_exactly(workload):
    first = traced_counts(workload, seed=5)
    assert first == traced_counts(workload, seed=5)


def test_radical_runs_only_in_verdict_workloads():
    assert traced_counts("element-Q", seed=6)["radical.radical.calls"] == 0
    assert traced_counts("verdict-GFp", seed=6)["radical.radical.calls"] > 0
    assert traced_counts("verdict-Q", seed=6)["radical.radical.calls"] > 0
