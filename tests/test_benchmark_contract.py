"""The benchmark's own result checks pass on this tree.

Each perfbench workload checks every operation against references computed
without notouch.  Running those checks on the warm-up input and the first
input block of seed 1 shows a wrong result here, before a benchmark run
counts it as a failed operation.  perfbench is only read.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _kind(spec):
    """What a spec shares with its counterparts in other blocks: the ring size
    (bell_tests has none) and the statistics kind."""
    return getattr(spec, "n", None), spec.statistics.split(":")[0]


@pytest.mark.parametrize("name, count", [("ring_state", 13), ("bell_tests", 5)])
def test_the_first_block_passes_the_benchmark_checks(monkeypatch, name, count):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bell_tests
    import ring_state

    workload = {"ring_state": ring_state.RingState, "bell_tests": bell_tests.BellTests}[name]()
    workload.setup()
    blocks = workload.blocks(1)
    first, second = next(blocks), next(blocks)
    specs = [workload.warmup_spec(), *first]
    assert len(specs) == count
    for spec in specs:
        assert workload.check(spec, workload.operate(spec)) == [], spec
    # the checks are not vacuous: the result for another input of the same
    # kind fails them
    others = {_kind(spec): workload.operate(spec) for spec in second}
    assert len(others) == len(first)
    for spec in first:
        assert workload.check(spec, others[_kind(spec)]) != [], spec
