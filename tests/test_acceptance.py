"""Full-scale acceptance suite: one test per criterion, stated tolerances.

Each test prints its pass/fail line (run pytest with -s to watch).  The
whole module takes about two minutes on a laptop-class core; criteria 1
and 2 are each well inside their stated two-minute budgets.
"""

import pytest

from uncollapse import acceptance


def _check(result):
    line = f"{'PASS' if result.passed else 'FAIL'} criterion {result.index}: {result.name}"
    print(line)
    if not result.passed:
        for row in result.rows:
            if not row.within:
                print(
                    f"  failed row {row.label}: value={row.value!r} "
                    f"reference={row.reference!r} ci=({row.ci_low!r}, {row.ci_high!r})"
                )
    assert result.passed, line


@pytest.mark.parametrize("index", range(1, 11), ids=lambda i: f"criterion_{i:02d}")
def test_criterion(index):
    fn = acceptance._CRITERIA.get(index, acceptance.criterion_10)
    _check(fn(acceptance.DEFAULT_SEED, 1.0, 1))


def test_criterion_4_passes_at_cli_default_seed():
    # seed 1 (the CLI default) draws a record whose plan succeeds with
    # probability 0.0027; the attempt cap must come from that probability
    _check(acceptance.criterion_4(1, 1.0, 1))


def test_attempt_cap_misses_with_tiny_probability():
    for p in (0.0027, 0.3, 0.999):
        cap = acceptance._attempt_cap(p)
        assert (1.0 - p) ** cap <= 1e-9 < (1.0 - p) ** (cap - 1)
    assert acceptance._attempt_cap(1.0) == 1


def test_criterion_10_reuses_the_oracle_result():
    # both sides of criterion 10 ask the oracle the same question; the
    # second answer comes from the per-process cache
    before = acceptance.brute_force_crossing.cache_info().hits
    result = acceptance.criterion_10(acceptance.DEFAULT_SEED, 1.0, 1)
    assert result.passed
    assert acceptance.brute_force_crossing.cache_info().hits - before >= 1


def test_criterion_10_starts_a_process_pool(pool_starts):
    # its inner criteria are one block per ensemble; its own two-block row
    # compares a serial run with a pooled one
    result = acceptance.criterion_10(acceptance.DEFAULT_SEED, 1.0, 1)
    assert result.passed
    assert len(pool_starts) >= 1


def test_run_acceptance_runs_each_asked_criterion_once(monkeypatch):
    calls = []

    def stub(index):
        def run(seed, scale, workers):
            calls.append(index)
            return acceptance.CriterionResult(index, f"stub {index}")
        return run

    monkeypatch.setattr(acceptance, "_CRITERIA", {i: stub(i) for i in range(1, 10)})
    monkeypatch.setattr(acceptance, "criterion_10", stub(10))
    results = acceptance.run_acceptance(seed=3, scale=0.001, indices=(10,))
    assert [r.index for r in results] == [10] and calls == [10]
    calls.clear()
    results = acceptance.run_acceptance(seed=3, scale=0.001, indices=(1, 1, 10, 10))
    assert [r.index for r in results] == [1, 10] and calls == [1, 10]
    calls.clear()
    assert [r.index for r in acceptance.run_criteria(indices=(2, 2))] == [2] and calls == [2]
    assert acceptance.run_criteria(indices=()) == [] and calls == [2]
