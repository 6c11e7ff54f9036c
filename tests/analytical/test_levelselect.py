"""Checkpoint-level selection model."""

import pytest

from repro.analytical.levelselect import (
    LevelProfile,
    evaluate_level,
    quartz_level_profiles,
    select_level,
)


def profiles():
    return quartz_level_profiles({1: 0.01, 2: 0.04, 3: 0.08, 4: 0.3})


def test_profile_validation():
    with pytest.raises(ValueError):
        LevelProfile(1, ckpt_cost=0, coverage=0.5)
    with pytest.raises(ValueError):
        LevelProfile(1, ckpt_cost=1, coverage=1.5)
    with pytest.raises(ValueError):
        LevelProfile(1, ckpt_cost=1, coverage=0.5, recovery_time=-1)


def test_quartz_profiles_structure():
    ps = profiles()
    assert [p.level for p in ps] == [1, 2, 3, 4]
    covers = [p.coverage for p in ps]
    assert covers == sorted(covers)  # coverage grows with level
    costs = [p.ckpt_cost for p in ps]
    assert costs == sorted(costs)
    with pytest.raises(ValueError):
        quartz_level_profiles({7: 1.0})


def test_evaluate_level_uses_young_interval():
    p = LevelProfile(1, ckpt_cost=0.01, coverage=1.0, recovery_time=0.0)
    choice = evaluate_level(p, system_mtbf=100.0, fallback_penalty=0.0)
    assert choice.interval == pytest.approx((2 * 0.01 * 100.0) ** 0.5)
    assert 0 < choice.waste < 1


def test_evaluate_level_validation():
    p = LevelProfile(1, ckpt_cost=0.01, coverage=1.0)
    with pytest.raises(ValueError):
        evaluate_level(p, system_mtbf=0, fallback_penalty=1)
    with pytest.raises(ValueError):
        evaluate_level(p, system_mtbf=1, fallback_penalty=-1)
    with pytest.raises(ValueError):
        evaluate_level(p, system_mtbf=1, fallback_penalty=1, interval=0)


def test_reliable_system_prefers_cheap_levels():
    ranking = select_level(profiles(), system_mtbf=1e9, fallback_penalty=1800)
    assert ranking[0].profile.level == 1


def test_failure_prone_system_prefers_high_coverage():
    ranking = select_level(profiles(), system_mtbf=30.0, fallback_penalty=1800)
    assert ranking[0].profile.level >= 3


def test_optimum_migrates_monotonically_with_mtbf():
    best = [
        select_level(profiles(), m, fallback_penalty=1800)[0].profile.level
        for m in (1e9, 1e6, 1e3, 100.0, 10.0)
    ]
    # as reliability degrades the chosen level never decreases
    assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
    # extremes: near-perfect reliability -> cheapest level; heavy failure
    # rates -> a high-coverage level (L3 beats L4 while it covers almost
    # everything at lower cost)
    assert best[0] == 1 and best[-1] >= 3


def test_select_level_requires_profiles():
    with pytest.raises(ValueError):
        select_level([], 100.0, 10.0)
