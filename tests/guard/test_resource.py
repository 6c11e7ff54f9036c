"""Resource guard: probes, limits, throttled ticks, stage changes."""

import pytest

from repro.guard.resource import (
    STAGE_NORMAL,
    STAGE_PAUSE_SUBMISSION,
    STAGE_SUSPEND_EXPORTERS,
    ResourceGuard,
    ResourceLimits,
    ResourceSample,
    disk_free_bytes,
    open_fd_count,
    rss_bytes,
)
from repro.obs.metrics import MetricsRegistry


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


# -- real probes (smoke; values are host-dependent) ----------------------------


def test_disk_free_bytes_on_real_path(tmp_path):
    free = disk_free_bytes(str(tmp_path))
    assert free is not None and free > 0


def test_disk_free_bytes_missing_path_is_none():
    assert disk_free_bytes("/no/such/dir/for/sure") is None


def test_rss_and_fd_probes_plausible_or_none():
    rss = rss_bytes()
    if rss is not None:  # /proc platforms
        assert rss > 1024 * 1024  # a python process is at least a MiB
    fds = open_fd_count()
    if fds is not None:
        assert fds >= 3  # stdin/stdout/stderr


# -- limits and samples --------------------------------------------------------


def test_limits_reject_negative():
    with pytest.raises(ValueError):
        ResourceLimits(min_disk_free_bytes=-1)
    with pytest.raises(ValueError):
        ResourceLimits(max_rss_bytes=float("nan"))


def test_pressure_reasons_floor_and_ceilings():
    limits = ResourceLimits(
        min_disk_free_bytes=100, max_rss_bytes=1000, max_open_fds=10
    )
    healthy = ResourceSample(disk_free=200, rss=500, open_fds=5)
    assert healthy.pressure_reasons(limits) == []
    pressured = ResourceSample(disk_free=50, rss=2000, open_fds=50)
    reasons = pressured.pressure_reasons(limits)
    assert len(reasons) == 3
    assert any("disk free" in r for r in reasons)
    assert any("rss" in r for r in reasons)
    assert any("open fds" in r for r in reasons)


def test_unavailable_probe_never_trips_limit():
    limits = ResourceLimits(
        min_disk_free_bytes=100, max_rss_bytes=1, max_open_fds=1
    )
    sample = ResourceSample(disk_free=None, rss=None, open_fds=None)
    assert sample.pressure_reasons(limits) == []


def test_disabled_limit_never_trips():
    limits = ResourceLimits(
        min_disk_free_bytes=None, max_rss_bytes=None, max_open_fds=None
    )
    sample = ResourceSample(disk_free=0, rss=10**12, open_fds=10**6)
    assert sample.pressure_reasons(limits) == []


# -- guard ticks ---------------------------------------------------------------


def make_guard(free_values, clock=None):
    """Guard whose disk probe replays *free_values* (last value sticks)."""
    clock = clock or FakeClock()
    reg = MetricsRegistry()
    it = iter(free_values)
    state = {"last": free_values[-1]}

    def disk_probe(path):
        try:
            state["last"] = next(it)
        except StopIteration:
            pass
        return state["last"]

    guard = ResourceGuard(
        watch_path=".",
        limits=ResourceLimits(min_disk_free_bytes=100),
        poll_interval_s=1.0,
        registry=reg,
        clock=clock,
        disk_probe=disk_probe,
        rss_probe=lambda: None,
        fd_probe=lambda: None,
    )
    return guard, reg, clock


def test_tick_is_throttled_by_poll_interval():
    guard, _, clock = make_guard([500])
    assert guard.tick() is not None  # first tick always polls
    assert guard.tick() is None  # throttled
    clock.advance(1.1)
    assert guard.tick() is not None
    assert guard.polls == 2


def test_force_tick_bypasses_throttle():
    guard, _, _ = make_guard([500])
    guard.tick()
    assert guard.tick(force=True) is not None


def test_pressure_escalates_and_recovery_steps_down():
    readings = [500, 50, 50, 50] + [500] * 6
    guard, _, clock = make_guard(readings)
    stages = []
    for _ in readings:
        guard.tick()
        stages.append(guard.stage)
        clock.advance(1.1)
    assert stages == [
        STAGE_NORMAL,
        STAGE_SUSPEND_EXPORTERS,  # 50: first pressure escalates at once
        STAGE_SUSPEND_EXPORTERS,  # 50: streak 1
        STAGE_PAUSE_SUBMISSION,  # 50: streak 2
        STAGE_PAUSE_SUBMISSION,
        STAGE_PAUSE_SUBMISSION,
        STAGE_SUSPEND_EXPORTERS,  # third healthy poll: one rung down
        STAGE_SUSPEND_EXPORTERS,
        STAGE_SUSPEND_EXPORTERS,
        STAGE_NORMAL,
    ]
    assert not guard.paused and not guard.abort_requested


def test_gauges_published_each_poll():
    guard, reg, _ = make_guard([321])
    guard.tick()
    assert reg.gauge("guard_disk_free_bytes").value == 321
    assert guard.last_sample.disk_free == 321


def test_abort_reason_passthrough():
    guard, _, clock = make_guard([50] * 10)
    for _ in range(5):
        guard.tick(force=True)
    assert guard.abort_requested
    assert "disk free" in guard.abort_reason
