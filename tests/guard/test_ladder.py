"""Degradation ladder of the ResourceGuard: pacing, the stage hook,
abort, recovery."""

import math

import pytest

from repro.guard.resource import (
    POLLS_PER_STAGE,
    RECOVER_POLLS,
    STAGE_ABORT,
    STAGE_NORMAL,
    STAGE_PAUSE_SUBMISSION,
    STAGE_SUSPEND_EXPORTERS,
    STAGES,
    ResourceGuard,
    ResourceLimits,
)
from repro.obs.metrics import MetricsRegistry

FLOOR = 100
LOW, HIGH = 50, 500  # disk-free readings below and above FLOOR
PRESSURE = f"disk free {LOW} < floor {FLOOR}"


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class Disk:
    """Fake disk probe whose reading the test sets between polls."""

    def __init__(self, free=HIGH):
        self.free = free

    def __call__(self, path):
        return self.free


def make_guard(**kw):
    kw.setdefault("registry", MetricsRegistry())
    kw.setdefault("clock", FakeClock())
    return ResourceGuard(
        watch_path=".",
        limits=ResourceLimits(min_disk_free_bytes=FLOOR),
        poll_interval_s=1.0,
        disk_probe=kw.pop("disk", None) or Disk(LOW),
        rss_probe=lambda: None,
        fd_probe=lambda: None,
        **kw,
    )


def poll(guard, free, n=1):
    """*n* forced polls reading *free* disk bytes."""
    guard._disk_probe = Disk(free)
    for _ in range(n):
        guard.tick(force=True)


def test_stage_order_is_the_documented_ladder():
    assert STAGES == (
        STAGE_NORMAL,
        STAGE_SUSPEND_EXPORTERS,
        STAGE_PAUSE_SUBMISSION,
        STAGE_ABORT,
    )


def test_invalid_knobs_rejected():
    for bad in (-1, math.nan, math.inf):
        with pytest.raises(ValueError, match="poll_interval_s"):
            ResourceGuard(poll_interval_s=bad)


def test_first_pressure_escalates_immediately_then_needs_streak():
    guard = make_guard()
    poll(guard, LOW)
    assert guard.stage == STAGE_SUSPEND_EXPORTERS  # normal never absorbs
    poll(guard, LOW)
    assert guard.stage == STAGE_SUSPEND_EXPORTERS  # streak of 1 < 2
    poll(guard, LOW)
    assert guard.stage == STAGE_PAUSE_SUBMISSION


def test_healthy_poll_resets_unhealthy_streak():
    guard = make_guard()
    poll(guard, LOW)  # -> suspend_exporters
    poll(guard, LOW)  # streak 1
    poll(guard, HIGH)  # streak resets (1 healthy poll does not recover)
    poll(guard, LOW)  # streak 1 again
    assert guard.stage == STAGE_SUSPEND_EXPORTERS
    poll(guard, LOW)  # streak 2 -> escalate
    assert guard.stage == STAGE_PAUSE_SUBMISSION


def test_full_climb_and_full_recovery_with_callbacks():
    guard = make_guard()
    seen = []
    guard.on_stage = lambda frm, to, why: seen.append((frm, to))
    poll(guard, LOW, 5)
    assert guard.stage == STAGE_ABORT and guard.abort_requested
    assert seen == list(zip(STAGES, STAGES[1:]))
    seen.clear()
    poll(guard, HIGH, 3 * 3)
    assert guard.stage == STAGE_NORMAL
    assert seen == list(zip(STAGES[::-1], STAGES[-2::-1]))


def test_paused_at_pause_and_abort_stages():
    guard = make_guard()
    assert not guard.paused
    poll(guard, LOW, 3)
    assert guard.stage == STAGE_PAUSE_SUBMISSION and guard.paused
    poll(guard, LOW, 2)
    assert guard.stage == STAGE_ABORT and guard.paused


def test_backpressure_bound_forces_abort():
    """Pressure that flaps too fast to recover still ends the pause in
    abort: at pause_submission a healthy poll does not reset the count of
    pressured polls, so the pause lasts POLLS_PER_STAGE * RECOVER_POLLS
    polls at most, and the abort names the pressure."""
    guard = make_guard()
    poll(guard, LOW, 3)
    assert guard.stage == STAGE_PAUSE_SUBMISSION
    for _ in range(POLLS_PER_STAGE - 1):
        poll(guard, HIGH, RECOVER_POLLS - 1)  # too short to recover
        poll(guard, LOW)
        assert guard.stage == STAGE_PAUSE_SUBMISSION
    poll(guard, HIGH, RECOVER_POLLS - 1)
    poll(guard, LOW)
    assert guard.stage == STAGE_ABORT
    assert guard.polls == 3 + POLLS_PER_STAGE * RECOVER_POLLS
    assert guard.abort_reason == PRESSURE


def test_escalate_idempotent_at_abort_and_recover_noop_at_normal():
    guard = make_guard()
    poll(guard, HIGH, 5)
    assert guard.stage == STAGE_NORMAL and guard.transitions == []
    poll(guard, LOW, 20)
    assert guard.stage == STAGE_ABORT
    assert len(guard.transitions) == len(STAGES) - 1


def test_action_errors_are_counted_never_propagated():
    reg = MetricsRegistry()
    guard = make_guard(registry=reg)

    def bad_action(frm, to, why):
        raise RuntimeError("buggy stage action")

    guard.on_stage = bad_action
    poll(guard, LOW)  # enter suspend_exporters: must not raise
    poll(guard, HIGH, 3)  # leave suspend_exporters: must not raise
    assert guard.stage == STAGE_NORMAL
    assert guard.action_errors == 2
    # counted under the stage entered (climbing) or left (recovering)
    assert reg.counter("guard_action_errors_total", stage=STAGE_SUSPEND_EXPORTERS).value == 2


def test_transitions_are_observable_in_metrics_and_log_list(caplog):
    reg = MetricsRegistry()
    guard = make_guard(registry=reg)
    seen = []
    guard.on_stage = lambda frm, to, why: seen.append((frm, to, why))
    with caplog.at_level("WARNING", logger="repro.guard"):
        poll(guard, LOW)
        poll(guard, HIGH, 3)
    assert seen == [
        (STAGE_NORMAL, STAGE_SUSPEND_EXPORTERS, PRESSURE),
        (STAGE_SUSPEND_EXPORTERS, STAGE_NORMAL, "pressure cleared"),
    ]
    assert guard.transitions == seen
    assert caplog.messages == [
        f"[guard] degradation ladder up: normal -> suspend_exporters ({PRESSURE})",
        "[guard] degradation ladder down: suspend_exporters -> normal (pressure cleared)",
    ]
    assert (
        reg.counter(
            "guard_ladder_transitions_total",
            direction="up",
            stage=STAGE_SUSPEND_EXPORTERS,
        ).value
        == 1
    )
    assert (
        reg.counter(
            "guard_ladder_transitions_total",
            direction="down",
            stage=STAGE_NORMAL,
        ).value
        == 1
    )
    assert reg.gauge("guard_ladder_stage").value == 0


def test_observer_exception_does_not_break_transition():
    guard = make_guard()

    def bad_observer(frm, to, why):
        raise RuntimeError("observer bug")

    guard.on_stage = bad_observer
    poll(guard, LOW, 3)
    assert guard.stage == STAGE_PAUSE_SUBMISSION
    assert [to for _, to, _ in guard.transitions] == list(STAGES[1:3])


def test_suspend_exporters_round_trip_with_circuit_breaker(tmp_path):
    """Through a campaign's stage hook, the metrics sink skips flushes
    while the guard is at ``suspend_exporters`` and flushes again once
    the guard has stepped back below it."""
    from repro.core.campaign import ResilienceCampaign
    from repro.obs.instrument import CampaignObs, ObsOptions

    reg = MetricsRegistry()
    obs = CampaignObs(ObsOptions(metrics_out=str(tmp_path / "m.jsonl")), registry=reg)
    guard = make_guard(registry=reg)
    ResilienceCampaign(reps=1, base_seed=0, obs=obs, guard=guard)
    poll(guard, LOW)
    assert guard.stage == STAGE_SUSPEND_EXPORTERS
    assert not obs.sink.maybe_flush(force=True)
    assert obs.sink.suspended_skips == 1
    poll(guard, HIGH, 3)
    assert guard.stage == STAGE_NORMAL
    assert obs.sink.maybe_flush(force=True)
    obs.sink.close()


# (poll, (from, to, reason)) at POLLS_PER_STAGE=2, RECOVER_POLLS=3.
SUSTAINED_PRESSURE = [
    (1, (STAGE_NORMAL, STAGE_SUSPEND_EXPORTERS, PRESSURE)),
    (3, (STAGE_SUSPEND_EXPORTERS, STAGE_PAUSE_SUBMISSION, PRESSURE)),
    (5, (STAGE_PAUSE_SUBMISSION, STAGE_ABORT, PRESSURE)),
]
CLIMB_THEN_CLEAR = [
    (1, (STAGE_NORMAL, STAGE_SUSPEND_EXPORTERS, PRESSURE)),
    (3, (STAGE_SUSPEND_EXPORTERS, STAGE_PAUSE_SUBMISSION, PRESSURE)),
    (5, (STAGE_PAUSE_SUBMISSION, STAGE_ABORT, PRESSURE)),
    (9, (STAGE_ABORT, STAGE_PAUSE_SUBMISSION, "pressure cleared")),
    (12, (STAGE_PAUSE_SUBMISSION, STAGE_SUSPEND_EXPORTERS, "pressure cleared")),
]


@pytest.mark.parametrize(
    "readings, expected",
    [
        ([LOW] * 12, SUSTAINED_PRESSURE),
        ([LOW] * 6 + [HIGH] * 7, CLIMB_THEN_CLEAR),
    ],
    ids=["sustained-pressure", "climb-then-clear"],
)
def test_same_readings_give_the_recorded_transitions(readings, expected):
    """Polled at 1 s, sustained pressure aborts on the 5th poll through
    the two-poll streak; recovery steps down one rung per 3 healthy
    polls."""
    clock = FakeClock()
    it = iter(readings)
    guard = make_guard(clock=clock, disk=lambda path: next(it))
    got = []
    for n in range(1, len(readings) + 1):
        before = len(guard.transitions)
        assert guard.tick() is not None
        got += [(n, tr) for tr in guard.transitions[before:]]
        clock.advance(1.0)
    assert got == expected
