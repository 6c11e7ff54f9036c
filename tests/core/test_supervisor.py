"""TaskSupervisor: retries, taxonomy, pool resurrection, WAL journal."""

import json
import os
import random

import pytest

from repro.core.supervisor import (
    FAILURE_KINDS,
    FAULT_ENV_VAR,
    GARBAGE,
    HarnessFaultInjector,
    JournalError,
    RetryPolicy,
    TaskSupervisor,
    WriteAheadJournal,
)

# -- module-level workers (picklable into forked pools) ---------------------------

_CALLS: dict = {}


def _double(x):
    return x * 2


def _always_raise(x):
    raise ValueError(f"bad input {x}")


def _raise_if_bad(x):
    if x == "bad":
        raise ValueError("poisoned payload")
    return x


def _always_oom(x):
    raise MemoryError("boom")


def _return_garbage(x):
    return GARBAGE


def _flaky(payload):
    """Fails the first ``payload['fail']`` calls (in-process only)."""
    key = payload["key"]
    _CALLS[key] = _CALLS.get(key, 0) + 1
    if _CALLS[key] <= payload["fail"]:
        raise RuntimeError(f"flaky {key} call {_CALLS[key]}")
    return payload["value"]


def _find_seed(mode, want_attempt, not_attempt, **probs):
    """Deterministically pick an injector seed with the wanted draw pattern."""
    for seed in range(500):
        inj = HarnessFaultInjector(seed=seed, **probs)
        if (
            inj.decide("k:0", want_attempt) == mode
            and inj.decide("k:0", not_attempt) is None
        ):
            return seed
    raise AssertionError(f"no seed draws {mode} at attempt {want_attempt}")


# -- clean paths ------------------------------------------------------------------


def test_clean_sequential_path():
    sup = TaskSupervisor(_double, n_workers=1)
    out = sup.run([(f"t{i}", i) for i in range(5)])
    assert out.results == {f"t{i}": 2 * i for i in range(5)}
    assert out.stats.completed == 5
    assert out.stats.retries == 0
    assert not out.stats.failures and not out.stats.quarantined


def test_clean_supervised_path():
    sup = TaskSupervisor(_double, n_workers=2)
    out = sup.run([(f"t{i}", i) for i in range(6)])
    assert out.results == {f"t{i}": 2 * i for i in range(6)}
    assert out.stats.pool_rebuilds == 0 and not out.stats.degraded


def test_empty_task_list():
    out = TaskSupervisor(_double, n_workers=2).run([])
    assert out.results == {} and out.stats.completed == 0


def test_on_result_fires_once_per_completion():
    seen = []
    sup = TaskSupervisor(_double, n_workers=1, on_result=lambda k, v: seen.append((k, v)))
    sup.run([("a", 1), ("b", 2)])
    assert sorted(seen) == [("a", 2), ("b", 4)]


# -- failure taxonomy -------------------------------------------------------------


def test_error_retried_then_succeeds():
    _CALLS.clear()
    retry = RetryPolicy(max_retries=3, backoff_base_s=0.001, backoff_max_s=0.002)
    sup = TaskSupervisor(_flaky, n_workers=1, retry=retry)
    out = sup.run([("f1", {"key": "f1", "fail": 2, "value": 42})])
    assert out.results == {"f1": 42}
    assert out.stats.retries == 2
    assert out.stats.by_kind["error"] == 2


def test_poison_quarantine_after_max_retries():
    retry = RetryPolicy(max_retries=2, backoff_base_s=0.001, backoff_max_s=0.002)
    sup = TaskSupervisor(_raise_if_bad, n_workers=1, retry=retry)
    out = sup.run([("p", "bad"), ("q", "fine")])
    assert "p" not in out.results
    assert out.stats.quarantined == ["p"]
    assert out.stats.by_kind["error"] == 3  # initial + 2 retries
    assert out.stats.by_kind["poisoned"] == 1
    kinds = {f.kind for f in out.stats.failures}
    assert kinds <= set(FAILURE_KINDS)
    assert "poisoned" in kinds
    # the healthy task still completed despite its poisoned neighbour
    assert out.results == {"q": "fine"}


def test_oom_classified_separately():
    retry = RetryPolicy(max_retries=0, backoff_base_s=0.001)
    out = TaskSupervisor(_always_oom, n_workers=1, retry=retry).run([("m", 0)])
    assert out.stats.by_kind["oom"] == 1
    assert out.stats.quarantined == ["m"]


def test_garbage_rejected_even_without_validator():
    retry = RetryPolicy(max_retries=1, backoff_base_s=0.001)
    out = TaskSupervisor(_return_garbage, n_workers=1, retry=retry).run([("g", 0)])
    assert "g" not in out.results
    assert out.stats.by_kind["error"] == 2


def test_validator_classifies_bad_results_as_error():
    retry = RetryPolicy(max_retries=0, backoff_base_s=0.001)
    sup = TaskSupervisor(
        _double, n_workers=1, retry=retry, validate=lambda v: v > 100
    )
    out = sup.run([("small", 1), ("big", 99)])
    assert out.results == {"big": 198}
    assert out.stats.quarantined == ["small"]


# -- crash / hang / degradation (real process pools) ------------------------------


def test_crash_rebuilds_pool_and_retries():
    seed = _find_seed("crash", want_attempt=1, not_attempt=2, crash_prob=0.3)
    inj = HarnessFaultInjector(crash_prob=0.3, seed=seed)
    retry = RetryPolicy(max_retries=8, backoff_base_s=0.01, backoff_max_s=0.05)
    sup = TaskSupervisor(
        _double, n_workers=2, retry=retry, fault_injector=inj
    )
    out = sup.run([("k:0", 7)])
    assert out.results == {"k:0": 14}
    assert out.stats.by_kind["crash"] >= 1
    assert out.stats.pool_rebuilds >= 1
    assert not out.stats.degraded


def test_hung_worker_is_reaped_by_timeout():
    seed = _find_seed("hang", want_attempt=1, not_attempt=2, hang_prob=0.3)
    inj = HarnessFaultInjector(hang_prob=0.3, hang_s=60.0, seed=seed)
    retry = RetryPolicy(
        max_retries=8, timeout_s=0.75, backoff_base_s=0.01, backoff_max_s=0.05
    )
    sup = TaskSupervisor(_double, n_workers=2, retry=retry, fault_injector=inj)
    out = sup.run([("k:0", 3)])
    assert out.results == {"k:0": 6}
    assert out.stats.by_kind["timeout"] >= 1
    assert out.stats.pool_rebuilds >= 1


def test_degrades_to_sequential_when_workers_keep_dying():
    inj = HarnessFaultInjector(crash_prob=1.0, seed=0)
    retry = RetryPolicy(
        max_retries=50, degrade_after=2, backoff_base_s=0.001, backoff_max_s=0.01
    )
    sup = TaskSupervisor(_double, n_workers=2, retry=retry, fault_injector=inj)
    out = sup.run([(f"t{i}", i) for i in range(4)])
    # in-process fallback is immune to harness faults: everything completes
    assert out.results == {f"t{i}": 2 * i for i in range(4)}
    assert out.stats.degraded
    assert out.stats.pool_rebuilds >= 2


def test_fault_env_restored_after_run():
    assert FAULT_ENV_VAR not in os.environ
    inj = HarnessFaultInjector(crash_prob=0.0, garbage_prob=0.0, seed=1)
    TaskSupervisor(_double, n_workers=2, fault_injector=inj).run([("a", 1)])
    assert FAULT_ENV_VAR not in os.environ


# -- injector ---------------------------------------------------------------------


def test_injector_is_deterministic_per_key_and_attempt():
    inj = HarnessFaultInjector(crash_prob=0.2, hang_prob=0.2, seed=9)
    draws = [(k, a, inj.decide(f"t:{k}", a)) for k in range(20) for a in (1, 2)]
    again = [(k, a, inj.decide(f"t:{k}", a)) for k in range(20) for a in (1, 2)]
    assert draws == again
    modes = {d for _, _, d in draws if d}
    assert modes  # 40 draws at 40% total fault probability must hit some


def test_injector_env_roundtrip_and_host_pid_guard():
    inj = HarnessFaultInjector(crash_prob=0.5, oom_prob=0.5, seed=4)
    os.environ[FAULT_ENV_VAR] = inj.with_host_pid().to_env()
    try:
        loaded = HarnessFaultInjector.from_env()
        assert loaded.crash_prob == 0.5 and loaded.host_pid == os.getpid()
        # in the host process the injector must never fire
        for i in range(50):
            assert loaded.maybe_fail(f"k{i}", 1) is None
    finally:
        del os.environ[FAULT_ENV_VAR]
    assert HarnessFaultInjector.from_env() is None


def test_injector_rejects_probabilities_over_one():
    with pytest.raises(ValueError):
        HarnessFaultInjector(crash_prob=0.7, hang_prob=0.7)


def test_from_env_tolerates_absent_empty_and_garbage_values():
    assert FAULT_ENV_VAR not in os.environ
    assert HarnessFaultInjector.from_env() is None
    for raw in ("", "not json", "[1, 2]", '"a string"', "null", "3.5"):
        os.environ[FAULT_ENV_VAR] = raw
        try:
            assert HarnessFaultInjector.from_env() is None, raw
        finally:
            del os.environ[FAULT_ENV_VAR]


def test_from_env_ignores_unknown_keys():
    os.environ[FAULT_ENV_VAR] = json.dumps(
        {"crash_prob": 0.25, "seed": 7, "future_knob": True, "other": [1]}
    )
    try:
        loaded = HarnessFaultInjector.from_env()
    finally:
        del os.environ[FAULT_ENV_VAR]
    assert loaded is not None
    assert loaded.crash_prob == 0.25 and loaded.seed == 7


def test_from_env_rejects_invalid_probabilities():
    os.environ[FAULT_ENV_VAR] = json.dumps({"crash_prob": 0.9, "hang_prob": 0.9})
    try:
        assert HarnessFaultInjector.from_env() is None
    finally:
        del os.environ[FAULT_ENV_VAR]


def test_fs_config_round_trips_and_tolerates_garbage():
    from repro.guard.fsfault import FsFaultConfig

    fs = FsFaultConfig(eio_prob=0.5, path_substring="wal", seed=11)
    inj = HarnessFaultInjector(fs=fs.to_dict())
    os.environ[FAULT_ENV_VAR] = inj.to_env()
    try:
        loaded = HarnessFaultInjector.from_env()
    finally:
        del os.environ[FAULT_ENV_VAR]
    assert loaded.fs_config() == fs
    assert HarnessFaultInjector().fs_config() is None
    assert HarnessFaultInjector(fs={"enospc_prob": 7.0}).fs_config() is None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_host_pid_guard_stops_at_the_fork_boundary():
    """``with_host_pid`` binds the *supervisor* pid: the same config that
    is inert in the host must fire in a forked child."""
    inj = HarnessFaultInjector(error_prob=1.0, seed=0).with_host_pid()
    assert inj.maybe_fail("k", 1) is None  # inert in the host process
    pid = os.fork()
    if pid == 0:  # child: the guard no longer matches this pid
        try:
            fired = False
            try:
                inj.maybe_fail("k", 1)
            except RuntimeError:
                fired = True
            os._exit(0 if fired else 1)
        except BaseException:
            os._exit(2)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


# -- retry policy -----------------------------------------------------------------


def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(
        backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.5, jitter=0.0
    )
    rng = random.Random(0)
    delays = [policy.backoff_delay(a, rng) for a in (1, 2, 3, 4, 5)]
    assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]


def test_backoff_jitter_stays_within_band():
    policy = RetryPolicy(backoff_base_s=0.1, jitter=0.5, backoff_max_s=10.0)
    rng = random.Random(1)
    for _ in range(100):
        d = policy.backoff_delay(2, rng)
        assert 0.1 <= d <= 0.3  # 0.2 +/- 50%


def test_backoff_jitter_full_spread_never_negative():
    policy = RetryPolicy(backoff_base_s=0.1, jitter=1.0, backoff_max_s=10.0)
    rng = random.Random(3)
    delays = [policy.backoff_delay(1, rng) for _ in range(500)]
    assert all(0.0 <= d <= 0.2 for d in delays)  # 0.1 +/- 100%, floored at 0
    # the jitter really spreads: both halves of the band are reached
    assert min(delays) < 0.05 and max(delays) > 0.15


def test_backoff_attempt_below_one_clamps_to_first_delay():
    policy = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0, jitter=0.0)
    rng = random.Random(0)
    assert policy.backoff_delay(0, rng) == policy.backoff_delay(1, rng) == 0.1
    assert policy.backoff_delay(-3, rng) == 0.1


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(timeout_s=0.0)
    with pytest.raises(ValueError):
        TaskSupervisor(_double, n_workers=0)


# -- write-ahead journal ----------------------------------------------------------


def test_journal_append_and_reopen(tmp_path):
    path = str(tmp_path / "wal.jsonl")
    meta = {"reps": 3, "base_seed": 0}
    with WriteAheadJournal(path, meta) as wal:
        wal.append({"kind": "replica", "i": 0, "x": 1.5})
        wal.append({"kind": "replica", "i": 1, "x": 2.5})
    with WriteAheadJournal(path, meta) as wal:
        assert [r["i"] for r in wal.records] == [0, 1]
        wal.append({"kind": "replica", "i": 2, "x": 3.5})
    stored_meta, records = WriteAheadJournal.read(path)
    assert stored_meta == meta
    assert [r["i"] for r in records] == [0, 1, 2]


def test_journal_meta_mismatch_raises(tmp_path):
    path = str(tmp_path / "wal.jsonl")
    WriteAheadJournal(path, {"reps": 3}).close()
    with pytest.raises(JournalError):
        WriteAheadJournal(path, {"reps": 5})


def test_journal_tolerates_torn_tail(tmp_path):
    path = str(tmp_path / "wal.jsonl")
    with WriteAheadJournal(path, {"reps": 2}) as wal:
        wal.append({"kind": "replica", "i": 0})
    with open(path, "a") as fh:  # simulate a SIGKILL mid-append
        fh.write('{"kind": "replica", "i": 1, "x": 0.123')
    with WriteAheadJournal(path, {"reps": 2}) as wal:
        assert [r["i"] for r in wal.records] == [0]
        wal.append({"kind": "replica", "i": 1})
    _, records = WriteAheadJournal.read(path)
    assert [r["i"] for r in records] == [0, 1]
    # every surviving line is whole, parseable JSON
    with open(path) as fh:
        for line in fh:
            json.loads(line)


def test_journal_rejects_headerless_file(tmp_path):
    path = str(tmp_path / "wal.jsonl")
    with open(path, "w") as fh:
        fh.write('{"kind": "replica", "i": 0}\n')
    with pytest.raises(JournalError):
        WriteAheadJournal.read(path)


# -- bad journals fail with JournalError, naming the file --------------------------


def _write_bytes(tmp_path, name, data: bytes) -> str:
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


_HEADER = json.dumps({"kind": "header", "version": 1, "meta": {"reps": 2}})


@pytest.mark.parametrize(
    "first_line",
    [b"not json at all", b"{", b'["kind", "header"]', b"\xff\xfe header", b"42"],
)
def test_journal_with_bad_header_line_raises_journal_error(tmp_path, first_line):
    from repro.des.replay import read_journal

    path = _write_bytes(tmp_path, "wal.jsonl", first_line + b"\n")
    for load in (
        WriteAheadJournal.read,
        lambda p: WriteAheadJournal(p, {"reps": 2}),
        read_journal,
    ):
        with pytest.raises(JournalError, match="wal.jsonl"):
            load(path)


def test_journal_stops_at_a_non_utf8_record(tmp_path):
    record = json.dumps({"i": 0}).encode()
    path = _write_bytes(
        tmp_path,
        "wal.jsonl",
        _HEADER.encode() + b"\n" + record + b"\n" + b'{"i": "\xff"}\n' + record + b"\n",
    )
    meta, records = WriteAheadJournal.read(path)
    assert meta == {"reps": 2}
    assert records == [{"i": 0}]  # everything after the bad line is suspect


def test_journal_stops_at_a_non_object_record(tmp_path):
    path = _write_bytes(
        tmp_path, "wal.jsonl", f'{_HEADER}\n{{"i": 0}}\n[1, 2]\n{{"i": 1}}\n'.encode()
    )
    assert WriteAheadJournal.read(path)[1] == [{"i": 0}]


def test_journal_holding_only_a_torn_header_reopens_fresh(tmp_path):
    """A kill mid-header leaves a file nothing was ever acknowledged in:
    opening it for append starts the journal over."""
    path = str(tmp_path / "wal.jsonl")
    with WriteAheadJournal(path, {"reps": 2}):
        pass
    whole = open(path, "rb").read()
    for cut in (1, len(whole) // 2, len(whole) - 1):
        with open(path, "wb") as fh:
            fh.write(whole[:cut])
        with pytest.raises(JournalError, match="empty"):
            WriteAheadJournal.read(path)
        with WriteAheadJournal(path, {"reps": 2}) as wal:
            assert wal.records == []
            wal.append({"i": 0})
        assert WriteAheadJournal.read(path) == ({"reps": 2}, [{"i": 0}])


def test_journal_refuses_a_foreign_file_without_newline(tmp_path):
    """A file with no whole line that is not a torn header of this
    journal is someone else's data: it is refused, never overwritten."""
    path = _write_bytes(tmp_path, "report.json", b'{"points": []}')
    with pytest.raises(JournalError, match="report.json"):
        WriteAheadJournal(path, {"reps": 2})
    assert open(path, "rb").read() == b'{"points": []}'
