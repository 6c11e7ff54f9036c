"""TaskSupervisor: retries, taxonomy, pool resurrection, WAL journal."""

import json
import os
import random
import subprocess
import sys
import textwrap
import time

import pytest

from repro.core.supervisor import (
    FAILURE_KINDS,
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


def _sleep_then(payload):
    time.sleep(payload)
    return payload


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


def test_pool_is_reused_across_runs_until_close():
    sup = TaskSupervisor(_double, n_workers=2)
    first = sup.run([(f"a{i}", i) for i in range(4)])
    second = sup.run([(f"b{i}", i) for i in range(4)])
    assert second.results == {f"b{i}": 2 * i for i in range(4)}
    assert (first.stats.pool_starts, second.stats.pool_starts) == (1, 0)
    workers = list(sup._pool._processes.values())
    assert workers and all(p.is_alive() for p in workers)
    sup.close()
    assert not any(p.is_alive() for p in workers)
    sup.close()
    assert sup.run([("c", 1)]).stats.pool_starts == 1  # a fresh pool after close
    sup.close()


def test_empty_task_list():
    out = TaskSupervisor(_double, n_workers=2).run([])
    assert out.results == {} and out.stats.completed == 0


def test_on_result_fires_once_per_completion():
    for n_workers in (1, 2):  # in-process, and pooled with tasks queued ahead
        seen = []
        sup = TaskSupervisor(
            _double, n_workers=n_workers, on_result=lambda k, v: seen.append((k, v))
        )
        try:
            out = sup.run([(f"t{i}", i) for i in range(10)])
        finally:
            sup.close()
        assert sorted(seen) == sorted((f"t{i}", 2 * i) for i in range(10))
        assert out.stats.completed == 10


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


# -- the submission window: one task queued ahead per worker ------------------------


def test_queued_ahead_task_is_never_charged_a_timeout():
    """Two workers, four 0.8 s tasks: two wait queued ahead behind the
    first two.  Their deadline starts when they move up into a worker,
    so a 1.2 s timeout covers each task, though not submit-to-finish."""
    retry = RetryPolicy(max_retries=0, timeout_s=1.2)
    sup = TaskSupervisor(_sleep_then, n_workers=2, retry=retry)
    try:
        out = sup.run([(f"t{i}", 0.8) for i in range(4)])
    finally:
        sup.close()
    assert out.results == {f"t{i}": 0.8 for i in range(4)}
    assert out.stats.by_kind["timeout"] == 0 and not out.stats.failures


def _one_crash_seed(keys):
    """An injector seed whose draws crash exactly one key, on its first
    attempt, and no attempt after it."""
    for seed in range(2000):
        inj = HarnessFaultInjector(crash_prob=0.1, seed=seed)
        first = [k for k in keys if inj.decide(k, 1) == "crash"]
        later = [k for k in keys for a in (2, 3) if inj.decide(k, a) == "crash"]
        if len(first) == 1 and not later:
            return seed
    raise AssertionError("no seed crashes exactly one task")


def test_one_crash_charges_at_most_n_workers_attempts():
    """A crash breaks every future in flight, but the queued-ahead tasks
    never held the dead worker: they go back uncharged."""
    keys = [f"t{i}" for i in range(8)]
    inj = HarnessFaultInjector(crash_prob=0.1, seed=_one_crash_seed(keys))
    retry = RetryPolicy(max_retries=3, backoff_base_s=0.001, backoff_max_s=0.002)
    sup = TaskSupervisor(_sleep_then, n_workers=2, retry=retry, fault_injector=inj)
    try:
        out = sup.run([(k, 0.05) for k in keys])
    finally:
        sup.close()
    assert out.results == {k: 0.05 for k in keys}
    assert out.stats.pool_rebuilds == 1
    assert 1 <= out.stats.by_kind["crash"] <= 2
    assert out.stats.retries == out.stats.by_kind["crash"]


def test_journal_order_is_completion_order(tmp_path):
    """The slow first task finishes last, so it is journaled last; the
    refill before each append does not reorder the records."""
    path = str(tmp_path / "wal.jsonl")
    tasks = [("slow", 0.6)] + [(f"f{i}", 0.02) for i in range(4)]
    with WriteAheadJournal(path, {"run": 1}) as wal:
        sup = TaskSupervisor(
            _sleep_then,
            n_workers=2,
            on_result=lambda k, v: wal.append({"key": k}),
        )
        try:
            sup.run(tasks)
        finally:
            sup.close()
    _, records = WriteAheadJournal.read(path)
    assert [r["key"] for r in records] == ["f0", "f1", "f2", "f3", "slow"]


#: Runs one campaign point on two fresh workers and prints, per replica,
#: the modules its worker imported while running it.
_FIRST_REPLICA_IMPORTS = textwrap.dedent(
    """
    import json, sys
    from repro.core.campaign import CampaignSpec, ResilienceCampaign, _run_replica

    def probe(task):
        before = set(sys.modules)
        out = _run_replica(task)
        out["new_modules"] = sorted(set(sys.modules) - before)
        return out

    mix = {"software": 0.3, "node": 0.15, "sdc": 0.25, "straggler": 0.1,
           "burst": 0.1, "link": 0.1}
    spec = CampaignSpec(node_mtbf_s=16, ckpt_period=5, nranks=16, nnodes=8,
                        timesteps=100, verify_period=5, net_topology="torus",
                        fault_mix=mix)
    campaign = ResilienceCampaign(reps=4, base_seed=0, n_workers=2)
    try:
        campaign._get_supervisor().worker_fn = probe
        replicas = campaign._run_replicas(spec)
    finally:
        campaign.close()
    print(json.dumps([r["new_modules"] for r in replicas]))
    """
)


def test_forked_workers_import_nothing_on_their_first_replica():
    """The campaign imports before the pool forks what a replica would
    import lazily (fault domains of every kind hit here), so no worker
    pays for it on its first replica.  A fresh interpreter, because this
    one has long imported everything."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", _FIRST_REPLICA_IMPORTS],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    imported = json.loads(proc.stdout.splitlines()[-1])
    assert len(imported) == 4
    assert imported == [[]] * 4


def test_in_process_run_never_injects():
    """``n_workers=1`` runs in the supervisor's own process, which never
    holds an injector: a certain error draws nothing."""
    inj = HarnessFaultInjector(error_prob=1.0, seed=0)
    sup = TaskSupervisor(_double, n_workers=1, fault_injector=inj)
    out = sup.run([(f"t{i}", i) for i in range(3)])
    assert out.results == {f"t{i}": 2 * i for i in range(3)}
    assert not out.stats.failures


def _worker_fs_seed(_):
    from repro.guard import fsfault

    shim = fsfault.active()
    return None if shim is None else shim.config.seed


def test_workers_install_the_injectors_fs_shim():
    from repro.guard.fsfault import FsFaultConfig

    inj = HarnessFaultInjector(fs=FsFaultConfig(path_substring="nowhere", seed=11))
    sup = TaskSupervisor(_worker_fs_seed, n_workers=2, fault_injector=inj)
    try:
        out = sup.run([(f"t{i}", i) for i in range(4)])
    finally:
        sup.close()
    assert out.results == {f"t{i}": 11 for i in range(4)}


def test_workers_do_not_inherit_the_hosts_fs_shim():
    """A shim installed in the supervisor (``--chaos-enospc-after``) stays
    there: forked workers drop it in the pool initializer."""
    from repro.guard.fsfault import FsFaultConfig, injected

    with injected(FsFaultConfig(enospc_prob=1.0, path_substring="nowhere", seed=7)):
        sup = TaskSupervisor(_worker_fs_seed, n_workers=2)
        try:
            out = sup.run([(f"t{i}", i) for i in range(4)])
        finally:
            sup.close()
    assert out.results == {f"t{i}": None for i in range(4)}


# -- injector ---------------------------------------------------------------------


def test_injector_is_deterministic_per_key_and_attempt():
    inj = HarnessFaultInjector(crash_prob=0.2, hang_prob=0.2, seed=9)
    draws = [(k, a, inj.decide(f"t:{k}", a)) for k in range(20) for a in (1, 2)]
    again = [(k, a, inj.decide(f"t:{k}", a)) for k in range(20) for a in (1, 2)]
    assert draws == again
    modes = {d for _, _, d in draws if d}
    assert modes  # 40 draws at 40% total fault probability must hit some


def test_injector_rejects_probabilities_over_one():
    with pytest.raises(ValueError):
        HarnessFaultInjector(crash_prob=0.7, hang_prob=0.7)


@pytest.mark.parametrize(
    "probs",
    [
        {"crash_prob": -0.5, "hang_prob": 0.6},
        {"garbage_prob": 1.5},
        {"error_prob": float("nan")},
    ],
)
def test_injector_rejects_each_probability_outside_unit_interval(probs):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        HarnessFaultInjector(**probs)


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
