"""The injectable filesystem-fault shim: determinism, filters, scoping."""

import errno
import time

import pytest

from repro.guard.fsfault import (
    FS_FAULT_KINDS,
    FsFaultConfig,
    FsFaultInjector,
    active,
    fault_check,
    injected,
    install,
    uninstall,
)
from repro.guard.durable import fsync_dir
from repro.obs.metrics import MetricsRegistry, set_registry


@pytest.fixture(autouse=True)
def _clean_shim():
    """Never leak an installed injector (or global registry) across tests."""
    set_registry(MetricsRegistry())
    uninstall()
    yield
    uninstall()
    set_registry(None)


# -- config validation ---------------------------------------------------------


def test_config_rejects_prob_sum_over_one():
    with pytest.raises(ValueError):
        FsFaultConfig(enospc_prob=0.7, eio_prob=0.4)


def test_config_rejects_negative_knobs():
    with pytest.raises(ValueError):
        FsFaultConfig(after_ops=-1)
    with pytest.raises(ValueError):
        FsFaultConfig(max_faults=-2)
    with pytest.raises(ValueError):
        FsFaultConfig(slow_s=-0.1)


def test_config_normalizes_ops_list_to_tuple():
    cfg = FsFaultConfig(ops=["wal.append"])
    assert cfg.ops == ("wal.append",)


@pytest.mark.parametrize(
    "probs",
    [
        {"enospc_prob": -1.0, "eio_prob": 1.5},
        {"slow_prob": -0.1},
        {"emfile_prob": float("nan")},
    ],
)
def test_config_rejects_each_probability_outside_unit_interval(probs):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        FsFaultConfig(**probs)


# -- deterministic draws --------------------------------------------------------


def test_draw_is_deterministic_and_seed_keyed():
    a = FsFaultInjector(FsFaultConfig(seed=1))
    b = FsFaultInjector(FsFaultConfig(seed=1))
    c = FsFaultInjector(FsFaultConfig(seed=2))
    seq_a = [a.draw(i) for i in range(32)]
    assert seq_a == [b.draw(i) for i in range(32)]
    assert seq_a != [c.draw(i) for i in range(32)]
    assert all(0.0 <= u < 1.0 for u in seq_a)


def test_same_config_fires_at_same_op_index():
    def fire_indices(inj):
        out = []
        for i in range(64):
            try:
                inj.check("wal.append", "/tmp/x.wal")
            except OSError:
                out.append(i)
        return out

    first = fire_indices(FsFaultInjector(FsFaultConfig(eio_prob=0.2, seed=9)))
    second = fire_indices(FsFaultInjector(FsFaultConfig(eio_prob=0.2, seed=9)))
    assert first == second and first  # fired somewhere, identically


def test_enospc_prob_one_always_fires_with_errno_and_marker():
    inj = FsFaultInjector(FsFaultConfig(enospc_prob=1.0))
    with pytest.raises(OSError) as exc:
        inj.check("snapshot.write", "/data/snap")
    assert exc.value.errno == errno.ENOSPC
    assert "[injected by fsfault: snapshot.write]" in str(exc.value)
    assert inj.injected == 1 and inj.by_kind["enospc"] == 1


def test_after_ops_arms_exactly_at_nth_operation():
    inj = FsFaultInjector(FsFaultConfig(enospc_prob=1.0, after_ops=4))
    for _ in range(4):
        inj.check("wal.append")  # ops 0..3 pass
    with pytest.raises(OSError):
        inj.check("wal.append")  # op 4 fires
    assert inj.ops_seen == 5 and inj.injected == 1


def test_max_faults_caps_injection():
    inj = FsFaultInjector(FsFaultConfig(eio_prob=1.0, max_faults=2))
    fired = 0
    for _ in range(10):
        try:
            inj.check("journal.append")
        except OSError:
            fired += 1
    assert fired == 2 and inj.injected == 2


def test_path_substring_filter_skips_ineligible_paths():
    inj = FsFaultInjector(FsFaultConfig(enospc_prob=1.0, path_substring="wal"))
    inj.check("metrics.jsonl", "/out/metrics.jsonl")  # no "wal": not eligible
    assert inj.ops_seen == 0
    with pytest.raises(OSError):
        inj.check("wal.append", "/out/j.wal")
    assert inj.ops_seen == 1


def test_ops_filter_restricts_vocabulary():
    inj = FsFaultInjector(
        FsFaultConfig(enospc_prob=1.0, ops=("snapshot.write",))
    )
    inj.check("wal.append", "x")
    assert inj.ops_seen == 0
    with pytest.raises(OSError):
        inj.check("snapshot.write", "x")


def test_slow_fault_sleeps_instead_of_raising():
    inj = FsFaultInjector(FsFaultConfig(slow_prob=1.0, slow_s=0.02))
    t0 = time.monotonic()
    inj.check("wal.append")  # must not raise
    assert time.monotonic() - t0 >= 0.015
    assert inj.by_kind["slow"] == 1


def test_every_kind_is_countable():
    assert set(FS_FAULT_KINDS) == {"enospc", "eio", "emfile", "slow"}
    inj = FsFaultInjector(FsFaultConfig(emfile_prob=1.0))
    with pytest.raises(OSError) as exc:
        inj.check("wal.open")
    assert exc.value.errno == errno.EMFILE


# -- process-wide installation ---------------------------------------------------


def test_fault_check_is_noop_when_uninstalled():
    fault_check("wal.append", "/anything")  # must not raise


def test_install_uninstall_and_active():
    inj = install(FsFaultInjector(FsFaultConfig()))
    assert active() is inj
    uninstall()
    assert active() is None


def test_injected_contextmanager_scopes_and_restores():
    outer = install(FsFaultInjector(FsFaultConfig(seed=5)))
    with injected(FsFaultConfig(enospc_prob=1.0)) as inner:
        assert active() is inner
        with pytest.raises(OSError):
            fault_check("report.json", "/out/report.json")
    assert active() is outer
    uninstall()
    with injected(FsFaultConfig()) as inner:
        assert active() is inner
    assert active() is None


def test_injection_counts_into_metrics_registry():
    reg = MetricsRegistry()
    set_registry(reg)
    with injected(FsFaultConfig(eio_prob=1.0)):
        with pytest.raises(OSError):
            fault_check("metrics.prom", "/out/m.prom")
    assert (
        reg.counter(
            "guard_fsfaults_injected_total", kind="eio", op="metrics.prom"
        ).value
        == 1
    )


# -- fsync_dir -------------------------------------------------------------------


def test_fsync_dir_on_real_directory(tmp_path):
    fsync_dir(str(tmp_path))  # must not raise


def test_fsync_dir_missing_directory_is_noop():
    fsync_dir("/definitely/not/a/real/dir")  # must not raise


def test_fsync_dir_is_itself_faultable(tmp_path):
    with injected(FsFaultConfig(enospc_prob=1.0, ops=("fsync_dir",))):
        with pytest.raises(OSError):
            fsync_dir(str(tmp_path))
