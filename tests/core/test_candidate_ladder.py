"""``RecoveryContext.candidate_ladder`` against the full seq walk.

The ladder walks only the keys of rank 0's restart history (a seq
committed on every rank is in every rank's window).  The walk it
replaced, over every seq from the newest committed one down to 1, is
kept here as the reference: over a seeded sweep of random fault specs,
every ladder the simulator asks for, for every fault kind and both
``avoid_corrupt`` values, must equal it.
"""

import random

from repro.core.campaign import CampaignSpec, build_campaign_simulator
from repro.core.fault_injection import RecoveryPolicy
from repro.faults.context import RecoveryContext
from repro.faults.domains import MIN_LEVEL_FOR_KIND


def reference_ladder(ctx, kind, avoid_corrupt=False):
    """The walk over every seq from ``min(ckpt_seq)`` down to 1."""
    ranks = ctx.sim._ranks
    min_level = MIN_LEVEL_FOR_KIND[kind]
    seq_star = min(r.ckpt_seq for r in ranks)
    committed = []
    for seq in range(seq_star, 0, -1):
        if seq in ctx.invalid_seqs:
            continue
        if avoid_corrupt and seq in ctx.corrupt_seqs:
            continue
        entries = [r.restart_history.get(seq) for r in ranks]
        if any(e is None for e in entries):
            continue
        committed.append((seq, entries[0][4]))
    ladder = []
    for tier in (1, 2, 4):
        if tier < min_level:
            continue
        for seq, level in committed:
            if level >= tier:
                if seq not in ladder:
                    ladder.append(seq)
                break
    ladder.append(0)
    return ladder


MIXES = (
    {"software": 0.4, "node": 0.3, "sdc": 0.3},
    {"sdc": 0.6, "burst": 0.2, "software": 0.2},
    {"software": 0.3, "node": 0.15, "sdc": 0.25, "straggler": 0.1, "burst": 0.1, "link": 0.1},
)

_draw = random.Random(27)
#: seeded sweep: fault mix, checkpoint level and period, MTBF, topology
#: and replica seed drawn per case
SPECS = [
    (
        CampaignSpec(
            node_mtbf_s=_draw.choice((2.0, 4.0, 8.0)),
            ckpt_period=_draw.choice((1, 2, 3)),
            level=_draw.choice((1, 2, 4)),
            nranks=8,
            timesteps=60,
            verify_period=_draw.choice((0, 2, 5)),
            fault_mix=_draw.choice(MIXES),
            net_topology=_draw.choice(("full", "torus")),
        ),
        _draw.randrange(1 << 16),
    )
    for _ in range(32)
]


def test_ladder_equals_the_full_seq_walk(monkeypatch):
    original = RecoveryContext.candidate_ladder
    seen = {"calls": 0, "pruned": False, "invalid": False, "corrupt": False}

    def checked(self, kind, avoid_corrupt=False):
        for k in MIN_LEVEL_FOR_KIND:
            for flag in (False, True):
                assert original(self, k, flag) == reference_ladder(self, k, flag)
        seen["calls"] += 1
        seen["pruned"] |= min(r.ckpt_seq for r in self.sim._ranks) > 6
        seen["invalid"] |= bool(self.invalid_seqs)
        seen["corrupt"] |= bool(self.corrupt_seqs)
        return original(self, kind, avoid_corrupt)

    monkeypatch.setattr(RecoveryContext, "candidate_ladder", checked)
    for spec, seed in SPECS:
        build_campaign_simulator(spec, seed, RecoveryPolicy()).run(max_events=200_000)
    # the sweep reached the cases the short walk could get wrong
    assert seen["calls"] > 100
    assert seen["pruned"] and seen["invalid"] and seen["corrupt"]


def test_ladder_equals_the_full_seq_walk_on_skewed_histories():
    """Ranks whose checkpoint counts differ by up to 8, so a seq in rank
    0's window can be pruned from another rank's (lockstep runs never
    get there)."""
    spec, seed = SPECS[0]
    ctx = build_campaign_simulator(spec, seed, RecoveryPolicy())._ctx
    rng = random.Random(28)
    for _ in range(300):
        base = rng.randrange(1, 20)
        for rank in ctx.sim._ranks:
            rank.ckpt_seq = base + rng.randrange(9)
            rank.restart_history = {0: (0, 0, 0.0, 0.0, 0)}
            for seq in range(max(1, rank.ckpt_seq - 5), rank.ckpt_seq + 1):
                rank.restart_history[seq] = (0, 0, 0.0, 0.0, rng.choice((1, 2, 4)))
        ctx.invalid_seqs = set(rng.sample(range(1, base + 9), rng.randrange(3)))
        ctx.corrupt_seqs = set(rng.sample(range(1, base + 9), rng.randrange(4)))
        for kind in MIN_LEVEL_FOR_KIND:
            for flag in (False, True):
                assert ctx.candidate_ladder(kind, flag) == reference_ladder(ctx, kind, flag)
