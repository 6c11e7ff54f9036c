"""The pluggable fault-domain subsystem: registry, protocol, config.

Covers the ``repro.faults`` extraction: registry consistency (every
kind owned by exactly one domain, canonical draw order preserved),
``FaultModel.kind_weights`` validation edges (single-kind mixes, the
1e-6 sum tolerance at its exact boundary, unknown-kind messages),
the :class:`FaultDomain` protocol (dispatch, state snapshot/restore,
wiring-attr rejection), the result-block flow from a domain's
``result_fields`` to the point report, :class:`NodeRangeError`
surfacing through the ``NetworkDomain`` injection path, structured
fault-config parsing, and the ``repro faults list`` /
``--fault-config`` CLI layer.
"""

import ast
import json
import re
from dataclasses import asdict

import pytest

from repro.core import FaultDetail, RecoveryPolicy
from repro.core.campaign import (
    CampaignSpec,
    ReplicaTask,
    _run_replica,
    aggregate_point,
    build_campaign_simulator,
)
from repro.core.fault_injection import FAULT_KINDS, FaultModel
from repro.faults.domains import NetworkDomain, SdcDomain
from repro.faults.registry import (
    KIND_TO_DOMAIN,
    REGISTRY,
    campaign_kwargs_from_config,
    domain_for_kind,
    kinds_of,
)
from repro.network.topology import NodeRangeError


def _sim(**kw):
    base = dict(
        node_mtbf_s=1e9,
        ckpt_period=5,
        nranks=4,
        nnodes=2,
        timesteps=10,
        net_topology="torus",
    )
    base.update(kw)
    spec = CampaignSpec(**base)
    policy = RecoveryPolicy(verify_fail_prob=0.0)
    return build_campaign_simulator(spec, 0, policy, inject=False)


# -- registry consistency ----------------------------------------------------------


def test_every_kind_owned_by_exactly_one_domain():
    seen = {}
    for info in REGISTRY:
        for kind in info.kinds:
            assert kind not in seen, f"{kind} owned by {seen[kind]} and {info.name}"
            seen[kind] = info.name
    assert set(seen) == set(FAULT_KINDS)
    assert seen == dict(KIND_TO_DOMAIN)


def test_kinds_of_preserves_draw_order():
    for info in REGISTRY:
        ordered = kinds_of(info.name)
        assert ordered == tuple(k for k in FAULT_KINDS if k in info.kinds)


def test_domain_for_kind_default():
    assert domain_for_kind("sdc") == "sdc"
    assert domain_for_kind("no-such-kind", None) is None
    with pytest.raises(KeyError):
        domain_for_kind("no-such-kind")


def test_simulator_dispatch_table_matches_registry():
    sim = _sim()
    for kind in FAULT_KINDS:
        assert sim._domain_by_kind[kind].name == domain_for_kind(kind)
        assert sim._domain_by_kind[kind].wants(kind)


# -- FaultModel.kind_weights edges -------------------------------------------------


def test_single_kind_weight_one_draws_only_that_kind():
    model = FaultModel(node_mtbf_s=10.0, kind_weights={"straggler": 1.0})
    import random

    rng = random.Random(7)
    assert {model.draw_kind(rng) for _ in range(64)} == {"straggler"}


def test_kind_weights_sum_tolerance_boundary():
    # |sum - 1| <= 1e-6 is accepted; just beyond is rejected.  9e-7 and
    # 2e-6 sit clear of the boundary on either side so float rounding
    # in the sum cannot flip the verdict.
    FaultModel(
        node_mtbf_s=10.0,
        kind_weights={"software": 0.5, "node": 0.5 + 9e-7},
    )
    with pytest.raises(ValueError, match="must sum to 1"):
        FaultModel(
            node_mtbf_s=10.0,
            kind_weights={"software": 0.5, "node": 0.5 + 2e-6},
        )


def test_unknown_kind_message_lists_sorted_unknowns():
    with pytest.raises(ValueError) as err:
        FaultModel(
            node_mtbf_s=10.0,
            kind_weights={"zz_bogus": 0.5, "aa_bogus": 0.5},
        )
    assert "['aa_bogus', 'zz_bogus']" in str(err.value)


def test_negative_weight_rejected():
    with pytest.raises(ValueError, match="must be >= 0"):
        FaultModel(
            node_mtbf_s=10.0,
            kind_weights={"software": 1.5, "node": -0.5},
        )


# -- FaultDomain protocol ----------------------------------------------------------


def test_snapshot_restore_round_trip():
    sim = _sim()
    dom = sim._straggler_dom
    dom.node_slowdown[1] = 3.0
    dom.excess_s = 1.25
    state = dom.snapshot_state()
    assert "sim" not in state and "ctx" not in state
    dom.node_slowdown.clear()
    dom.excess_s = 0.0
    dom.restore_state(state)
    assert dom.node_slowdown == {1: 3.0}
    assert dom.excess_s == 1.25


def test_restore_state_rejects_wiring_attrs():
    sim = _sim()
    with pytest.raises(ValueError, match="wiring"):
        sim._straggler_dom.restore_state({"sim": None})


def test_unknown_kind_injection_message():
    sim = _sim()
    with pytest.raises(ValueError, match="unknown fault kind 'meteor'"):
        sim.inject_fault(0, kind="meteor")


# -- result blocks ----------------------------------------------------------------


def test_extra_sdc_block_key_reaches_the_point_report(monkeypatch):
    """A key added in ``result_fields`` alone flows through the
    simulator result and the replica record into the summed block."""
    original = SdcDomain.result_fields

    def with_erased(self):
        fields = original(self)
        fields["sdc"]["erased"] = 1
        return fields

    monkeypatch.setattr(SdcDomain, "result_fields", with_erased)
    spec = CampaignSpec(
        node_mtbf_s=8.0, ckpt_period=5, timesteps=10, fault_mix={"sdc": 1.0}
    )
    replicas = [
        _run_replica(ReplicaTask(spec, RecoveryPolicy(), seed)) for seed in (1, 2)
    ]
    assert [r["sdc"]["erased"] for r in replicas] == [1, 1]
    point = aggregate_point(spec, replicas, reps=2)
    assert list(point.sdc) == [*SdcDomain.ZERO_BLOCK, "erased"]
    assert point.sdc["erased"] == 2
    assert "erased" not in SdcDomain.ZERO_BLOCK


def test_empty_point_reports_every_block_as_typed_zeros():
    spec = CampaignSpec(node_mtbf_s=8.0, ckpt_period=5)
    d = aggregate_point(spec, [], reps=3).to_dict()
    for name, zero in (("sdc", SdcDomain.ZERO_BLOCK), ("net", NetworkDomain.ZERO_BLOCK)):
        assert list(d[name].items()) == list(zero.items())
        assert [type(v) for v in d[name].values()] == [type(v) for v in zero.values()]


# -- NodeRangeError through the NetworkDomain path ---------------------------------


def test_out_of_range_edge_raises_node_range_error():
    sim = _sim()
    with pytest.raises(NodeRangeError):
        sim.inject_fault(0, kind="link", detail=FaultDetail(edge=(0, 999)))


def test_node_range_error_is_both_index_and_value_error():
    sim = _sim()
    with pytest.raises(IndexError):
        sim.inject_fault(0, kind="link", detail=FaultDetail(edge=(0, 999)))
    with pytest.raises(ValueError):
        sim.inject_fault(0, kind="link", detail=FaultDetail(edge=(0, 999)))


# -- structured fault-config parsing -----------------------------------------------


def test_campaign_kwargs_from_config_round_trip():
    cfg = {
        "mix": {"software": 0.5, "sdc": 0.5},
        "sdc": {"coverage": 0.8, "correct_prob": 0.25},
        "straggler": {"slowdown": 3.0, "repair_s": 10.0},
        "network": {
            "link_mtbf_s": 50.0,
            "repair_s": 5.0,
            "topology": "fattree",
            "fault_split": {"link": 0.7, "switch": 0.2, "netdeg": 0.1},
        },
        "failstop": {"burst_size": 4},
    }
    kwargs = campaign_kwargs_from_config(cfg)
    assert kwargs["fault_mix"] == {"software": 0.5, "sdc": 0.5}
    assert kwargs["sdc_coverage"] == 0.8
    assert kwargs["straggler_slowdown"] == 3.0
    assert kwargs["net_link_mtbf_s"] == 50.0
    assert kwargs["net_topology"] == "fattree"
    assert kwargs["net_fault_split"] == (
        ("link", 0.7),
        ("netdeg", 0.1),
        ("switch", 0.2),
    )
    # every produced kwarg must be a real CampaignSpec field
    spec = CampaignSpec(node_mtbf_s=10.0, ckpt_period=5, **kwargs)
    assert spec.sdc_correct_prob == 0.25


def test_fault_config_rejects_unknown_section_and_field():
    with pytest.raises(ValueError, match="unknown fault-config section"):
        campaign_kwargs_from_config({"cosmic": {}})
    with pytest.raises(ValueError, match="unknown field"):
        campaign_kwargs_from_config({"sdc": {"coverage": 0.9, "volts": 1.2}})
    with pytest.raises(ValueError, match="unknown fault kind"):
        campaign_kwargs_from_config({"mix": {"meteor": 1.0}})


@pytest.mark.parametrize("raw", [2.5, True, "3", None, float("inf")])
def test_fault_config_rejects_non_integral_burst_size(raw):
    with pytest.raises(ValueError, match="failstop.burst_size must be an? "):
        campaign_kwargs_from_config({"failstop": {"burst_size": raw}})


@pytest.mark.parametrize(
    "cfg",
    [
        {"sdc": {"coverage": True}},
        {"sdc": {"coverage": "0.9"}},
        {"straggler": {"repair_s": False}},
        {"mix": {"sdc": "1"}},
        {"network": {"fault_split": {"link": True}}},
    ],
)
def test_fault_config_rejects_bool_and_string_numbers(cfg):
    with pytest.raises(ValueError, match="must be a number"):
        campaign_kwargs_from_config(cfg)


def test_fault_config_integral_burst_size_builds_the_same_spec():
    specs = [
        CampaignSpec(
            node_mtbf_s=10.0,
            ckpt_period=5,
            **campaign_kwargs_from_config({"failstop": {"burst_size": raw}}),
        )
        for raw in (2, 2.0)
    ]
    assert asdict(specs[0]) == asdict(specs[1])
    assert asdict(specs[0])["burst_size"] == 2 and type(specs[1].burst_size) is int


# -- CLI layer ---------------------------------------------------------------------


def test_faults_list_cli(capsys):
    from repro.cli import main

    assert main(["faults", "list"]) == 0
    out = capsys.readouterr().out
    for info in REGISTRY:
        assert info.name in out
    for kind in FAULT_KINDS:
        assert kind in out


#: a valid file value for the config fields that are not plain numbers
_SAMPLE = {"topology": "torus", "fault_split": {"link": 1.0}}


def _printed_config(out: str) -> dict:
    """``repro faults list`` output -> {domain: {field: printed default}}."""
    printed, domain = {}, None
    for line in out.splitlines():
        head = line.split(" ", 1)[0]
        if head in {info.name for info in REGISTRY}:
            domain = head
            printed[domain] = {}
        elif line.strip().startswith("config:"):
            body = line.split("config:", 1)[1]
            for knob in re.split(r", (?=\w+=)", body.strip()):
                key, _, value = knob.partition("=")
                printed[domain][key] = value
    return printed


def test_faults_list_prints_the_defaults_campaign_uses(capsys):
    from dataclasses import fields

    from repro.cli import main

    assert main(["faults", "list"]) == 0
    printed = _printed_config(capsys.readouterr().out)
    defaults = {f.name: f.default for f in fields(CampaignSpec)}
    for info in REGISTRY:
        shown = printed[info.name]
        # every field the parser accepts, read from its own rejection message
        with pytest.raises(ValueError, match="expected one of") as exc:
            campaign_kwargs_from_config({info.name: {"no_such_field": 1}})
        accepted = ast.literal_eval(str(exc.value).rsplit("expected one of ", 1)[1])
        assert sorted(shown) == accepted, info.name
        for key, value in shown.items():
            sample = {info.name: {key: _SAMPLE.get(key, 1)}}
            (dest,) = campaign_kwargs_from_config(sample)
            assert value == repr(defaults[dest]), f"{info.name}.{key}"
    assert printed["failstop"]["burst_size"] == "2"
    assert printed["straggler"]["repair_s"] == "5.0"
    assert printed["network"]["repair_s"] == "5.0"
    assert printed["network"]["topology"] == "'full'"


def test_campaign_without_fault_flags_uses_spec_defaults(monkeypatch):
    from repro.cli import main
    from repro.core.campaign import CampaignReport, ResilienceCampaign

    built = []

    def capture(self, specs):
        built.extend(specs)
        return CampaignReport(points=[], reps=self.reps, base_seed=0)

    monkeypatch.setattr(ResilienceCampaign, "run_specs", capture)
    assert main(["campaign", "--mtbf", "8", "--periods", "5"]) == 0
    assert built == [CampaignSpec(node_mtbf_s=8.0, ckpt_period=5, timesteps=40)]


def test_fault_config_flag_precedence(tmp_path):
    from repro.cli import _build_parser, _campaign_spec_kwargs

    cfg = tmp_path / "faults.json"
    cfg.write_text(
        json.dumps({"sdc": {"coverage": 0.8}, "network": {"repair_s": 7.0}})
    )

    def spec_kwargs(*flags):
        args = _build_parser().parse_args(
            ["campaign", "--fault-config", str(cfg), *flags]
        )
        return _campaign_spec_kwargs(args)

    # file overrides defaults
    kwargs = spec_kwargs()
    assert kwargs["sdc_coverage"] == 0.8
    assert kwargs["net_repair_s"] == 7.0
    # explicit flag beats the file
    kwargs = spec_kwargs("--sdc-coverage", "0.99")
    assert kwargs["sdc_coverage"] == 0.99
    assert kwargs["net_repair_s"] == 7.0
    # ...even when the flag repeats the built-in default
    kwargs = spec_kwargs("--sdc-coverage", "0.95")
    assert kwargs["sdc_coverage"] == 0.95
    assert kwargs["net_repair_s"] == 7.0


def test_fault_config_bad_file_exits(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["campaign", "--fault-config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro campaign: error: --fault-config is not valid JSON")
