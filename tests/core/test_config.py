"""Tests for configuration-file loading and validation."""

import pytest

from repro.app.builder import build_application
from repro.core.campaign import CampaignConfig, CampaignSimulator, RunSpec
from repro.core.config import (
    ConfigError,
    application_kwargs,
    campaign_config,
    dataclass_from_mapping,
    load_config_file,
    transport_config,
    workflow_config,
)
from repro.core.wm import WorkflowConfig
from repro.datastore.netkv import TransportConfig

TOML_DOC = """
[application]
store_url = "kv://4"
n_lipid_types = 2
seed = 7

[workflow]
max_cg_sims = 3
cg_ready_target = 4
beads_per_type = 8

[campaign]
cg_gpu_fraction = 0.7
seed = 9

[[campaign.ledger]]
nnodes = 10
walltime_hours = 2
count = 1

[[campaign.ledger]]
nnodes = 20
walltime_hours = 3
count = 2
"""


@pytest.fixture
def toml_path(tmp_path):
    p = tmp_path / "mummi.toml"
    p.write_text(TOML_DOC)
    return str(p)


class TestLoading:
    def test_toml_roundtrip(self, toml_path):
        doc = load_config_file(toml_path)
        assert doc["application"]["store_url"] == "kv://4"
        assert len(doc["campaign"]["ledger"]) == 2

    def test_json_roundtrip(self, tmp_path):
        p = tmp_path / "mummi.json"
        p.write_text('{"workflow": {"max_cg_sims": 5}}')
        doc = load_config_file(str(p))
        assert workflow_config(doc).max_cg_sims == 5

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config_file("/nonexistent/x.toml")

    def test_bad_toml(self, tmp_path):
        p = tmp_path / "bad.toml"
        p.write_text("[unclosed")
        with pytest.raises(ConfigError, match="invalid TOML"):
            load_config_file(str(p))

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope}")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config_file(str(p))


class TestDataclassMapping:
    def test_defaults_apply(self):
        cfg = dataclass_from_mapping(WorkflowConfig, {})
        assert cfg == WorkflowConfig()

    def test_unknown_key_rejected_with_hint(self):
        with pytest.raises(ConfigError, match="max_cg_sims"):
            dataclass_from_mapping(WorkflowConfig, {"max_cg_simz": 3})

    def test_int_promoted_to_float(self):
        cfg = dataclass_from_mapping(CampaignConfig, {"cg_gpu_fraction": 1})
        assert cfg.cg_gpu_fraction == 1.0

    def test_list_promoted_to_tuple(self):
        cfg = dataclass_from_mapping(CampaignConfig, {"aa_cap_ns_range": [40, 50]})
        assert cfg.aa_cap_ns_range == (40.0, 50.0) or cfg.aa_cap_ns_range == (40, 50)

    def test_dataclass_validation_propagates(self):
        with pytest.raises(ConfigError):
            dataclass_from_mapping(RunSpec, {"nnodes": 10})  # missing fields


class TestSections:
    def test_workflow_section(self, toml_path):
        cfg = workflow_config(load_config_file(toml_path))
        assert cfg.max_cg_sims == 3
        assert cfg.cg_ready_target == 4
        assert cfg.seed == 0  # default preserved

    def test_campaign_section_with_ledger(self, toml_path):
        cfg = campaign_config(load_config_file(toml_path))
        assert cfg.cg_gpu_fraction == 0.7
        assert cfg.ledger == (RunSpec(10, 2, 1), RunSpec(20, 3, 2))

    def test_campaign_section_default_ledger(self):
        cfg = campaign_config({"campaign": {"seed": 5}})
        assert len(cfg.ledger) == 5  # the paper ledger

    def test_application_kwargs(self, toml_path):
        kwargs = application_kwargs(load_config_file(toml_path))
        assert kwargs["store_url"] == "kv://4"
        assert isinstance(kwargs["workflow"], WorkflowConfig)

    def test_application_unknown_key(self):
        with pytest.raises(ConfigError, match="store_urll"):
            application_kwargs({"application": {"store_urll": "kv://"}})

    def test_transport_section(self):
        cfg = transport_config({"transport": {"op_timeout": 2, "retries": 6,
                                              "backoff_max": 0.5}})
        assert cfg == TransportConfig(op_timeout=2.0, retries=6,
                                      backoff_max=0.5)
        assert cfg.connect_timeout == 2.0  # default preserved

    def test_transport_section_defaults(self):
        assert transport_config({}) == TransportConfig()

    def test_transport_section_rejects_unknown_and_invalid(self):
        with pytest.raises(ConfigError, match="retrys"):
            transport_config({"transport": {"retrys": 3}})
        with pytest.raises(ConfigError):
            transport_config({"transport": {"retries": -1}})
        with pytest.raises(ConfigError):
            transport_config({"transport": {"jitter": 2.0}})


class TestJobTypes:
    DOC = {
        "jobs": {
            "cg-sim": {"ncores": 3, "ngpus": 1, "duration_hours_mean": 24,
                       "duration_hours_std": 2},
            "createsim": {"ncores": 24, "duration_hours": 1.5, "max_retries": 3},
        }
    }

    def test_sections_become_configs(self):
        from repro.core.config import job_types

        types = job_types(self.DOC)
        assert set(types) == {"cg-sim", "createsim"}
        assert types["cg-sim"].ngpus == 1
        assert types["createsim"].max_retries == 3

    def test_fixed_duration_sampler(self):
        from repro.core.config import job_types
        import numpy as np

        sampler = job_types(self.DOC)["createsim"].duration_sampler
        assert sampler(np.random.default_rng(0)) == 1.5 * 3600

    def test_normal_duration_sampler(self):
        from repro.core.config import job_types
        import numpy as np

        sampler = job_types(self.DOC)["cg-sim"].duration_sampler
        rng = np.random.default_rng(0)
        draws = np.array([sampler(rng) for _ in range(200)])
        assert abs(draws.mean() - 24 * 3600) < 2 * 3600
        assert draws.std() > 0

    def test_conflicting_durations_rejected(self):
        from repro.core.config import job_types

        with pytest.raises(ConfigError, match="OR"):
            job_types({"jobs": {"x": {"ncores": 1, "duration_hours": 1,
                                      "duration_hours_mean": 2}}})

    def test_unknown_job_key_rejected(self):
        from repro.core.config import job_types

        with pytest.raises(ConfigError, match="gpus_wanted"):
            job_types({"jobs": {"x": {"ncores": 1, "gpus_wanted": 1}}})

    def test_job_types_drive_a_tracker(self):
        from repro.core.config import job_types
        from repro.core.jobs import JobTracker
        from repro.sched.adapter import FluxAdapter
        from repro.sched.flux import FluxInstance
        from repro.sched.resources import summit_like
        from repro.util.clock import EventLoop

        loop = EventLoop()
        flux = FluxInstance(summit_like(1), loop)
        cfg = job_types({"jobs": {"cg-sim": {"ncores": 3, "ngpus": 1,
                                             "duration_hours": 0.01}}})["cg-sim"]
        tracker = JobTracker(cfg, FluxAdapter(flux))
        tracker.launch("sim0")
        loop.run_until(3600.0)
        assert tracker.completed == 1


class TestEndToEndFromFile:
    def test_build_and_run_application_from_config(self, toml_path):
        doc = load_config_file(toml_path)
        app = build_application(**application_kwargs(doc))
        counters = app.run(nrounds=1)
        assert counters["snapshots"] == 1

    def test_run_campaign_from_config(self, toml_path):
        doc = load_config_file(toml_path)
        result = CampaignSimulator(campaign_config(doc)).run()
        assert result.total_node_hours() == 10 * 2 + 20 * 3 * 2
