"""Unit tests for simulation configuration."""

import pytest

from repro.core.protocol import CrossLayerAgent
from repro.network import SimulationConfig
from repro.protocols.direct import DirectAgent
from repro.protocols.epidemic import EpidemicAgent
from repro.protocols.registry import packet_protocol_names
from repro.protocols.zbr import ZbrAgent


class TestDefaults:
    def test_paper_defaults(self):
        cfg = SimulationConfig()
        assert cfg.n_sensors == 100
        assert cfg.n_sinks == 3
        assert cfg.area_m == 150.0
        assert cfg.zones_per_side == 5
        assert cfg.comm_range_m == 10.0
        assert cfg.queue_capacity == 200
        assert cfg.mean_arrival_s == 120.0
        assert cfg.message_bits == 1000
        assert cfg.control_bits == 50
        assert cfg.bandwidth_bps == 10_000.0
        assert cfg.duration_s == 25_000.0
        assert cfg.speed_max_mps == 5.0
        assert cfg.exit_probability == 0.2

    def test_node_id_partition(self):
        cfg = SimulationConfig(n_sinks=2, n_sensors=5)
        assert list(cfg.sink_ids) == [0, 1]
        assert list(cfg.sensor_ids) == [2, 3, 4, 5, 6]


class TestProtocolTable:
    def test_all_fig2_protocols_present(self):
        for name in ("opt", "noopt", "nosleep", "zbr"):
            assert name in packet_protocol_names()

    def test_agent_classes(self):
        assert SimulationConfig(protocol="opt").agent_class is CrossLayerAgent
        assert SimulationConfig(protocol="zbr").agent_class is ZbrAgent
        assert SimulationConfig(protocol="direct").agent_class is DirectAgent
        assert SimulationConfig(protocol="epidemic").agent_class is EpidemicAgent

    def test_preset_wiring(self):
        assert SimulationConfig(protocol="noopt").effective_params().adaptive_tau is False
        assert SimulationConfig(protocol="nosleep").effective_params().sleep_enabled is False
        opt = SimulationConfig(protocol="opt").effective_params()
        assert opt.adaptive_tau and opt.adaptive_cw and opt.sleep_enabled

    def test_queue_capacity_flows_into_params(self):
        cfg = SimulationConfig(queue_capacity=50)
        assert cfg.effective_params().queue_capacity == 50

    def test_fifo_baselines_disable_threshold_drop(self):
        assert SimulationConfig(protocol="zbr").queue_drop_threshold() == 1.0
        assert SimulationConfig(protocol="epidemic").queue_drop_threshold() == 1.0
        assert SimulationConfig(protocol="opt").queue_drop_threshold() < 1.0

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(protocol="flooding-deluxe")


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"n_sensors": 0},
        {"n_sinks": 0},
        {"duration_s": 0.0},
        {"comm_range_m": -1.0},
        {"speed_min_mps": 5.0, "speed_max_mps": 1.0},
        {"mean_arrival_s": 0.0},
        {"queue_capacity": 0},
        {"mobility_model": "teleport"},
        {"sink_placement": "everywhere"},
        {"duration_s": float("nan")},
        {"duration_s": float("inf")},
        {"mean_arrival_s": float("nan")},
        {"mobility_tick_s": float("nan")},
        {"invariant_interval_s": float("nan")},
        {"exit_probability": 2.0},
        {"exit_probability": -0.1},
        {"mobility_tick_s": 0.0},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimulationConfig(**kwargs)

    def test_with_seed_preserves_everything_else(self):
        cfg = SimulationConfig(protocol="zbr", n_sinks=5)
        other = cfg.with_seed(99)
        assert other.seed == 99
        assert other.protocol == "zbr"
        assert other.n_sinks == 5
