"""Experiment harness and report formatting."""

import pytest

from repro.analysis import (
    DESIGNS,
    build_controller,
    format_matrix,
    format_series,
    geomean_row,
    normalize_to,
    run_matrix,
    run_one,
)
from repro.baselines import DiceCache, Hybrid2, SimpleCache, UnisonCache
from repro.common.errors import ConfigurationError
from repro.core import BaryonController
from repro.sim.results import SimResult

from tests.conftest import make_small_config, make_small_sim_config


class TestBuildController:
    def test_all_designs_instantiate(self):
        config = make_small_config()
        expected = {
            "simple": SimpleCache,
            "unison": UnisonCache,
            "dice": DiceCache,
            "baryon": BaryonController,
            "baryon-64b": BaryonController,
            "hybrid2": Hybrid2,
            "baryon-fa": BaryonController,
        }
        for design in DESIGNS:
            ctrl = build_controller(design, config)
            assert isinstance(ctrl, expected[design])

    def test_baryon_64b_geometry(self):
        ctrl = build_controller("baryon-64b", make_small_config())
        assert ctrl.geometry.sub_block_size == 64

    def test_flat_designs_derived(self):
        ctrl = build_controller("baryon-fa", make_small_config())
        assert ctrl.config.layout.fully_associative
        # Flat space plus a provisioned cache section (see flat_variant).
        assert 0.5 <= ctrl.config.layout.flat_fraction < 1.0

    def test_unknown_design(self):
        with pytest.raises(ConfigurationError):
            build_controller("mystery", make_small_config())


class TestRunners:
    def test_run_one(self):
        result = run_one(
            "YCSB-B",
            "baryon",
            make_small_config(),
            make_small_sim_config(),
            n_accesses=2500,
        )
        assert result.name == "YCSB-B"
        assert result.design in ("baryon", "BaryonController")
        assert result.ipc > 0

    def test_run_matrix_shape(self):
        results = run_matrix(
            ["YCSB-B"],
            ["simple", "baryon"],
            make_small_config(),
            make_small_sim_config(),
            n_accesses=1500,
        )
        assert set(results) == {("YCSB-B", "simple"), ("YCSB-B", "baryon")}


def fake_matrix():
    def res(ipc, serve):
        r = SimResult(instructions=1000, cycles=1000.0 / ipc)
        r.served_fast = int(serve * 100)
        r.memory_accesses = 100
        return r

    return {
        ("w1", "simple"): res(1.0, 0.5),
        ("w1", "baryon"): res(2.0, 0.8),
        ("w2", "simple"): res(2.0, 0.6),
        ("w2", "baryon"): res(2.0, 0.9),
    }


class TestReport:
    def test_normalize(self):
        norm = normalize_to(fake_matrix(), "simple")
        assert norm[("w1", "baryon")] == pytest.approx(2.0)
        assert norm[("w2", "baryon")] == pytest.approx(1.0)
        assert norm[("w1", "simple")] == pytest.approx(1.0)

    def test_geomean(self):
        norm = normalize_to(fake_matrix(), "simple")
        row = geomean_row(norm, ["simple", "baryon"])
        assert row["baryon"] == pytest.approx(2.0 ** 0.5)
        assert row["simple"] == pytest.approx(1.0)

    def test_format_matrix_normalized(self):
        text = format_matrix(
            fake_matrix(), ["w1", "w2"], ["simple", "baryon"],
            baseline="simple", title="Fig. X",
        )
        assert "Fig. X" in text
        assert "geomean" in text
        assert "2.00" in text

    def test_format_matrix_raw_metric(self):
        text = format_matrix(
            fake_matrix(), ["w1", "w2"], ["simple", "baryon"], metric="serve_rate"
        )
        assert "0.80" in text

    def test_format_series(self):
        text = format_series("sweep", [("8MB", 0.95), ("64MB", 1.0)])
        assert "8MB" in text and "0.950" in text
