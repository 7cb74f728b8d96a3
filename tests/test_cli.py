"""Config parsing and command line behaviour.

Everything here runs on deliberately small grids and path counts; the
full-size reproduction runs live in the acceptance suite.
"""

import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from rfqmm.cli import _surface_cache_name, main
from rfqmm.config_io import config_hash, load_config, parse_config
from rfqmm.errors import ValidationError
from rfqmm.factors import build_factor_model
from rfqmm.solver import FactorGrid, SolverConfig, solve

BASE = {
    "horizon": 0.5,
    "risk_limit": 2.4e10,
    "quote_floor": 1.0,
    "penalty": {"running_form": "quadratic", "gamma": 8.0e-7},
    "correlation": {"matrix": [[1.0, 0.9], [0.9, 1.0]]},
    "assets": [
        {
            "asset_id": "A0",
            "s0": 100.0,
            "sigma": 1.2,
            "intensity": {"lambda_rfq": 30.0, "alpha": 0.7, "beta": 30.0},
            "sizes": {
                "atoms": [6250.0, 12500.0, 18750.0, 25000.0],
                "probabilities": [0.53, 0.35, 0.10, 0.02],
            },
        },
        {
            "asset_id": "A1",
            "s0": 100.0,
            "sigma": 0.6,
            "intensity": {"lambda_rfq": 30.0, "alpha": 0.7, "beta": 30.0},
            "sizes": {
                "atoms": [6250.0, 12500.0, 18750.0, 25000.0],
                "probabilities": [0.53, 0.35, 0.10, 0.02],
            },
        },
    ],
}


def deep(obj):
    if isinstance(obj, dict):
        return {k: deep(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [deep(v) for v in obj]
    return obj


@pytest.fixture
def config_file(tmp_path):
    def write(raw, name="market.yaml"):
        p = tmp_path / name
        p.write_text(yaml.safe_dump(raw), encoding="utf-8")
        return p

    return write


class TestParseConfig:
    def test_round_trip(self):
        market = parse_config(deep(BASE), source="inline")
        assert market.n_assets == 2
        assert market.horizon == 0.5
        assert market.assets[0].asset_id == "A0"
        assert market.assets[1].sigma == 0.6
        assert market.covariance[0, 1] == pytest.approx(0.9 * 1.2 * 0.6)

    def test_unknown_top_level_key(self):
        raw = deep(BASE)
        raw["horizonn"] = 1.0
        with pytest.raises(ValidationError, match="horizonn"):
            parse_config(raw, source="inline")

    def test_unknown_nested_key_names_path(self):
        raw = deep(BASE)
        raw["assets"][1]["intensity"]["slope"] = 3.0
        with pytest.raises(ValidationError, match=r"assets\[1\].intensity"):
            parse_config(raw, source="inline")

    def test_assets_and_groups_are_exclusive(self):
        raw = deep(BASE)
        raw["asset_groups"] = [
            {
                "count": 2,
                "prefix": "G",
                "s0": 100.0,
                "sigma": 1.0,
                "intensity": {"lambda_rfq": 10.0, "alpha": 0.7, "beta": 30.0},
                "sizes": {"atoms": [1.0], "probabilities": [1.0]},
            }
        ]
        with pytest.raises(ValidationError, match="exactly one"):
            parse_config(raw, source="inline")

    def test_group_expansion_and_block_correlation(self):
        raw = deep(BASE)
        del raw["assets"]
        raw["asset_groups"] = [
            {
                "count": 3,
                "prefix": "X",
                "s0": 100.0,
                "sigma": 1.2,
                "intensity": {"lambda_rfq": 10.0, "alpha": 0.7, "beta": 30.0},
                "sizes": {"atoms": [6250.0], "probabilities": [1.0]},
            },
            {
                "count": 2,
                "prefix": "Y",
                "s0": 100.0,
                "sigma": 0.6,
                "intensity": {"lambda_rfq": 10.0, "alpha": 0.7, "beta": 30.0},
                "sizes": {"atoms": [6250.0], "probabilities": [1.0]},
            },
        ]
        raw["correlation"] = {
            "block": {"sizes": [3, 2], "within": [0.9, 0.9], "across": 0.2}
        }
        market = parse_config(raw, source="inline")
        # ids carry the global asset index, matching the CLI's ASSET arguments
        assert [a.asset_id for a in market.assets] == ["X0", "X1", "X2", "Y3", "Y4"]
        cov = market.covariance
        assert cov[0, 1] == pytest.approx(0.9 * 1.2 * 1.2)
        assert cov[0, 3] == pytest.approx(0.2 * 1.2 * 0.6)
        assert cov[3, 4] == pytest.approx(0.9 * 0.6 * 0.6)

    def test_correlation_off_unit_diagonal_rejected(self):
        raw = deep(BASE)
        raw["correlation"]["matrix"] = [[1.0, 1.5], [1.5, 1.0]]
        with pytest.raises(ValidationError):
            parse_config(raw, source="inline")

    def test_sizes_need_exactly_one_spec(self):
        raw = deep(BASE)
        raw["assets"][0]["sizes"]["gamma"] = {"shape": 4.0, "rate": 4.0e-4, "n_atoms": 4}
        with pytest.raises(ValidationError, match="not both"):
            parse_config(raw, source="inline")

    def test_gamma_law_sizes(self):
        raw = deep(BASE)
        raw["assets"][0]["sizes"] = {
            "gamma": {"shape": 4.0, "rate": 4.0e-4, "n_atoms": 4, "rule": "pdf_weights"}
        }
        market = parse_config(raw, source="inline")
        dist = market.assets[0].sizes("bid")
        assert len(dist.sizes) == 4
        assert sum(dist.probabilities) == pytest.approx(1.0)

    def test_per_side_intensity(self):
        raw = deep(BASE)
        raw["assets"][0]["intensity"] = {
            "bid": {"lambda_rfq": 30.0, "alpha": 0.7, "beta": 30.0},
            "ask": {"lambda_rfq": 20.0, "alpha": 0.7, "beta": 30.0},
        }
        market = parse_config(raw, source="inline")
        assert market.assets[0].intensity("bid").lambda_rfq == 30.0
        assert market.assets[0].intensity("ask").lambda_rfq == 20.0
        with pytest.raises(ValidationError, match="both"):
            raw["assets"][0]["intensity"] = {
                "bid": {"lambda_rfq": 30.0, "alpha": 0.7, "beta": 30.0}
            }
            parse_config(raw, source="inline")

    def test_boolean_is_not_a_number(self):
        raw = deep(BASE)
        raw["horizon"] = True
        with pytest.raises(ValidationError, match="horizon"):
            parse_config(raw, source="inline")


class TestConfigHash:
    def test_stable_across_formatting(self, config_file):
        a = config_file(deep(BASE), "a.yaml")
        text = a.read_text(encoding="utf-8")
        b = a.parent / "b.yaml"
        b.write_text("# a comment\n" + text.replace("\n", "\n\n"), encoding="utf-8")
        _, ha = load_config(a)
        _, hb = load_config(b)
        assert ha == hb
        assert len(ha) == 64

    def test_changes_with_content(self, config_file):
        raw = deep(BASE)
        _, ha = load_config(config_file(raw, "a.yaml"))
        raw["risk_limit"] = 2.5e10
        _, hb = load_config(config_file(raw, "b.yaml"))
        assert ha != hb

    def test_hash_of_mapping_is_json_based(self):
        h = config_hash({"b": 1, "a": [1, 2]})
        assert h == config_hash({"a": [1, 2], "b": 1})


class TestBundledConfigs:
    def test_two_asset(self):
        from rfqmm.cli import _bundled_config

        market, h = load_config(_bundled_config("paper-2asset"))
        assert market.n_assets == 2
        assert market.horizon == 12.0
        assert market.risk_limit == 2.4e10
        assert market.assets[0].sigma == 1.2
        assert market.assets[1].sigma == 0.6

    def test_thirty_asset(self):
        from rfqmm.cli import _bundled_config

        market, h = load_config(_bundled_config("paper-30asset"))
        assert market.n_assets == 30
        assert market.horizon == 2.0
        sig = np.array([a.sigma for a in market.assets])
        assert (sig[:15] == 1.2).all() and (sig[15:] == 0.6).all()
        cov = market.covariance
        assert cov[0, 1] == pytest.approx(0.9 * 1.2 * 1.2)
        assert cov[0, 20] == pytest.approx(0.2 * 1.2 * 0.6)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A config file and an out-dir holding solved k=1/k=2 caches (21 nodes)."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "market.yaml"
    cfg.write_text(yaml.safe_dump(deep(BASE)), encoding="utf-8")
    out = root / "out"
    for k in (1, 2):
        code = main(
            ["solve", "--config", str(cfg), "--out-dir", str(out),
             "--grid", "21", "--factors", str(k)]
        )
        assert code == 0
    return cfg, out


class TestCommands:
    def test_validate_ok(self, config_file, capsys):
        p = config_file(deep(BASE))
        assert main(["validate", "--config", str(p)]) == 0
        assert "checks passed" in capsys.readouterr().out

    def test_validate_bad_config_exits_nonzero(self, config_file, capsys):
        raw = deep(BASE)
        raw["correlation"]["matrix"] = [[1.0, 1.5], [1.5, 1.0]]
        p = config_file(raw)
        assert main(["validate", "--config", str(p)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.yaml")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_factors_writes_artifacts(self, work):
        cfg, out = work
        assert main(["factors", "--config", str(cfg), "--out-dir", str(out)]) == 0
        _, h = load_config(cfg)
        tag = h[:12]
        eig = (out / f"eigenvalues_{tag}.csv").read_text(encoding="utf-8").splitlines()
        assert eig[0] == "index,eigenvalue"
        assert len(eig) == 3
        manifest = json.loads((out / f"manifest_factors_{tag}.json").read_text(encoding="utf-8"))
        assert manifest["config_hash"] == h
        assert f"eigenvalues_{tag}.csv" in manifest["artifacts"]

    def test_solve_cached_surface_reused(self, work, capsys):
        cfg, out = work
        cache = out / "cache"
        npzs = sorted(p.name for p in cache.glob("surface_*.npz"))
        assert len(npzs) == 2
        code = main(
            ["quotes", "--config", str(cfg), "--out-dir", str(out),
             "--grid", "21", "--factors", "2", "--inventory", "40000,-20000"]
        )
        assert code == 0
        assert "quoted 16 rows" in capsys.readouterr().out

    def test_quotes_missing_cache_is_actionable(self, work, capsys):
        cfg, out = work
        code = main(
            ["quotes", "--config", str(cfg), "--out-dir", str(out),
             "--grid", "33", "--factors", "2"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "rfqmm solve" in err and "--grid 33" in err

    @staticmethod
    def quote_off_cache(cfg, out, config, config_hash, capsys):
        """Run `quotes` over a 21-node k=2 cache solved with ``config`` and
        stamped with ``config_hash``; returns the exit code and stderr."""
        market, h = load_config(cfg)
        fm = build_factor_model(market.covariance, 2)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 21)
        surface = solve(market, fm, grid, config)
        surface.fingerprint = {**surface.fingerprint, "config_hash": config_hash}
        (out / "cache").mkdir()
        surface.save(out / "cache" / _surface_cache_name(h[:12], 2, 21, None))
        code = main(
            ["quotes", "--config", str(cfg), "--out-dir", str(out),
             "--grid", "21", "--factors", "2"]
        )
        return code, capsys.readouterr().err

    def test_cache_from_another_solver_config_refused(self, work, tmp_path, capsys):
        cfg, _ = work
        _, h = load_config(cfg)
        code, err = self.quote_off_cache(cfg, tmp_path, SolverConfig(stability_budget=0.5), h, capsys)
        assert code == 2
        assert "stability_budget=0.5" in err and "stability_budget=0.9" in err

    def test_cache_from_another_config_refused(self, work, tmp_path, capsys):
        cfg, _ = work
        _, h = load_config(cfg)
        other = "0" * len(h)
        code, err = self.quote_off_cache(cfg, tmp_path, SolverConfig(), other, capsys)
        assert code == 2
        assert f"config_hash={other!r}" in err and f"config_hash={h!r}" in err

    def test_cache_of_another_format_refused(self, work, tmp_path, capsys):
        cfg, out = work
        _, h = load_config(cfg)
        name = _surface_cache_name(h[:12], 2, 21, None)
        with np.load(out / "cache" / name) as data:
            arrays = dict(data)
        meta = json.loads(str(arrays["meta"]))
        arrays["meta"] = json.dumps({**meta, "format_version": 1})
        (tmp_path / "cache").mkdir()
        np.savez_compressed(tmp_path / "cache" / name, **arrays)
        code = main(
            ["quotes", "--config", str(cfg), "--out-dir", str(tmp_path),
             "--grid", "21", "--factors", "2"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "format 1" in err
        assert err.rstrip().endswith("delete it or change --out-dir")

    @pytest.mark.parametrize("kind", ["truncated", "junk"])
    def test_unreadable_cache_is_actionable(self, work, tmp_path, capsys, kind):
        cfg, out = work
        _, h = load_config(cfg)
        name = _surface_cache_name(h[:12], 2, 21, None)
        raw = (out / "cache" / name).read_bytes()
        (tmp_path / "cache").mkdir()
        bad = tmp_path / "cache" / name
        bad.write_bytes(raw[:100] if kind == "truncated" else b"junk")
        code = main(
            ["quotes", "--config", str(cfg), "--out-dir", str(tmp_path),
             "--grid", "21", "--factors", "2"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(bad) in err
        assert err.rstrip().endswith("delete it or change --out-dir")

    def test_simulate_writes_byte_identical_reruns(self, work):
        cfg, out = work
        args = [
            "simulate", "--config", str(cfg), "--out-dir", str(out),
            "--grid", "21", "--factors", "2", "--paths", "40", "--seed", "11",
        ]
        assert main(args) == 0
        _, h = load_config(cfg)
        tag = h[:12]
        summary = out / f"summary_surface_{tag}.csv"
        paths = out / f"paths_surface_{tag}.ndjson"
        first = (summary.read_bytes(), paths.read_bytes())
        assert main(args) == 0
        assert (summary.read_bytes(), paths.read_bytes()) == first
        header, row = summary.read_text(encoding="utf-8").splitlines()
        assert header.startswith("policy,engine,seed,n_paths,mean_pnl")
        assert row.startswith("surface,thinning,11,40,")

    def test_simulate_myopic_needs_no_surface(self, work, tmp_path):
        cfg, _ = work
        out = tmp_path / "fresh"
        code = main(
            ["simulate", "--config", str(cfg), "--out-dir", str(out),
             "--policy", "myopic", "--paths", "20", "--seed", "5"]
        )
        assert code == 0

    def test_adjust_outputs_rows(self, work):
        cfg, out = work
        code = main(
            ["adjust", "--config", str(cfg), "--out-dir", str(out),
             "--grid", "21", "--factors", "1", "--paths", "30", "--seed", "9",
             "--rfq", "0:bid:12500", "--rfq", "1:ask:6250"]
        )
        assert code == 0
        _, h = load_config(cfg)
        lines = (out / f"adjust_{h[:12]}_k1.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("asset,side,size,base_delta,adjusted_delta,shift")
        assert len(lines) == 3
        assert lines[1].split(",")[-1] == "ok"

    def test_adjust_rejects_malformed_rfq(self, work, capsys):
        cfg, out = work
        code = main(
            ["adjust", "--config", str(cfg), "--out-dir", str(out),
             "--grid", "21", "--factors", "1", "--rfq", "0/bid/12500"]
        )
        assert code == 1
        assert "ASSET:SIDE:SIZE" in capsys.readouterr().err

    def test_inventory_shape_checked(self, work, capsys):
        cfg, out = work
        code = main(
            ["quotes", "--config", str(cfg), "--out-dir", str(out),
             "--grid", "21", "--factors", "2", "--inventory", "1,2,3"]
        )
        assert code == 1
        assert "2 assets" in capsys.readouterr().err


    @pytest.mark.parametrize("text", ["nan,0", "0,inf"])
    def test_non_finite_inventory_named(self, work, capsys, text):
        cfg, out = work
        code = main(
            ["quotes", "--config", str(cfg), "--out-dir", str(out),
             "--grid", "21", "--factors", "2", "--inventory", text]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "inventory" in err and "finite" in err


class TestReproduce:
    def test_solve_stage_small_grid(self, tmp_path, capsys):
        code = main(
            ["reproduce", "paper-2asset", "--stage", "solve", "--grid", "21",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "k=2 value at origin" in out
        assert "k=1 value at origin" in out

    def test_stages_share_cache(self, tmp_path, capsys):
        args = ["reproduce", "paper-2asset", "--grid", "15", "--out-dir", str(tmp_path)]
        assert main(args + ["--stage", "quotes"]) == 0
        npzs = list((tmp_path / "cache").glob("surface_*.npz"))
        assert len(npzs) == 1
        stamp = npzs[0].stat().st_mtime_ns
        capsys.readouterr()
        assert main(args + ["--stage", "quotes"]) == 0
        assert npzs[0].stat().st_mtime_ns == stamp

    def test_adjust_stage_runs_three_simulations_for_two_rfqs(self, tmp_path, monkeypatch):
        import rfqmm.residual

        calls = []
        real = rfqmm.residual.simulate

        def counting(*args, **kwargs):
            calls.append(kwargs["start_inventory"].copy())
            return real(*args, **kwargs)

        monkeypatch.setattr(rfqmm.residual, "simulate", counting)
        code = main(
            ["reproduce", "paper-2asset", "--stage", "adjust", "--grid", "15",
             "--paths", "10", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        # one estimate at the flat state, shared by both RFQs, then each
        # RFQ's post-trade state
        starts = [[0.0, 0.0], [12500.0, 0.0], [-12500.0, 0.0]]
        assert [c.tolist() for c in calls] == starts

    def test_adjust_stage_reports_corrected_value(self, tmp_path, capsys):
        code = main(
            ["reproduce", "paper-2asset", "--stage", "adjust", "--grid", "15",
             "--paths", "10", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert "corrected value" in capsys.readouterr().out


class TestFrontEndsAgree:
    def test_subcommands_write_the_bytes_reproduce_writes(self, tmp_path):
        from rfqmm.cli import _bundled_config

        cfg = str(_bundled_config("paper-2asset"))
        tag = load_config(cfg)[1][:12]
        sub, rep = tmp_path / "sub", tmp_path / "rep"
        common = ["--config", cfg, "--out-dir", str(sub)]
        surface = common + ["--grid", "15"]
        runs = [
            ["factors", *common, "--factors", "2"],
            ["solve", *surface, "--factors", "2"],
            ["solve", *surface, "--factors", "1"],
            ["quotes", *surface, "--factors", "2"],
            ["simulate", *common, "--policy", "myopic", "--paths", "20", "--seed", "23"],
            ["adjust", *surface, "--factors", "1", "--rfq", "0:bid:12500",
             "--rfq", "0:ask:12500", "--paths", "20", "--seed", "23"],
        ]
        for argv in runs:
            assert main(argv) == 0, argv
        assert main(
            ["reproduce", "paper-2asset", "--stage", "all", "--grid", "15",
             "--paths", "20", "--out-dir", str(rep)]
        ) == 0
        same = [
            f"eigenvalues_{tag}.csv",
            f"loadings_{tag}.csv",
            f"surface_{tag}_k2_g15.csv",
            f"surface_{tag}_k1_g15.csv",
            f"quotes_{tag}_k2_g15.csv",
            f"summary_myopic_{tag}.csv",
            f"paths_myopic_{tag}.ndjson",
        ]
        for name in same:
            assert (sub / name).read_bytes() == (rep / name).read_bytes(), name
        assert (sub / f"adjust_{tag}_k1.csv").read_bytes() == (rep / f"adjust_{tag}.csv").read_bytes()
        manifest = json.loads(
            (rep / f"manifest_reproduce_paper-2asset_{tag}.json").read_text(encoding="utf-8")
        )
        for name in (f"eigenvalues_{tag}.csv", f"loadings_{tag}.csv", f"surface_{tag}_k1_g15.csv"):
            assert name in manifest["artifacts"]
