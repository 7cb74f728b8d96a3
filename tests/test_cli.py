"""Config parsing and command line behaviour.

Everything here runs on deliberately small grids and path counts; the
full-size reproduction runs live in the acceptance suite.
"""

import json
import math
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from helpers import make_market_2asset
from rfqmm.cli import (
    Runner,
    _quotes_stage,
    _simulate_stage,
    _solve_stage,
    _surface_cache_name,
    main,
)
from rfqmm.config_io import config_hash, load_config, parse_config
from rfqmm.errors import ValidationError
from rfqmm.factors import build_factor_model
from rfqmm.quotes import REASON_OK, REASON_RISK, SurfacePolicy
from rfqmm.simulator import simulate
from rfqmm.solver import SWEEP_SCHEME, FactorGrid, SolverConfig, solve

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

    @staticmethod
    def grouped():
        """BASE with two asset groups (3 and 2 assets) and block correlation."""
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
        return raw

    def test_group_expansion_and_block_correlation(self):
        market = parse_config(self.grouped(), source="inline")
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

    # each case loaded at an earlier build: booleans passed as integers, a
    # fractional block size was truncated, quoted numbers were converted and
    # a negative block size went unnoticed (a ragged matrix raised numpy's
    # ValueError); non-finite numbers loaded, then the config hash's JSON
    # rendering raised ValueError (an integer past the float range,
    # OverflowError)
    @pytest.mark.parametrize("grouped, where, value, path", [
        (True, ("asset_groups", 0, "count"), True, "asset_groups[0].count"),
        (True, ("correlation", "block", "sizes", 0), 3.9, "correlation.block.sizes[0]"),
        (True, ("correlation", "block", "sizes", 0), "3", "correlation.block.sizes[0]"),
        # sums to the asset count, yet puts every asset in one block
        (True, ("correlation", "block", "sizes"), [6, -1], "correlation.block.sizes must be positive"),
        (True, ("correlation", "block", "within", 1), "0.9", "correlation.block.within[1]"),
        (False, ("correlation", "matrix", 0, 1), "0.9", "correlation.matrix[0][1]"),
        (False, ("correlation", "matrix", 1), [0.9], "correlation.matrix must be 2x2"),
        (False, ("assets", 1, "sizes", "atoms", 0), "6250", "assets[1].sizes.atoms[0]"),
        (False, ("assets", 0, "sizes", "probabilities", 2), True, "assets[0].sizes.probabilities[2]"),
        (False, ("assets", 0, "sizes"), {"gamma": {"shape": 4.0, "rate": 4.0e-4, "n_atoms": True}},
         "assets[0].sizes.gamma.n_atoms"),
        (False, ("horizon",), math.nan, "inline.horizon must be a finite number, got nan"),
        (False, ("penalty", "gamma"), math.nan, "penalty.gamma must be a finite number"),
        (False, ("assets", 0, "sigma"), math.inf, "assets[0].sigma must be a finite number"),
        (False, ("correlation", "matrix", 0, 1), math.nan,
         "correlation.matrix[0][1] must be a finite number"),
        (True, ("asset_groups", 1, "s0"), 10**400, "asset_groups[1].s0 must be a finite number"),
        # one atom never reads the rule; four raised with no path
        (False, ("assets", 0, "sizes"),
         {"gamma": {"shape": 4.0, "rate": 4.0e-4, "n_atoms": 1, "rule": "pdf_weigths"}},
         "assets[0].sizes.gamma.rule"),
        (False, ("assets", 1, "sizes"),
         {"gamma": {"shape": 4.0, "rate": 4.0e-4, "n_atoms": 4, "rule": ["x"]}},
         "assets[1].sizes.gamma.rule"),
    ], ids=["count-bool", "block-size-fraction", "block-size-string", "block-size-negative",
            "within-string", "matrix-string", "matrix-ragged", "atom-string", "probability-bool",
            "n-atoms-bool", "horizon-nan", "gamma-nan", "sigma-inf", "correlation-nan",
            "s0-huge-int", "rule-typo-one-atom", "rule-list"])
    def test_malformed_numbers_named_by_path(self, grouped, where, value, path):
        raw = self.grouped() if grouped else deep(BASE)
        node = raw
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        with pytest.raises(ValidationError, match=re.escape(path)):
            parse_config(raw, source="inline")

    # labels loaded through str() at an earlier build: ids "True0"..., "None0"...
    @pytest.mark.parametrize("grouped, where, value, path", [
        (True, ("asset_groups", 0, "prefix"), True, "asset_groups[0].prefix"),
        (True, ("asset_groups", 1, "prefix"), None, "asset_groups[1].prefix"),
        (True, ("asset_groups", 0, "prefix"), "", "asset_groups[0].prefix"),
        (False, ("assets", 1, "asset_id"), 5, "assets[1].asset_id"),
    ], ids=["prefix-bool", "prefix-null", "prefix-empty", "asset-id-int"])
    def test_malformed_labels_named_by_path(self, grouped, where, value, path):
        raw = self.grouped() if grouped else deep(BASE)
        node = raw
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        with pytest.raises(ValidationError, match=re.escape(path) + " must be a non-empty string"):
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
        h = config_hash(deep(BASE))
        assert capsys.readouterr().out == (
            f"config {h[:12]}: 2 assets, horizon 0.5 days\nall 4 intensity checks passed\n"
        )

    def test_validate_bad_config_exits_nonzero(self, config_file, capsys):
        raw = deep(BASE)
        raw["correlation"]["matrix"] = [[1.0, 1.5], [1.5, 1.0]]
        p = config_file(raw)
        assert main(["validate", "--config", str(p)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_validate_non_finite_number_exits_nonzero(self, config_file, capsys):
        raw = deep(BASE)
        raw["horizon"] = math.nan
        p = config_file(raw)
        assert main(["validate", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "horizon must be a finite number, got nan" in err

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

    @pytest.mark.parametrize("dt", ["nan", "inf", "-1"])
    def test_bad_dt_is_named(self, work, tmp_path, capsys, dt):
        cfg, _ = work
        code = main(
            ["solve", "--config", str(cfg), "--out-dir", str(tmp_path),
             "--grid", "5", "--dt", dt]
        )
        assert code == 1
        assert f"error: dt must be positive and finite, got {float(dt)}" in capsys.readouterr().err

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

    @staticmethod
    def quote_off_edited_cache(cfg, out, dest, edit, capsys):
        """Run `quotes` in ``dest`` over a copy of ``out``'s 21-node k=2
        cache whose meta mapping went through ``edit``; returns the exit
        code and stderr."""
        _, h = load_config(cfg)
        name = _surface_cache_name(h[:12], 2, 21, None)
        with np.load(out / "cache" / name) as data:
            arrays = dict(data)
        arrays["meta"] = json.dumps(edit(json.loads(str(arrays["meta"]))))
        (dest / "cache").mkdir()
        np.savez_compressed(dest / "cache" / name, **arrays)
        code = main(
            ["quotes", "--config", str(cfg), "--out-dir", str(dest),
             "--grid", "21", "--factors", "2"]
        )
        return code, capsys.readouterr().err

    def test_cache_from_another_solver_config_refused(self, work, tmp_path, capsys):
        cfg, _ = work
        _, h = load_config(cfg)
        config = SolverConfig(store_policy="all_slices")
        code, err = self.quote_off_cache(cfg, tmp_path, config, h, capsys)
        assert code == 2
        assert "store_policy='all_slices'" in err and "store_policy='final_slice_only'" in err

    @pytest.mark.parametrize("edit, named", [
        # a cache solved while SolverConfig still had a stability budget field
        (lambda fp: {**fp, "stability_budget": 0.9}, "solved with stability_budget=0.9"),
        (lambda fp: {k: v for k, v in fp.items() if k != "config_hash"}, "solved with no config_hash"),
    ], ids=["extra-key", "missing-key"])
    def test_cache_fingerprint_keys_must_match(self, work, tmp_path, capsys, edit, named):
        cfg, out = work
        code, err = self.quote_off_edited_cache(
            cfg, out, tmp_path, lambda meta: {**meta, "fingerprint": edit(meta["fingerprint"])},
            capsys,
        )
        assert code == 2
        assert named in err and err.rstrip().endswith("delete it or change --out-dir")

    @pytest.mark.parametrize("scheme, named", [
        # a cache from before the update summed its rows in a fixed order
        ("explicit-euler/omega-envelope", "solved with scheme='explicit-euler/omega-envelope'"),
        (None, "solved with no scheme"),
    ], ids=["old-scheme", "missing-scheme"])
    def test_cache_of_another_sweep_scheme_refused(self, work, tmp_path, capsys, scheme, named):
        cfg, out = work

        def edit(meta):
            fingerprint = {k: v for k, v in meta["fingerprint"].items() if k != "scheme"}
            if scheme is not None:
                fingerprint["scheme"] = scheme
            return {**meta, "fingerprint": fingerprint}

        code, err = self.quote_off_edited_cache(cfg, out, tmp_path, edit, capsys)
        assert code == 2
        assert named in err and f"needs scheme={SWEEP_SCHEME!r}" in err
        assert err.rstrip().endswith("delete it or change --out-dir")

    def test_cache_from_another_config_refused(self, work, tmp_path, capsys):
        cfg, _ = work
        _, h = load_config(cfg)
        other = "0" * len(h)
        code, err = self.quote_off_cache(cfg, tmp_path, SolverConfig(), other, capsys)
        assert code == 2
        assert f"config_hash={other!r}" in err and f"config_hash={h!r}" in err

    def test_cache_of_another_format_refused(self, work, tmp_path, capsys):
        cfg, out = work
        code, err = self.quote_off_edited_cache(
            cfg, out, tmp_path, lambda meta: {**meta, "format_version": 1}, capsys
        )
        assert code == 2
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

    def test_adjust_with_one_path_reports_nan_stderr(self, work, tmp_path, capsys):
        cfg, out = work
        shutil.copytree(out / "cache", tmp_path / "cache")
        code = main(
            ["adjust", "--config", str(cfg), "--out-dir", str(tmp_path),
             "--grid", "21", "--factors", "1", "--paths", "1", "--seed", "9",
             "--rfq", "0:bid:12500"]
        )
        assert code == 0
        assert "(stderr nan, 1 paths)" in capsys.readouterr().out
        _, h = load_config(cfg)
        lines = (tmp_path / f"adjust_{h[:12]}_k1.csv").read_text(encoding="utf-8").splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["shift_stderr"] == row["correction_stderr"] == "nan"
        assert row["reason"] == "ok"

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


    def test_malformed_sizes_named(self, work, capsys):
        cfg, out = work
        code = main(
            ["quotes", "--config", str(cfg), "--out-dir", str(out),
             "--grid", "21", "--factors", "2", "--sizes", "6250,abc"]
        )
        assert code == 1
        assert "could not parse sizes '6250,abc'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["quotes", "--factors", "2", "--sizes", "inf"],
            ["adjust", "--factors", "1", "--paths", "5", "--rfq", "0:bid:inf"],
        ],
    )
    def test_infinite_trade_size_named(self, work, capsys, args):
        cfg, out = work
        code = main([*args, "--config", str(cfg), "--out-dir", str(out), "--grid", "21"])
        assert code == 1
        assert "error: trade size must be positive and finite, got inf" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "args, artifact",
        [
            (["quotes", "--factors", "2"], "quotes_{tag}_k2_g21.csv"),
            (["adjust", "--factors", "1", "--paths", "5", "--rfq", "0:bid:12500"],
             "adjust_{tag}_k1.csv"),
        ],
    )
    def test_spaced_negative_inventory(self, work, capsys, args, artifact):
        # argparse alone reads "-1000,2000" as an option
        cfg, out = work
        path = out / artifact.format(tag=load_config(cfg)[1][:12])
        written = []
        for inventory in ([], ["--inventory=-1000,2000"], ["--inventory", "-1000,2000"]):
            code = main([*args, *inventory, "--config", str(cfg), "--out-dir", str(out),
                         "--grid", "21"])
            assert code == 0
            written.append(path.read_bytes())
        flat, joined, spaced = written
        assert spaced == joined != flat

    def test_spaced_negative_size_reaches_the_size_check(self, work, capsys):
        cfg, out = work
        code = main(
            ["quotes", "--config", str(cfg), "--out-dir", str(out),
             "--grid", "21", "--factors", "2", "--sizes", "-5"]
        )
        assert code == 1
        assert "error: trade size must be positive and finite, got -5.0" in capsys.readouterr().err

    def test_inventory_followed_by_an_option_is_refused(self, work, capsys):
        cfg, out = work
        with pytest.raises(SystemExit) as info:
            main(["quotes", "--config", str(cfg), "--out-dir", str(out),
                  "--grid", "21", "--inventory", "--sizes", "5"])
        assert info.value.code == 2
        assert "argument --inventory: expected one argument" in capsys.readouterr().err

    def test_simulate_issues_other_warnings_again(self, work, tmp_path, monkeypatch):
        cfg, _ = work

        def noisy(*args, **kwargs):
            warnings.warn("a note from the run", UserWarning)
            return simulate(*args, **kwargs)

        monkeypatch.setattr("rfqmm.cli.simulate", noisy)
        with pytest.warns(UserWarning, match="a note from the run") as caught:
            code = main(
                ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path),
                 "--policy", "myopic", "--paths", "5"]
            )
        assert code == 0
        assert [w.filename for w in caught] == [__file__]


@pytest.fixture(scope="module")
def stage_setup():
    """A 2-asset market and its k=2 surface on a 21-node grid."""
    market = make_market_2asset(horizon=1.0)
    fm = build_factor_model(market.covariance, 2)
    grid = FactorGrid.from_factor_model(fm, market.risk_limit, 21)
    return market, fm, grid, solve(market, fm, grid)


def stage_runner(out_dir):
    return Runner(out_dir, "0123456789ab" * 5, "test", seed=None)


class TestArtifactWriters:
    """The bytes each stage writes, read back from its Runner's directory."""

    def test_surface_csv(self, stage_setup, tmp_path):
        _, _, grid, surface = stage_setup
        runner = stage_runner(tmp_path)
        _solve_stage(runner, surface, 2, 21)
        lines = (tmp_path / runner.artifacts[0]).read_text().splitlines()
        assert lines[0] == "f1,f2,value,admissible"
        assert len(lines) == 1 + grid.n_nodes
        first = lines[1].split(",")
        assert float(first[0]) == -grid.half_widths[0]

    def test_quote_csv_round_trip(self, stage_setup, tmp_path):
        market, fm, grid, surface = stage_setup
        hot = fm.loadings @ (0.9 * grid.half_widths)
        texts = []
        for run in ("a", "b"):
            runner = stage_runner(tmp_path / run)
            _quotes_stage(runner, market, surface, 2, 21, [[0.0, 0.0], hot], sizes=[6250.0])
            texts.append((runner.out_dir / runner.artifacts[0]).read_text())
        lines = texts[0].splitlines()
        assert lines[0] == "q1,q2,asset,side,size,delta,reason"
        assert len(lines) == 1 + 2 * 2 * 2  # inventories x assets x sides
        refused = [ln for ln in lines[1:] if ln.endswith(REASON_RISK)]
        assert refused
        for ln in refused:
            assert ",," in ln  # empty delta field
        quoted = [ln for ln in lines[1:] if ln.endswith(REASON_OK)]
        assert quoted
        # emission is deterministic
        assert texts[0] == texts[1]

    def test_paths_ndjson_is_byte_stable(self, stage_setup, tmp_path):
        market, _, _, surface = stage_setup
        policy = SurfacePolicy(surface, market)
        texts = []
        for run in ("a", "b"):
            runner = stage_runner(tmp_path / run)
            _simulate_stage(runner, market, policy, "surface", 12, 3)
            texts.append((runner.out_dir / f"paths_surface_{runner.tag}.ndjson").read_text())
        assert texts[0] == texts[1]
        lines = texts[0].splitlines()
        assert len(lines) == 12
        record = json.loads(lines[0])
        assert list(record) == sorted(record)
        assert record["path"] == 0

    def test_paths_ndjson_fills_are_labelled_per_bucket(self, stage_setup, tmp_path):
        market, _, _, surface = stage_setup
        policy = SurfacePolicy(surface, market)
        result = simulate(market, policy, 12, seed=3)
        # buckets by asset, side, then size; a size prints without ".0"
        labels = [
            f"A{i}:{side}:{size}"
            for i in (0, 1) for side in ("bid", "ask") for size in (6250, 12500, 18750, 25000)
        ]
        assert len(labels) == len(result.buckets)
        want = [
            {labels[b]: c for b, c in enumerate(counts) if c}
            for counts in result.paths.n_fills.tolist()
        ]
        runner = stage_runner(tmp_path)
        _simulate_stage(runner, market, policy, "surface", 12, 3)
        text = (tmp_path / f"paths_surface_{runner.tag}.ndjson").read_text()
        assert [json.loads(line)["fills"] for line in text.splitlines()] == want
        assert any(want)


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

    def test_adjust_stage_runs_one_simulation_for_two_rfqs(self, tmp_path, monkeypatch):
        import rfqmm.residual

        calls = []
        real = rfqmm.residual.simulate

        def counting(*args, **kwargs):
            calls.append([q.tolist() for q in args[4]])
            return real(*args, **kwargs)

        monkeypatch.setattr(rfqmm.residual, "simulate", counting)
        code = main(
            ["reproduce", "paper-2asset", "--stage", "adjust", "--grid", "15",
             "--paths", "10", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        # one run: the flat state, shared by both RFQs, then each RFQ's
        # post-trade state
        assert calls == [[[0.0, 0.0], [12500.0, 0.0], [-12500.0, 0.0]]]

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
