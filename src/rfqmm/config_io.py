"""Configuration files for markets, and the hash that names their artifacts.

The file format is YAML with keys mirroring the model types.  Loading is
strict: any key the schema does not know is rejected with the path to the
offending mapping, because a typo that silently falls back to a default is
the most expensive failure mode a configuration system has.  Booleans and
quoted strings are never numbers here, numbers must be finite (``.nan`` and
``.inf`` are refused), and counts must be integers.

Top-level schema (units in the bundled examples)::

    horizon: 12.0                 # days
    risk_limit: 2.4e10            # bound on q' Sigma q, currency^2
    quote_floor: 1.0              # quotes satisfy delta >= -quote_floor
    penalty:
      running_form: quadratic     # or sqrt
      gamma: 8.0e-7
      terminal_form: zero         # or quadratic / sqrt
      zeta: 0.0
    correlation:
      matrix: [[1.0, 0.9], [0.9, 1.0]]
      # or, for block structure:
      # block: {sizes: [15, 15], within: [0.9, 0.9], across: 0.2}
    assets:                       # or asset_groups, see below
      - asset_id: A0
        s0: 100.0
        sigma: 1.2
        intensity: {lambda_rfq: 30.0, alpha: 0.7, beta: 30.0}
        # or per side: intensity: {bid: {...}, ask: {...}}
        sizes:
          atoms: [6250.0, 12500.0, 18750.0, 25000.0]
          probabilities: [0.53, 0.35, 0.10, 0.02]
          # or gamma-law sizes, discretized:
          # gamma: {shape: 4.0, rate: 4.0e-4, n_atoms: 4, rule: pdf_weights}

``asset_groups`` replaces ``assets`` when many assets share parameters: a
list of asset definitions each carrying ``count`` (and optionally
``prefix``), expanded in order with globally increasing ids A0, A1, ...

The configuration hash is the sha256 of the canonical JSON rendering of the
parsed mapping (sorted keys, no whitespace), so formatting and comments do
not change it but any semantic edit does.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Mapping, get_args

import numpy as np
import yaml

from .errors import ValidationError
from .model import (
    AssetSpec,
    DiscretizationRule,
    GammaSpec,
    LogisticIntensity,
    MarketSpec,
    RiskPenalty,
    SizeDistribution,
    discretize_gamma,
)

_TOP_KEYS = {
    "horizon",
    "risk_limit",
    "quote_floor",
    "penalty",
    "correlation",
    "assets",
    "asset_groups",
}
_PENALTY_KEYS = {"running_form", "gamma", "terminal_form", "zeta"}
_CORRELATION_KEYS = {"matrix", "block"}
_BLOCK_KEYS = {"sizes", "within", "across"}
_ASSET_KEYS = {"asset_id", "s0", "sigma", "intensity", "sizes"}
_GROUP_KEYS = (_ASSET_KEYS - {"asset_id"}) | {"count", "prefix"}
_INTENSITY_KEYS = {"lambda_rfq", "alpha", "beta"}
_SIDED_INTENSITY_KEYS = {"bid", "ask"}
_SIZES_KEYS = {"atoms", "probabilities", "gamma"}
_GAMMA_KEYS = {"shape", "rate", "n_atoms", "rule", "z_max_sigmas", "z_max"}


def _expect_mapping(node: Any, path: str) -> Mapping:
    if not isinstance(node, Mapping):
        raise ValidationError(f"{path} must be a mapping, got {type(node).__name__}")
    return node


def _expect_list(node: Any, path: str) -> list:
    if not isinstance(node, list):
        raise ValidationError(f"{path} must be a list, got {type(node).__name__}")
    return node


def _check_keys(node: Mapping, allowed: set, path: str) -> None:
    unknown = sorted(set(node) - allowed)
    if unknown:
        raise ValidationError(
            f"unknown key(s) {unknown} at {path}; allowed keys: {sorted(allowed)}"
        )


def _number(node: Mapping, key: str, path: str, default=None) -> float:
    if key not in node:
        if default is not None:
            return float(default)
        raise ValidationError(f"missing required key {key!r} at {path}")
    return _as_number(node[key], f"{path}.{key}")


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{path} must be a finite number, got {value!r}")
    return number


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path} must be an integer, got {value!r}")
    return value


def _text(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{path} must be a non-empty string, got {value!r}")
    return value


def _list_of(check, node: Any, path: str) -> list:
    """``node`` as a list, each entry passed through ``check(entry, its path)``."""
    return [check(v, f"{path}[{i}]") for i, v in enumerate(_expect_list(node, path))]


def _parse_penalty(node: Any, path: str) -> RiskPenalty:
    node = _expect_mapping(node, path)
    _check_keys(node, _PENALTY_KEYS, path)
    return RiskPenalty(
        running_form=node.get("running_form", "quadratic"),
        gamma=_number(node, "gamma", path),
        terminal_form=node.get("terminal_form", "zero"),
        zeta=_number(node, "zeta", path, default=0.0),
    )


def _parse_correlation(node: Any, path: str, n_assets: int):
    node = _expect_mapping(node, path)
    _check_keys(node, _CORRELATION_KEYS, path)
    if ("matrix" in node) == ("block" in node):
        raise ValidationError(f"{path} needs exactly one of 'matrix' or 'block'")
    if "matrix" in node:
        rows = _expect_list(node["matrix"], f"{path}.matrix")
        rows = [_list_of(_as_number, row, f"{path}.matrix[{i}]") for i, row in enumerate(rows)]
        if len(rows) != n_assets or any(len(row) != n_assets for row in rows):
            raise ValidationError(
                f"{path}.matrix must be {n_assets}x{n_assets} for {n_assets} assets, "
                f"got rows of lengths {[len(row) for row in rows]}"
            )
        return np.array(rows)
    block = _expect_mapping(node["block"], f"{path}.block")
    _check_keys(block, _BLOCK_KEYS, f"{path}.block")
    sizes = _list_of(_integer, block.get("sizes"), f"{path}.block.sizes")
    if any(n < 1 for n in sizes):
        raise ValidationError(f"{path}.block.sizes must be positive, got {sizes}")
    within = _list_of(_as_number, block.get("within"), f"{path}.block.within")
    if len(sizes) != len(within):
        raise ValidationError(
            f"{path}.block: {len(sizes)} block sizes but {len(within)} within-block levels"
        )
    if sum(sizes) != n_assets:
        raise ValidationError(
            f"{path}.block sizes sum to {sum(sizes)} but the config defines {n_assets} assets"
        )
    across = _number(block, "across", f"{path}.block")
    rho = np.full((n_assets, n_assets), across)
    start = 0
    for n, w in zip(sizes, within):
        rho[start : start + n, start : start + n] = w
        start += n
    np.fill_diagonal(rho, 1.0)
    return rho


def _parse_one_intensity(node: Any, path: str) -> LogisticIntensity:
    node = _expect_mapping(node, path)
    _check_keys(node, _INTENSITY_KEYS, path)
    return LogisticIntensity(
        lambda_rfq=_number(node, "lambda_rfq", path),
        alpha=_number(node, "alpha", path),
        beta=_number(node, "beta", path),
    )


def _parse_intensities(node: Any, path: str):
    node = _expect_mapping(node, path)
    if set(node) & _SIDED_INTENSITY_KEYS:
        _check_keys(node, _SIDED_INTENSITY_KEYS, path)
        if set(node) != _SIDED_INTENSITY_KEYS:
            raise ValidationError(f"{path} with per-side intensities needs both 'bid' and 'ask'")
        return (
            _parse_one_intensity(node["bid"], f"{path}.bid"),
            _parse_one_intensity(node["ask"], f"{path}.ask"),
        )
    shared = _parse_one_intensity(node, path)
    return shared, shared


def _parse_sizes(node: Any, path: str) -> SizeDistribution:
    node = _expect_mapping(node, path)
    _check_keys(node, _SIZES_KEYS, path)
    has_atoms = "atoms" in node or "probabilities" in node
    if has_atoms == ("gamma" in node):
        raise ValidationError(
            f"{path} needs either 'atoms' with 'probabilities' or a 'gamma' law, not both"
        )
    if has_atoms:
        if "atoms" not in node or "probabilities" not in node:
            raise ValidationError(f"{path} needs both 'atoms' and 'probabilities'")
        return SizeDistribution(
            sizes=tuple(_list_of(_as_number, node["atoms"], f"{path}.atoms")),
            probabilities=tuple(_list_of(_as_number, node["probabilities"], f"{path}.probabilities")),
        )
    g = _expect_mapping(node["gamma"], f"{path}.gamma")
    _check_keys(g, _GAMMA_KEYS, f"{path}.gamma")
    spec = GammaSpec(shape=_number(g, "shape", f"{path}.gamma"), rate=_number(g, "rate", f"{path}.gamma"))
    kwargs = {}
    if "rule" in g:
        rules = get_args(DiscretizationRule)
        if g["rule"] not in rules:
            raise ValidationError(
                f"{path}.gamma.rule must be {' or '.join(map(repr, rules))}, got {g['rule']!r}"
            )
        kwargs["rule"] = g["rule"]
    if "z_max_sigmas" in g:
        kwargs["z_max_sigmas"] = _number(g, "z_max_sigmas", f"{path}.gamma")
    if "z_max" in g:
        kwargs["z_max"] = _number(g, "z_max", f"{path}.gamma")
    return discretize_gamma(spec, _integer(g.get("n_atoms"), f"{path}.gamma.n_atoms"), **kwargs)


def _parse_asset(node: Any, path: str, asset_id: str) -> AssetSpec:
    bid_intensity, ask_intensity = _parse_intensities(
        node.get("intensity"), f"{path}.intensity"
    )
    dist = _parse_sizes(node.get("sizes"), f"{path}.sizes")
    return AssetSpec(
        asset_id=asset_id,
        s0=_number(node, "s0", path, default=100.0),
        sigma=_number(node, "sigma", path),
        bid_intensity=bid_intensity,
        ask_intensity=ask_intensity,
        bid_sizes=dist,
        ask_sizes=dist,
    )


def _parse_assets(raw: Mapping) -> tuple[AssetSpec, ...]:
    if ("assets" in raw) == ("asset_groups" in raw):
        raise ValidationError("config needs exactly one of 'assets' or 'asset_groups'")
    out = []
    if "assets" in raw:
        entries = _expect_list(raw["assets"], "assets")
        for i, node in enumerate(entries):
            path = f"assets[{i}]"
            node = _expect_mapping(node, path)
            _check_keys(node, _ASSET_KEYS, path)
            asset_id = _text(node.get("asset_id", f"A{i}"), f"{path}.asset_id")
            out.append(_parse_asset(node, path, asset_id))
        return tuple(out)
    counter = 0
    for gi, node in enumerate(_expect_list(raw["asset_groups"], "asset_groups")):
        path = f"asset_groups[{gi}]"
        node = _expect_mapping(node, path)
        _check_keys(node, _GROUP_KEYS, path)
        count = _integer(node.get("count"), f"{path}.count")
        if count < 1:
            raise ValidationError(f"{path}.count must be positive, got {count!r}")
        prefix = _text(node.get("prefix", "A"), f"{path}.prefix")
        for _ in range(count):
            out.append(_parse_asset(node, path, f"{prefix}{counter}"))
            counter += 1
    return tuple(out)


def parse_config(raw: Any, source: str = "<config>") -> MarketSpec:
    """Turn a parsed YAML mapping into a validated :class:`MarketSpec`."""
    raw = _expect_mapping(raw, source)
    _check_keys(raw, _TOP_KEYS, source)
    assets = _parse_assets(raw)
    correlation = _parse_correlation(raw.get("correlation"), "correlation", len(assets))
    if "penalty" not in raw:
        raise ValidationError(f"missing required key 'penalty' at {source}")
    return MarketSpec(
        assets=assets,
        correlation=correlation,
        horizon=_number(raw, "horizon", source),
        risk_limit=_number(raw, "risk_limit", source),
        penalty=_parse_penalty(raw["penalty"], "penalty"),
        quote_floor=_number(raw, "quote_floor", source, default=1.0),
    )


def load_config(path) -> tuple[MarketSpec, str]:
    """Read a YAML config file; returns the market and its hash."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValidationError(f"{path} is not valid YAML: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path} is not UTF-8 text: {exc.reason}") from exc
    market = parse_config(raw, source=str(path))
    return market, config_hash(raw)


def config_hash(raw: Any) -> str:
    """sha256 of the canonical JSON rendering of a parsed config mapping."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
