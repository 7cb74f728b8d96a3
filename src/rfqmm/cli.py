"""Command line front end: config ingestion, artifact export, reproduction runs.

Subcommands
-----------
``validate``   parse a config; its checks enforce the intensity hypotheses.
``factors``    eigen-analysis of the covariance; writes eigenvalue/loading CSVs.
``solve``      run the backward sweep; caches the surface for later stages.
``quotes``     quote table off a cached surface for a list of inventories.
``simulate``   event-level runs; writes a summary CSV and per-path NDJSON.
``adjust``     residual-risk correction and adjusted quotes for listed RFQs.
``reproduce``  the bundled reference scenarios, stage by stage.

Each stage has one function that writes the stage's artifacts and prints
its result line.  A subcommand parses its flags and calls its stage;
``reproduce`` calls the same stage functions with each scenario's defaults
(see ``SCENARIOS``), so a reproduction writes the same bytes as the
matching subcommand run.

Artifact discipline: every output file name embeds the first 12 hex digits
of the configuration hash, and each run writes a manifest JSON listing the
artifacts it produced.  CSV and NDJSON outputs are byte-identical across
reruns with the same config and seed; the manifest is not (it records wall
clock).  This module is the only one that writes them: every CSV through
``_write_csv``, every NDJSON file through ``_write_ndjson``, from plain
Python data, so a float's ``repr`` (``_fmt``) is the one number format.
``quotes``, ``simulate`` and ``adjust`` never re-solve: they load the
surface cached by ``solve`` (or exit with code 2 telling you to run it).
``reproduce`` solves on first use and caches.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import re
import sys
import time
import warnings
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .config_io import load_config
from .errors import OutOfDomainError, SolverError, StabilityError, ValidationError
from .factors import build_factor_model
from .model import SIDES, MarketSpec, clean_inventory
from .quotes import REASON_OK, MyopicPolicy, SurfacePolicy, quote_table
from .residual import adjusted_quotes
from .simulator import ENGINES, DegenerateRunWarning, SimulationSummary, simulate
from .solver import FactorGrid, SolverConfig, ValueSurface, solve, solver_fingerprint

REPRODUCTION_SEED = 23
STAGES = ("validate", "factors", "solve", "quotes", "simulate", "adjust", "all")
EVENT_LOG_PATH_CAP = 100
SIMULATE_PATHS = 2000
ADJUST_PATHS = 500


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A bundled reference run: what ``reproduce`` solves, simulates and adjusts."""

    config: str
    grid: int
    #: factor counts solved; the first one is also used for factors and quotes
    factors: tuple[int, ...]
    #: simulation runs as (label, factor count), None for the myopic policy
    runs: tuple[tuple[str, int | None], ...]
    adjust_factors: int


SCENARIOS = {
    "paper-2asset": Scenario(
        "paper_2asset.yaml", 141, (2, 1),
        (("optimal", 2), ("myopic", None), ("one_factor", 1)), adjust_factors=1,
    ),
    "paper-30asset": Scenario("paper_30asset.yaml", 71, (2,), (("optimal", 2),), adjust_factors=2),
}
REPRODUCTION_RFQS = ((0, "bid", 12500.0), (0, "ask", 12500.0))

#: a quote table's columns after the inventory's q1..qd
QUOTE_COLUMNS = ("asset", "side", "size", "delta", "reason")
SUMMARY_COLUMNS = ("policy", "engine", "seed") + tuple(
    f.name for f in dataclasses.fields(SimulationSummary)
)
ADJUST_COLUMNS = (
    "asset",
    "side",
    "size",
    "base_delta",
    "adjusted_delta",
    "shift",
    "shift_stderr",
    "correction",
    "correction_stderr",
    "correction_after_trade",
    "correction_after_trade_stderr",
    "reason",
)


class CliError(Exception):
    """Fatal CLI problem; carries the exit code."""

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


class Runner:
    """Holds the output directory and collects artifact paths for the manifest."""

    def __init__(self, out_dir: Path, config_hash: str, subcommand: str, seed: int | None):
        self.out_dir = out_dir
        self.hash = config_hash
        self.tag = config_hash[:12]
        self.subcommand = subcommand
        self.seed = seed
        self.artifacts: list[str] = []
        self.started = time.perf_counter()
        out_dir.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        self.artifacts.append(name)
        return p

    def finish(self) -> None:
        """Write the manifest: what the run produced, for reproducibility audits."""
        manifest = {
            "version": __version__,
            "subcommand": self.subcommand,
            "config_hash": self.hash,
            "seed": self.seed,
            "artifacts": self.artifacts,
            "wall_clock_seconds": round(time.perf_counter() - self.started, 3),
        }
        path = self.out_dir / f"manifest_{self.subcommand}_{self.tag}.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load(args) -> tuple[MarketSpec, str]:
    try:
        return load_config(args.config)
    except FileNotFoundError:
        raise CliError(f"config file not found: {args.config}", code=1)


def _surface_cache_name(tag: str, k: int, grid: int, dt) -> str:
    dt_tag = "auto" if dt is None else repr(float(dt))
    return f"surface_{tag}_k{k}_g{grid}_dt{dt_tag}.npz"


def _cache_path(runner: Runner, k: int, grid_nodes: int, dt) -> Path:
    cache = runner.out_dir / "cache"
    cache.mkdir(parents=True, exist_ok=True)
    return cache / _surface_cache_name(runner.tag, k, grid_nodes, dt)


def _default_factors(market: MarketSpec, k) -> int:
    if k is not None:
        return int(k)
    return min(2, market.n_assets)


def _cache_fingerprint(config_hash: str, dt) -> dict:
    """What a cached surface must carry to stand in for a new solve."""
    return {**solver_fingerprint(SolverConfig(dt=dt)), "config_hash": config_hash}


def _solve_surface(runner: Runner, market, k, grid_nodes, dt) -> ValueSurface:
    """Solve, stamp and cache a surface, overwriting any cached one."""
    fm = build_factor_model(market.covariance, k)
    grid = FactorGrid.from_factor_model(fm, market.risk_limit, grid_nodes)
    surface = solve(market, fm, grid, SolverConfig(dt=dt))
    surface.fingerprint = _cache_fingerprint(runner.hash, dt)
    surface.save(_cache_path(runner, k, grid_nodes, dt))
    return surface


def _setting(fingerprint: dict, key: str) -> str:
    return f"{key}={fingerprint[key]!r}" if key in fingerprint else f"no {key}"


def _cached_surface(runner: Runner, market, k, grid_nodes, dt, solve_on_miss: bool) -> ValueSurface:
    path = _cache_path(runner, k, grid_nodes, dt)
    if path.exists():
        try:
            surface = ValueSurface.load(path)
        except ValidationError as exc:
            raise CliError(f"{exc}; delete it or change --out-dir", code=2)
        want, got, missing = _cache_fingerprint(runner.hash, dt), surface.fingerprint, object()
        # every key of either side, so a key only the cache carries is refused too
        for key in {**want, **got}:
            if got.get(key, missing) != want.get(key, missing):
                raise CliError(
                    f"cached surface {path} was solved with {_setting(got, key)}, this run "
                    f"needs {_setting(want, key)}; delete it or change --out-dir",
                    code=2,
                )
        return surface
    if not solve_on_miss:
        raise CliError(
            f"no cached surface at {path}; run `rfqmm solve --config ... "
            f"--factors {k} --grid {grid_nodes}` with the same --out-dir first",
            code=2,
        )
    return _solve_surface(runner, market, k, grid_nodes, dt)


def _parse_numbers(text: str, what: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise CliError(f"could not parse {what} {text!r}; expected comma-separated numbers")


def _parse_rfq(text: str, market: MarketSpec) -> tuple[int, str, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"could not parse RFQ {text!r}; expected ASSET:SIDE:SIZE, e.g. 0:bid:12500")
    try:
        asset = int(parts[0])
        size = float(parts[2])
    except ValueError:
        raise CliError(f"could not parse RFQ {text!r}; expected ASSET:SIDE:SIZE, e.g. 0:bid:12500")
    side = parts[1]
    if not 0 <= asset < market.n_assets:
        raise CliError(f"RFQ {text!r}: asset index out of range for {market.n_assets} assets")
    if side not in SIDES:
        raise CliError(f"RFQ {text!r}: side must be one of {SIDES}")
    return asset, side, size


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_ndjson(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


# One function per stage: it writes the stage's artifacts and prints its
# result line.  The subcommands and ``reproduce`` both call these.


def _validate_stage(market: MarketSpec, config_hash: str) -> None:
    # every curve LogisticIntensity accepts meets the paper's hypotheses
    # (proved in rfqmm.model): one check per asset and side
    print(f"config {config_hash[:12]}: {market.n_assets} assets, horizon {market.horizon} days")
    print(f"all {len(SIDES) * market.n_assets} intensity checks passed")


def _factors_stage(runner: Runner, market: MarketSpec, k: int) -> None:
    fm = build_factor_model(market.covariance, k)
    _write_csv(
        runner.path(f"eigenvalues_{runner.tag}.csv"),
        ("index", "eigenvalue"),
        [[i, _fmt(v)] for i, v in enumerate(fm.eigenvalues.tolist())],
    )
    _write_csv(
        runner.path(f"loadings_{runner.tag}.csv"),
        ("asset_id",) + tuple(f"f{j + 1}" for j in range(k)),
        [[a.asset_id, *map(_fmt, row)] for a, row in zip(market.assets, fm.loadings.tolist())],
    )
    top = ", ".join(f"{v:.6f}" for v in fm.eigenvalues[:k])
    print(f"kept {k} factors; leading eigenvalues {top}; explained {fm.explained_ratio:.4f}")


def _solve_stage(runner: Runner, surface: ValueSurface, k: int, grid_nodes: int) -> None:
    # the t = 0 slice, nodes in C order
    grid = surface.grid
    table = np.column_stack([grid.node_coordinates(), surface.slice_values(0.0).ravel()])
    _write_csv(
        runner.path(f"surface_{runner.tag}_k{k}_g{grid_nodes}.csv"),
        [f"f{j + 1}" for j in range(k)] + ["value", "admissible"],
        [[*map(_fmt, row), int(ok)] for row, ok in zip(table.tolist(), grid.admissible_mask())],
    )
    origin = surface.value_at_origin()
    peak = float(np.max(surface.slice_values(0.0)))
    print(f"solved grid={grid_nodes}: k={k} value at origin {origin:.1f}, grid maximum {peak:.1f}")


def _quotes_stage(runner: Runner, market, surface, k, grid_nodes, inventories, sizes=None) -> None:
    rows = quote_table(surface, market, inventories, sizes=sizes)
    # a refusal is an empty delta and its reason
    _write_csv(
        runner.path(f"quotes_{runner.tag}_k{k}_g{grid_nodes}.csv"),
        tuple(f"q{j + 1}" for j in range(market.n_assets)) + QUOTE_COLUMNS,
        [
            [*map(_fmt, q), asset_id, side, _fmt(size), "" if delta is None else _fmt(delta), why]
            for q, asset_id, side, size, delta, why in rows
        ],
    )
    refused = sum(1 for r in rows if r[5] != REASON_OK)
    print(f"quoted {len(rows)} rows ({refused} refusals) for {len(inventories)} inventories")


def _simulate_stage(
    runner: Runner, market, policy, label, n_paths, seed, engine="thinning", event_logs=False
) -> None:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateRunWarning)
        result = simulate(market, policy, n_paths, seed, engine=engine, keep_event_logs=event_logs)
    for w in caught:
        if issubclass(w.category, DegenerateRunWarning):
            print(f"warn[sim]: {w.message}", file=sys.stderr)
        else:
            # issued again where it was raised, so -W and test filters apply
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
    s = result.summary()
    row = (result.policy_kind, result.engine, result.seed) + dataclasses.astuple(s)
    _write_csv(runner.path(f"summary_{label}_{runner.tag}.csv"), SUMMARY_COLUMNS, [map(_fmt, row)])
    # a path's record: its totals, its index and its fills by bucket label
    buckets, paths = result.buckets, result.paths
    labels = [
        f"{market.assets[a].asset_id}:{SIDES[side]}:{z:g}"
        for a, side, z in zip(buckets.asset.tolist(), buckets.side.tolist(), buckets.size.tolist())
    ]
    columns = {name: paths[name].tolist() for name in paths.dtype.names if name != "n_fills"}
    columns["path"] = list(range(len(paths)))
    columns["fills"] = [
        {labels[b]: c for b, c in enumerate(counts) if c} for counts in paths.n_fills.tolist()
    ]
    records = (dict(zip(columns, row)) for row in zip(*columns.values()))
    _write_ndjson(runner.path(f"paths_{label}_{runner.tag}.ndjson"), records)
    if event_logs:
        _write_ndjson(
            runner.path(f"events_{label}_{runner.tag}.ndjson"),
            (
                {"path": i, **{key: log[key].tolist() for key in log.dtype.names}}
                for i, log in enumerate(result.event_logs[:EVENT_LOG_PATH_CAP])
            ),
        )
    print(
        f"{label}: mean {s.mean_pnl:.0f}  stdev {s.stdev_pnl:.0f}  "
        f"rfq-stdev {s.stdev_from_rfq:.0f}  objective {s.objective:.0f}"
    )


def _adjust_stage(runner: Runner, market, surface, inventory, rfqs, t, n_paths, seed, name) -> None:
    q = clean_inventory(market, inventory)
    # one run for the state and every priced RFQ's post-trade inventory; the
    # estimate at the state serves every RFQ and the report
    here, adjusted = adjusted_quotes(surface, market, q, rfqs, t=t, n_paths=n_paths, seed=seed)
    rows = []
    for a in adjusted:
        after = a.correction_after_trade
        numbers = (a.size, a.base_delta, a.delta, a.shift, a.shift_stderr)
        numbers += (here.value, here.stderr)
        after_cells = ("", "") if after is None else (_fmt(after.value), _fmt(after.stderr))
        rows.append([a.asset, a.side, *map(_fmt, numbers), *after_cells, a.reason])
    _write_csv(runner.path(name), ADJUST_COLUMNS, rows)
    value = surface.value(t, surface.factor_model.factor_coordinates(q))
    print(
        f"value at the given state {value:.1f}; correction {here.value:.1f} (stderr "
        f"{here.stderr:.1f}, {here.n_paths} paths); corrected value {value + here.value:.1f}"
    )


def cmd_validate(args) -> int:
    market, config_hash = _load(args)
    _validate_stage(market, config_hash)
    return 0


def cmd_factors(args) -> int:
    market, config_hash = _load(args)
    runner = Runner(Path(args.out_dir), config_hash, "factors", seed=None)
    _factors_stage(runner, market, _default_factors(market, args.factors))
    runner.finish()
    return 0


def cmd_solve(args) -> int:
    market, config_hash = _load(args)
    k = _default_factors(market, args.factors)
    runner = Runner(Path(args.out_dir), config_hash, "solve", seed=None)
    surface = _solve_surface(runner, market, k, args.grid, args.dt)
    cache = _cache_path(runner, k, args.grid, args.dt)
    runner.artifacts.append(str(cache.relative_to(runner.out_dir)))
    _solve_stage(runner, surface, k, args.grid)
    runner.finish()
    return 0


def cmd_quotes(args) -> int:
    market, config_hash = _load(args)
    k = _default_factors(market, args.factors)
    runner = Runner(Path(args.out_dir), config_hash, "quotes", seed=None)
    surface = _cached_surface(runner, market, k, args.grid, args.dt, solve_on_miss=False)
    inventories = [_parse_numbers(text, "inventory") for text in args.inventory or []]
    sizes = _parse_numbers(args.sizes, "sizes") if args.sizes else None
    _quotes_stage(
        runner, market, surface, k, args.grid, inventories or [np.zeros(market.n_assets)], sizes
    )
    runner.finish()
    return 0


def cmd_simulate(args) -> int:
    market, config_hash = _load(args)
    runner = Runner(Path(args.out_dir), config_hash, "simulate", seed=args.seed)
    if args.policy == "myopic":
        policy = MyopicPolicy(market)
    else:
        k = _default_factors(market, args.factors)
        surface = _cached_surface(runner, market, k, args.grid, args.dt, solve_on_miss=False)
        policy = SurfacePolicy(surface, market)
    _simulate_stage(
        runner, market, policy, args.policy, args.paths, args.seed, args.engine, args.event_logs
    )
    runner.finish()
    return 0


def cmd_adjust(args) -> int:
    market, config_hash = _load(args)
    k = _default_factors(market, args.factors)
    runner = Runner(Path(args.out_dir), config_hash, "adjust", seed=args.seed)
    surface = _cached_surface(runner, market, k, args.grid, args.dt, solve_on_miss=False)
    inventory = _parse_numbers(args.inventory, "inventory") if args.inventory else None
    rfqs = [_parse_rfq(text, market) for text in (args.rfq or [])]
    _adjust_stage(
        runner, market, surface, inventory, rfqs, args.t, args.paths, args.seed,
        f"adjust_{runner.tag}_k{k}.csv",
    )
    runner.finish()
    return 0


def _bundled_config(target: str) -> Path:
    return Path(str(resources.files("rfqmm.configs").joinpath(SCENARIOS[target].config)))


def cmd_reproduce(args) -> int:
    scenario = SCENARIOS[args.target]
    market, config_hash = load_config(_bundled_config(args.target))
    grid_nodes = args.grid if args.grid is not None else scenario.grid
    stages = STAGES[:-1] if args.stage == "all" else (args.stage,)
    runner = Runner(Path(args.out_dir), config_hash, f"reproduce_{args.target}", seed=args.seed)

    def surface(k):
        return _cached_surface(runner, market, k, grid_nodes, args.dt, solve_on_miss=True)

    k_first = scenario.factors[0]
    for stage in stages:
        print(f"--- {args.target} / {stage} ---")
        if stage == "validate":
            _validate_stage(market, config_hash)
        elif stage == "factors":
            _factors_stage(runner, market, k_first)
        elif stage == "solve":
            for k in scenario.factors:
                _solve_stage(runner, surface(k), k, grid_nodes)
        elif stage == "quotes":
            flat = [np.zeros(market.n_assets)]
            _quotes_stage(runner, market, surface(k_first), k_first, grid_nodes, flat)
        elif stage == "simulate":
            n = args.paths if args.paths is not None else SIMULATE_PATHS
            for label, k in scenario.runs:
                policy = MyopicPolicy(market) if k is None else SurfacePolicy(surface(k), market)
                _simulate_stage(runner, market, policy, label, n, args.seed)
        elif stage == "adjust":
            n = args.paths if args.paths is not None else ADJUST_PATHS
            _adjust_stage(
                runner, market, surface(scenario.adjust_factors), None, REPRODUCTION_RFQS,
                0.0, n, args.seed, f"adjust_{runner.tag}.csv",
            )
    runner.finish()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfqmm",
        description="Factor-reduced RFQ market making: solve, quote, simulate, adjust.",
    )
    parser.add_argument("--version", action="version", version=f"rfqmm {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, seed=False, paths=None, surface_opts=False):
        p.add_argument("--out-dir", default="rfqmm_out", help="artifact directory")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="top-level RNG seed")
        if paths is not None:
            p.add_argument("--paths", type=int, default=paths, help="Monte-Carlo path count")
        if surface_opts:
            p.add_argument("--factors", type=int, default=None, metavar="K",
                           help="factor count (default: min(2, assets))")
            p.add_argument("--grid", type=int, default=41, help="nodes per factor axis")
            p.add_argument("--dt", type=float, default=None, help="solver step in days")

    p = sub.add_parser("validate", help="parse a config; its checks enforce the model hypotheses")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("factors", help="eigen-analysis and factor loadings")
    p.add_argument("--config", required=True)
    p.add_argument("--factors", type=int, default=None, metavar="K")
    common(p)
    p.set_defaults(fn=cmd_factors)

    p = sub.add_parser("solve", help="solve the value surface and cache it")
    p.add_argument("--config", required=True)
    common(p, surface_opts=True)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("quotes", help="quote table from a cached surface")
    p.add_argument("--config", required=True)
    p.add_argument("--inventory", action="append", metavar="Q1,Q2,...",
                   help="inventory row; repeatable (default: flat)")
    p.add_argument("--sizes", default=None, metavar="Z1,Z2,...",
                   help="trade sizes (default: the market's size atoms)")
    common(p, surface_opts=True)
    p.set_defaults(fn=cmd_quotes)

    p = sub.add_parser("simulate", help="event-level simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--policy", choices=("surface", "myopic"), default="surface")
    p.add_argument("--engine", choices=ENGINES, default="thinning")
    p.add_argument("--event-logs", action="store_true",
                   help=f"dump event logs for the first {EVENT_LOG_PATH_CAP} paths")
    common(p, seed=True, paths=SIMULATE_PATHS, surface_opts=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("adjust", help="residual-risk corrected quotes")
    p.add_argument("--config", required=True)
    p.add_argument("--inventory", default=None, metavar="Q1,Q2,...")
    p.add_argument("--rfq", action="append", metavar="ASSET:SIDE:SIZE",
                   help="RFQ to price; repeatable")
    p.add_argument("--t", type=float, default=0.0, help="evaluation time in days")
    common(p, seed=True, paths=ADJUST_PATHS, surface_opts=True)
    p.set_defaults(fn=cmd_adjust)

    p = sub.add_parser("reproduce", help="bundled reference scenarios")
    p.add_argument("target", choices=tuple(SCENARIOS))
    p.add_argument("--stage", choices=STAGES, default="all")
    p.add_argument("--paths", type=int, default=None,
                   help="path count (default: 2000 simulate, 500 adjust)")
    p.add_argument("--seed", type=int, default=REPRODUCTION_SEED)
    p.add_argument("--grid", type=int, default=None,
                   help="nodes per factor axis (default: 141 two-asset, 71 thirty-asset)")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--out-dir", default="rfqmm_out")
    p.set_defaults(fn=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    # argparse takes "-1000,2000" for an option, so a token that starts with
    # a minus and a digit joins the --inventory or --sizes before it
    tokens = []
    for token in sys.argv[1:] if argv is None else argv:
        if tokens and tokens[-1] in ("--inventory", "--sizes") and re.match(r"-\.?\d", token):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    args = build_parser().parse_args(tokens)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValidationError, StabilityError, OutOfDomainError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
