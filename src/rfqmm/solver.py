"""Backward construction of the value surface on a factor grid.

The market maker's certainty-equivalent value theta(t, f) lives on a uniform
rectangular grid in factor coordinates f.  Stepping backward from the
horizon, each explicit Euler update adds

    dt * ( -running_penalty(f' V f)
           + sum over assets i, sides, size atoms z with weight p_z of
             p_z * z * envelope( (theta(t, f) - theta(t, f_shift)) / z ) )

where f_shift = f + z * e_i for a bid and f - z * e_i for an ask (e_i is the
factor displacement of one unit of asset i) and ``envelope`` is the quote
optimization kernel of the matching intensity curve.  Where a shifted point
leaves the bounding box the whole term is dropped (the drop-term rule), which
preserves monotonicity of the scheme; no other out-of-grid rule is offered.
The box test is :meth:`FactorGrid.contains`, slack included, so the sweep
keeps exactly the trades the quotes price.

The envelope is :func:`rfqmm.hamiltonian.batch_quote_kernel`, the closed
form lam * omega(-c) / beta with c = beta*p + alpha + 1, through the numpy
Wright omega :func:`rfqmm.hamiltonian.wright_omega`; it computes no quote
and no intensity per element.  The quotes find their offsets through scipy's
omega instead.  The two omegas agree within a few ulp, so a surface swept
through either differs by rounding only: within 1e-13 relative on the
bundled markets (``tests/test_solver.py``).

Both the sweep and the quotes read theta between nodes by multilinear
interpolation done axis by axis: one two-point lerp per axis, last axis
first.  A shift is the same at every node of the uniform grid, so the sweep
lerps whole grids at once (``_read_shifted``); the quotes lerp each point's
2^k cell (``ValueSurface.value_many``).

A quote's cost is mostly fixed per call, so a :class:`FactorGrid` computes
on first use, and keeps, what every ``value_many`` call reads: the node
count and spacing, the box bound with its :data:`BOX_TOL` slack, each
axis's last node and last lower node, the C-order node strides and the flat
offsets of a cell's 2^k corners.  ``value_many`` box-tests each point once
against that bound and places every point on every axis in one vectorised
pass; the operations on each element are those of a loop over the axes, so
the bits are too.

The scheme is monotone, hence stable, when dt times the sum over assets and
sides of the intensity at the quote floor stays below 1; the solver keeps it
within :data:`STABILITY_BUDGET`, and a dt beyond that is a hard error.

All nodes of the rectangle are evolved, including those outside the
admissible risk ellipsoid; the ellipsoid only matters to consumers (quote
refusal, CSV flags).  Updates read exclusively the previous time slice, so
the sweep is deterministic regardless of evaluation order.

Each step splits the (asset, side, size) rows into contiguous row slices of
about 2^16 row-node elements and runs them on worker threads, one per CPU
the process may use (inline when there is one block or one CPU).  A step
gives each worker one task: every workers-th block.  A block gathers with
``np.take``, lerps and evaluates the quote kernel in numpy temporaries of
its own; the gather indices and lerp weights are built once per solve, not
once per step.  It writes its rows' envelope into its slice of one
(rows, nodes) buffer; numpy and the kernel release the GIL while they do.
Every one of those operations is elementwise per row, so a row's envelope
has the same bits in any block.  Once all blocks are done,
the calling thread runs the update
``theta + dt * (-drain + sum_r zp_r * envelope_r)``, summing the rows in
order with ``np.einsum("r,rn->n", ...)`` as a loop over them would
(``tests/test_solver.py``).  No BLAS runs: its summation order depends on
the build and its thread count, and its idle threads spin on the cores the
workers need.  Surfaces therefore do not depend on the worker count, the
block size or the BLAS build.  The threads live for one ``solve`` call.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import functools
import json
import math
import os
import zipfile
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import __version__
from .errors import OutOfDomainError, SolverError, StabilityError, ValidationError
from .events import SIDE_SIGNS, BucketTable
from .factors import FactorModel
from .hamiltonian import batch_quote_kernel
from .model import RISK_SLACK, MarketSpec

#: relative slack when testing grid-box membership
BOX_TOL = 1e-9

_FORMAT_VERSION = 2

#: the sweep's arithmetic, in every fingerprint; a change that moves a
#: surface's bits renames it, so caches solved before are refused
SWEEP_SCHEME = "explicit-euler/omega-envelope/row-order-sum"

#: row-node elements per block of a sweep step: 512 KiB per float64 buffer
_BLOCK_ELEMS = 2**16

#: largest admissible dt times the sum of the intensities at the quote floor
STABILITY_BUDGET = 0.9


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _axis_positions(u, top, last):
    """Lower node and fraction of fractional indices ``u``.

    ``top`` is an axis's last node index n - 1 and ``last`` its last lower
    node n - 2, both as floats; they broadcast against ``u``, so one call can
    place every axis at once.  ``u`` is clipped into the axis first; the box
    test is the caller's.
    """
    u = np.minimum(np.maximum(u, 0.0), top)
    lo = np.minimum(np.floor(u), last).astype(np.int64)
    return lo, u - lo


def check_time(t: float) -> None:
    """Refuse a non-finite quote time, which the nearest-slice lookup would
    silently read as slice 0."""
    if not math.isfinite(t):
        raise ValidationError(f"t must be finite, got {t}")


@dataclass(frozen=True, eq=False)
class FactorGrid:
    """Uniform rectangular grid in factor coordinates.

    Axis j spans [-half_widths[j], +half_widths[j]] with an odd node count so
    the origin is always a node.  ``factor_cov`` is the (possibly
    non-diagonal) covariance of the factor coordinates; it defines the risk
    level f' V f attached to every node and the admissibility mask
    f' V f <= risk_limit.
    """

    factor_cov: np.ndarray
    half_widths: np.ndarray
    nodes_per_axis: tuple[int, ...]
    risk_limit: float

    def __post_init__(self):
        v = np.asarray(self.factor_cov, dtype=float)
        half = np.asarray(self.half_widths, dtype=float)
        k = half.shape[0]
        if not 1 <= k <= 3:
            raise ValidationError(f"factor grids support 1 to 3 dimensions, got {k}")
        if v.shape != (k, k):
            raise ValidationError(f"factor covariance shape {v.shape} does not match {k} axes")
        if len(self.nodes_per_axis) != k:
            raise ValidationError(
                f"{len(self.nodes_per_axis)} node counts for {k} axes"
            )
        for n in self.nodes_per_axis:
            if n < 3 or n % 2 == 0:
                raise ValidationError(f"nodes per axis must be odd and >= 3, got {n}")
        if not np.isfinite(v).all():
            raise ValidationError(f"factor covariance must be finite, got {v.tolist()}")
        if not (np.isfinite(half) & (half > 0.0)).all():
            raise ValidationError(f"half widths must be positive and finite, got {half.tolist()}")
        if not 0.0 < self.risk_limit < np.inf:
            raise ValidationError(f"risk limit must be positive and finite, got {self.risk_limit}")
        v = 0.5 * (v + v.T)
        v.setflags(write=False)
        half.setflags(write=False)
        object.__setattr__(self, "factor_cov", v)
        object.__setattr__(self, "half_widths", half)
        object.__setattr__(self, "nodes_per_axis", tuple(int(n) for n in self.nodes_per_axis))

    @classmethod
    def from_factor_model(
        cls, factor_model: FactorModel, risk_limit: float, nodes_per_axis
    ) -> "FactorGrid":
        """Box circumscribing the admissible ellipsoid f' V f <= risk_limit.

        The extent of that ellipsoid along axis j is sqrt(risk_limit *
        inv(V)_jj), which reduces to sqrt(risk_limit / V_jj) when V is
        diagonal.  The diagonal branch keeps the reciprocal exact so grids
        built from eigen factor models are bit-reproducible.
        """
        v = np.asarray(factor_model.factor_cov, dtype=float)
        diag = np.diag(v)
        if np.any(diag <= 0.0):
            raise ValidationError(f"factor variances must be positive, got {diag.tolist()}")
        if np.count_nonzero(v - np.diag(diag)) == 0:
            half = np.sqrt(risk_limit / diag)
        else:
            try:
                inv_diag = np.diag(np.linalg.inv(v))
            except np.linalg.LinAlgError as exc:
                raise ValidationError(f"factor covariance is singular: {exc}") from exc
            if np.any(inv_diag <= 0.0):
                raise ValidationError(
                    "factor covariance must be positive definite to box the "
                    f"admissible region, inverse diagonal {inv_diag.tolist()}"
                )
            half = np.sqrt(risk_limit * inv_diag)
        k = diag.shape[0]
        if isinstance(nodes_per_axis, int):
            nodes_per_axis = (nodes_per_axis,) * k
        return cls(
            factor_cov=factor_model.factor_cov,
            half_widths=half,
            nodes_per_axis=tuple(nodes_per_axis),
            risk_limit=risk_limit,
        )

    @property
    def ndim(self) -> int:
        return len(self.nodes_per_axis)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.nodes_per_axis

    # Per-grid constants, computed on first use: ``value_many`` and
    # ``contains`` read them on every call.

    @functools.cached_property
    def n_nodes(self) -> int:
        return int(np.prod(self.nodes_per_axis))

    @functools.cached_property
    def spacing(self) -> np.ndarray:
        return _frozen(2.0 * self.half_widths / (np.array(self.nodes_per_axis) - 1))

    @functools.cached_property
    def _box(self) -> np.ndarray:
        """Largest |f_j| inside the box, with the BOX_TOL slack."""
        return _frozen(self.half_widths + BOX_TOL * self.half_widths)

    @functools.cached_property
    def _cell_constants(self):
        """Per axis the last node and last lower node (floats), the C-order
        strides of a node, and the flat offsets of a cell's 2^k corners."""
        k, n = self.ndim, np.array(self.nodes_per_axis)
        strides = np.ravel_multi_index(np.eye(k, dtype=np.int64), self.shape)
        corners = np.ravel_multi_index(np.indices((2,) * k).reshape(k, -1), self.shape)
        return tuple(map(_frozen, (n - 1.0, n - 2.0, strides, corners)))

    @property
    def axes(self) -> tuple[np.ndarray, ...]:
        """Node coordinates per axis: exact 0.0 centre, exact +-a ends, mirror symmetric."""
        return tuple(
            a * ((np.arange(n) - n // 2) / (n // 2))
            for a, n in zip(self.half_widths, self.nodes_per_axis)
        )

    def node_coordinates(self) -> np.ndarray:
        """All nodes as an (n_nodes, ndim) array in C order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def risk_levels(self) -> np.ndarray:
        """f' V f at every node, flat in C order."""
        nodes = self.node_coordinates()
        return np.einsum("nj,jk,nk->n", nodes, self.factor_cov, nodes)

    def admissible_mask(self) -> np.ndarray:
        return self.risk_levels() <= self.risk_limit * RISK_SLACK

    def contains(self, points) -> np.ndarray:
        """Which query points lie inside the bounding box (with slack)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (np.abs(pts) <= self._box).all(axis=1)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the backward sweep.

    ``dt`` requests a step in days; None takes the largest step within
    :data:`STABILITY_BUDGET`.
    ``snapshot_times`` asks for extra stored slices at the given times, each
    within [0, horizon] (the nearest computed slice is kept), useful for
    inspecting stationarity without paying for ``all_slices`` storage.
    """

    dt: float | None = None
    store_policy: Literal["final_slice_only", "all_slices"] = "final_slice_only"
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        if self.store_policy not in ("final_slice_only", "all_slices"):
            raise ValidationError(f"unknown store policy {self.store_policy!r}")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValidationError(f"dt must be positive and finite, got {self.dt}")
        for s in self.snapshot_times:
            if not (math.isfinite(s) and s >= 0.0):
                raise ValidationError(f"snapshot times must be finite and nonnegative, got {s}")


def solver_fingerprint(config: SolverConfig) -> dict:
    """The package version, the sweep scheme and every ``config`` field, as a
    cache stores them.

    A cached surface stands in for a new solve only when the two
    fingerprints are equal.
    """
    fingerprint = {"version": __version__, "scheme": SWEEP_SCHEME, **dataclasses.asdict(config)}
    return json.loads(json.dumps(fingerprint))


@dataclass(eq=False)
class ValueSurface:
    """Stored slices of the value surface plus interpolation access."""

    grid: FactorGrid
    factor_model: FactorModel
    times: np.ndarray  # stored slice times, ascending, in days
    values: np.ndarray  # (n_stored,) + grid.shape
    horizon: float
    dt: float
    n_steps: int
    # solver_fingerprint of the solve, plus any keys a cache writer adds
    fingerprint: dict = field(default_factory=dict)

    def slice_index(self, t):
        """Nearest stored slice per time; earlier one on ties."""
        return np.abs(self.times - np.asarray(t)[..., None]).argmin(axis=-1)

    def slice_values(self, t: float) -> np.ndarray:
        return self.values[self.slice_index(t)]

    def value_many(self, t, points, out_of_box: str = "raise") -> np.ndarray:
        """Multilinear interpolation of the nearest stored slice.

        ``t`` is one time or one time per point; each point reads the slice
        :meth:`slice_index` picks.  As in the sweep's shifted reads, each
        point's 2^k cell is interpolated one axis at a time, last axis
        first, with one lerp per axis, so a point reads the same bits alone
        as in any batch.  ``out_of_box`` is either "raise" or "nan"; the NaN
        marker is what the quote engine turns into refusals.

        Each point is box-tested once, by :meth:`FactorGrid.contains`, and
        all points are placed on all axes in one vectorised pass from the
        grid's cached constants (see the module docstring).  A solved
        surface's values are finite (``solve`` checks every step), so in
        "nan" mode a NaN marks exactly the points off the box.
        """
        grid = self.grid
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        m, k = pts.shape
        if k != grid.ndim:
            raise ValidationError(f"query dimension {k} does not match grid dimension {grid.ndim}")
        if out_of_box not in ("raise", "nan"):
            raise ValueError(f"unknown out_of_box mode {out_of_box!r}")
        inside = grid.contains(pts)
        all_inside = inside.all()
        if not all_inside and out_of_box == "raise":
            bad = pts[~inside][0]
            raise OutOfDomainError(
                f"factor point {bad.tolist()} lies outside the grid box "
                f"(half widths {grid.half_widths.tolist()})"
            )
        top, last, strides, corners = grid._cell_constants
        lo, frac = _axis_positions((pts + grid.half_widths) / grid.spacing, top, last)
        base = self.slice_index(t) * grid.n_nodes + lo @ strides
        cell = self.values.take(base[:, None] + corners).reshape((m,) + (2,) * k)
        for j in reversed(range(k)):
            w = frac[:, j].reshape((m,) + (1,) * j)
            cell = cell[..., 0] * (1.0 - w) + cell[..., 1] * w
        return cell if all_inside else np.where(inside, cell, np.nan)

    def value(self, t: float, point) -> float:
        check_time(t)
        return float(self.value_many(t, np.atleast_2d(np.asarray(point, dtype=float)))[0])

    def value_at_origin(self, t: float = 0.0) -> float:
        return self.value(t, np.zeros(self.grid.ndim))

    def to_csv(self, fp, t: float = 0.0) -> None:
        """Write the slice nearest ``t`` as CSV, C-ordered nodes."""
        import csv

        k = self.grid.ndim
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow([f"f{j + 1}" for j in range(k)] + ["value", "admissible"])
        nodes = self.grid.node_coordinates()
        flat = self.slice_values(t).ravel()
        admissible = self.grid.admissible_mask()
        for row, val, ok in zip(nodes, flat, admissible):
            writer.writerow([repr(float(x)) for x in row] + [repr(float(val)), int(ok)])

    def save(self, path) -> None:
        """Write the surface to ``path`` (".npz" appended if missing).

        The archive goes to a temporary file in the same directory first and
        is then renamed into place, so an interrupted save never leaves a
        truncated archive at ``path``.
        """
        fm = self.factor_model
        meta = {"format_version": _FORMAT_VERSION, "fingerprint": self.fingerprint}
        path = os.fspath(path)
        if not path.endswith(".npz"):
            path += ".npz"
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                np.savez_compressed(
                    fh,
                    meta=json.dumps(meta, sort_keys=True),
                    times=self.times,
                    values=self.values,
                    horizon=self.horizon,
                    dt=self.dt,
                    n_steps=self.n_steps,
                    grid_factor_cov=self.grid.factor_cov,
                    grid_half_widths=self.grid.half_widths,
                    grid_nodes=np.array(self.grid.nodes_per_axis),
                    grid_risk_limit=self.grid.risk_limit,
                    fm_covariance=fm.covariance,
                    fm_loadings=fm.loadings,
                    fm_factor_cov=fm.factor_cov,
                    fm_residual_cov=fm.residual_cov,
                    fm_eigenvalues=fm.eigenvalues,
                )
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
            raise

    @classmethod
    def load(cls, path) -> "ValueSurface":
        try:
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data["meta"]))
                if meta.get("format_version") != _FORMAT_VERSION:
                    raise ValidationError(
                        f"surface cache {path} has format {meta.get('format_version')}, "
                        f"this build reads format {_FORMAT_VERSION}"
                    )
                grid = FactorGrid(
                    factor_cov=data["grid_factor_cov"],
                    half_widths=data["grid_half_widths"],
                    nodes_per_axis=tuple(int(n) for n in data["grid_nodes"]),
                    risk_limit=float(data["grid_risk_limit"]),
                )
                fm = FactorModel(
                    covariance=data["fm_covariance"],
                    loadings=data["fm_loadings"],
                    factor_cov=data["fm_factor_cov"],
                    residual_cov=data["fm_residual_cov"],
                    eigenvalues=data["fm_eigenvalues"],
                )
                return cls(
                    grid=grid,
                    factor_model=fm,
                    times=data["times"],
                    values=data["values"],
                    horizon=float(data["horizon"]),
                    dt=float(data["dt"]),
                    n_steps=int(data["n_steps"]),
                    fingerprint=meta.get("fingerprint", {}),
                )
        except ValidationError:
            raise
        except (EOFError, KeyError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
            raise ValidationError(
                f"surface cache {path} is not a readable surface archive ({type(exc).__name__})"
            ) from exc


def _shift_rows(market: MarketSpec, factor_model: FactorModel, grid: FactorGrid):
    """Per (asset, side, size atom) row: where the sweep reads shifted theta.

    A row moves every node by the same displacement s = +-z * e_i, so on the
    uniform grid the read separates by axis: node b of axis j reads at
    fractional index b + s_j / h_j.  Returns per-axis lower nodes and
    fractions of shape (rows, n_j); the (rows, n_nodes) mask of dropped
    terms, exactly where :meth:`FactorGrid.contains` rejects node + s (the
    quotes' box rule, applied axis by axis); intensity parameters and z as
    (rows, 1) columns; and z times the atom probability as (rows,).
    """
    ns = grid.nodes_per_axis
    rows = BucketTable.from_market(market)
    g = len(rows)
    shifts = (np.array(SIDE_SIGNS)[rows.side] * rows.size)[:, None] * (
        factor_model.shift_directions[rows.asset]
    )
    offsets = shifts / grid.spacing

    lo, frac = [], []
    inside = np.ones((g,) + ns, dtype=bool)
    for j, (n, axis) in enumerate(zip(ns, grid.axes)):
        pos = np.arange(n, dtype=float) + offsets[:, j : j + 1]
        lo_j, w_j = _axis_positions(pos, n - 1.0, n - 2.0)
        lo.append(lo_j)
        frac.append(w_j)
        ok = np.abs(axis + shifts[:, j : j + 1]) <= grid._box[j]
        inside &= ok.reshape((g,) + (1,) * j + (n,) + (1,) * (len(ns) - 1 - j))
    columns = (c[:, None] for c in (rows.lam, rows.alpha, rows.beta, rows.size))
    return lo, frac, ~inside.reshape(g, -1), *columns, rows.size * rows.probability


def _axis_reads(lo, frac, rows=slice(None)):
    """What :func:`_read_shifted` gathers for the rows ``rows`` of ``lo, frac``.

    Per axis, last axis first: the flat gather indices of the lower and the
    upper read and their two lerp weights.  They depend on the rows alone,
    so a solve builds them once per block.
    """
    k, g = len(lo), len(lo[0][rows])
    reads, m = [], 1
    for j in reversed(range(k)):
        lower = lo[j][rows] * m + np.arange(g)[:, None] % m
        w = frac[j][rows].reshape((g, -1) + (1,) * (k - 1 - j))
        reads.append((lower, lower + m, 1.0 - w, w))
        m = g
    return reads


def _read_shifted(theta: np.ndarray, reads) -> np.ndarray:
    """theta read at every node shifted by each row's displacement.

    Interpolates one axis at a time, last axis first, with two reads and one
    lerp per axis.  Before axis j is read the array is laid out as
    (n_0, ..., n_j, m, n_j+1, ...), where the row axis m has length 1 until
    the first read.  Merging axis j with the row axis turns the read of row
    r at node b into a plain gather at index lo[j][r, b] * m + r, which
    ``reads`` (:func:`_axis_reads`) holds.  Returns shape (rows,) +
    theta.shape.
    """
    out = theta[..., None]
    for i, (lower, upper, w_lower, w_upper) in enumerate(reads):
        j = theta.ndim - 1 - i
        merged = out.reshape(out.shape[:j] + (-1,) + out.shape[j + 2 :])
        below = merged.take(lower, axis=j)
        above = merged.take(upper, axis=j)
        below *= w_lower
        above *= w_upper
        below += above
        out = below
    return out


def _envelope_rows(theta, floor, rows, reads, dropped, lam, alpha, beta, inv_z, out):
    """Envelope of the terms of ``rows`` (a slice) at every node, into ``out``.

    ``theta`` has the grid's shape and ``reads`` are the rows' gathers
    (:func:`_axis_reads`); the other arrays are the step's, rows first, of
    which the block reads and writes its ``rows`` only.  Dropped terms are
    zero.
    """
    out, dropped = out[rows], dropped[rows]
    p = (theta - _read_shifted(theta, reads)).reshape(out.shape)
    p *= inv_z[rows]
    p[dropped] = 0.0
    out[...] = batch_quote_kernel(p, lam[rows], alpha[rows], beta[rows], floor)[0]
    out[dropped] = 0.0


def _worker_count() -> int:
    """Worker threads for the sweep: one per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def solve(
    market: MarketSpec,
    factor_model: FactorModel,
    grid: FactorGrid,
    config: SolverConfig | None = None,
) -> ValueSurface:
    """Run the backward sweep and return the stored slices.

    Each step computes the envelope in blocks of rows on a pool of worker
    threads opened for this call and joined before it returns; the update
    and the finiteness check run on the calling thread once every block is
    done.  The stored values do not depend on the worker count or the block
    size (see the module docstring).
    """
    cfg = config if config is not None else SolverConfig()
    if factor_model.n_factors != grid.ndim:
        raise ValidationError(
            f"grid has {grid.ndim} axes but the factor model keeps "
            f"{factor_model.n_factors} factors"
        )
    if factor_model.n_assets != market.n_assets:
        raise ValidationError(
            f"factor model covers {factor_model.n_assets} assets, market has {market.n_assets}"
        )

    budget = market.intensity_sum_at_floor()
    if budget <= 0.0 and cfg.dt is None:
        raise ValidationError(
            "all arrival rates are zero, so no stability bound exists; give an explicit dt"
        )
    dt_max = STABILITY_BUDGET / budget if budget > 0.0 else math.inf
    requested = cfg.dt if cfg.dt is not None else dt_max
    if requested > dt_max * (1.0 + 1e-12):
        raise StabilityError(
            f"dt={requested:.6g} violates the stability budget: "
            f"dt * sum_of_floor_intensities = {requested * budget:.4f} > "
            f"{STABILITY_BUDGET}; required dt <= {dt_max:.6g} days"
        )
    n_steps = max(1, int(math.ceil(market.horizon / requested - 1e-12)))
    dt = market.horizon / n_steps

    risk = grid.risk_levels()
    theta = -np.asarray(market.penalty.terminal(risk), dtype=float)
    drain = np.asarray(market.penalty.running(risk), dtype=float)

    lo, frac, dropped, lam, alpha, beta, z, zp = _shift_rows(market, factor_model, grid)
    envelope = np.empty(dropped.shape)
    sweep = (dropped, lam, alpha, beta, 1.0 / z, envelope)
    size = max(1, _BLOCK_ELEMS // grid.n_nodes)
    blocks = [slice(r, r + size) for r in range(0, len(zp), size)]
    reads = [_axis_reads(lo, frac, b) for b in blocks]
    workers = min(_worker_count(), len(blocks))

    def run(theta, i):
        # worker i computes every workers-th block
        for b in range(i, len(blocks), workers):
            _envelope_rows(theta, market.quote_floor, blocks[b], reads[b], *sweep)

    # after step m theta is the slice at t_of[m]; ``kept`` holds the steps
    # whose slices are stored, and ``slot`` their rows of ``values`` in
    # increasing time
    t_of = np.append(market.horizon - np.arange(n_steps) * dt, 0.0)
    kept = set(range(n_steps + 1)) if cfg.store_policy == "all_slices" else {n_steps}
    for s in cfg.snapshot_times:
        if s > market.horizon:
            raise ValidationError(
                f"snapshot time {s} lies beyond the horizon of {market.horizon} days"
            )
        kept.add(int(round((market.horizon - s) / dt)))
    steps = sorted(kept, reverse=True)
    slot = {m: i for i, m in enumerate(steps)}
    values = np.empty((len(steps), grid.n_nodes))
    if 0 in kept:
        values[slot[0]] = theta

    pool = ThreadPoolExecutor(workers) if workers > 1 else contextlib.nullcontext()
    with pool:
        for m in range(1, n_steps + 1):
            step = functools.partial(run, theta.reshape(grid.shape))
            if workers > 1:
                # each task runs in a copy of the caller's context, so an
                # np.errstate set around solve holds in the workers too
                futures = [
                    pool.submit(contextvars.copy_context().run, step, i) for i in range(workers)
                ]
                for f in futures:
                    f.result()
            else:
                step(0)
            theta = theta + dt * (-drain + np.einsum("r,rn->n", zp, envelope))
            if not np.isfinite(theta).all():
                raise SolverError(
                    f"non-finite values after step {m} of {n_steps} "
                    f"(slice t={t_of[m]:.6g} days); "
                    "check penalty scales and grid extents"
                )
            if m in kept:
                values[slot[m]] = theta

    return ValueSurface(
        grid=grid,
        factor_model=factor_model,
        times=t_of[steps],
        values=values.reshape((len(steps),) + grid.shape),
        horizon=market.horizon,
        dt=dt,
        n_steps=n_steps,
        fingerprint=solver_fingerprint(cfg),
    )
