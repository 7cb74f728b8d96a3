"""Pre-drawn randomness for the RFQ simulator.

Every (asset, side, size-atom) combination is one arrival bucket with the
constant rate ``lambda_rfq * p_atom``.  A path's randomness is drawn up
front in a fixed order so that the stream a policy consumes does not depend
on the policy itself:

    1. one Poisson count per bucket (single vectorised call),
    2. one block of ``2 * n_events`` uniforms (single vectorised call),
       laid out per bucket in table order: that bucket's arrival times
       (uniform on [0, T]), then one thinning uniform per arrival,
    3. the market shocks, one draw per inter-arrival interval (``d`` draws
       per interval when full price paths are requested).

Arrivals are materialised whether or not a quote ends up filled, so two
policies simulated from the same seed see identical arrival times, identical
thinning uniforms and identical market shocks: common-random-number
comparisons are exact.

Path ``i`` of a run seeded with ``seed`` uses the generator
``PCG64(SeedSequence(seed, spawn_key=(i,)))``; paths are independent and
any contiguous subset of paths is reproducible in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SIDES, MarketSpec

SIDE_SIGNS = (1.0, -1.0)  # a filled bid buys, a filled ask sells


@dataclass(frozen=True)
class BucketTable:
    """Flat view of every arrival bucket, ordered asset, then side, then size.

    This is the one (asset, side, size atom) row order: the solver's sweep
    terms follow it too.  ``probability`` is the atom's weight within its
    (asset, side) size distribution.
    """

    asset: np.ndarray
    side: np.ndarray
    size: np.ndarray
    probability: np.ndarray
    arrival_rate: np.ndarray
    lam: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    @classmethod
    def from_market(cls, market: MarketSpec) -> "BucketTable":
        asset, side, size, prob = [], [], [], []
        for i, spec in enumerate(market.assets):
            for s, side_name in enumerate(SIDES):
                dist = spec.sizes(side_name)
                for z, p in zip(dist.sizes, dist.probabilities):
                    asset.append(i)
                    side.append(s)
                    size.append(z)
                    prob.append(p)
        asset = np.array(asset, dtype=np.int64)
        side = np.array(side, dtype=np.int64)
        probability = np.array(prob, dtype=float)
        lam, alpha, beta = market.intensity_table[asset, side].T.copy()
        return cls(
            asset=asset,
            side=side,
            size=np.array(size, dtype=float),
            probability=probability,
            arrival_rate=lam * probability,
            lam=lam,
            alpha=alpha,
            beta=beta,
        )

    def __len__(self) -> int:
        return self.asset.size


def path_generator(seed: int, path: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(path,))))


@dataclass(frozen=True)
class PathEvents:
    """One path's arrivals, time-sorted, plus its market shocks.

    ``normals`` has ``n_events + 1`` rows (one per inter-arrival interval,
    including the final stub to the horizon); it is a matrix of per-asset
    shocks in price-path mode and a vector otherwise.
    """

    times: np.ndarray
    bucket: np.ndarray
    thin: np.ndarray
    normals: np.ndarray

    @property
    def n_events(self) -> int:
        return self.times.size


def draw_path_events(
    buckets: BucketTable,
    horizon: float,
    rng: np.random.Generator,
    price_dims: int = 0,
) -> PathEvents:
    """Draw one path's arrivals and market shocks from ``rng``.

    The stream is consumed in three calls: one Poisson count per bucket,
    one ``rng.random(2 * n_events)`` block and the standard normals.  The
    block is laid out per bucket in table order, each bucket's arrival
    times (scaled by ``horizon``) followed by its thinning uniforms, which
    is bit for bit what per-bucket ``rng.uniform(0.0, horizon, n)`` and
    ``rng.uniform(0.0, 1.0, n)`` calls would give.  ``price_dims`` is the
    number of shocks per interval (``d`` for full price paths, 0 for one
    scalar shock).
    """
    counts = rng.poisson(buckets.arrival_rate * horizon)
    n_events = int(counts.sum())
    u = rng.random(2 * n_events)
    bucket_ix = np.repeat(np.arange(len(buckets)), counts)
    # Event j of bucket b (j counted over all buckets) sits at offset[b] + j
    # in the block, its thinning uniform counts[b] further on.
    pos = (np.cumsum(counts) - counts)[bucket_ix] + np.arange(n_events)
    times = horizon * u[pos]
    thin = u[pos + counts[bucket_ix]]
    order = np.argsort(times, kind="stable")
    if price_dims:
        normals = rng.standard_normal((n_events + 1) * price_dims).reshape(
            n_events + 1, price_dims
        )
    else:
        normals = rng.standard_normal(n_events + 1)
    return PathEvents(
        times=times[order], bucket=bucket_ix[order], thin=thin[order], normals=normals
    )
