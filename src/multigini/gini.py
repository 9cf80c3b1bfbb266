"""One-dimensional and multivariate Gini-type inequality indices.

The multivariate index of order p is the expected p-norm of the whitened
difference of two independent draws, divided by twice the p-norm of the
whitened mean:

    G_p(X) = E ||W (X - Y)||_p / (2 ||W m||_p),    X, Y iid

with W the correlation whitening of X.  For p = 1 the index decomposes
exactly into a convex combination of per-component one-dimensional Gini
indices of the whitened components, weighted by |m*_i| / sum_j |m*_j|
where m* = W m.

All pairwise integrals use the with-replacement product measure (diagonal
pairs included, contributing zero), which is what makes the decomposition
an identity at finite n rather than an approximation.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .sample import WeightedSample, MomentSummary, moments
from .whitening import WhiteningTransform, fit_whitening, fit_zca_cor

# Size cap (n support points) of the exact double sum used for p != 1; above
# this, pair sampling is the intended route.  ~2e8 pair evaluations per
# component at the cap.  Exact p = 1 sorts instead and is not capped.
DEFAULT_EXACT_CAP = 20_000

# Fixed evaluation chunk sizes.  These are constants (never derived from the
# thread count), so results are bit-identical however the work is scheduled.
# A double-sum chunk of ~2^18 doubles (2 MiB) stays cache resident.
_EXACT_CHUNK_ELEMENTS = 1 << 18
_PAIR_CHUNK = 1 << 18

# At a large finite p, |x|^p overflows to inf (and inf times a zero weight is
# nan) under this numpy error state, without a warning; ``_gini_p`` turns a
# non-finite normalizer or distance sum into a NumericalError.
_LARGE_P_QUIET = {"over": "ignore", "invalid": "ignore"}


@dataclass(frozen=True)
class GiniResult:
    """Value of G_p with its normalizer and estimation diagnostics.

    ``weights`` (|m*_i|/sum|m*_j|) is only populated for p = 1, and
    ``component_ginis`` (the indices of the whitened components, which
    ``weights`` combine into ``value``) for exact p = 1 with every m*_i
    nonzero; ``std_error``, ``pair_count`` and ``seed`` only for the
    pair-sampling estimator.  ``worst_negative`` is the most negative
    whitened entry when the negativity diagnostic fired (see
    :func:`worst_negative`), and ``negativity_warning`` says whether it did.
    """

    p: float
    value: float
    normalizer: float
    method: str
    estimator: str
    weights: np.ndarray | None = None
    component_ginis: np.ndarray | None = None
    pair_count: int | None = None
    seed: int | None = None
    std_error: float | None = None
    worst_negative: float | None = None

    @property
    def negativity_warning(self) -> bool:
        return self.worst_negative is not None

    def to_dict(self) -> dict:
        """JSON-friendly representation with stable key order.

        The max-norm order serializes as the string "inf" (valid JSON has
        no infinity literal).
        """
        return {
            "p": self.p if math.isfinite(self.p) else "inf",
            "value": self.value,
            "normalizer": self.normalizer,
            "method": self.method,
            "estimator": self.estimator,
            "weights": None if self.weights is None else [float(v) for v in self.weights],
            "component_ginis": (
                None if self.component_ginis is None else [float(v) for v in self.component_ginis]
            ),
            "pair_count": self.pair_count,
            "seed": self.seed,
            "std_error": self.std_error,
            "negativity_warning": self.negativity_warning,
            "worst_negative": self.worst_negative,
        }


def _validate_p(p) -> float:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise DataError(f"p must be >= 1 (or inf), got {p}")
    return p


def _pnorm_rows(diff: np.ndarray, p: float) -> np.ndarray:
    """p-norm along the last axis."""
    a = np.abs(diff)
    if p == 1.0:
        return a.sum(axis=-1)
    if p == 2.0:
        return np.sqrt((a * a).sum(axis=-1))
    if math.isinf(p):
        return a.max(axis=-1)
    return (a**p).sum(axis=-1) ** (1.0 / p)


def gini_1d(values, weights=None) -> float:
    """One-dimensional Gini index of a weighted value set.

    Returns sum_{a,b} w_a w_b |x_a - x_b| / (2 |mean|), the with-replacement
    mean absolute difference over twice the absolute mean.  Computed by a
    single stable sort and prefix sums, O(n log n); ties contribute zero in
    any order.

    Raises :class:`NumericalError` if the weighted mean is zero.
    """
    v = np.asarray(values, dtype=float).reshape(-1)
    if v.size < 1:
        raise DataError("empty value set")
    if not np.all(np.isfinite(v)):
        raise DataError("values contain non-finite entries")
    if weights is None:
        w = np.full(v.size, 1.0 / v.size)
    else:
        w = np.asarray(weights, dtype=float).reshape(-1)
        if w.shape != v.shape:
            raise DataError(f"expected {v.size} weights, got {w.size}")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise DataError("weights must be finite and non-negative")
        total = w.sum()
        if total <= 0.0:
            raise DataError("all-zero weights")
        w = w / total
    mean = float(w @ v)
    if mean == 0.0:
        raise NumericalError("undefined inequality for zero-mean component")
    return _mean_abs_difference(v, w) / (2.0 * abs(mean))


def _equal_weights(w: np.ndarray) -> bool:
    """Whether every weight equals the first, an O(n) test."""
    return bool(w[0] == w[-1] and np.all(w == w[0]))


def _mean_abs_difference(v: np.ndarray, w: np.ndarray) -> float:
    """sum_{a,b} w_a w_b |v_a - v_b| for weights summing to one.

    One sort and prefix sums, O(n log n).  When every weight is equal
    (:func:`_equal_weights`) the values are sorted by ``np.sort`` and ``w``
    is kept: permuting equal weights leaves the same array, and tied values
    are equal, so the sorted array does not depend on the tie order (up to
    the sign of zero entries, which only adds signed zero terms to the sums).
    Other weights are carried along by a stable argsort.  Both routes feed
    the same prefix sums, so they give bit-identical results.
    """
    if _equal_weights(w):
        vs, ws = np.sort(v), w
    else:
        order = np.argsort(v, kind="stable")
        vs, ws = v[order], w[order]
    return _sorted_mean_abs_difference(vs, ws)


def _sorted_mean_abs_difference(vs: np.ndarray, ws: np.ndarray) -> float:
    """``_mean_abs_difference`` of values sorted ascending, with their weights."""
    # shifting to start at zero costs nothing (pairwise differences are
    # shift invariant) and avoids cancellation for near-constant values
    vs = vs - vs[0]
    cum_w = np.cumsum(ws)
    cum_wv = np.cumsum(ws * vs)
    # sum_{a<b} w_a w_b (v_b - v_a), doubled for the symmetric sum
    mad = 2.0 * float(np.sum(ws * (vs * (cum_w - ws) - (cum_wv - ws * vs))))
    return max(mad, 0.0)


def mahalanobis_norm_p(transform: WhiteningTransform, mean, p=2.0) -> float:
    """p-norm of the whitened mean, ||W mean||_p.

    For p = 2 the value is sqrt(m^T S^{-1} m) and does not depend on which
    whitening matrix is used; for other p it does, which is why the scale
    stable transforms are the meaningful choices.
    """
    p = _validate_p(p)
    mean = np.asarray(mean, dtype=float).reshape(-1)
    if mean.shape[0] != transform.dim:
        raise DataError(f"mean has length {mean.shape[0]}, transform expects {transform.dim}")
    return float(_pnorm_rows(transform.matrix @ mean, p))


def _whitened(
    sample: WeightedSample, method: str, m: MomentSummary
) -> tuple[np.ndarray, np.ndarray]:
    """Whitened points y and whitened mean m*, fitted on the sample's moments m."""
    transform = fit_whitening(method, m)
    return sample.points @ transform.matrix.T, transform.matrix @ m.mean


def _exact_chunks(n: int) -> list[slice]:
    rows = max(1, _EXACT_CHUNK_ELEMENTS // n)
    return [slice(i, min(i + rows, n)) for i in range(0, n, rows)]


def _pnorm_of_differences(operands, p: float, acc: np.ndarray, term: np.ndarray) -> np.ndarray:
    """||a - b||_p elementwise, from the (a_k, b_k) pair of each component in order.

    Accumulates |a_k - b_k|^p (max_k for p = inf) into ``acc`` one component
    at a time, in component order, with ``term`` as scratch of the same
    shape, and returns ``acc``.  The exact double sum and the pair sampler
    both use it, so both round a pair's distance the same way.
    """
    max_norm = math.isinf(p)
    power = p not in (1.0, 2.0) and not max_norm
    for k, (a, b) in enumerate(operands):
        out = term if k else acc
        np.subtract(a, b, out=out)
        if p == 2.0:
            np.multiply(out, out, out=out)
        else:
            np.abs(out, out=out)
            if power:
                np.power(out, p, out=out)
        if k and max_norm:
            np.maximum(acc, term, out=acc)
        elif k:
            acc += term
    if p == 2.0:
        np.sqrt(acc, out=acc)
    elif power:
        np.power(acc, 1.0 / p, out=acc)
    return acc


def _exact_mean_distance(y: np.ndarray, w: np.ndarray, p: float, threads: int) -> float:
    """sum_{a,b} w_a w_b ||y_a - y_b||_p, chunked with a fixed reduction order.

    Each row chunk a in [i0, i1) is paired only with columns b >= i0: the
    diagonal block in full, and the block to its right twice (the sum is
    symmetric).  Distances come from :func:`_pnorm_of_differences` on 2-D
    blocks.  Chunk boundaries depend only on n, and partial sums are reduced
    in chunk order, so the result is identical for any thread count.
    """
    n = y.shape[0]
    columns = np.ascontiguousarray(y.T)
    chunks = _exact_chunks(n)

    def part(sl: slice) -> float:
        # distances for a in sl, b >= sl.start
        acc = np.empty((sl.stop - sl.start, n - sl.start))
        blocks = ((col[sl, None], col[None, sl.start:]) for col in columns)
        coef = w[sl.start:].copy()
        coef[sl.stop - sl.start:] *= 2.0
        # in the worker's own error state (threads do not inherit it)
        with np.errstate(**_LARGE_P_QUIET):
            dist = _pnorm_of_differences(blocks, p, acc, np.empty_like(acc))
            return float(w[sl] @ (dist @ coef))

    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(part, chunks))
    else:
        partials = [part(sl) for sl in chunks]
    total = 0.0
    for value in partials:
        total += value
    return total


def _equal_weight_searchsorted(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")`` for the CDF of n equal weights, u >= 0.

    Guesses min(floor(u n), n - 1), then walks each index up while
    cdf[idx] <= u and down while cdf[idx - 1] > u, until no index moves.
    The result is the one index with cdf[idx - 1] <= u < cdf[idx] (the
    number of entries <= u), which is what the binary search returns.  The
    walks are correct for any non-decreasing ``cdf``; they are short when
    the entries lie near (i + 1) / n, as the cumsum of equal weights does
    (its rounding, about n eps, is far below the 1/n spacing).
    """
    n = cdf.size
    # lower[i] = cdf[i - 1] and upper[i] = cdf[i]; the infinite sentinels
    # stop both walks at the ends
    edges = np.concatenate(([-np.inf], cdf, [np.inf]))
    lower, upper = edges[:-1], edges[1:]
    flat = u.reshape(-1)
    idx = (flat * n).astype(np.intp)
    np.minimum(idx, n - 1, out=idx)
    moving = np.flatnonzero(upper[idx] <= flat)
    while moving.size:
        idx[moving] += 1
        moving = moving[upper[idx[moving]] <= flat[moving]]
    moving = np.flatnonzero(lower[idx] > flat)
    while moving.size:
        idx[moving] -= 1
        moving = moving[lower[idx[moving]] > flat[moving]]
    return idx.reshape(u.shape)


def _pair_sample_mean_distance(
    y: np.ndarray, w: np.ndarray, p: float, pairs: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo mean of ||y_a - y_b||_p over weighted pairs, with its SE.

    One seeded generator produces the pair indices as a single deterministic
    sequence, consumed in fixed-size chunks and reduced in order, so the
    estimate is bit-reproducible for a given seed.  Indices come from
    inverting the weight CDF at uniform draws: by binary search, or for
    equal weights by :func:`_equal_weight_searchsorted`, which returns the
    same indices without one.  Each chunk gathers one whitened column at a
    time and hands the differences to :func:`_pnorm_of_differences`, the
    exact double sum's per-pair arithmetic.
    """
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(w)
    cdf[-1] = 1.0
    equal = _equal_weights(w)
    columns = np.ascontiguousarray(y.T)
    acc = np.empty(min(_PAIR_CHUNK, pairs))
    term = np.empty_like(acc)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < pairs:
        count = min(_PAIR_CHUNK, pairs - done)
        u = rng.random((2, count))
        if equal:
            ia, ib = _equal_weight_searchsorted(cdf, u)
        else:
            ia, ib = np.searchsorted(cdf, u, side="right")
        gathered = ((col[ia], col[ib]) for col in columns)
        with np.errstate(**_LARGE_P_QUIET):
            dist = _pnorm_of_differences(gathered, p, acc[:count], term[:count])
        total += float(dist.sum())
        total_sq += float((dist * dist).sum())
        done += count
    mean = total / pairs
    variance = max(total_sq / pairs - mean * mean, 0.0)
    return mean, math.sqrt(variance / pairs)


def gini_p(
    sample: WeightedSample,
    p=1.0,
    *,
    method: str = "zca_cor",
    estimator: str = "exact",
    pairs: int = 1_000_000,
    seed: int = 0,
    exact_cap: int = DEFAULT_EXACT_CAP,
    threads: int = 1,
) -> GiniResult:
    """Multivariate Gini-type index of order p.

    Whitens the sample with the requested scale stable transform (fitted on
    the sample's own moments), then evaluates the expected whitened pair
    distance over twice the whitened-mean p-norm.

    estimator="exact" is exact up to roundoff.  For p = 1 it sums the
    per-component mean absolute differences, each by one sort and prefix
    sums: O(n log n), uncapped, single threaded; each over 2|m*_i| is that
    component's index in ``component_ginis``, unless some m*_i is zero.  For
    p != 1 it evaluates the double sum over support pairs, O(n^2 d), which
    requires n <= exact_cap and is the only step ``threads`` parallelizes
    (the value does not depend on ``threads``).  estimator="pairs" draws
    ``pairs`` independent index pairs from the weight distribution with a
    fixed seed and reports a standard error alongside the estimate.  The
    indices invert the weight CDF at one seeded uniform stream; equal weights
    take a shortcut that returns the same indices, so the value is the same.
    Both estimators compute a pair's distance one whitened component at a
    time, in component order.

    Arguments are checked before any moment or fit, so a bad ``estimator``,
    ``pairs`` or ``seed`` is a :class:`DataError` even on a singular sample.
    Raises :class:`NumericalError` when the whitened mean is zero, or when p
    is so large that |x|^p over- or underflows (the normalizer is zero or
    infinite for a nonzero whitened mean, or the distance sum is not finite).
    """
    p = _validate_p(p)
    if threads < 1:
        raise DataError(f"threads must be >= 1, got {threads}")
    if estimator == "pairs":
        if pairs < 1:
            raise DataError("pair count must be positive")
        if seed < 0:
            raise DataError(f"seed must be >= 0, got {seed}")
    elif estimator != "exact":
        raise DataError(f"unknown estimator {estimator!r}; choose 'exact' or 'pairs'")
    return _gini_p(
        sample, moments(sample), p, method=method, estimator=estimator, pairs=pairs,
        seed=seed, exact_cap=exact_cap, threads=threads,
    )


# Whitened entries more negative than this (relative to the largest whitened
# magnitude) trigger the negativity diagnostic.
NEGATIVITY_RTOL = 1e-9


def worst_negative(whitened: np.ndarray) -> float | None:
    """Most negative whitened entry if below -NEGATIVITY_RTOL * max(1, max |entry|), else None.

    The rule holds whatever the sign of the input: the [0, 1] range of G_p
    is guaranteed when the whitened support is non-negative, and not
    otherwise.
    """
    worst = float(whitened.min())
    if worst < -NEGATIVITY_RTOL * max(1.0, float(np.abs(whitened).max())):
        return worst
    return None


def _large_p_error(p: float) -> NumericalError:
    """The error for a finite p so large that |x|^p over- or underflows."""
    return NumericalError(
        f"p = {p:g} is too large: |x|^p overflows or underflows in floating point; "
        "use p = inf (--p inf) for the max norm"
    )


def _gini_p(
    sample: WeightedSample,
    m: MomentSummary,
    p: float,
    *,
    method: str = "zca_cor",
    estimator: str = "exact",
    pairs: int = 1_000_000,
    seed: int = 0,
    exact_cap: int = DEFAULT_EXACT_CAP,
    threads: int = 1,
) -> GiniResult:
    """``gini_p`` with the sample's moments m given, for arguments ``gini_p`` accepts."""
    y, m_star = _whitened(sample, method, m)
    w = sample.weights
    with np.errstate(**_LARGE_P_QUIET):
        normalizer = float(_pnorm_rows(m_star, p))
    if not np.any(m_star):
        raise NumericalError("whitened mean has zero p-norm")
    if not 0.0 < normalizer < math.inf:
        raise _large_p_error(p)

    component_ginis = None
    if estimator == "exact":
        if p == 1.0:
            # the p = 1 distance splits into per-component mean absolute
            # differences, each O(n log n); no division by a component mean
            mad = [_mean_abs_difference(column, w) for column in y.T]
            mean_dist = 0.0
            for value in mad:
                mean_dist += value
            if np.all(m_star != 0.0):
                component_ginis = np.array(mad) / (2.0 * np.abs(m_star))
        elif sample.n > exact_cap:
            raise DataError(
                f"exact estimator capped at n={exact_cap} (sample has {sample.n}); "
                "use the pair-sampling estimator"
            )
        else:
            mean_dist = _exact_mean_distance(y, w, p, threads)
        pair_count = seed_used = std_error = None
    else:
        mean_dist, se = _pair_sample_mean_distance(y, w, p, int(pairs), int(seed))
        pair_count, seed_used, std_error = int(pairs), int(seed), se / (2.0 * normalizer)
    if not math.isfinite(mean_dist):
        raise _large_p_error(p)

    weights = np.abs(m_star) / np.abs(m_star).sum() if p == 1.0 else None
    return GiniResult(
        p=p,
        value=mean_dist / (2.0 * normalizer),
        normalizer=normalizer,
        method=method,
        estimator=estimator,
        weights=weights,
        component_ginis=component_ginis,
        pair_count=pair_count,
        seed=seed_used,
        std_error=std_error,
        worst_negative=worst_negative(y),
    )


def gini_1_decomposed(sample: WeightedSample, *, method: str = "zca_cor") -> GiniResult:
    """Exact G_1 with its decomposition into one-dimensional indices.

    Returns ``gini_p(sample, 1, method=method)``, whose ``value`` equals
    ``weights @ component_ginis``: the indices of the whitened components
    combined with weights |m*_i| / sum_j |m*_j|.  Unlike ``gini_p``, rejects
    a zero whitened component mean, whose one-dimensional index is undefined.
    """
    return _decomposed(gini_p(sample, 1.0, method=method))


def _decomposed(result: GiniResult) -> GiniResult:
    """An exact p = 1 result, once its decomposition is checked to be defined."""
    if result.component_ginis is None:
        zero_mean = np.flatnonzero(result.weights == 0.0)
        raise NumericalError(
            f"whitened component(s) {zero_mean.tolist()} have zero mean; "
            "their one-dimensional index is undefined"
        )
    return result


def gaussian_g1_closed_form(mean, cov) -> float:
    """Closed-form G_1 of a Gaussian distribution: d / (sqrt(pi) ||W mean||_1).

    Follows from the decomposition: each whitened component is Gaussian with
    unit variance, whose one-dimensional Gini is 1 / (sqrt(pi) |m*_i|), and
    the decomposition weights cancel the |m*_i| factors.  Requires a
    non-null mean and an SPD covariance.
    """
    m = MomentSummary.from_mean_cov(mean, cov)
    transform = fit_zca_cor(m)
    normalizer = float(np.abs(transform.matrix @ m.mean).sum())
    if normalizer == 0.0:
        raise NumericalError("non-null mean required")
    return m.dim / (math.sqrt(math.pi) * normalizer)
