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
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError, _check_choice, _check_integers, _choice_list
from .sample import (
    MomentSummary,
    WeightedSample,
    _checked_points_and_weights,
    _equal_weights,
    _exact_column_sums,
    _floats,
    moments,
)
from .whitening import METHODS, SCALE_STABLE_METHODS, WhiteningTransform, fit_whitening

# Size cap (n support points) of the exact double sum used for p != 1; above
# this, pair sampling is the intended route.  ~2e8 pair evaluations per
# component at the cap.  Exact p = 1 sorts instead and is not capped.
DEFAULT_EXACT_CAP = 20_000

# The estimators of ``gini_p``: the exact sum, or seeded pair sampling.
ESTIMATORS = ("exact", "pairs")

# Fixed evaluation chunk sizes.  These are constants (never derived from the
# thread count), so chunk boundaries, and with them the printed bits, depend
# only on n (for the double sum) or on the pair count (for the sampler).
_EXACT_CHUNK_ELEMENTS = 1 << 18
_PAIR_CHUNK = 1 << 18

# At a large finite p, |x|^p overflows to inf (and inf times a zero weight is
# nan) under this numpy error state, without a warning; ``gini_p`` turns a
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
    ``transform`` is the fitted whitening, whose ``fitted_moments`` are the
    sample's moments; it is not part of ``to_dict``.
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
    transform: WhiteningTransform | None = field(default=None, repr=False, compare=False)

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
    try:
        if isinstance(p, (bool, np.bool_)):  # float(True) is 1.0, but a flag is no order
            raise TypeError
        p = float(p)
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"p must be a number, got {p!r}") from None
    if math.isnan(p) or p < 1.0:
        raise DataError(f"p must be >= 1 (or inf), got {p}")
    return p


def gini_1d(values, weights=None) -> float:
    """One-dimensional Gini index of a weighted value set.

    Returns sum_{a,b} w_a w_b |x_a - x_b| / (2 |mean|), the with-replacement
    mean absolute difference over twice the absolute mean.  The flattened
    values and the weights are checked as :class:`WeightedSample` checks
    its input, with the same :class:`DataError` messages, but not copied.
    The mean is the exactly rounded sum of the products w_a x_a, as in
    :func:`moments`, so it depends neither on the order of the (value,
    weight) pairs nor on the BLAS thread count.  Computed by one sort and
    one exactly rounded sum, O(n log n); ties contribute zero in any order.

    Raises :class:`NumericalError` if the weighted mean is zero.
    """
    x, w = _checked_points_and_weights(_floats(values, "points").ravel(), weights)
    mean = float(_exact_column_sums(x * w[:, None])[0])
    if mean == 0.0:
        raise NumericalError("undefined inequality for zero-mean component")
    # halving is exact, and 2 |mean| overflows for a mean near the largest float
    return float(_mean_abs_differences(x, w)[0]) / 2.0 / abs(mean)


def _mean_abs_differences(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_{a,b} w_a w_b |y_ak - y_bk| for each column k, for weights summing to one.

    Sorted ascending, a column v has this sum 2 sum_i c_i (v_(i) - med),
    with c_i = w_(i) (2 W_(<i) + w_(i) - W), the pairs below a point minus
    those above it, and med the value where c_i turns non-negative, so no
    product is negative; :func:`_exact_column_sums` rounds each column once.
    Equal weights (:func:`_equal_weights`) sort by ``np.sort`` and take the
    exact integers 2i + 1 - n, the sum divided by n^2 (exact below 2^26.5
    rows), and give the same bits in any row order.  Other weights sort the
    (value, weight) pairs as complex numbers, ties by weight, so likewise;
    W_(<i) is a cumulative sum corrected by the two-sum error of each addition.
    """
    n, k = y.shape
    if _equal_weights(w):
        ys = np.sort(y, axis=0)
        coef = np.arange(1 - n, n, 2, dtype=float)[:, None]
        divisor = float(n * n)
    else:
        pairs = np.empty((n, k), dtype=complex)
        pairs.real, pairs.imag = y, w[:, None]  # y + 1j * w would turn -0.0 into +0.0
        pairs = np.sort(pairs, axis=0)
        ys, ws = pairs.real, pairs.imag
        cum = np.cumsum(ws, axis=0)
        below = np.vstack((np.zeros((1, k)), cum[:-1]))
        step = cum - below
        lost = np.cumsum((below - (cum - step)) + (ws - step), axis=0)  # W_(<=i) - cum
        coef = ws * ((2.0 * cum - cum[-1]) + (2.0 * lost - lost[-1] - ws))
        divisor = 1.0
    # 2^-e keeps span * divisor, so every product and sum, below 2^1022 (the
    # halved span is finite); exact but for subnormals, negligible beside it
    e = np.maximum(np.frexp(ys[-1] * 0.5 - ys[0] * 0.5)[1] + math.frexp(divisor)[1] - 1021, 0)
    ys = np.ldexp(ys, -e) if np.any(e) else ys
    med = ys[np.argmax(coef >= 0.0, axis=0), np.arange(k)]
    return np.ldexp(2.0 * _exact_column_sums((ys - med) * coef) / divisor, e)


def _whitened_mean_norm(m_star: np.ndarray, p: float) -> float:
    """||m*||_p, or the large-p NumericalError when it is 0 or inf for a nonzero m*.

    The p-norm of the whitened mean m* = W m, the index's normalizer, by
    :func:`_pnorm_of_differences` over the pairs (m*_k, 0), so it is rounded
    like every pair distance.  For p = 2 it is sqrt(m^T S^{-1} m) whichever
    whitening W is used; for other p it depends on W, which is why the scale
    stable transforms are the meaningful choices.
    """
    with np.errstate(**_LARGE_P_QUIET):
        norm = float(_pnorm_of_differences(
            ((a, 0.0) for a in m_star[:, None]), p, np.empty(1), np.empty(1)
        )[0])
    if np.any(m_star) and not 0.0 < norm < math.inf:
        raise _large_p_error(p)
    return norm


def _whitened(
    sample: WeightedSample, method: str
) -> tuple[WhiteningTransform, np.ndarray, np.ndarray]:
    """The transform fitted on the sample's moments, the whitened points y and mean m*."""
    m = moments(sample)
    transform = fit_whitening(method, m)
    return transform, transform.apply(sample), transform.matrix @ m.mean


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


def usable_cpu_count() -> int:
    """How many CPUs this process may run on: its affinity mask, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _exact_mean_distance(y: np.ndarray, w: np.ndarray, p: float, threads: int) -> float:
    """sum_{a,b} w_a w_b ||y_a - y_b||_p, chunked with a fixed reduction order.

    Each row chunk a in [i0, i1) is paired only with columns b >= i0: the
    diagonal block in full, and the block to its right twice (the sum is
    symmetric).  Distances come from :func:`_pnorm_of_differences` on 2-D
    blocks.  Chunk boundaries depend only on n, and partial sums are reduced
    in chunk order, so the result is identical for any thread count.  The
    caller and up to ``threads - 1`` helper threads, no more in all than
    there are chunks or :func:`usable_cpu_count`, take chunks from one shared
    iterator.  A thread whose chunk raises empties that iterator, so the
    others stop after their current chunk, and the exception is raised here.
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

    partials = [0.0] * len(chunks)
    todo = enumerate(chunks)  # shared by all threads; its next() is atomic under the GIL
    errors = []

    def work() -> None:
        try:
            for i, sl in todo:
                partials[i] = part(sl)
        except Exception as exc:
            errors.append(exc)
            for _ in todo:  # the other threads stop after their current chunk
                pass

    workers = min(threads, len(chunks), usable_cpu_count())
    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    total = 0.0
    for value in partials:
        total += value
    return total


def _equal_weight_indices(u: np.ndarray, n: int) -> np.ndarray:
    """Indices floor(u n) of n equally weighted points at uniform draws u in [0, 1).

    Inverts the uniform CDF directly (Devroye 1986, ch. III).  No index
    reaches n: u <= 1 - 2^-53, and n (1 - 2^-53) rounds below n.
    """
    return (u * n).astype(np.intp)


def _pair_sample_mean_distance(
    y: np.ndarray, w: np.ndarray, p: float, pairs: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo mean of ||y_a - y_b||_p over weighted pairs, with its SE.

    One seeded generator produces the pair indices as a single deterministic
    sequence, consumed in fixed-size chunks and reduced in order, so the
    estimate is bit-reproducible for a given seed.  Indices come from
    inverting the weight CDF at uniform draws: by binary search on the
    cumulative weights, or for equal weights directly by
    :func:`_equal_weight_indices`.  Each chunk gathers one whitened column at a
    time and hands the differences to :func:`_pnorm_of_differences`, the
    exact double sum's per-pair arithmetic.
    """
    rng = np.random.default_rng(seed)
    cdf = None
    if not _equal_weights(w):
        cdf = np.cumsum(w)
        cdf[-1] = 1.0
    columns = np.ascontiguousarray(y.T)
    acc = np.empty(min(_PAIR_CHUNK, pairs))
    term = np.empty_like(acc)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < pairs:
        count = min(_PAIR_CHUNK, pairs - done)
        u = rng.random((2, count))
        if cdf is None:
            ia, ib = _equal_weight_indices(u, w.size)
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
    threads: int | None = None,
) -> GiniResult:
    """Multivariate Gini-type index of order p.

    Whitens the sample with the requested scale stable transform, one of
    ``SCALE_STABLE_METHODS``: ``zca_cor`` (the default) or ``cholesky``,
    fitted on the sample's own moments and returned in ``transform``.  Then
    evaluates the expected whitened pair distance over twice the
    whitened-mean p-norm.  ``zca`` and ``pca`` are not scale stable, so the
    index refuses them; they remain for :func:`fit_whitening`, the
    ``whiten`` command and :func:`scale_stability_check`.

    estimator="exact" is exact up to roundoff.  For p = 1 it sums the
    per-component mean absolute differences, each by one sort and one
    exactly rounded sum: O(n log n), uncapped, single threaded; each over
    2|m*_i| is that component's index in ``component_ginis``, unless some
    m*_i is zero.  For p != 1 it evaluates the double sum over support
    pairs, O(n^2 d), which requires n <= exact_cap and is the only step
    ``threads`` parallelizes: on that many threads, the caller included, but
    no more than :func:`usable_cpu_count`, the number the default None means.
    The value depends on neither, and a chunk that raises stops every
    thread after its current chunk.
    estimator="pairs" draws ``pairs`` independent index pairs from the
    weight distribution with a fixed seed and reports a standard error
    alongside the estimate.  The indices invert the weight CDF at one seeded
    uniform stream, directly as floor(u n) for equal weights.  Both
    estimators, and the normalizer, compute a p-norm one whitened component
    at a time, in component order.

    Arguments are checked before any moment or fit, so a bad ``p``,
    ``method`` (unknown, or not scale stable), ``estimator`` (not in
    ``ESTIMATORS``), a count that is not an integer or is below its minimum
    (``threads`` and ``pairs`` 1, ``exact_cap`` and ``seed`` 0), or a
    sample above ``exact_cap`` for the exact estimator at p != 1, is a
    :class:`DataError` even on a singular sample.
    Raises :class:`NumericalError` when the whitened mean is zero, or when p
    is so large that |x|^p over- or underflows (the normalizer is zero or
    infinite for a nonzero whitened mean, or the distance sum is not finite).
    """
    p = _validate_p(p)
    _check_choice(method, METHODS, "whitening method")
    if method not in SCALE_STABLE_METHODS:
        raise DataError(
            f"{method} whitening is not scale stable; the index takes "
            f"{_choice_list(map(repr, SCALE_STABLE_METHODS))}"
        )
    threads = usable_cpu_count() if threads is None else threads
    _check_integers(threads=(threads, 1), exact_cap=(exact_cap, 0), pairs=(pairs, 1),
                    seed=(seed, 0))
    _check_choice(estimator, ESTIMATORS, "estimator")
    if estimator == "exact" and p != 1.0 and sample.n > exact_cap:
        raise DataError(
            f"exact estimator capped at n={exact_cap} (sample has {sample.n}); "
            "use the pair-sampling estimator"
        )

    transform, y, m_star = _whitened(sample, method)
    w = sample.weights
    if not np.any(m_star):
        raise NumericalError("whitened mean has zero p-norm")
    normalizer = _whitened_mean_norm(m_star, p)

    component_ginis = None
    if estimator == "exact":
        if p == 1.0:
            # the p = 1 distance splits into per-component mean absolute
            # differences, O(n log n); no division by a component mean
            mad = _mean_abs_differences(y, w)
            mean_dist = math.fsum(mad)
            if np.all(m_star != 0.0):
                component_ginis = mad / (2.0 * np.abs(m_star))
        else:
            mean_dist = _exact_mean_distance(y, w, p, threads)
        pair_count = seed_used = std_error = None
    else:
        mean_dist, se = _pair_sample_mean_distance(y, w, p, int(pairs), int(seed))
        pair_count, seed_used, std_error = int(pairs), int(seed), se / (2.0 * normalizer)
    if not math.isfinite(mean_dist):
        raise _large_p_error(p)

    weights = np.abs(m_star) / normalizer if p == 1.0 else None
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
        transform=transform,
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
    if worst < -NEGATIVITY_RTOL * max(1.0, float(whitened.max()), -worst):
        return worst
    return None


def _large_p_error(p: float) -> NumericalError:
    """The error for a finite p so large that |x|^p over- or underflows."""
    return NumericalError(
        f"p = {p:g} is too large: |x|^p overflows or underflows in floating point; "
        "use p = inf (--p inf) for the max norm"
    )


def gini_1_decomposed(sample: WeightedSample, *, method: str = "zca_cor") -> GiniResult:
    """Exact G_1 with its decomposition: the result of ``gini_p(sample, 1.0, method=method)``.

    Its ``weights`` are |m*_i| / sum_j |m*_j|, and its ``value`` equals
    ``weights @ component_ginis``, the indices of the whitened components,
    unless some m*_i is zero: that component's index is undefined, so
    ``component_ginis`` is None, while the value still is defined.
    """
    return gini_p(sample, 1.0, method=method)


def gaussian_g1_closed_form(mean, cov) -> float:
    """Closed-form G_1 of a Gaussian distribution: d / (sqrt(pi) ||W mean||_1).

    Follows from the decomposition: each whitened component is Gaussian with
    unit variance, whose one-dimensional Gini is 1 / (sqrt(pi) |m*_i|), and
    the decomposition weights cancel the |m*_i| factors.  Requires a
    non-null mean and an SPD covariance.
    """
    m = MomentSummary.from_mean_cov(mean, cov)
    normalizer = _whitened_mean_norm(fit_whitening("zca_cor", m).matrix @ m.mean, 1.0)
    if normalizer == 0.0:
        raise NumericalError("non-null mean required")
    return m.dim / (math.sqrt(math.pi) * normalizer)
