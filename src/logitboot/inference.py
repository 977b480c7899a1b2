"""Bootstrap resampling, interval estimates, and odds-ratio reporting.

The bootstrap here is case resampling: replicate ``b`` redraws ``n`` row
indices with replacement and refits the model on the resampled rows.  The
index stream is a pure function of ``(master_seed, b)``, so any replicate
can be regenerated bit for bit on its own:

    rng = numpy.random.default_rng(numpy.random.SeedSequence((master_seed, b)))
    indices = rng.integers(0, n, size=n)

:func:`resample_indices` exposes exactly that recipe so external code can
regenerate any replicate's rows without rerunning the bootstrap.
:func:`bootstrap_fit` draws a whole stack's indices as one block, equal to
the recipe bit for bit: the seed words of every replicate come from one
vectorized pass of the ``SeedSequence`` hash, each PCG64 stream is read as
raw 64-bit words, and their 32-bit halves map to indices by Lemire's
multiply-shift, as ``integers`` maps them.  A replicate whose draws NumPy
would reject and redraw is drawn by the recipe itself.

Refits run through the stacked Newton kernel of :mod:`logitboot.model_core`
a chunk at a time: the rows of ``CHUNK_BYTES // (8 n p)`` resamples (at
least one) are gathered into one ``[chunk, n, p]`` design and fitted
together, and the jackknife's leave-one-out refits likewise.  A run of
refits allocates its row-index, design and response buffers and the
kernel's working array once, at the longest stack: every stack gathers
into their leading slices with ``np.take(..., out=...)``, and the kernel
iterates in them rather than in arrays of its own.  Each refit's
coefficients are bit-identical to :func:`~logitboot.model_core.fit_mle` on
its rows alone, so neither the chunk length nor a replicate's neighbours
change any result.

Replicates whose refit degenerates (single-class resample), separates, or
fails to converge are dropped and counted; intervals are computed from the
survivors.  Quantiles of the replicate distribution use linear
interpolation between order statistics: the level-``q`` quantile sits at
1-based position ``q * (R - 1) + 1`` of the sorted survivors, which is
``numpy.quantile``'s default rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    InsufficientReplicatesError,
    NotConvergedError,
    ResamplingInstabilityError,
    UnknownPredictorError,
)
from .model_core import (
    CONVERGED,
    EncodedDataset,
    FitConfig,
    FitResult,
    _fit_batch,
    _whole_number,
    _work,
    fit_mle,
)

# Refits are stacked this many bytes of gathered design at a time.  A
# 1000-replicate bootstrap plus the jackknife of a 400 x 4 study, by stack
# size (2-core x86 host, median of 9; traced peak of the bootstrap, which
# holds the run's buffers):
#
#   bytes     resamples per stack      study   traced peak
#             n = 400   n = 20 000
#   256 KiB      20         1          0.19 s   1.02 MiB
#   512 KiB      40         1          0.19 s   1.89 MiB
#   1 MiB        81         1          0.17 s   3.69 MiB
#   2 MiB       163         3          0.17 s   7.29 MiB
#
# A 20 000-row resample is 640 000 bytes, so up to 1 MiB such studies are
# refitted one resample at a time.  2 MiB was rejected: it gained nothing
# more and raised the boot-study benchmark's peak RSS to 54.4 MB, 21% over
# the 45.1 MB at 256 KiB (1 MiB, with the run's buffers: 46.3 MB).
CHUNK_BYTES = 1024 * 1024

MIN_PERCENTILE_REPLICATES = 100
MIN_BCA_REPLICATES = 1000

# Below this surviving fraction the resampling distribution is untrustworthy.
MIN_SURVIVING_FRACTION = 0.5


@cache
def _standard_normal():
    # statistics brings in decimal, fractions and random, a few ms per
    # process, so it is imported by the first Wald or BCa interval.
    from statistics import NormalDist

    return NormalDist()


@cache
def _pcg64_from_words():
    # numpy.random is imported by the first bootstrap, not with the package.
    from numpy.random import PCG64
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        # PCG64 asks its seed sequence for exactly four 64-bit words.
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return lambda words: PCG64(SeedWords(words))


@dataclass(frozen=True)
class BootstrapResult:
    """Coefficient replicates from a case-resampling bootstrap.

    ``replicates`` has one row per surviving replicate, in replicate-index
    order; ``replicate_ids`` holds the original replicate indices of those
    rows, so row ``i`` was produced by ``resample_indices(master_seed,
    replicate_ids[i], n)``.
    """

    replicates: np.ndarray
    replicate_ids: np.ndarray
    requested: int
    master_seed: int
    original_fit: FitResult

    def __post_init__(self):
        reps = np.array(self.replicates, dtype=float)
        ids = np.array(self.replicate_ids, dtype=np.int64)
        if reps.ndim != 2 or reps.shape[1] != self.original_fit.coefficients.size:
            raise DomainError("replicate matrix shape does not match the fit")
        if ids.shape != (reps.shape[0],):
            raise DomainError("one replicate id per replicate row required")
        if reps.shape[0] > self.requested:
            raise DomainError("more surviving replicates than requested")
        if not np.all(np.isfinite(reps)):
            raise DomainError("replicates contain non-finite coefficients")
        reps.setflags(write=False)
        ids.setflags(write=False)
        object.__setattr__(self, "replicates", reps)
        object.__setattr__(self, "replicate_ids", ids)

    @property
    def converged(self) -> int:
        """Number of surviving replicates."""
        return self.replicates.shape[0]

    @property
    def dropped(self) -> int:
        return self.requested - self.converged


@dataclass(frozen=True)
class IntervalEstimate:
    """One two-sided confidence interval for one coefficient.

    ``scale`` is ``"log_odds"`` for raw coefficients or ``"odds"`` after
    :func:`odds_scale`.  ``fallback`` is True only on a BCa interval whose
    bias correction was undefined and which therefore carries plain
    percentile bounds.
    """

    coefficient_index: int
    method: str
    level: float
    lower: float
    upper: float
    scale: str = "log_odds"
    fallback: bool = False

    def __post_init__(self):
        if not (0.0 < self.level < 1.0):
            raise DomainError("confidence level must lie strictly in (0, 1)")
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise DomainError("interval bounds must be finite")
        if self.lower > self.upper:
            raise DomainError("interval lower bound exceeds upper bound")


@dataclass(frozen=True)
class OddsEntry:
    """One coefficient on both scales: ``odds_ratio = exp(log_odds)``."""

    name: str
    log_odds: float
    odds_ratio: float


@dataclass(frozen=True)
class ScaledOddsEntry:
    """Odds multiplier for a ``delta``-unit change in one predictor.

    ``multiplier = exp(delta * coefficient)``: e.g. the odds factor for an
    age difference of 15 years under an Age coefficient.
    """

    name: str
    coefficient_index: int
    delta: float
    multiplier: float


@dataclass(frozen=True)
class OddsReport:
    entries: tuple[OddsEntry, ...]
    scaled: tuple[ScaledOddsEntry, ...] = ()


def _check_seed(master_seed, replicate) -> tuple[int, int]:
    seeds = _whole_number(master_seed, "master_seed"), _whole_number(replicate, "replicate")
    if min(seeds) < 0:
        raise DomainError("seeds and replicate indices must be non-negative")
    return seeds


def resample_indices(master_seed: int, replicate: int, n: int) -> np.ndarray:
    """Row indices drawn by bootstrap replicate ``replicate``.

    Deterministic function of its arguments: a PCG64 generator is seeded
    with ``SeedSequence((master_seed, replicate))`` and asked for ``n``
    integers uniform on ``[0, n)``.  :func:`bootstrap_fit` draws its
    replicates a stack at a time as one block, equal to this recipe bit for
    bit; a stack's replicates that the block cannot draw exactly are drawn
    here.  The seed, the replicate and ``n`` are whole numbers (``3.0`` is
    one, ``True`` is not), the seed of any size.
    """
    master_seed, replicate = _check_seed(master_seed, replicate)
    if (n := _whole_number(n, "n")) < 1:
        raise DomainError("need at least one row to resample")
    # The generator default_rng(SeedSequence(...)) returns, built directly.
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((master_seed, replicate)))
    )
    return rng.integers(0, n, size=n)


# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _hasher(constant: int, multiplier: int):
    """SeedSequence's ``hashmix`` on uint32 arrays; each call advances the
    hash constant, as NumPy's loop does."""

    def hashmix(value):
        nonlocal constant
        value = value ^ constant
        constant = constant * multiplier & 0xFFFFFFFF
        value *= constant
        value ^= value >> 16
        return value

    return hashmix


def _mix(x, y):
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    result ^= result >> 16
    return result


def _seed_words(seed: int, ids: np.ndarray) -> np.ndarray:
    """``SeedSequence((seed, b)).generate_state(4, np.uint64)`` for every
    ``b`` in ``ids`` (each below ``2**32``), one row each.

    NumPy's entropy mixing, run for all ids at once in wrapping uint32
    arithmetic.  The entropy words are ``seed``'s 32-bit limbs, least
    significant first (``[0]`` for 0), followed by ``b``.
    """
    limbs = [seed & 0xFFFFFFFF]
    while seed := seed >> 32:
        limbs.append(seed & 0xFFFFFFFF)
    entropy = np.empty((len(limbs) + 1, ids.size), dtype=np.uint32)
    entropy[:-1] = np.array(limbs, dtype=np.uint32)[:, None]
    entropy[-1] = ids
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    pool += [hashmix(np.zeros(ids.size, dtype=np.uint32))
             for _ in range(_POOL_SIZE - len(pool))]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # Entropy beyond the pool is hashed in after the pool's own mixing.
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state cycles the pool into eight 32-bit words, then pairs
    # them low word first into four 64-bit words.
    hashmix = _hasher(_INIT_B, _MULT_B)
    halves = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    return np.stack([low | high << 32 for low, high in zip(halves[::2], halves[1::2])],
                    axis=1)


def _resample_rows(
    master_seed: int, ids: np.ndarray, n: int
) -> Callable[[np.ndarray, np.ndarray], None]:
    """``fill_rows`` for :func:`_refit_all` that writes
    ``resample_indices(master_seed, ids[k], n)`` as the row of each ``k`` of
    a block, bit for bit.

    The seed words of every id are hashed once, up front.  Per stack, each
    replicate's PCG64 stream is read as ``(n + 1) // 2`` raw 64-bit words.
    NumPy's ``integers`` splits each word into two 32-bit draws, low half
    first, and maps a draw ``u`` to ``(u * n) >> 32`` (Lemire, ACM TOMACS
    29(1), 2019), which is done here for the whole stack in ``rows``' own
    memory.  ``integers`` rejects and redraws ``u`` when the low word of
    ``u * n`` is below ``(2**32 - n) % n``; a row with such a draw is filled
    by :func:`resample_indices` instead.
    """
    pcg64 = _pcg64_from_words()
    words = _seed_words(master_seed, ids)
    half = (n + 1) // 2
    threshold = (2**32 - n) % n
    low_word = 0 if np.little_endian else 1

    def fill_rows(block, rows):
        # rows is int64, so its own memory holds the 64-bit products.
        wide = rows.view(np.uint64)
        for seed, out in zip(words[block], wide):
            raw = pcg64(seed).random_raw(half)
            # As little-endian uint32, each raw word gives its low half first.
            out[:] = raw.astype("<u8", copy=False).view("<u4")[:n]
        wide *= n
        # The low words of the products decide NumPy's rejections.
        low = wide.view(np.uint32)[:, low_word::2].min(axis=1)
        wide >>= 32
        for k in np.flatnonzero(low < threshold).tolist():
            rows[k] = resample_indices(master_seed, int(ids[block[k]]), n)

    return fill_rows


def _refit_all(
    data: EncodedDataset,
    config: FitConfig | None,
    count: int,
    size: int,
    fill_rows: Callable[[np.ndarray, np.ndarray], None],
) -> tuple[list[int], np.ndarray]:
    """Refit on ``count`` row subsets of ``data``, numbered ``k < count``,
    each of ``size`` rows.

    ``fill_rows(block, rows)`` takes an array of consecutive ``k`` and
    writes their row indices into ``rows``, one row of the matrix per
    ``k``.  Refits run ``CHUNK_BYTES`` of gathered design at a time through
    the stacked kernel.  The index, design and response buffers and the
    kernel's working array are allocated once, at the longest stack, and
    every stack uses their leading slices.  Returns the ``k`` of the
    refits that converged, in order, and their coefficient rows; refits on
    a single-class subset, separated or singular ones and those out of
    iterations are left out.
    """
    n, width = data.design.shape
    chunk = min(count, max(1, CHUNK_BYTES // (8 * n * width)))
    rows = np.empty((chunk, size), dtype=np.int64)
    designs = np.empty((chunk, size, width))
    responses = np.empty((chunk, size))
    work = _work(chunk, size, width)
    ids, kept = [], []
    for lo in range(0, count, chunk):
        block = np.arange(lo, min(lo + chunk, count))
        stack = block.size
        fill_rows(block, rows[:stack])
        # Every index is in range, and mode="raise" would gather through a
        # temporary copy of the output.
        np.take(data.design, rows[:stack], axis=0, out=designs[:stack], mode="clip")
        np.take(data.response, rows[:stack], out=responses[:stack], mode="clip")
        batch = _fit_batch(designs[:stack], responses[:stack], config, work)
        ok = batch.status == CONVERGED
        ids.extend(block[ok].tolist())
        kept.append(batch.coefficients[ok])
    return ids, np.concatenate(kept)


def _check_bootstrap_args(replicates, master_seed, workers) -> tuple[int, int]:
    # The rules that need no data; master_seed's sign waits for the full fit.
    replicates = _whole_number(replicates, "replicates")
    if replicates < 1:
        raise DomainError("replicates must be at least 1")
    if replicates > 2**32:  # the block drawer numbers replicates in uint32
        raise DomainError("replicates must be at most 2**32")
    master_seed = _whole_number(master_seed, "master_seed")
    if _whole_number(workers, "workers") < 1:
        raise DomainError("workers must be at least 1")
    return replicates, master_seed


def bootstrap_fit(
    data: EncodedDataset,
    config: FitConfig | None = None,
    replicates: int = 10_000,
    master_seed: int = 0,
    workers: int = 1,
) -> BootstrapResult:
    """Case-resampling bootstrap of the maximum-likelihood fit.

    Fits the full dataset first (propagating any failure, and refusing a fit
    that did not converge), then refits each of ``replicates`` resamples.
    Replicates that degenerate, separate, or fail to converge are dropped
    and counted via ``result.dropped``.  They run serially, in chunks of
    consecutive replicate ids through the stacked kernel.  ``workers`` must
    be at least 1 but has no effect on scheduling or results.
    ``replicates``, ``master_seed`` and ``workers`` are whole numbers
    (``3.0`` is one, ``True`` is not), ``master_seed`` of any size.

    Raises
    ------
    In this order, each before the next step runs:
    1. ``DomainError`` if an argument is not a whole number,
       ``replicates`` is outside ``1 .. 2**32`` or ``workers`` is below 1;
    2. the full fit's own errors, such as ``DegenerateResponseError``;
    3. ``DomainError`` if ``master_seed`` is negative;
    4. ``NotConvergedError`` if the full fit did not converge;
    5. ``ResamplingInstabilityError`` after the refits, if fewer than half
       of the requested replicates survive.
    """
    replicates, master_seed = _check_bootstrap_args(replicates, master_seed, workers)
    original = fit_mle(data, config)
    _check_seed(master_seed, 0)
    if not original.converged:
        raise NotConvergedError("full-sample fit did not converge")
    n = data.n_observations
    fill_rows = _resample_rows(master_seed, np.arange(replicates), n)
    ids, kept = _refit_all(data, config, replicates, n, fill_rows)
    if len(ids) < MIN_SURVIVING_FRACTION * replicates:
        raise ResamplingInstabilityError(
            f"only {len(ids)} of {replicates} bootstrap replicates converged"
        )
    return BootstrapResult(
        replicates=kept,
        replicate_ids=np.array(ids, dtype=np.int64),
        requested=replicates,
        master_seed=master_seed,
        original_fit=original,
    )


def _check_level(level: float) -> None:
    # Within an ulp of 1 a level's tail probabilities round to 0 and 1,
    # where the normal quantile is infinite.
    lower, upper = (1.0 - level) / 2.0, (1.0 + level) / 2.0
    if not (0.0 < level < 1.0 and 0.0 < lower and upper < 1.0):
        raise DomainError(
            "confidence level must lie strictly in (0, 1), with tail "
            "probabilities (1 - level) / 2 and (1 + level) / 2 inside (0, 1)"
        )


def wald_ci(fit: FitResult, level: float = 0.95) -> list[IntervalEstimate]:
    """Normal-theory intervals ``theta_j +/- z * se_j`` for every coefficient.

    ``z`` is the standard-normal quantile at ``(1 + level) / 2``.

    Raises
    ------
    NotConvergedError
        If the fit did not converge.
    """
    _check_level(level)
    if not fit.converged:
        raise NotConvergedError("Wald intervals require a converged fit")
    z = _standard_normal().inv_cdf((1.0 + level) / 2.0)
    out = []
    for j, (theta, se) in enumerate(zip(fit.coefficients, fit.standard_errors)):
        out.append(
            IntervalEstimate(
                coefficient_index=j,
                method="wald",
                level=level,
                lower=float(theta - z * se),
                upper=float(theta + z * se),
            )
        )
    return out


def _check_survivors(survivors: int, minimum: int, method: str) -> None:
    if survivors < minimum:
        raise InsufficientReplicatesError(
            f"{method} interval needs at least {minimum} surviving replicates, "
            f"have {survivors}"
        )


def _check_index(coefficient_index: int, width: int) -> int:
    index = _whole_number(coefficient_index, "coefficient_index")
    if not 0 <= index < width:
        raise DomainError(
            f"coefficient_index must lie in 0..{width - 1}, got {coefficient_index}"
        )
    return index


def percentile_ci(
    result: BootstrapResult, coefficient_index: int, level: float = 0.95
) -> IntervalEstimate:
    """Equal-tailed percentile interval from the replicate distribution.

    Bounds are the ``(1 - level) / 2`` and ``(1 + level) / 2`` quantiles of
    the surviving replicates, linearly interpolated between order
    statistics (see the module docstring for the exact rule).

    Raises
    ------
    InsufficientReplicatesError
        With fewer than 100 surviving replicates.
    DomainError
        If ``coefficient_index`` is not in ``0 .. p - 1``.
    """
    _check_level(level)
    _check_survivors(result.converged, MIN_PERCENTILE_REPLICATES, "percentile")
    coefficient_index = _check_index(coefficient_index, result.replicates.shape[1])
    column = result.replicates[:, coefficient_index]
    alpha = (1.0 - level) / 2.0
    lower, upper = np.quantile(column, [alpha, 1.0 - alpha])
    return IntervalEstimate(
        coefficient_index=coefficient_index,
        method="percentile",
        level=level,
        lower=float(lower),
        upper=float(upper),
    )


def jackknife_estimates(
    data: EncodedDataset, config: FitConfig | None = None
) -> np.ndarray:
    """Leave-one-out coefficient estimates, one row per deleted observation.

    Rows whose refit fails or does not converge are omitted.
    """
    n = data.n_observations
    keep = np.arange(n - 1)

    def fill_rows(block, rows):
        # Leaving out row i keeps the indices below i and shifts the rest
        # up one.
        np.greater_equal(keep, block[:, None], out=rows)
        rows += keep

    _, kept = _refit_all(data, config, n, n - 1, fill_rows)
    if len(kept) < 2:
        raise InsufficientReplicatesError(
            "fewer than two leave-one-out refits succeeded"
        )
    return kept


def acceleration_from_jackknife(values: np.ndarray) -> float:
    """Skewness-based acceleration from leave-one-out estimates of one
    coefficient:

        a = sum(d_i^3) / (6 * (sum(d_i^2))^1.5),   d_i = mean(values) - values_i

    Zero spread yields ``a = 0``.
    """
    values = np.asarray(values, dtype=float)
    d = values.mean() - values
    denom = 6.0 * np.sum(d * d) ** 1.5
    if denom == 0.0:
        return 0.0
    return float(np.sum(d**3) / denom)


def jackknife_acceleration(
    data: EncodedDataset, config: FitConfig | None, coefficient_index: int
) -> float:
    """Acceleration constant for one coefficient via leave-one-out refits.

    Raises
    ------
    DomainError
        If ``coefficient_index`` is not in ``0 .. p - 1``, before any refit.
    """
    coefficient_index = _check_index(coefficient_index, data.n_parameters)
    estimates = jackknife_estimates(data, config)
    return acceleration_from_jackknife(estimates[:, coefficient_index])


def bca_ci(
    result: BootstrapResult,
    data: EncodedDataset,
    config: FitConfig | None,
    coefficient_index: int,
    level: float = 0.95,
    bias_correction: float | None = None,
    acceleration: float | None = None,
) -> IntervalEstimate:
    """Bias-corrected and accelerated interval for one coefficient.

    The bias correction is ``z0 = ppf(F)`` where ``F`` is the fraction of
    surviving replicates strictly below the original estimate; the
    acceleration ``a`` comes from leave-one-out refits.  Replicate
    quantiles are then read at the adjusted tail probabilities

        alpha_1 = cdf(z0 + (z0 + z_lo) / (1 - a * (z0 + z_lo)))
        alpha_2 = cdf(z0 + (z0 + z_hi) / (1 - a * (z0 + z_hi)))

    with ``z_lo, z_hi`` the standard-normal quantiles of the unadjusted
    tails.  When ``z0 = 0`` and ``a = 0`` the adjustment vanishes and the
    interval equals :func:`percentile_ci` exactly.  If every replicate
    falls on one side of the original estimate the correction is undefined;
    the interval then carries percentile bounds and ``fallback=True``.  The
    acceleration, and with ``acceleration=None`` the jackknife, is computed
    only when the bias correction is defined.

    ``bias_correction`` and ``acceleration`` override the estimated values
    when given (useful for sensitivity checks).  With ``acceleration=None``
    every call reruns all ``n`` leave-one-out refits; :func:`bca_intervals`
    gives the intervals of all ``p`` coefficients from one jackknife.

    Raises
    ------
    InsufficientReplicatesError
        With fewer than 1000 surviving replicates.
    DomainError
        If ``coefficient_index`` is not in ``0 .. p - 1``.
    """
    _check_level(level)
    _check_survivors(result.converged, MIN_BCA_REPLICATES, "BCa")
    coefficient_index = _check_index(coefficient_index, result.replicates.shape[1])
    column = result.replicates[:, coefficient_index]
    alpha = (1.0 - level) / 2.0
    tails = [alpha, 1.0 - alpha]
    fallback = False
    if bias_correction is None:
        below = np.count_nonzero(
            column < result.original_fit.coefficients[coefficient_index]
        )
        fraction = below / column.size
        # All replicates on one side: z0 is undefined; keep the plain tails.
        fallback = fraction in (0.0, 1.0)
        z0 = None if fallback else _standard_normal().inv_cdf(fraction)
    else:
        z0 = float(bias_correction)
    if not fallback:
        if acceleration is None:
            a = jackknife_acceleration(data, config, coefficient_index)
        else:
            a = float(acceleration)
        # When z0 = a = 0 the adjustment is the identity; the plain tails
        # are kept so the degenerate case matches percentile_ci bit for bit.
        if z0 != 0.0 or a != 0.0:
            z = np.array([_standard_normal().inv_cdf(p) for p in tails])
            adjusted = z0 + (z0 + z) / (1.0 - a * (z0 + z))
            tails = [_standard_normal().cdf(float(v)) for v in adjusted]
    lower, upper = np.quantile(column, tails)
    return IntervalEstimate(
        coefficient_index=coefficient_index,
        method="bca",
        level=level,
        lower=float(lower),
        upper=float(upper),
        fallback=fallback,
    )


def bca_intervals(
    result: BootstrapResult,
    data: EncodedDataset,
    config: FitConfig | None = None,
    level: float = 0.95,
) -> list[IntervalEstimate]:
    """:func:`bca_ci` for every coefficient, in coefficient order, from one
    jackknife.

    The level and the 1000-survivor minimum are checked first, so a request
    bound to fail runs no refit.  Then :func:`jackknife_estimates` runs
    once, even if every interval falls back to percentile bounds, and each
    coefficient's acceleration comes from its leave-one-out column.  Each
    interval equals ``bca_ci(result, data, config, j, level,
    acceleration=acceleration_from_jackknife(loo[:, j]))`` bit for bit.

    Raises
    ------
    DomainError
        If the level's tail probabilities are not inside (0, 1).
    InsufficientReplicatesError
        With fewer than 1000 surviving replicates, or fewer than two
        leave-one-out refits that converge.
    """
    _check_level(level)
    _check_survivors(result.converged, MIN_BCA_REPLICATES, "BCa")
    loo = jackknife_estimates(data, config)
    return [
        bca_ci(result, data, config, j, level,
               acceleration=acceleration_from_jackknife(loo[:, j]))
        for j in range(loo.shape[1])
    ]


def odds_scale(interval: IntervalEstimate) -> IntervalEstimate:
    """Map a log-odds interval to the odds scale by exponentiating bounds."""
    if interval.scale != "log_odds":
        raise DomainError("interval is already on the odds scale")
    return IntervalEstimate(
        coefficient_index=interval.coefficient_index,
        method=interval.method,
        level=interval.level,
        lower=float(np.exp(interval.lower)),
        upper=float(np.exp(interval.upper)),
        scale="odds",
        fallback=interval.fallback,
    )


def odds_report(
    fit: FitResult, scaled: tuple[tuple[str, float], ...] = ()
) -> OddsReport:
    """Per-coefficient odds ratios, plus optional scaled multipliers.

    Each ``(name, delta)`` pair in ``scaled`` adds the odds factor
    ``exp(delta * theta_name)`` for a ``delta``-unit change in that
    predictor.

    Raises
    ------
    NotConvergedError
        If the fit did not converge.
    """
    if not fit.converged:
        raise NotConvergedError("odds report requires a converged fit")
    entries = tuple(
        OddsEntry(name=name, log_odds=float(theta), odds_ratio=float(np.exp(theta)))
        for name, theta in zip(fit.column_names, fit.coefficients)
    )
    extras = []
    for name, delta in scaled:
        try:
            j = fit.column_names.index(name)
        except ValueError:
            raise UnknownPredictorError(f"model has no predictor named {name!r}")
        extras.append(
            ScaledOddsEntry(
                name=name,
                coefficient_index=j,
                delta=float(delta),
                multiplier=float(np.exp(delta * fit.coefficients[j])),
            )
        )
    return OddsReport(entries=entries, scaled=tuple(extras))
