"""Split-sample refits, holdout validation, and probability curves.

Splits are prefix subsets in dataset row order: size ``m`` means the first
``m`` rows.  That keeps the protocol deterministic for data whose row order
is meaningful; pass ``shuffle_seed`` to permute rows reproducibly first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateResponseError,
    DimensionMismatchError,
    DomainError,
    NotConvergedError,
    SeparationError,
    UnknownPredictorError,
)
from .model_core import (
    EncodedDataset,
    FitConfig,
    FitResult,
    _sigmoid,
    fit_mle,
)


@dataclass(frozen=True)
class SplitFit:
    """Outcome of refitting one prefix subset: a fit or an error string."""

    size: int
    fit: FitResult | None
    error: str | None


@dataclass(frozen=True)
class SplitSampleReport:
    entries: tuple[SplitFit, ...]


@dataclass(frozen=True)
class ValidationReport:
    """Confusion counts of thresholded predictions on a holdout subset.

    A predicted probability of exactly ``threshold`` classifies as 1.
    """

    train_indices: np.ndarray
    test_indices: np.ndarray
    threshold: float
    true_positive: int
    false_positive: int
    true_negative: int
    false_negative: int

    def __post_init__(self):
        counts = (
            self.true_positive,
            self.false_positive,
            self.true_negative,
            self.false_negative,
        )
        if any(c < 0 for c in counts):
            raise DomainError("confusion counts must be non-negative")
        if sum(counts) != len(self.test_indices):
            raise DomainError("confusion counts must sum to the test-set size")
        for name in ("train_indices", "test_indices"):
            arr = _whole_numbers(getattr(self, name), name)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def accuracy(self) -> float:
        return (self.true_positive + self.true_negative) / len(self.test_indices)


@dataclass(frozen=True)
class GroupProfile:
    """A named covariate profile swept over an age grid.

    ``covariates`` fixes every non-age predictor; ``age_grid`` must be
    strictly increasing.
    """

    name: str
    covariates: Mapping[str, float]
    age_grid: np.ndarray

    def __post_init__(self):
        grid = np.array(self.age_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise DomainError("age grid must be a non-empty 1-d array")
        if not np.all(np.isfinite(grid)) or not np.all(np.diff(grid) > 0):
            raise DomainError("age grid must be finite and strictly increasing")
        grid.setflags(write=False)
        object.__setattr__(self, "age_grid", grid)
        object.__setattr__(self, "covariates", dict(self.covariates))


@dataclass(frozen=True)
class CurvePoint:
    profile: str
    age: float
    probability: float


def _whole_numbers(values, what: str) -> np.ndarray:
    # A cast alone would read booleans as rows 0 and 1 and truncate 1.9.
    given = np.asarray(values)
    with np.errstate(invalid="ignore"):
        whole = given.astype(np.int64)
    if given.dtype == bool or not np.array_equal(whole, given):
        raise DomainError(f"{what} must be whole numbers, not booleans or fractions")
    return whole


def split_sample_fit(
    data: EncodedDataset,
    sizes: Sequence[int],
    config: FitConfig | None = None,
    shuffle_seed: int | None = None,
) -> SplitSampleReport:
    """Refit the model on nested prefix subsets of the data.

    ``sizes`` must be whole numbers (``3.0`` is one, ``True`` is not),
    strictly increasing and at most the dataset size, and
    ``shuffle_seed``, when given, non-negative.  A subset whose refit
    fails (single-class response, separation, or non-convergence)
    contributes an error string instead of a fit; the remaining sizes are
    still fitted.
    """
    sizes = _whole_numbers(sizes, "split sizes").tolist()
    if not sizes:
        raise DomainError("at least one split size is required")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise DomainError("split sizes must be strictly increasing")
    if sizes[0] < 1 or sizes[-1] > data.n_observations:
        raise DomainError(
            f"split sizes must lie in [1, {data.n_observations}]"
        )
    if shuffle_seed is not None and shuffle_seed < 0:
        raise DomainError("shuffle seed must be non-negative")
    design = data.design
    response = data.response
    if shuffle_seed is not None:
        order = np.random.default_rng(
            np.random.SeedSequence(shuffle_seed)
        ).permutation(data.n_observations)
        design = design[order]
        response = response[order]

    entries = []
    for size in sizes:
        try:
            sub = EncodedDataset(design[:size], response[:size], data.column_names)
            fit = fit_mle(sub, config)
            if not fit.converged:
                raise NotConvergedError(
                    "fit did not converge within the iteration budget"
                )
            entries.append(SplitFit(size=size, fit=fit, error=None))
        except (
            DegenerateResponseError,
            SeparationError,
            NotConvergedError,
            DomainError,
        ) as exc:
            entries.append(SplitFit(size=size, fit=None, error=str(exc)))
    return SplitSampleReport(entries=tuple(entries))


def holdout_validate(
    data: EncodedDataset,
    fit: FitResult,
    test_indices: Sequence[int],
    threshold: float = 0.5,
) -> ValidationReport:
    """Score thresholded predictions of ``fit`` on the rows ``test_indices``.

    Prediction is 1 exactly when the fitted probability is at least
    ``threshold``.  ``test_indices`` must be distinct whole numbers, as
    for :func:`split_sample_fit`.  ``train_indices`` in the report is the
    sorted complement of the test set.
    """
    if not (0.0 < threshold < 1.0):
        raise DomainError("threshold must lie strictly in (0, 1)")
    if fit.coefficients.size != data.n_parameters:
        raise DimensionMismatchError("fit and dataset have different widths")
    idx = _whole_numbers(test_indices, "test indices")
    if idx.size == 0:
        raise DomainError("test set must be non-empty")
    ordered = np.sort(idx, axis=None)
    if (ordered[1:] == ordered[:-1]).any():
        raise DomainError("test indices must be distinct")
    if ordered[0] < 0 or ordered[-1] >= data.n_observations:
        raise DomainError("test indices out of range")

    predicted = _sigmoid(data.design[idx] @ fit.coefficients) >= threshold
    actual = data.response[idx] == 1.0
    tp = int(np.count_nonzero(predicted & actual))
    fp = int(np.count_nonzero(predicted & ~actual))
    tn = int(np.count_nonzero(~predicted & ~actual))
    fn = int(np.count_nonzero(~predicted & actual))
    train = np.ones(data.n_observations, dtype=bool)
    train[idx] = False
    return ValidationReport(
        train_indices=np.flatnonzero(train),
        test_indices=idx,
        threshold=threshold,
        true_positive=tp,
        false_positive=fp,
        true_negative=tn,
        false_negative=fn,
    )


def default_age_grid() -> np.ndarray:
    """Ages 0 through 120 in steps of 10 (13 points)."""
    return np.arange(0.0, 121.0, 10.0)


def standard_profiles(age_grid: np.ndarray | None = None) -> list[GroupProfile]:
    """The four gender-by-employment profiles over an age grid.

    ``Gender`` 0 is male, 1 female; ``Emp`` 0 is employed, 1 unemployed.
    """
    grid = default_age_grid() if age_grid is None else age_grid
    combos = [
        ("male-emp", 0.0, 0.0),
        ("male-unemp", 0.0, 1.0),
        ("female-emp", 1.0, 0.0),
        ("female-unemp", 1.0, 1.0),
    ]
    return [
        GroupProfile(name=name, covariates={"Gender": g, "Emp": e}, age_grid=grid)
        for name, g, e in combos
    ]


def probability_curves(
    fit: FitResult,
    profiles: Sequence[GroupProfile],
    age_column: str = "Age",
) -> list[CurvePoint]:
    """Fitted probability as a function of age for each covariate profile.

    Every non-age predictor of the model must be pinned by each profile's
    ``covariates`` mapping, and profiles may not mention predictors the
    model lacks (or the age column itself).  Points come back in profile
    order, ages ascending within each profile.

    Each age's linear predictor is a stacked ``(1, p) @ (p, 1)`` product,
    which runs the dot routine of ``coefficients @ row`` and so keeps its
    bits; ``rows @ coefficients`` sums in another order and would not.
    """
    names = fit.column_names
    if age_column not in names:
        raise UnknownPredictorError(f"model has no predictor named {age_column!r}")
    age_j = names.index(age_column)
    if age_j == 0:
        raise DomainError("the age column cannot be the intercept")
    required = set(names[1:]) - {age_column}

    points: list[CurvePoint] = []
    for profile in profiles:
        given = set(profile.covariates)
        unknown = given - required
        if unknown:
            raise UnknownPredictorError(
                f"profile {profile.name!r} sets unknown predictors: {sorted(unknown)}"
            )
        missing = required - given
        if missing:
            raise DomainError(
                f"profile {profile.name!r} leaves predictors unset: {sorted(missing)}"
            )
        rows = np.zeros((profile.age_grid.size, len(names)))
        rows[:, 0] = 1.0
        for name, value in profile.covariates.items():
            rows[:, names.index(name)] = float(value)
        rows[:, age_j] = profile.age_grid
        etas = np.matmul(rows[:, None, :], fit.coefficients[:, None])[:, 0, 0]
        probs = _sigmoid(etas)
        points.extend(map(
            CurvePoint, repeat(profile.name), profile.age_grid.tolist(), probs.tolist()
        ))
    return points
