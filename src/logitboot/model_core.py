"""Logistic link algebra and the Newton-Raphson maximum-likelihood fitter.

The model is Bernoulli with a logistic link: each observation carries a
covariate row ``x`` whose first entry is the intercept constant 1, and

    P(y = 1 | x) = sigmoid(theta @ x).

Fitting maximizes the log-likelihood

    l(theta) = sum_i y_i * eta_i - sum_i ln(1 + exp(eta_i)),   eta = X @ theta

by full Newton steps.  The score is ``X' (y - H)`` and the observed
information is ``X' W X`` with ``W = diag(H (1 - H))``; because the logistic
link is canonical, the observed information equals the expected (Fisher)
information, so Newton-Raphson and Fisher scoring coincide here.

The information I is Cholesky-factored once per iterate, I = L L'.  The
inverse factor gives the Newton step L^-T (L^-1 g), the final covariance
L^-T L^-1 and a bound on the condition number, cond(I) <= tr(I)
||L^-1||_F^2 <= p cond(I).  The conditioning guard is lambda_max /
lambda_min from ``eigh`` (a lambda_min that is not positive counts as
singular, and so does information with a non-finite entry, which ``eigh``
never sees).  ``eigh`` runs only on the slices whose factor fails or whose
bound passes half of ``CONDITION_LIMIT``, and those slices take their step
and covariance from its factor; every other slice is certainly not
singular.

A fit converges when its largest absolute score component is at most the
tolerance, or when its Newton decrement g' I^-1 g has stayed below the
log-likelihood's rounding noise for two iterates running: at that floor
the score only drifts with rounding, and whether it ever dips below the
tolerance depends on the CPU's kernels.  A step is halved when its
candidate's log-likelihood falls by more than that noise, except a step
whose decrement is within it: such a step promises less than the noise,
so whatever shortfall its candidate shows is rounding.

Every fit runs through one Newton kernel, ``_fit_batch``, which iterates a
stack of problems ``designs[B, n, p]``, ``responses[B, n]`` at once.  Each
iterate runs in the order of the math: factor the information, form the
Newton step from the factor, decide, retire.  That one status decision per
iterate retires slices, single-class ones included, and is the kernel's
only exit; step-halving re-evaluates the whole live stack.
:func:`fit_mle` is its ``B = 1`` case; the bootstrap and the jackknife hand
it a chunk of refits at a time.  Each slice's result is bit-identical to
fitting that slice alone, whatever else is in the stack, because every
per-slice product is the stacked form of the 2-d one and so runs the same
BLAS or LAPACK routine: a matrix-vector ``matmul`` for ``X @ theta`` and the
score, a ``(1, n) @ (n, 1)`` dot for ``y . eta``, a row-wise pairwise sum
for ``sum ln(1 + exp(eta))``, ``X' (X w)``, ``cholesky``, ``inv`` and
``eigh`` (the last on whichever slices need it).  Forms that sum in
another order (``einsum``, a weighted ``bincount``, an elementwise product
summed) differ in the last bits and would break that.

The kernel's per-row values, eta, e, the probabilities h, the weights w
and the p columns of the weighted design W X, are the rows of one working
array allocated once per call; the bootstrap and the jackknife allocate it
once per run of refits and hand it to every stack.  The stack is a working
array too, compacted in place; a one-slice stack, which retires at once,
is never written.  Each iterate writes into the leading entries of its
rows through the ``out`` buffers of ``_evaluate``, ``_probabilities`` and
``_information_from_probs``, the one routine of each step, which allocate
for themselves when given none.  The default zero start needs no
evaluation: at theta = 0 every probability is 1/2 and the log-likelihood
is 0 minus the pairwise sum of n copies of log1p(1), the bits
``_evaluate`` gives.

Numerical policy: probabilities never exponentiate a large positive
argument.  Every evaluation takes ``e = exp(-|eta|)`` once and derives
the rest from it: the sigmoid is ``1 / (1 + e)`` for ``eta >= 0`` and
``e / (1 + e)`` below, and ``ln(1 + exp(eta)) = max(eta, 0) + log1p(e)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateResponseError,
    DimensionMismatchError,
    DomainError,
    NotConvergedError,
    SeparationError,
)

# Iterates beyond this magnitude mean the likelihood is still improving as
# the coefficient runs away: perfect or quasi-separation, no finite MLE.
COEFFICIENT_BOUND = 30.0

# Information matrices whose eigenvalue ratio lambda_max / lambda_min (the
# 2-norm condition number) exceeds this, or whose lambda_min is not positive,
# are treated as numerically singular (collinear predictors).
CONDITION_LIMIT = 1e12

# A slice whose Cholesky bound on the condition number, which can exceed
# the true one p-fold, stays at most this is decided without eigh.  The
# margin under CONDITION_LIMIT covers eigh's own error in lambda_min, about
# lambda_max * eps.
_FACTOR_LIMIT = CONDITION_LIMIT / 2

MAX_STEP_HALVINGS = 10

# The log-likelihood's rounding noise, in units of 1 + |log-likelihood|.  A
# candidate is short, and its step halved, when its log-likelihood falls
# more than this below the iterate's; a Newton decrement below it is noise.
_LOGLIK_SLACK = 8.0 * np.finfo(float).eps

# Closed-interval clamp keeping sigmoid output strictly inside (0, 1).
_P_LO = np.nextafter(0.0, 1.0)
_P_HI = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class EncodedDataset:
    """Immutable design matrix plus 0/1 response vector.

    ``design`` is ``n x (k+1)`` with column 0 identically 1 (the intercept);
    ``response`` holds exactly the values 0.0 and 1.0.  Arrays are copied on
    construction and marked read-only, so instances can be shared freely
    between threads.

    Parameters
    ----------
    design : array_like
        Covariate matrix including the intercept column.
    response : array_like
        Binary outcomes, one per design row.
    column_names : sequence of str, optional
        One label per design column.  Defaults to ``Intercept, x1, x2, ...``.
    """

    design: np.ndarray
    response: np.ndarray
    column_names: tuple[str, ...] = ()

    def __post_init__(self):
        design = np.array(self.design, dtype=float)
        response = np.array(self.response, dtype=float)
        if design.ndim != 2:
            raise DimensionMismatchError("design must be a 2-d matrix")
        if response.ndim != 1 or response.shape[0] != design.shape[0]:
            raise DimensionMismatchError(
                "response must be 1-d with one entry per design row"
            )
        n, width = design.shape
        if width < 1 or n < width:
            raise DomainError(
                f"need at least as many rows ({n}) as parameters ({width})"
            )
        if not np.all(np.isfinite(design)):
            raise DomainError("design contains non-finite entries")
        if not np.all((response == 0.0) | (response == 1.0)):
            raise DomainError("response entries must be exactly 0 or 1")
        if not np.all(design[:, 0] == 1.0):
            raise DomainError("design column 0 must be the intercept (all ones)")
        names = tuple(str(c) for c in self.column_names)
        if not names:
            names = ("Intercept",) + tuple(f"x{j}" for j in range(1, width))
        if len(names) != width:
            raise DimensionMismatchError(
                f"{len(names)} column names for {width} design columns"
            )
        design.setflags(write=False)
        response.setflags(write=False)
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "response", response)
        object.__setattr__(self, "column_names", names)

    @property
    def n_observations(self) -> int:
        return self.design.shape[0]

    @property
    def n_parameters(self) -> int:
        return self.design.shape[1]


def _whole_number(value, what: str) -> int:
    """``value`` as an int of any size; 3.0 is whole, True and 1.9 are not."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        value = int(value)
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{what} must be whole numbers, not booleans or fractions")
    return int(value)


def _whole_numbers(values, what: str) -> np.ndarray:
    """:func:`_whole_number` on each entry of a 1-d sequence, as a new int64 array."""
    # A list goes in as objects, so that the caller's True stays True.
    given = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    # A ragged nested list comes in as a 1-d array of lists.
    if given.ndim != 1 or (given.dtype == object and any(np.ndim(v) for v in given)):
        raise DomainError(f"{what} must be a one-dimensional sequence")
    if given.dtype.kind == "i":
        return given.astype(np.int64)  # whole by its type
    whole = [_whole_number(v, what) for v in given]
    try:
        return np.array(whole, dtype=np.int64)
    except OverflowError:
        raise DomainError(f"{what} out of range") from None


@dataclass(frozen=True)
class FitConfig:
    """Solver knobs for :func:`fit_mle`.

    ``max_iterations`` must be a whole number in ``[1, 2**63)``.  A fit whose
    largest absolute score component is at most ``tolerance`` has converged;
    it must be positive and finite.  ``initial_coefficients`` defaults to zeros.
    """

    max_iterations: int = 25
    tolerance: float = 1e-8
    initial_coefficients: tuple[float, ...] | None = None

    def __post_init__(self):
        if (iterations := _whole_number(self.max_iterations, "max_iterations")) < 1:
            raise DomainError("max_iterations must be at least 1")
        if iterations >= 2**63:  # the kernel counts iterations in int64
            raise DomainError("max_iterations must be below 2**63")
        if not (0.0 < self.tolerance < np.inf):
            raise DomainError("tolerance must be positive and finite")
        if self.initial_coefficients is not None:
            start = tuple(float(v) for v in self.initial_coefficients)
            if not all(np.isfinite(start)):
                raise DomainError("initial coefficients must be finite")
            object.__setattr__(self, "initial_coefficients", start)


@dataclass(frozen=True)
class FitResult:
    """Converged (or abandoned) state of a maximum-likelihood fit.

    ``covariance`` is the inverse of the observed information at the final
    iterate, ``standard_errors`` the square roots of its diagonal, and
    ``deviance`` equals ``-2 * log_likelihood``.  ``converged`` is False
    when the iteration budget ran out before the score dropped below
    tolerance; downstream inference refuses such fits.
    """

    coefficients: np.ndarray
    standard_errors: np.ndarray
    covariance: np.ndarray
    log_likelihood: float
    deviance: float
    iterations: int
    converged: bool
    column_names: tuple[str, ...]

    def __post_init__(self):
        theta = np.array(self.coefficients, dtype=float)
        se = np.array(self.standard_errors, dtype=float)
        cov = np.array(self.covariance, dtype=float)
        width = theta.shape[0]
        if theta.ndim != 1 or se.shape != (width,) or cov.shape != (width, width):
            raise DimensionMismatchError("inconsistent result dimensions")
        if len(self.column_names) != width:
            raise DimensionMismatchError("one column name per coefficient required")
        if not np.allclose(cov, cov.T, rtol=1e-12, atol=1e-12):
            raise DomainError("covariance must be symmetric")
        if not np.allclose(se * se, np.diag(cov), rtol=1e-8, atol=1e-12):
            raise DomainError("standard errors must match the covariance diagonal")
        if abs(self.deviance + 2.0 * self.log_likelihood) > 1e-8 * (
            1.0 + abs(self.deviance)
        ):
            raise DomainError("deviance must equal -2 * log_likelihood")
        for arr in (theta, se, cov):
            arr.setflags(write=False)
        object.__setattr__(self, "coefficients", theta)
        object.__setattr__(self, "standard_errors", se)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "column_names", tuple(self.column_names))


def _probabilities(eta: np.ndarray, e: np.ndarray, out=None) -> np.ndarray:
    # Given e = exp(-|eta|) the sigmoid is 1 / (1 + e) for eta >= 0 and
    # e / (1 + e) below, so no positive argument is exponentiated.  As
    # e <= 1, the numerator max(e, eta >= 0) is 1 or e accordingly.  ``out``
    # is an optional pair of buffers shaped like eta, for the result and
    # for 1 + e.
    h, den = (None, None) if out is None else out
    h = np.maximum(e, eta >= 0, out=h)
    np.divide(h, np.add(1.0, e, out=den), out=h)
    # Keep the output strictly inside (0, 1) even where exp() underflows.
    np.clip(h, _P_LO, _P_HI, out=h)
    return h


def _evaluate(designs: np.ndarray, theta: np.ndarray, y: np.ndarray, out=None):
    # (eta, e = exp(-|eta|), log-likelihood) of one problem or a stack, by
    # the routines of a 2-d design @ theta and a 1-d y @ eta (module
    # docstring); ln(1 + exp(eta)) = max(eta, 0) + log1p(e) sums by row.
    # ``out`` is an optional set of four buffers shaped like eta: eta, e
    # and two for the per-row terms.
    if out is None:
        out = (np.empty(designs.shape[:-1]), None, None, None)
    eta, e, terms, scratch = out
    np.matmul(designs, theta[..., None], out=eta[..., None])
    e = np.abs(eta, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    y_eta = np.matmul(y[..., None, :], eta[..., None])[..., 0, 0]
    terms = np.maximum(eta, 0.0, out=terms)
    terms += np.log1p(e, out=scratch)
    return eta, e, y_eta - terms.sum(axis=-1)


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    return _probabilities(eta, np.exp(-np.abs(eta)))


def sigmoid(eta):
    """Logistic response ``1 / (1 + exp(-eta))``, elementwise.

    Accepts a scalar or array of finite values and returns values strictly
    inside the open interval (0, 1).  Large positive arguments are never
    exponentiated directly.

    Raises
    ------
    DomainError
        If any input entry is NaN or infinite.
    """
    arr = np.asarray(eta, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("sigmoid requires finite input")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = _sigmoid(arr)
    return float(out[0]) if scalar else out


def logit(p):
    """Log-odds ``ln(p / (1 - p))``, the inverse of :func:`sigmoid`.

    Defined on the open interval (0, 1) only.

    Raises
    ------
    DomainError
        If any entry is NaN or lies outside (0, 1).
    """
    arr = np.asarray(p, dtype=float)
    with np.errstate(invalid="ignore"):
        bad = ~np.isfinite(arr) | (arr <= 0.0) | (arr >= 1.0)
    if np.any(bad):
        raise DomainError("logit requires probabilities strictly inside (0, 1)")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.log(arr) - np.log1p(-arr)
    return float(out[0]) if scalar else out


def linear_predictor(coefficients, row) -> float:
    """Inner product of a coefficient vector with one covariate row."""
    theta = np.asarray(coefficients, dtype=float)
    x = np.asarray(row, dtype=float)
    if theta.ndim != 1 or theta.shape != x.shape:
        raise DimensionMismatchError(
            f"coefficient shape {theta.shape} does not match row shape {x.shape}"
        )
    return float(theta @ x)


def _check_theta(coefficients, data: EncodedDataset) -> np.ndarray:
    theta = np.asarray(coefficients, dtype=float)
    if theta.shape != (data.n_parameters,):
        raise DimensionMismatchError(
            f"expected {data.n_parameters} coefficients, got shape {theta.shape}"
        )
    return theta


def log_likelihood(coefficients, data: EncodedDataset) -> float:
    """Bernoulli log-likelihood of ``coefficients`` on ``data``.

    Always non-positive; equals the log of the product of per-observation
    probabilities ``H_i^y_i (1 - H_i)^(1 - y_i)``.
    """
    theta = _check_theta(coefficients, data)
    return float(_evaluate(data.design, theta, data.response)[2])


def score(coefficients, data: EncodedDataset) -> np.ndarray:
    """Gradient of the log-likelihood: ``X' (y - H)``."""
    theta = _check_theta(coefficients, data)
    h = _probabilities(*_evaluate(data.design, theta, data.response)[:2])
    return data.design.T @ (data.response - h)


def observed_information(coefficients, data: EncodedDataset) -> np.ndarray:
    """Negative Hessian of the log-likelihood: ``X' W X``, ``W = H (1 - H)``.

    Symmetric and positive semi-definite for every coefficient vector.
    """
    theta = _check_theta(coefficients, data)
    h = _probabilities(*_evaluate(data.design, theta, data.response)[:2])
    return _information_from_probs(data.design, h)


def _information_from_probs(design: np.ndarray, h: np.ndarray, out=None):
    # X' W X for one design or a stack of them.  ``out`` is an optional
    # pair of buffers: w = h (1 - h) shaped like h, and W X by columns,
    # ``(p,) + h.shape``; matmul gives it the bits of a row-major W X.
    w, wx = (None, None) if out is None else out
    w = np.subtract(1.0, h, out=w)
    w *= h
    # Axis moves by transpose: np.moveaxis normalizes its axes in Python per call.
    wx = np.multiply(design.transpose(-1, *range(design.ndim - 1)), w, out=wx)
    info = np.matmul(design.swapaxes(-1, -2), wx.transpose(*range(1, wx.ndim), 0))
    # Symmetrize to wash out last-bit asymmetry from the matmul.
    return (info + info.swapaxes(-1, -2)) * 0.5


# Per-slice outcomes of _fit_batch.
CONVERGED, NOT_CONVERGED, SINGLE_CLASS, SINGULAR, UNBOUNDED = range(5)

# The exception fit_mle raises for each failed outcome.
_FAILURES = {
    SINGLE_CLASS: (
        DegenerateResponseError,
        "response contains a single class; the MLE is not finite",
    ),
    SINGULAR: (
        SeparationError,
        "information matrix is numerically singular "
        f"(condition estimate exceeds {CONDITION_LIMIT:.0e})",
    ),
    UNBOUNDED: (
        SeparationError,
        f"coefficient magnitude exceeded {COEFFICIENT_BOUND:g}; "
        "the data are separated and the MLE is not finite",
    ),
}


class _Batch(NamedTuple):
    """Per-slice results of :func:`_fit_batch`, in the order of its stack.

    Each slice records the iterate it left at, with its log-likelihood and
    the ``covariance``, the inverse of the information there, formed from
    the factor the retiring decision saw: the start for a ``SINGLE_CLASS``
    slice, and for an ``UNBOUNDED`` one the first iterate past
    ``COEFFICIENT_BOUND``.  It is not finite where that information is
    singular.
    """

    coefficients: np.ndarray  # (B, p)
    log_likelihood: np.ndarray  # (B,)
    iterations: np.ndarray  # (B,)
    status: np.ndarray  # (B,) of CONVERGED ... UNBOUNDED
    covariance: np.ndarray  # (B, p, p)


def _zero_start(h: np.ndarray) -> np.ndarray:
    """Write the probabilities at ``theta = 0`` of a ``(B, n)`` stack into
    ``h`` and return its ``B`` log-likelihoods.

    Every eta is 0 there, so e = 1, each probability is 1/2, y . eta is 0
    and each row adds 0 + log1p(1) to the log-likelihood's pairwise sum.
    These are the bits :func:`_evaluate` and :func:`_probabilities` give,
    without a matmul, an ``exp`` or a ``log1p`` over the rows.
    """
    terms = h[0]
    terms.fill(np.log1p(1.0))
    loglik = np.full(h.shape[0], 0.0 - terms.sum())
    h.fill(0.5)
    return loglik


def _inverse_factor(info: np.ndarray) -> np.ndarray:
    """The inverse ``L^-1`` of the Cholesky factor ``L L' = info`` of each
    slice of a ``(B, p, p)`` stack, NaN where the slice has none.

    ``np.linalg.cholesky`` and ``inv`` refuse the whole stack when one
    slice fails; the slices are then factored one by one, by the same
    LAPACK calls, so each slice's bits do not depend on its neighbours.
    """
    try:
        return np.linalg.inv(np.linalg.cholesky(info))
    except np.linalg.LinAlgError:
        inv_lower = np.full_like(info, np.nan)
        for k, matrix in enumerate(info):
            try:
                inv_lower[k] = np.linalg.inv(np.linalg.cholesky(matrix))
            except np.linalg.LinAlgError:
                pass
        return inv_lower


def _work(count: int, n: int, width: int) -> np.ndarray:
    """The working array of :func:`_fit_batch` on up to ``count`` slices of
    up to ``n`` rows and ``width`` columns: ``4 + width`` rows of
    ``count * n`` entries, for eta, e, h, w and then the columns of W X."""
    return np.empty((4 + width, count * n))


def _fit_batch(
    designs: np.ndarray,
    responses: np.ndarray,
    config: FitConfig | None = None,
    work: np.ndarray | None = None,
) -> _Batch:
    """Newton-Raphson on a stack of problems ``designs[B, n, p]``,
    ``responses[B, n]``, all slices at once.

    Each slice follows exactly the iteration :func:`fit_mle` documents, and
    its results are bit-identical to fitting that slice alone (see the
    module docstring).  Each iterate factors the information by Cholesky,
    and by ``eigh`` for the slices the condition bound flags, and forms
    every live slice's Newton step and decrement from its factor; then one
    decision retires slices, the first match winning: ``SINGLE_CLASS`` (so
    at iteration 0), ``UNBOUNDED`` (not tested at the start), ``SINGULAR``,
    ``CONVERGED``, then ``NOT_CONVERGED`` at the budget.  It is the only
    place a result is written, the covariance formed there from the
    retiring slices' factors.  Compaction carries a live slice's place,
    iterate, log-likelihood, step, count of sub-noise decrements and
    halving threshold past it; the score and the factor are dead by then,
    and the step of a retired slice, which may not be finite, is never
    read.  An iterate's ``e = exp(-|eta|)`` serves its log-likelihood and
    then its probabilities, so each evaluated iterate costs one ``exp``.
    A halving pass halves the short slices' steps and re-evaluates the
    whole live stack; an accepted slice's candidate is unchanged, so it
    evaluates to the same bits again.

    ``designs`` and ``responses`` are working arrays: compaction moves live
    slices into retired ones' places, so a multi-slice stack is left
    reordered.  A one-slice stack retires at once and is never written, so
    :func:`fit_mle` passes read-only views; a caller who needs its stack
    afterwards passes a copy.  Every per-row value lives in a row of
    ``work`` (see :func:`_work`), allocated here when not given; the live
    slices use one view of its rows' leading entries, whatever earlier
    stacks left there.  The default zero start is evaluated in closed form
    (:func:`_zero_start`).
    """
    if config is None:
        config = FitConfig()
    count, n, width = designs.shape
    rows = _work(count, n, width) if work is None else work

    def buffers(live):
        # One view of every row's first live * n entries: eta, e, h, w, W X.
        live_rows = rows[:, : live * n].reshape(-1, live, n)
        return live_rows[:4], live_rows[4:]

    (eta, e, h, w), wx = buffers(count)
    theta = np.zeros((count, width))
    if config.initial_coefficients is None:
        loglik = _zero_start(h)
    else:
        start = np.array(config.initial_coefficients, dtype=float)
        if start.shape != (width,):
            raise DimensionMismatchError(
                f"expected {width} initial coefficients, got {start.shape[0]}"
            )
        theta[:] = start
        eta, e, loglik = _evaluate(designs, theta, responses, (eta, e, h, w))
        h = _probabilities(eta, e, (h, w))
    out = _Batch(
        coefficients=np.empty((count, width)),
        log_likelihood=np.empty(count),
        iterations=np.empty(count, dtype=np.int64),
        status=np.empty(count, dtype=np.int64),
        covariance=np.empty((count, width, width)),
    )
    positives = responses.sum(axis=1)
    single = (positives == 0) | (positives == n)
    # slots maps each live slice to its place in the stack.
    slots = np.arange(count)
    X, y = designs, responses
    iterations, stall = 0, -1
    while slots.size:
        residual = np.subtract(y, h, out=w)
        grad = np.matmul(X.swapaxes(1, 2), residual[..., None])[..., 0]
        info = _information_from_probs(X, h, (w, wx))
        # An iterate that overflowed, say after a step through information
        # too close to zero to invert, has non-finite information.  A zero
        # matrix stands in for it, which fails the factor and which eigh
        # finds singular.
        if not np.isfinite(info).all():
            info[~np.isfinite(info).all(axis=(1, 2))] = 0.0
        inv_lower = _inverse_factor(info)
        # The Newton step L^-T (L^-1 g) for every live slice, and its
        # decrement g' step.  A slice that retires below may have a
        # non-finite step, which nothing reads, so forming it warns of
        # nothing; a live slice whose step is not finite meets the
        # non-finite guard above at its next iterate.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # cond(info) <= tr(info) ||L^-1||_F^2, so a slice whose bound is
            # at most _FACTOR_LIMIT is not singular.  The rest, a failed
            # factor's NaN bound included, are decided by eigh and take
            # their step and covariance from its factor.
            bound = info.trace(axis1=1, axis2=2) * np.square(inv_lower).sum(axis=(1, 2))
            flagged = ~(bound <= _FACTOR_LIMIT)
            step = np.matmul(
                inv_lower.swapaxes(1, 2), np.matmul(inv_lower, grad[..., None])
            )[..., 0]
            singular = False
            if eigen := flagged.any():
                lam, vec = np.linalg.eigh(info[flagged])
                # Eigenvalues come in ascending order; the comparison is
                # False when lambda_min is zero, negative or NaN, so those
                # count as singular too.
                singular = flagged.copy()
                singular[flagged] = ~(lam[:, 0] * CONDITION_LIMIT > lam[:, -1])
                ratios = np.matmul(vec.swapaxes(1, 2), grad[flagged, :, None]) / lam[..., None]
                step[flagged] = np.matmul(vec, ratios)[..., 0]
                eigen_cov = np.matmul(vec / lam[:, None, :], vec.swapaxes(1, 2))
            decrement = (grad * step).sum(axis=1)
        # The log-likelihood's rounding noise.  A decrement below it for
        # two iterates running means the optimum is reached, whatever the
        # score's own noise; stall counts them, from -1 so that the start's
        # does not count.
        slack = _LOGLIK_SLACK * (1.0 + np.abs(loglik))
        flat = decrement < slack
        stall = (stall + 1) * flat
        # A candidate below `least` has its step halved.  Halve only on
        # decreases beyond the slack; reacting to one-ulp regressions near
        # the optimum would defeat Newton's quadratic tail.  A step whose
        # decrement, twice the gain it promises, is within the slack is
        # never halved: any shortfall its candidate shows is rounding.
        least = np.where(flat, -np.inf, loglik - slack)
        # The start is never held to the coefficient bound.
        unbounded = (np.abs(theta).max(axis=1) > COEFFICIENT_BOUND) & (iterations > 0)
        converged = (np.abs(grad).max(axis=1) <= config.tolerance) | (stall >= 2)
        spent = iterations >= config.max_iterations
        done = single | unbounded | singular | converged | spent
        if done.any():
            # The first condition that holds is the slice's status.
            fate = np.select(
                [single, unbounded, singular, converged],
                [SINGLE_CLASS, UNBOUNDED, SINGULAR, CONVERGED], NOT_CONVERGED)
            at = slots[done]
            out.coefficients[at] = theta[done]
            out.log_likelihood[at] = loglik[done]
            out.iterations[at] = iterations
            out.status[at] = fate[done]
            # The covariance, from the factor the slice was decided by.
            factor = inv_lower[done]
            with np.errstate(over="ignore", invalid="ignore"):
                covariance = np.matmul(factor.swapaxes(1, 2), factor)
            if eigen:
                covariance[flagged[done]] = eigen_cov[done[flagged]]
            out.covariance[at] = covariance
            live = np.count_nonzero(~done)
            if not live:
                break
            # The live slices from past the first `live` places fill the
            # retired ones among them, so a slice moves at most once.
            order = np.arange(live)
            holes = np.flatnonzero(done[:live])
            order[holes] = moved = np.flatnonzero(~done[live:]) + live
            X[holes], y[holes] = X[moved], y[moved]
            X, y = X[:live], y[:live]
            slots, theta, loglik, step, stall, least = (
                a[order] for a in (slots, theta, loglik, step, stall, least))
            # Every single-class slice retired at the first decision.
            single = False
            (eta, e, h, w), wx = buffers(live)
        candidate = theta + step
        # h and w are free until the accepted candidate's probabilities, so
        # they hold the log-likelihood's per-row terms.
        eta, e, cand_loglik = _evaluate(X, candidate, y, (eta, e, h, w))
        short = cand_loglik < least
        # A slice whose candidate is accepted stays accepted, so every slice
        # still short has been halved `halvings` times.
        halvings = 0
        while short.any() and halvings < MAX_STEP_HALVINGS:
            step[short] *= 0.5
            candidate = theta + step
            eta, e, cand_loglik = _evaluate(X, candidate, y, (eta, e, h, w))
            short = cand_loglik < least
            halvings += 1
        theta, loglik = candidate, cand_loglik
        h = _probabilities(eta, e, (h, w))
        iterations += 1
    return out


def fit_mle(data: EncodedDataset, config: FitConfig | None = None) -> FitResult:
    """Maximize the Bernoulli log-likelihood by Newton-Raphson.

    Full Newton steps, halved up to ten times whenever a step would lower
    the log-likelihood by more than rounding noise, unless the step's
    Newton decrement is itself within that noise.  Convergence means the
    largest absolute score component is at most ``config.tolerance``, or a
    Newton decrement within that rounding noise at two iterates running.
    Exhausting the iteration budget returns a result with
    ``converged=False`` rather than raising.

    The information is factored once per iterate, the first and the last
    included; the covariance comes from the final iterate's factor.  This
    is the one-problem case of the stacked kernel the bootstrap and
    the jackknife refit with.

    Raises
    ------
    DegenerateResponseError
        If the response is all zeros or all ones.
    SeparationError
        If an iterate's magnitude crosses ``COEFFICIENT_BOUND``, or the
        information matrix has lambda_max / lambda_min above
        ``CONDITION_LIMIT``, a lambda_min that is not positive, or an entry
        that is not finite (an iterate that overflowed).
    """
    batch = _fit_batch(data.design[None], data.response[None], config)
    status = int(batch.status[0])
    if status in _FAILURES:
        error, message = _FAILURES[status]
        raise error(message)
    covariance = batch.covariance[0]
    covariance = (covariance + covariance.T) * 0.5
    loglik = float(batch.log_likelihood[0])
    return FitResult(
        coefficients=batch.coefficients[0],
        standard_errors=np.sqrt(np.diag(covariance)),
        covariance=covariance,
        log_likelihood=loglik,
        deviance=-2.0 * loglik,
        iterations=int(batch.iterations[0]),
        converged=status == CONVERGED,
        column_names=data.column_names,
    )


def deviance_residuals(fit: FitResult, data: EncodedDataset) -> np.ndarray:
    """Signed square-root contributions of each observation to the deviance.

    ``r_i = sign(y_i - H_i) * sqrt(-2 * l_i)`` where ``l_i`` is observation
    i's log-likelihood term, so ``sum(r_i ** 2)`` equals the fit deviance.

    Raises
    ------
    NotConvergedError
        If ``fit.converged`` is False.
    """
    if not fit.converged:
        raise NotConvergedError("deviance residuals require a converged fit")
    theta = _check_theta(fit.coefficients, data)
    y = data.response
    eta, e, _ = _evaluate(data.design, theta, y)
    # Per-observation log-likelihood in the same stable form as the total:
    # y=1 gives -ln(1 + exp(-eta)), y=0 gives -ln(1 + exp(eta)), and both
    # are max(., 0) + log1p(e) with the same e = exp(-|eta|).
    terms = -(np.maximum(np.where(y == 1.0, -eta, eta), 0.0) + np.log1p(e))
    h = _probabilities(eta, e)
    return np.sign(y - h) * np.sqrt(-2.0 * terms)
