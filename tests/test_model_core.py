"""Link functions, likelihood machinery, and the Newton-Raphson fitter."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import logitboot.model_core
from logitboot import (
    DegenerateResponseError,
    DimensionMismatchError,
    DomainError,
    EncodedDataset,
    FitConfig,
    NotConvergedError,
    SeparationError,
    deviance_residuals,
    fit_mle,
    linear_predictor,
    log_likelihood,
    logit,
    observed_information,
    score,
    resample_indices,
    sigmoid,
)
from logitboot.data_io import SimulationSpec, encode, simulate
from logitboot.model_core import (
    COEFFICIENT_BOUND,
    CONDITION_LIMIT,
    CONVERGED,
    NOT_CONVERGED,
    SINGLE_CLASS,
    SINGULAR,
    UNBOUNDED,
    _FACTOR_LIMIT,
    _P_HI,
    _P_LO,
    _evaluate,
    _fit_batch,
    _information_from_probs,
    _inverse_factor,
    _probabilities,
    _whole_number,
    _whole_numbers,
    _work,
    _zero_start,
)

from conftest import GOLDEN_COEFFICIENTS, fd_gradient, random_dataset


class TestEncodedDataset:
    def test_arrays_are_read_only_copies(self):
        design = np.column_stack([np.ones(3), np.arange(3.0)])
        response = np.array([0.0, 1.0, 0.0])
        data = EncodedDataset(design, response)
        design[0, 1] = 99.0
        assert data.design[0, 1] == 0.0
        with pytest.raises(ValueError):
            data.design[0, 0] = 2.0

    def test_default_column_names(self):
        data = EncodedDataset(np.ones((2, 2)) * [1.0, 3.0], [0.0, 1.0])
        assert data.column_names == ("Intercept", "x1")

    def test_rejects_non_binary_response(self):
        with pytest.raises(DomainError):
            EncodedDataset(np.ones((2, 1)), [0.0, 0.5])

    def test_rejects_missing_intercept(self):
        with pytest.raises(DomainError):
            EncodedDataset(np.array([[2.0], [1.0]]), [0.0, 1.0])

    def test_rejects_non_finite_design(self):
        with pytest.raises(DomainError):
            EncodedDataset(np.array([[1.0, np.nan], [1.0, 2.0]]), [0.0, 1.0])

    def test_rejects_more_parameters_than_rows(self):
        with pytest.raises(DomainError):
            EncodedDataset(np.ones((2, 3)) * [1.0, 2.0, 3.0], [0.0, 1.0])

    def test_rejects_ragged_response(self):
        with pytest.raises(DimensionMismatchError):
            EncodedDataset(np.ones((3, 1)), [0.0, 1.0])


class TestLinearPredictor:
    def test_zero_coefficients(self):
        assert linear_predictor([0.0, 0.0], [1.0, 5.0]) == 0.0

    def test_intercept_only_row(self):
        eta = linear_predictor(GOLDEN_COEFFICIENTS, [1.0, 0.0, 0.0, 0.0])
        assert eta == pytest.approx(1.56097, abs=1e-12)

    def test_age_fifteen_reference_row(self):
        # 1.56097 - 15 * 0.07492 by hand
        eta = linear_predictor(GOLDEN_COEFFICIENTS, [1.0, 15.0, 0.0, 0.0])
        assert eta == pytest.approx(0.43717, abs=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linear_predictor([1.0, 2.0], [1.0, 2.0, 3.0])


class TestSigmoid:
    def test_zero_is_one_half(self):
        assert sigmoid(0.0) == 0.5

    def test_golden_values(self):
        assert sigmoid(1.56097) == pytest.approx(0.8264925, abs=1e-6)
        assert sigmoid(3.20489) == pytest.approx(0.9610179, abs=1e-6)

    def test_stays_strictly_inside_unit_interval(self):
        for eta in (-1000.0, -710.0, -40.0, 0.0, 40.0, 710.0, 1000.0):
            p = sigmoid(eta)
            assert 0.0 < p < 1.0

    def test_vectorized_matches_scalar(self):
        grid = np.linspace(-20.0, 20.0, 41)
        vec = sigmoid(grid)
        assert vec.shape == grid.shape
        for x, p in zip(grid, vec):
            assert sigmoid(float(x)) == p

    def test_strictly_increasing(self):
        grid = np.linspace(-35.0, 35.0, 201)
        values = sigmoid(grid)
        assert np.all(np.diff(values) > 0)

    @given(st.floats(min_value=-700.0, max_value=700.0))
    def test_complement_symmetry(self, eta):
        assert abs(sigmoid(-eta) - (1.0 - sigmoid(eta))) <= 1e-15

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            sigmoid(bad)
        with pytest.raises(DomainError):
            sigmoid(np.array([0.0, bad]))


class TestLogit:
    def test_one_half_is_zero(self):
        assert logit(0.5) == 0.0

    def test_three_quarters(self):
        assert logit(0.75) == pytest.approx(np.log(3.0), rel=1e-14)

    def test_inverts_golden_sigmoid(self):
        assert logit(0.8264925) == pytest.approx(1.56097, abs=1e-4)

    def test_roundtrip_at_negative_two_and_a_half(self):
        assert logit(sigmoid(-2.5)) == pytest.approx(-2.5, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1, np.nan, np.inf])
    def test_domain_rejected(self, bad):
        with pytest.raises(DomainError):
            logit(bad)

    @given(st.floats(min_value=-30.0, max_value=12.0))
    def test_roundtrip_where_float64_resolves(self, x):
        # Below ~12.5 the sigmoid output has enough spacing near its value
        # for a 1e-12-relative round trip.
        back = logit(sigmoid(x))
        assert back == pytest.approx(x, rel=1e-12, abs=1e-12)

    @given(st.floats(min_value=12.0, max_value=30.0))
    def test_roundtrip_quantization_bound_near_one(self, x):
        # For large positive x, sigmoid(x) sits within half an ulp of 1 and
        # logit amplifies that placement error by 1/(p(1-p)) ~ exp(x); the
        # achievable bound is therefore ~eps * exp(x), not 1e-12 relative.
        back = logit(sigmoid(x))
        assert abs(back - x) <= 2.3e-16 * np.exp(x) + 1e-12 * abs(x)


class TestLogLikelihood:
    def test_intercept_only_even_split(self):
        data = EncodedDataset(np.ones((4, 1)), [0.0, 1.0, 0.0, 1.0])
        # 4 * ln(1/2)
        assert log_likelihood([0.0], data) == pytest.approx(
            -2.772588722239781, abs=1e-14
        )

    def test_intercept_only_three_quarters(self):
        data = EncodedDataset(np.ones((4, 1)), [1.0, 1.0, 1.0, 0.0])
        # 3 ln(3/4) + ln(1/4) at theta = logit(3/4)
        assert log_likelihood([logit(0.75)], data) == pytest.approx(
            -2.249340578475233, abs=1e-12
        )

    def test_matches_bernoulli_product(self):
        data, theta = random_dataset(seed=101, n=10, k=3)
        probs = sigmoid(data.design @ theta)
        product = np.prod(np.where(data.response == 1.0, probs, 1.0 - probs))
        assert log_likelihood(theta, data) == pytest.approx(
            float(np.log(product)), abs=1e-10
        )

    @given(st.integers(min_value=0, max_value=10_000))
    def test_never_positive(self, seed):
        data, theta = random_dataset(seed=seed, n=25, k=2, coef_scale=2.0)
        assert log_likelihood(theta, data) <= 0.0

    def test_stable_at_extreme_linear_predictors(self):
        design = np.column_stack([np.ones(4), [-40.0, -20.0, 20.0, 40.0]])
        data = EncodedDataset(design, [0.0, 0.0, 1.0, 1.0])
        value = log_likelihood([0.0, 25.0], data)
        assert np.isfinite(value) and value <= 0.0

    def test_dimension_mismatch(self):
        data, _ = random_dataset(seed=5, n=10, k=2)
        with pytest.raises(DimensionMismatchError):
            log_likelihood([0.0, 0.0], data)


class TestScore:
    def test_two_observation_hand_value(self):
        data = EncodedDataset(np.array([[1.0, 2.0], [1.0, 0.0]]), np.array([1.0, 0.0]))
        # y - H = (1/2, -1/2) at theta = 0, against rows (1,2) and (1,0)
        assert score([0.0, 0.0], data) == pytest.approx([0.0, 1.0], abs=1e-15)

    def test_vanishes_at_mle(self):
        data, _ = random_dataset(seed=7, n=150, k=3)
        fit = fit_mle(data)
        assert fit.converged
        assert np.max(np.abs(score(fit.coefficients, data))) <= 1e-8

    @pytest.mark.parametrize("seed", [11, 12, 13, 14, 15])
    def test_matches_finite_differences(self, seed):
        data, _ = random_dataset(seed=seed, n=60, k=3)
        rng = np.random.default_rng(seed + 1000)
        theta = rng.normal(scale=0.5, size=data.n_parameters)
        fd = fd_gradient(lambda t: log_likelihood(t, data), theta)
        analytic = score(theta, data)
        assert np.all(
            np.abs(analytic - fd) <= np.maximum(1e-8, 1e-6 * np.abs(fd))
        )


class TestObservedInformation:
    def test_intercept_only_at_zero(self):
        data = EncodedDataset(np.ones((20, 1)), ([0.0, 1.0] * 10))
        info = observed_information([0.0], data)
        # n * 1/4 at H = 1/2
        assert info == pytest.approx(np.array([[5.0]]), abs=1e-14)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_symmetric_positive_semidefinite(self, seed):
        data, theta = random_dataset(seed=seed, n=80, k=4)
        info = observed_information(theta, data)
        assert np.array_equal(info, info.T)
        assert np.all(np.linalg.eigvalsh(info) >= -1e-10)

    def test_negative_jacobian_of_score(self):
        data, _ = random_dataset(seed=31, n=70, k=3)
        theta = np.array([0.3, -0.2, 0.5, 0.1])
        h = 1e-5
        width = theta.size
        jac = np.zeros((width, width))
        for j in range(width):
            bump = np.zeros(width)
            bump[j] = h
            jac[:, j] = (score(theta + bump, data) - score(theta - bump, data)) / (
                2.0 * h
            )
        assert observed_information(theta, data) == pytest.approx(-jac, rel=1e-5, abs=1e-7)

    def test_inverse_matches_fit_covariance(self):
        cases = [(41, 200, 2), (42, 60, 1), (43, 400, 3), (44, 150, 5), (45, 90, 0)]
        for seed, n, k in cases:
            data, _ = random_dataset(seed=seed, n=n, k=k)
            fit = fit_mle(data)
            info = observed_information(fit.coefficients, data)
            assert info @ fit.covariance == pytest.approx(np.eye(k + 1), abs=1e-10)

    @pytest.mark.parametrize("stack", [20, 81])
    def test_stacked_information_matches_weighted_matmul(self, stack):
        data = encode(
            simulate(SimulationSpec(coefficients=GOLDEN_COEFFICIENTS, n=400, seed=7))
        )
        rng = np.random.default_rng(stack)
        X = data.design[rng.integers(0, 400, size=(stack, 400))]
        h = rng.random((stack, 400))
        w = h * (1.0 - h)
        info = np.matmul(X.swapaxes(-1, -2), X * w[..., None])
        expected = (info + info.swapaxes(-1, -2)) * 0.5
        assert _information_from_probs(X, h).tobytes() == expected.tobytes()

    @given(
        live=st.integers(1, 6),
        spare=st.integers(0, 4),
        n=st.integers(1, 64),
        width=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        pinned=st.lists(st.sampled_from([0.5, _P_LO, _P_HI]), max_size=8),
    )
    def test_information_in_the_kernels_views_matches_weighted_matmul(
        self, live, spare, n, width, seed, pinned
    ):
        """W X by columns in the leading entries of a larger working
        array, as ``_fit_batch`` lays it out for its live slices, gives the
        bytes of the row-major reference."""
        rng = np.random.default_rng(seed)
        X = rng.normal(scale=30.0, size=(live, n, width))
        h = rng.random((live, n))
        h.flat[rng.integers(0, h.size, size=len(pinned))] = pinned
        work = _work(live + spare, n, width)
        work.fill(np.nan)
        rows = work[:, : live * n].reshape(-1, live, n)
        assert rows.base is work
        info = _information_from_probs(X, h, (rows[3], rows[4:]))
        w = h * (1.0 - h)
        reference = np.matmul(X.swapaxes(-1, -2), X * w[..., None])
        expected = (reference + reference.swapaxes(-1, -2)) * 0.5
        assert info.tobytes() == expected.tobytes()

    @given(
        n=st.integers(1, 64),
        width=st.integers(1, 5),
        spare=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_observed_information_is_a_one_slice_kernel_step(
        self, n, width, spare, seed
    ):
        """The public information has the bits of the kernel's ``B = 1``
        evaluation, probabilities and information in its working array."""
        n = max(n, width)
        rng = np.random.default_rng(seed)
        design = np.ones((n, width))
        design[:, 1:] = rng.normal(scale=5.0, size=(n, width - 1))
        data = EncodedDataset(design, (rng.random(n) < 0.5).astype(float))
        theta = rng.normal(size=width)
        work = _work(1 + spare, n, width)
        (eta, e, h, w), wx = np.split(work[:, :n].reshape(-1, 1, n), [4])
        eta, e, _ = _evaluate(data.design[None], theta[None], data.response[None],
                              (eta, e, h, w))
        h = _probabilities(eta, e, (h, w))
        info = _information_from_probs(data.design[None], h, (w, wx))
        assert observed_information(theta, data).tobytes() == info[0].tobytes()


class TestFitMLE:
    def test_intercept_only_closed_form(self):
        response = np.zeros(50)
        response[:17] = 1.0
        data = EncodedDataset(np.ones((50, 1)), response)
        fit = fit_mle(data)
        assert fit.converged
        assert fit.coefficients[0] == pytest.approx(logit(17.0 / 50.0), abs=1e-8)

    def test_recovers_generating_coefficients(self):
        data, theta = random_dataset(seed=51, n=20_000, k=3, coef_scale=0.8)
        fit = fit_mle(data)
        assert fit.converged
        assert fit.coefficients == pytest.approx(theta, abs=0.2)

    def test_degenerate_response_rejected(self):
        design = np.column_stack([np.ones(8), np.arange(8.0)])
        with pytest.raises(DegenerateResponseError):
            fit_mle(EncodedDataset(design, np.ones(8)))
        with pytest.raises(DegenerateResponseError):
            fit_mle(EncodedDataset(design, np.zeros(8)))

    def test_separated_data_rejected(self):
        design = np.column_stack([np.ones(6), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]])
        data = EncodedDataset(design, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        with pytest.raises(SeparationError):
            fit_mle(data)

    def test_collinear_columns_rejected(self):
        x = np.arange(30.0)
        design = np.column_stack([np.ones(30), x, 2.0 * x])
        data = EncodedDataset(design, (np.arange(30) % 2).astype(float))
        with pytest.raises(SeparationError):
            fit_mle(data)

    def test_nearly_collinear_columns_rejected(self):
        # A column within 1e-7 of another puts cond(X'WX) near 4e14.
        data, _ = random_dataset(seed=131, n=200, k=2)
        rng = np.random.default_rng(132)
        nudged = data.design[:, 1] + 1e-7 * rng.normal(size=200)
        near = EncodedDataset(np.column_stack([data.design, nudged]), data.response)
        assert np.linalg.cond(observed_information(np.zeros(4), near)) > 1e14
        with pytest.raises(SeparationError, match="singular"):
            fit_mle(near)

    def test_badly_scaled_well_posed_design_fits(self):
        # Scaling one column by 3e4 leaves the problem well posed but puts
        # cond(X'WX) near 1e9, inside the 1e12 guard.
        data, _ = random_dataset(seed=131, n=200, k=2)
        design = data.design.copy()
        design[:, 2] *= 3e4
        scaled = EncodedDataset(design, data.response)
        fit = fit_mle(scaled)
        assert fit.converged
        cond = np.linalg.cond(observed_information(fit.coefficients, scaled))
        assert 1e8 < cond < 1e11
        base = fit_mle(data)
        assert fit.coefficients * [1.0, 1.0, 3e4] == pytest.approx(
            base.coefficients, rel=1e-8
        )

    def test_iteration_budget_returns_unconverged(self):
        data, _ = random_dataset(seed=61, n=300, k=3)
        fit = fit_mle(data, FitConfig(max_iterations=1))
        assert not fit.converged
        assert fit.iterations == 1

    def test_log_likelihood_never_below_zero_start(self):
        for seed in (71, 72, 73):
            data, _ = random_dataset(seed=seed, n=90, k=2)
            fit = fit_mle(data)
            assert fit.log_likelihood >= log_likelihood(
                np.zeros(data.n_parameters), data
            )

    def test_converged_means_score_below_tolerance(self):
        data, _ = random_dataset(seed=81, n=120, k=3)
        config = FitConfig(tolerance=1e-10)
        fit = fit_mle(data, config)
        assert fit.converged
        assert np.max(np.abs(score(fit.coefficients, data))) <= config.tolerance

    def test_starting_at_solution_converges_immediately(self):
        data, _ = random_dataset(seed=91, n=100, k=2)
        fit = fit_mle(data)
        again = fit_mle(
            data, FitConfig(initial_coefficients=tuple(fit.coefficients))
        )
        assert again.converged
        assert again.iterations == 0
        assert np.array_equal(again.coefficients, fit.coefficients)

    def test_covariance_properties(self):
        data, _ = random_dataset(seed=95, n=250, k=3)
        fit = fit_mle(data)
        assert np.array_equal(fit.covariance, fit.covariance.T)
        assert np.all(np.linalg.eigvalsh(fit.covariance) > 0)
        assert np.all(fit.standard_errors > 0)
        assert fit.standard_errors == pytest.approx(
            np.sqrt(np.diag(fit.covariance)), rel=1e-12
        )

    def test_deviance_is_minus_twice_log_likelihood(self):
        data, _ = random_dataset(seed=97, n=80, k=2)
        fit = fit_mle(data)
        assert fit.deviance == -2.0 * fit.log_likelihood

    def test_bad_config_rejected(self):
        with pytest.raises(DomainError):
            FitConfig(max_iterations=0)
        # An infinite tolerance would call any start converged.
        for tolerance in (0.0, float("inf"), float("nan")):
            with pytest.raises(DomainError):
                FitConfig(tolerance=tolerance)
        data, _ = random_dataset(seed=98, n=30, k=1)
        with pytest.raises(DimensionMismatchError):
            fit_mle(data, FitConfig(initial_coefficients=(0.0,)))

    @pytest.mark.parametrize("budget", [2.5, True, np.nan])
    def test_iteration_budget_must_be_a_whole_number(self, budget):
        # 2.5 would run 3 iterations and True one.
        with pytest.raises(DomainError, match="max_iterations must be whole numbers"):
            FitConfig(max_iterations=budget)

    @pytest.mark.parametrize("budget", [2**63, np.uint64(2**63), 2**70, 1e19])
    def test_iteration_budget_beyond_int64_is_refused(self, budget):
        # The kernel counts iterations in int64.
        with pytest.raises(DomainError, match=r"max_iterations must be below 2\*\*63"):
            FitConfig(max_iterations=budget)
        assert FitConfig(max_iterations=2**63 - 1).max_iterations == 2**63 - 1

    @pytest.mark.parametrize("budget", [2.0, np.int32(2), np.float64(2.0)])
    def test_integral_iteration_budgets_are_accepted(self, budget):
        data, _ = random_dataset(seed=61, n=300, k=3)
        fit = fit_mle(data, FitConfig(max_iterations=budget))
        expected = fit_mle(data, FitConfig(max_iterations=2))
        assert fit.iterations == expected.iterations
        assert fit.coefficients.tobytes() == expected.coefficients.tobytes()


def mixed_chunk():
    """Ten 30-row problems whose fits end in every way a fit can end.

    In order: the study itself; a single-class response; Age shrunk a
    thousandfold and split at its median (separated, with a first step
    already past ``COEFFICIENT_BOUND``); Gender replaced by Emp (singular
    information); each covariate row twice, once per class (the score is
    exactly 0 at the zero start); then bootstrap resamples 3, 16, 93, 143
    and 210 of master seed 11.  Resamples 16, 93, 143 and 210 halve steps
    on different iterations; 210 converges once its step at the optimum,
    whose decrement is within rounding noise, is no longer halved.
    """
    study = encode(
        simulate(SimulationSpec(coefficients=GOLDEN_COEFFICIENTS, n=30, seed=3))
    )
    design, response = study.design, study.response
    tiny_age = design.copy()
    tiny_age[:, 1] *= 1e-3
    older = (design[:, 1] > np.median(design[:, 1])).astype(float)
    collinear = design.copy()
    collinear[:, 3] = collinear[:, 2]
    k = np.arange(15)
    rows = np.column_stack([np.ones(15), k % 5, k % 2, (k // 3) % 2])
    problems = [
        (design, response),
        (design, np.ones(30)),
        (tiny_age, older),
        (collinear, response),
        (np.repeat(rows, 2, axis=0), np.tile([1.0, 0.0], 15)),
    ]
    for b in (3, 16, 93, 143, 210):
        idx = resample_indices(11, b, 30)
        problems.append((design[idx], response[idx]))
    return np.stack([d for d, _ in problems]), np.stack([r for _, r in problems])


class TestFitBatch:
    """The stacked kernel against :func:`fit_mle` on each slice alone."""

    @pytest.mark.parametrize("config, expected", [
        (FitConfig(), [CONVERGED, SINGLE_CLASS, UNBOUNDED, SINGULAR]
         + [CONVERGED] * 6),
        (FitConfig(max_iterations=1), [NOT_CONVERGED, SINGLE_CLASS, UNBOUNDED,
                                       SINGULAR, CONVERGED] + [NOT_CONVERGED] * 5),
    ])
    def test_mixed_outcomes_match_single_fits(self, config, expected):
        designs, responses = mixed_chunk()
        forward = np.arange(len(designs))
        # Reversing the stack changes which live slices sit around the
        # ones that retire, halve or get compacted away.
        for order in (forward, forward[::-1]):
            batch = _fit_batch(designs[order], responses[order], config)
            assert batch.status.tolist() == [expected[k] for k in order]
            for slot, k in enumerate(order):
                status = batch.status[slot]
                try:
                    fit = fit_mle(EncodedDataset(designs[k], responses[k]), config)
                except DegenerateResponseError:
                    assert status == SINGLE_CLASS
                    continue
                except SeparationError as exc:
                    assert status == (SINGULAR if "singular" in str(exc) else UNBOUNDED)
                    continue
                assert status == (CONVERGED if fit.converged else NOT_CONVERGED)
                assert batch.coefficients[slot].tobytes() == fit.coefficients.tobytes()
                assert batch.iterations[slot] == fit.iterations
                assert batch.log_likelihood[slot] == fit.log_likelihood


@pytest.mark.parametrize("config", [FitConfig(), FitConfig(max_iterations=1)])
def test_unbounded_slice_records_the_crossing_iterate(config):
    """The separated tiny-Age slice is recorded at the first iterate past
    the bound, which outranks the spent budget of ``max_iterations=1``."""
    designs, responses = mixed_chunk()
    batch = _fit_batch(designs.copy(), responses.copy(), config)
    assert batch.status[2] == UNBOUNDED
    data = EncodedDataset(designs[2], responses[2])
    theta = batch.coefficients[2]
    assert batch.iterations[2] == 1
    assert np.abs(theta).max() > COEFFICIENT_BOUND
    # That iterate is the full Newton step from the zero start.
    zero = np.zeros(data.n_parameters)
    newton = np.linalg.solve(observed_information(zero, data), score(zero, data))
    np.testing.assert_allclose(theta, newton, rtol=1e-10)
    assert batch.log_likelihood[2] == log_likelihood(theta, data)
    assert batch.log_likelihood[2] > log_likelihood(zero, data)


@pytest.mark.parametrize("config", [FitConfig(), FitConfig(max_iterations=1)])
def test_stacked_fields_match_solo_kernel(config):
    """Every field of every slice that reaches Newton steps, eigenpairs
    included, is bit-identical to that slice run alone, whichever slices
    retire or halve around it."""
    designs, responses = mixed_chunk()
    forward = np.arange(len(designs))
    for order in (forward, forward[::-1]):
        batch = _fit_batch(designs[order], responses[order], config)
        for slot, k in enumerate(order):
            if batch.status[slot] == SINGLE_CLASS:
                continue
            alone = _fit_batch(designs[k][None], responses[k][None], config)
            for field in alone._fields:
                assert getattr(batch, field)[slot].tobytes() == \
                    getattr(alone, field)[0].tobytes(), (k, field)


def test_single_class_stack_retires_at_the_start():
    designs, _ = mixed_chunk()
    start = (0.5, -0.02, 0.3, -0.1)
    responses = np.stack([np.ones(30), np.zeros(30), np.ones(30)])
    batch = _fit_batch(designs[:3], responses, FitConfig(initial_coefficients=start))
    assert batch.status.tolist() == [SINGLE_CLASS] * 3
    assert batch.iterations.tolist() == [0] * 3
    for k in range(3):
        assert batch.coefficients[k].tolist() == list(start)
        data = EncodedDataset(designs[k], responses[k])
        assert batch.log_likelihood[k] == log_likelihood(start, data)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 399, 400, 20_000])
def test_zero_start_matches_evaluation_at_zero(n):
    """The closed-form start has the bits of evaluating theta = 0, across
    the block edges of NumPy's pairwise sum."""
    rng = np.random.default_rng(n)
    designs = np.concatenate(
        [np.ones((3, n, 1)), rng.normal(scale=40.0, size=(3, n, 3))], axis=2
    )
    responses = (rng.random((3, n)) < 0.4).astype(float)
    eta, e, expected = _evaluate(designs, np.zeros((3, 4)), responses)
    h = np.full((3, n), np.nan)
    loglik = _zero_start(h)
    assert loglik.tobytes() == expected.tobytes()
    assert h.tobytes() == _probabilities(eta, e).tobytes()
    # The one-problem route of log_likelihood gives the same value.
    alone = _evaluate(designs[0], np.zeros(4), responses[0])[2]
    assert loglik[0] == alone


@pytest.mark.parametrize("config", [
    FitConfig(),
    FitConfig(max_iterations=1),
    FitConfig(initial_coefficients=(0.5, -0.02, 0.3, -0.1)),
])
def test_reused_work_matches_a_fresh_kernel(config):
    """Working arrays left over from a larger stack, from the jackknife's
    n - 1 rows, or filled with NaN give the bytes of a fresh call, on a
    stack whose slices retire at different iterates."""
    designs, responses = mixed_chunk()
    fresh = _fit_batch(designs.copy(), responses.copy(), config)
    count, n, width = designs.shape
    work = _work(count + 3, n, width)

    def fill_with_nan():
        for array in work:
            array.fill(np.nan)

    larger = np.random.default_rng(1).integers(0, count, size=count + 3)
    # With work given the kernel reorders the stack in place, so every
    # call gets a stack of its own.
    for before in (
        lambda: _fit_batch(designs[larger], responses[larger], config, work),
        lambda: _fit_batch(
            designs[:, 1:].copy(), responses[:, 1:].copy(), config, work
        ),
        fill_with_nan,
    ):
        with np.errstate(all="ignore"):
            before()
        batch = _fit_batch(designs.copy(), responses.copy(), config, work)
        for field in fresh._fields:
            assert getattr(batch, field).tobytes() == \
                getattr(fresh, field).tobytes(), field


class TestNonFiniteIterate:
    """On the 400-row study with Age in thousandths of a year, the far
    start's information is subnormal yet passes the condition test, so
    the first Newton step overflows.  The slice is retired as singular
    before ``eigh`` sees the non-finite iterate."""

    CONFIG = FitConfig(initial_coefficients=tuple(np.linspace(-40, 40, 4)))

    @staticmethod
    def study(age_scale):
        data = encode(
            simulate(SimulationSpec(coefficients=GOLDEN_COEFFICIENTS, n=400, seed=7))
        )
        design = data.design.copy()
        design[:, 1] *= age_scale
        return design, data.response

    def test_fit_mle_raises_separation_error(self):
        design, response = self.study(1e3)
        with np.errstate(all="ignore"), pytest.raises(SeparationError, match="singular"):
            fit_mle(EncodedDataset(design, response), self.CONFIG)

    def test_stacked_neighbour_is_unaffected(self):
        broken, response = self.study(1e3)
        # Age shrunk a thousandfold: this slice is still live when the
        # other's iterate turns non-finite.
        neighbour, _ = self.study(1e-3)
        with np.errstate(all="ignore"):
            batch = _fit_batch(
                np.stack([broken, neighbour]), np.stack([response, response]), self.CONFIG
            )
        alone = _fit_batch(neighbour[None], response[None], self.CONFIG)
        assert batch.status[0] == SINGULAR
        assert batch.iterations[0] == 1
        assert alone.iterations[0] >= 1
        for field in alone._fields:
            assert getattr(batch, field)[1].tobytes() == getattr(alone, field)[0].tobytes()

    # The step is formed before the decision, so a retiring slice's step
    # overflows here; it is never taken and must not warn.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "age_scale, start, match",
        [(10.0, (0.0, 50.0, 0.0, 0.0), "exceeded"),
         (1e4, tuple(np.linspace(-5, 5, 4)), "singular")],
    )
    def test_retired_slice_step_is_silent(self, age_scale, start, match):
        design, response = self.study(age_scale)
        config = FitConfig(initial_coefficients=start)
        with pytest.raises(SeparationError, match=match):
            fit_mle(EncodedDataset(design, response), config)

    # From an intercept of -710 or -720 the information is near the
    # underflow limit but well conditioned (about 2e4), so the start is not
    # singular and the Newton step overflows.  At -710 the condition bound
    # (about 4e4) passes without eigh; at -720 it overflows, and eigh
    # decides the slice.  Either way the iterate the step reaches is
    # SINGULAR, and nothing warns.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("intercept", [-710.0, -720.0])
    def test_overflowed_step_is_singular(self, intercept):
        design, response = self.study(1.0)
        config = FitConfig(initial_coefficients=(intercept, 0.0, 0.0, 0.0))
        with pytest.raises(SeparationError, match="singular"):
            fit_mle(EncodedDataset(design, response), config)
        batch = _fit_batch(design[None], response[None], config)
        assert batch.status[0] == SINGULAR
        assert batch.iterations[0] == 1


def test_resample_210_converges_at_its_optimum():
    """Resample 210 of the 30-row study reaches its optimum by iteration
    10.  There the halving test used to react to log-likelihood rounding
    noise, so its score crept and whether it ever reached the tolerance
    depended on the CPU's kernels; a step whose decrement is within that
    noise is now taken in full."""
    study = encode(
        simulate(SimulationSpec(coefficients=GOLDEN_COEFFICIENTS, n=30, seed=3))
    )
    idx = resample_indices(11, 210, 30)
    fit = fit_mle(EncodedDataset(study.design[idx], study.response[idx]))
    assert fit.converged
    assert fit.iterations <= 12


@pytest.mark.parametrize("n", [30, 400, 5000])
def test_tolerance_below_the_rounding_floor_converges(n):
    """A score tolerance the score's rounding noise never lets it reach
    still ends in convergence: the decrement rule stops the fit once the
    log-likelihood can no longer rise, one iterate after the default
    tolerance would have."""
    data = encode(
        simulate(SimulationSpec(coefficients=GOLDEN_COEFFICIENTS, n=n, seed=7))
    )
    default = fit_mle(data)
    fit = fit_mle(data, FitConfig(tolerance=1e-15))
    assert fit.converged
    assert fit.iterations <= default.iterations + 2
    np.testing.assert_allclose(fit.coefficients, default.coefficients, rtol=1e-9)


def test_sub_noise_step_is_taken_in_full(monkeypatch):
    """A step whose decrement is within the log-likelihood's rounding noise
    is not halved, whatever its candidate's computed log-likelihood.  Here
    every evaluation reads 1e-12 lower than the one before, several times
    the slack at n = 400, so each candidate near the optimum looks short.
    With Age in hundredths of a year the score is still above the tolerance
    when the decrement is already within the slack.  The fit takes its
    Newton steps and its score reaches the tolerance, rather than stalling
    on halved steps until the budget runs out, or being stopped by the
    decrement rule short of the tolerance."""
    study = encode(
        simulate(SimulationSpec(coefficients=GOLDEN_COEFFICIENTS, n=400, seed=7))
    )
    design = study.design.copy()
    design[:, 1] *= 100.0
    data = EncodedDataset(design, study.response)
    clean = fit_mle(data)
    calls = itertools.count(1)

    def drifting(*args, **kwargs):
        eta, e, loglik = _evaluate(*args, **kwargs)
        return eta, e, loglik - 1e-12 * next(calls)

    monkeypatch.setattr(logitboot.model_core, "_evaluate", drifting)
    fit = fit_mle(data)
    assert fit.converged
    assert fit.iterations == clean.iterations
    assert np.abs(score(fit.coefficients, data)).max() <= FitConfig().tolerance


def guard_stack():
    """Nineteen slices of the 400-row study whose information at the zero
    start has condition numbers from 2e10 to 6e14 and beyond: Gender
    replaced by Emp plus ever smaller noise, Age in ever smaller units,
    and Gender replaced by Emp itself."""
    study = encode(
        simulate(SimulationSpec(coefficients=GOLDEN_COEFFICIENTS, n=400, seed=7))
    )
    design, response = study.design, study.response
    noise = np.random.default_rng(5).normal(size=400)
    designs = []
    for delta in np.logspace(-3.5, -5.5, 9):
        near = design.copy()
        near[:, 3] = near[:, 2] + delta * noise
        designs.append(near)
    for scale in np.logspace(3, 5, 9):
        scaled = design.copy()
        scaled[:, 1] *= scale
        designs.append(scaled)
    collinear = design.copy()
    collinear[:, 3] = collinear[:, 2]
    designs.append(collinear)
    return np.stack(designs), np.tile(response, (len(designs), 1))


class TestFactorGuard:
    """The Cholesky factor hands every slice whose condition bound is near
    ``CONDITION_LIMIT`` to ``eigh``, so no fate depends on the bound."""

    @staticmethod
    def eigen_rule(theta, data, iterations):
        """The fate the decision gives at the iterate ``theta`` by the
        eigenvalue rule, None when that is neither UNBOUNDED nor SINGULAR;
        with the iterate's condition number: inf when lambda_min is not
        positive, NaN when the information is not finite."""
        if iterations and np.abs(theta).max() > COEFFICIENT_BOUND:
            return UNBOUNDED, None
        with np.errstate(all="ignore"):
            info = observed_information(theta, data)
        if not np.isfinite(info).all():
            return SINGULAR, np.nan
        lam = np.linalg.eigh(info)[0]
        cond = lam[-1] / lam[0] if lam[0] > 0 else np.inf
        return (None if lam[0] * CONDITION_LIMIT > lam[-1] else SINGULAR), cond

    @pytest.mark.parametrize("start", [None, tuple(np.linspace(-40, 40, 4))])
    def test_singular_fates_follow_the_eigenvalue_rule(self, start):
        """Every decision of every slice, by budgets of 1, 2, ... iterations
        until each slice retires before its budget."""
        designs, responses = guard_stack()
        conds = {}
        budget = 1
        while True:
            config = FitConfig(max_iterations=budget, initial_coefficients=start)
            with np.errstate(all="ignore"):
                batch = _fit_batch(designs.copy(), responses.copy(), config)
            for k, status in enumerate(batch.status):
                data = EncodedDataset(designs[k], responses[k])
                iterations = batch.iterations[k]
                fate, cond = self.eigen_rule(batch.coefficients[k], data, iterations)
                if fate is None:
                    assert status in (CONVERGED, NOT_CONVERGED), (budget, k)
                else:
                    assert status == fate, (budget, k)
                conds[k, iterations] = (cond, fate)
            if (batch.iterations < budget).all():
                break
            budget += 1
        checked = [(c, fate) for c, fate in conds.values() if c is not None]
        if start is None:
            finite = [c for c, _ in checked if np.isfinite(c)]
            assert min(finite) < 1e11 and max(finite) > 1e14
            # Some slice is decided by eigh and found not singular.
            assert any(_FACTOR_LIMIT < c < CONDITION_LIMIT and fate is None
                       for c, fate in checked)
        else:
            # Some iterate overflows to non-finite information.
            assert any(np.isnan(c) for c, _ in checked)

    def test_failed_factor_leaves_neighbours_alone(self):
        """A slice whose factor fails makes the whole stack's Cholesky
        raise; at every place in the stack, each neighbour's fields keep
        the bits of that neighbour fitted alone."""
        designs, responses = mixed_chunk()
        failing = designs[0].copy()
        failing[:, 3] = 0.0  # a zero row and column in the information
        data = EncodedDataset(failing, responses[0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(observed_information(np.zeros(4), data))
        alone = [_fit_batch(d[None], r[None]) for d, r in zip(designs, responses)]
        for place in range(len(designs) + 1):
            stack = np.insert(designs, place, failing, axis=0)
            outcomes = np.insert(responses, place, responses[0], axis=0)
            batch = _fit_batch(stack, outcomes)
            assert batch.status[place] == SINGULAR
            for k, single in enumerate(alone):
                slot = k + (k >= place)
                for field in single._fields:
                    assert getattr(batch, field)[slot].tobytes() == \
                        getattr(single, field)[0].tobytes(), (place, k, field)

    @pytest.mark.parametrize("age_scale", [1.0, 10.0, 1e2, 1e3, 5e3, 6e3])
    def test_covariance_is_the_inverse_information(self, age_scale):
        """The covariance from the factor keeps its relative accuracy in
        every entry as the Age column's units put the condition number
        at up to 4.5e11, where the bound flags the slice for eigh."""
        study = encode(
            simulate(SimulationSpec(coefficients=GOLDEN_COEFFICIENTS, n=400, seed=7))
        )
        design = study.design.copy()
        design[:, 1] *= age_scale
        data = EncodedDataset(design, study.response)
        fit = fit_mle(data)
        info = observed_information(fit.coefficients, data)
        np.testing.assert_allclose(fit.covariance, np.linalg.inv(info), rtol=1e-10)

    @pytest.mark.parametrize("width", range(2, 21))
    def test_factor_exists_below_the_condition_limit(self, width):
        """Every slice eigh finds not singular has a Cholesky factor, so
        its step and covariance come from the factor.  Demmel's condition
        (Higham 2002, section 10.1) gives one up to width 20 for
        condition numbers below CONDITION_LIMIT; here SPD matrices with
        random eigenvectors and condition numbers from a tenth of the
        limit up to it all factor."""
        rng = np.random.default_rng(width)
        for target in CONDITION_LIMIT * np.logspace(-0.95, -0.05, 6):
            basis = np.linalg.qr(rng.normal(size=(width, width)))[0]
            spectrum = np.logspace(0.0, -np.log10(target), width)
            matrix = (basis * spectrum) @ basis.T
            matrix = (matrix + matrix.T) / 2
            lam = np.linalg.eigh(matrix)[0]
            assert CONDITION_LIMIT / 10 <= lam[-1] / lam[0] < CONDITION_LIMIT
            assert lam[0] * CONDITION_LIMIT > lam[-1]
            assert np.isfinite(_inverse_factor(matrix[None])).all()


class TestDevianceResiduals:
    def test_hand_value_at_even_odds(self):
        data = EncodedDataset(np.ones((2, 1)), [1.0, 0.0])
        fit = fit_mle(data)  # intercept 0, H = 1/2
        residuals = deviance_residuals(fit, data)
        root_two_log_two = 1.1774100225154747
        assert residuals == pytest.approx(
            [root_two_log_two, -root_two_log_two], abs=1e-12
        )

    def test_sign_tracks_response_side(self):
        data, _ = random_dataset(seed=105, n=60, k=2)
        fit = fit_mle(data)
        residuals = deviance_residuals(fit, data)
        probs = sigmoid(data.design @ fit.coefficients)
        assert np.all(np.sign(residuals) == np.sign(data.response - probs))

    @pytest.mark.parametrize("seed", [111, 112, 113])
    def test_squares_sum_to_deviance(self, seed):
        data, _ = random_dataset(seed=seed, n=140, k=3)
        fit = fit_mle(data)
        assert np.sum(deviance_residuals(fit, data) ** 2) == pytest.approx(
            fit.deviance, abs=1e-8
        )

    def test_requires_converged_fit(self):
        data, _ = random_dataset(seed=120, n=100, k=2)
        stalled = fit_mle(data, FitConfig(max_iterations=1))
        with pytest.raises(NotConvergedError):
            deviance_residuals(stalled, data)


# Every kind of entry a caller may hand over: ints of any size, with the
# int64 edges always in play, integral and fractional floats, nan and
# +-inf, booleans and NumPy scalars.
WHOLE_NUMBER_EDGES = (2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64, 2**70)
ENTRIES = st.one_of(
    st.integers(),
    st.sampled_from(WHOLE_NUMBER_EDGES),
    st.floats(),
    st.integers(-(2**60), 2**60).map(float),
    st.booleans(),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
)
# A list, a tuple, NumPy's own reading of the list (int64, uint64, float64
# or object), or an object array of the entries as given.
CONTAINERS = st.sampled_from(
    [list, tuple, np.array, lambda v: np.array(v, dtype=object)]
)


class TestWholeNumbers:
    @example([2**63], list)
    @example([-(2**63) - 1], np.array)
    @example([2**64], np.array)
    @example([50, 2**70], list)
    @example([True, 2], list)
    @example([2**70, 1.5], tuple)
    @given(st.lists(ENTRIES, max_size=6), CONTAINERS)
    def test_each_entry_follows_the_scalar_rule(self, entries, container):
        values = container(entries)
        try:
            expected = [_whole_number(v, "x") for v in values]
        except DomainError:
            with pytest.raises(DomainError, match="^x must be whole numbers"):
                _whole_numbers(values, "x")
            return
        if not all(-(2**63) <= v < 2**63 for v in expected):
            with pytest.raises(DomainError, match="^x out of range$"):
                _whole_numbers(values, "x")
            return
        got = _whole_numbers(values, "x")
        assert got.dtype == np.int64
        assert got.tolist() == expected

    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=6))
    def test_int64_array_comes_back_as_a_copy(self, entries):
        given_array = np.array(entries, dtype=np.int64)
        got = _whole_numbers(given_array, "x")
        assert got is not given_array and not np.shares_memory(got, given_array)
        assert got.dtype == np.int64 and np.array_equal(got, given_array)
