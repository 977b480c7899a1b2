"""Split-sample refits, holdout scoring, and probability curves."""

from __future__ import annotations

import numpy as np
import pytest

from logitboot import (
    DomainError,
    EncodedDataset,
    FitConfig,
    UnknownPredictorError,
    ValidationReport,
    default_age_grid,
    fit_mle,
    holdout_validate,
    probability_curves,
    sigmoid,
    split_sample_fit,
    standard_profiles,
)
from logitboot.data_io import SimulationSpec, encode, simulate
from logitboot.model_core import _probabilities

from conftest import (
    GOLDEN_COEFFICIENTS,
    GOLDEN_COEFFICIENTS_FULL,
    GOLDEN_TRAIN_COEFFICIENTS,
    make_fit,
)


@pytest.fixture(scope="module")
def study():
    spec = SimulationSpec(coefficients=GOLDEN_COEFFICIENTS, n=400, seed=1618)
    return encode(simulate(spec))


class TestSplitSampleFit:
    def test_full_size_split_equals_direct_fit(self, study):
        report = split_sample_fit(study, [study.n_observations])
        direct = fit_mle(study)
        entry = report.entries[0]
        assert entry.error is None
        assert np.array_equal(entry.fit.coefficients, direct.coefficients)

    def test_trajectories_approach_generating_values(self, study):
        report = split_sample_fit(study, [50, 100, 200, 300, 400])
        truth = np.array(GOLDEN_COEFFICIENTS)
        errors = {
            e.size: np.linalg.norm(e.fit.coefficients - truth)
            for e in report.entries
            if e.fit is not None
        }
        assert 50 in errors and 400 in errors
        assert errors[400] < errors[50]

    def test_degenerate_prefix_recorded_not_raised(self):
        # First five rows all negative: the size-5 refit cannot exist.
        design = np.column_stack([np.ones(20), np.linspace(-1, 1, 20)])
        rng = np.random.default_rng(3)
        response = np.concatenate([np.zeros(5), (rng.random(15) < 0.5).astype(float)])
        if response[5:].sum() in (0.0, 15.0):
            response[5] = 1.0 - response[5]
        data = EncodedDataset(design, response)
        report = split_sample_fit(data, [5, 20])
        first, second = report.entries
        assert first.fit is None and first.error is not None
        assert second.fit is not None and second.error is None

    def test_sizes_validated(self, study):
        with pytest.raises(DomainError):
            split_sample_fit(study, [])
        with pytest.raises(DomainError):
            split_sample_fit(study, [100, 100])
        with pytest.raises(DomainError):
            split_sample_fit(study, [200, 100])
        with pytest.raises(DomainError):
            split_sample_fit(study, [100, 401])
        with pytest.raises(DomainError):
            split_sample_fit(study, [0, 100])

    @pytest.mark.parametrize("sizes", [
        [10.9, 20.2], [100, 200.5], np.array([True]), [np.nan], [np.inf],
    ])
    def test_sizes_must_be_whole_numbers(self, study, sizes):
        # A cast would truncate 10.9 to 10 and read True as size 1.
        with pytest.raises(DomainError, match="whole numbers"):
            split_sample_fit(study, sizes)

    def test_integral_float_sizes_are_accepted(self, study):
        floats = split_sample_fit(study, [100.0, np.float64(400.0)])
        ints = split_sample_fit(study, np.array([100, 400], dtype=np.int32))
        assert [e.size for e in floats.entries] == [100, 400]
        for a, b in zip(floats.entries, ints.entries):
            assert type(a.size) is int
            assert a.fit.coefficients.tobytes() == b.fit.coefficients.tobytes()

    def test_negative_shuffle_seed_rejected(self, study):
        with pytest.raises(DomainError):
            split_sample_fit(study, [100], shuffle_seed=-1)

    def test_shuffle_is_seeded_and_deterministic(self, study):
        a = split_sample_fit(study, [100], shuffle_seed=5)
        b = split_sample_fit(study, [100], shuffle_seed=5)
        c = split_sample_fit(study, [100], shuffle_seed=6)
        assert np.array_equal(a.entries[0].fit.coefficients, b.entries[0].fit.coefficients)
        assert not np.array_equal(
            a.entries[0].fit.coefficients, c.entries[0].fit.coefficients
        )

    def test_shuffled_full_size_reaches_same_optimum(self, study):
        plain = split_sample_fit(study, [400]).entries[0].fit
        shuffled = split_sample_fit(study, [400], shuffle_seed=11).entries[0].fit
        # Same rows, different order: the optimum is permutation-invariant
        # up to float summation order.
        assert shuffled.coefficients == pytest.approx(plain.coefficients, abs=1e-8)


class TestHoldoutValidate:
    def test_counts_match_enumeration_oracle(self):
        fit = make_fit(GOLDEN_TRAIN_COEFFICIENTS)
        # ages chosen to straddle the 0.5 threshold in each profile
        rows = [
            (5.0, 0, 0, 1),
            (15.0, 0, 0, 1),
            (30.0, 0, 0, 0),
            (10.0, 1, 0, 1),
            (45.0, 1, 0, 0),
            (25.0, 0, 1, 1),
            (50.0, 0, 1, 0),
            (60.0, 1, 1, 0),
            (20.0, 1, 1, 1),
            (80.0, 0, 0, 0),
        ]
        design = np.array([[1.0, age, emp, gender] for age, gender, emp, _ in rows])
        response = np.array([float(hiv) for *_, hiv in rows])
        data = EncodedDataset(design, response, ("Intercept", "Age", "Emp", "Gender"))
        test_indices = list(range(10))
        report = holdout_validate(data, fit, test_indices, threshold=0.5)

        # brute-force enumeration, one row at a time
        tp = fp = tn = fn = 0
        for i in test_indices:
            eta = float(fit.coefficients @ design[i])
            predicted = sigmoid(eta) >= 0.5
            actual = response[i] == 1.0
            tp += predicted and actual
            fp += predicted and not actual
            tn += (not predicted) and (not actual)
            fn += (not predicted) and actual
        assert (
            report.true_positive,
            report.false_positive,
            report.true_negative,
            report.false_negative,
        ) == (tp, fp, tn, fn)
        assert report.accuracy == (tp + tn) / 10.0

    def test_test_order_irrelevant(self, study):
        fit = fit_mle(study)
        forward = holdout_validate(study, fit, list(range(300, 400)))
        backward = holdout_validate(study, fit, list(range(399, 299, -1)))
        assert (
            forward.true_positive,
            forward.false_positive,
            forward.true_negative,
            forward.false_negative,
        ) == (
            backward.true_positive,
            backward.false_positive,
            backward.true_negative,
            backward.false_negative,
        )

    def test_train_indices_are_sorted_complement(self, study):
        fit = fit_mle(study)
        report = holdout_validate(study, fit, [399, 0, 200])
        expected = np.setdiff1d(np.arange(400), [0, 200, 399])
        assert np.array_equal(report.train_indices, expected)

    def test_probability_at_threshold_classifies_positive(self):
        # All-zero coefficients give probability exactly 0.5 everywhere.
        fit = make_fit([0.0, 0.0, 0.0, 0.0])
        design = np.array([[1.0, a, 0.0, 0.0] for a in (10.0, 20.0, 30.0, 40.0)])
        response = np.array([1.0, 0.0, 1.0, 0.0])
        data = EncodedDataset(design, response, ("Intercept", "Age", "Emp", "Gender"))
        report = holdout_validate(data, fit, [0, 1, 2, 3], threshold=0.5)
        assert report.true_positive == 2
        assert report.false_positive == 2
        assert report.true_negative == 0
        assert report.false_negative == 0

    def test_sharp_classifier_is_perfect(self):
        ages = np.array([10.0, 20.0, 30.0, 60.0, 70.0, 80.0])
        design = np.column_stack([np.ones(6), ages, np.zeros(6), np.zeros(6)])
        response = (ages < 45).astype(float)
        data = EncodedDataset(design, response, ("Intercept", "Age", "Emp", "Gender"))
        fit = make_fit([9.0, -0.2, 0.0, 0.0])  # decision boundary at age 45
        report = holdout_validate(data, fit, list(range(6)))
        assert report.accuracy == 1.0

    def test_invalid_test_sets_rejected(self, study):
        fit = fit_mle(study)
        with pytest.raises(DomainError):
            holdout_validate(study, fit, [])
        with pytest.raises(DomainError):
            holdout_validate(study, fit, [1, 1])
        with pytest.raises(DomainError):
            holdout_validate(study, fit, [400])
        with pytest.raises(DomainError):
            holdout_validate(study, fit, [-1])
        with pytest.raises(DomainError):
            holdout_validate(study, fit, [0], threshold=0.0)

    @pytest.mark.parametrize("indices", [
        [False, True], np.ones(400, dtype=bool), [1.9, 3.2], [3.0, 4.5], [np.nan],
    ])
    def test_test_indices_must_be_whole_numbers(self, study, indices):
        # A cast would read [False, True] as rows 0 and 1, and [1.9, 3.2]
        # as rows 1 and 3.
        fit = fit_mle(study)
        with pytest.raises(DomainError, match="whole numbers"):
            holdout_validate(study, fit, indices)

    @pytest.mark.parametrize("train, test", [([False, True], [2]), ([0, 1], [2.7])])
    def test_report_indices_must_be_whole_numbers(self, train, test):
        with pytest.raises(DomainError, match="whole numbers"):
            ValidationReport(train, test, 0.5, 1, 0, 0, 0)

    def test_integral_float_test_indices_are_accepted(self, study):
        fit = fit_mle(study)
        floats = holdout_validate(study, fit, [3.0, 250.0, np.float32(399.0)])
        ints = holdout_validate(study, fit, [3, 250, 399])
        for name in ("test_indices", "train_indices"):
            assert getattr(floats, name).tobytes() == getattr(ints, name).tobytes()
        assert (floats.true_positive, floats.false_positive) == \
            (ints.true_positive, ints.false_positive)

    @pytest.mark.parametrize("indices", [[-1, -1], [400, 400], [5, 399, 5]])
    def test_duplicates_are_reported_before_range(self, study, indices):
        fit = fit_mle(study)
        with pytest.raises(DomainError, match="distinct"):
            holdout_validate(study, fit, indices)


class TestProbabilityCurves:
    def test_golden_reference_class_at_age_zero(self, golden_fit):
        profiles = standard_profiles()
        points = probability_curves(golden_fit, profiles)
        male_emp = [p for p in points if p.profile == "male-emp"]
        assert male_emp[0].age == 0.0
        assert male_emp[0].probability == pytest.approx(0.8264925, abs=1e-6)

    def test_golden_female_unemployed_at_age_zero(self, golden_fit):
        points = probability_curves(golden_fit, standard_profiles())
        female_unemp = [p for p in points if p.profile == "female-unemp"]
        assert female_unemp[0].probability == pytest.approx(
            0.9640304453519006, abs=1e-12
        )

    def test_default_grid_shape(self, golden_fit):
        points = probability_curves(golden_fit, standard_profiles())
        assert len(points) == 52  # 4 profiles x 13 ages
        assert np.array_equal(default_age_grid(), np.arange(0.0, 121.0, 10.0))

    def test_strictly_decreasing_in_age(self, golden_fit):
        points = probability_curves(golden_fit, standard_profiles())
        for name in ("male-emp", "male-unemp", "female-emp", "female-unemp"):
            curve = [p.probability for p in points if p.profile == name]
            assert all(b < a for a, b in zip(curve, curve[1:]))

    def test_female_unemployed_dominates(self, golden_fit):
        points = probability_curves(golden_fit, standard_profiles())
        by_profile = {
            name: np.array([p.probability for p in points if p.profile == name])
            for name in ("male-emp", "male-unemp", "female-emp", "female-unemp")
        }
        top = by_profile.pop("female-unemp")
        for curve in by_profile.values():
            assert np.all(top >= curve)

    @pytest.mark.parametrize("coefficients", [
        GOLDEN_COEFFICIENTS,
        GOLDEN_COEFFICIENTS_FULL,
        (40.0, -0.07492, 1.64392, 0.08356),  # the youngest ages clip below 1
        (-40.0, 0.07492, -1.64392, 0.08356),
    ], ids=["golden", "golden-full", "saturated-high", "saturated-low"])
    @pytest.mark.parametrize("grid", [
        default_age_grid(),
        np.arange(0.0, 130.0, 0.37),
        np.arange(0.0, 130.0, 0.026),  # 5000 points
    ], ids=["default", "step-0.37", "step-0.026"])
    def test_points_keep_the_per_age_dot_product_bits(self, coefficients, grid):
        fit = make_fit(coefficients)
        profiles = standard_profiles(grid)
        names, expected = [], []
        for profile in profiles:
            pinned = profile.covariates
            row = np.array([1.0, 0.0, pinned["Emp"], pinned["Gender"]])
            etas = np.empty(grid.size)
            for i, age in enumerate(grid):
                row[1] = age
                etas[i] = fit.coefficients @ row
            probs = _probabilities(etas, np.exp(-np.abs(etas)))
            names += [profile.name] * grid.size
            expected += zip(grid.tolist(), probs.tolist())
        points = probability_curves(fit, profiles)
        assert [p.profile for p in points] == names
        got = np.array([(p.age, p.probability) for p in points])
        assert got.tobytes() == np.array(expected).tobytes()

    def test_profile_validation(self, golden_fit):
        grid = default_age_grid()
        from logitboot import GroupProfile

        with pytest.raises(UnknownPredictorError):
            probability_curves(
                golden_fit,
                [GroupProfile("bad", {"Emp": 0.0, "Gender": 0.0, "Pmot": 1.0}, grid)],
            )
        with pytest.raises(DomainError):
            probability_curves(
                golden_fit, [GroupProfile("partial", {"Emp": 0.0}, grid)]
            )

    def test_age_column_must_exist(self):
        fit = make_fit([0.5, 0.2], names=("Intercept", "Weight"))
        with pytest.raises(UnknownPredictorError):
            probability_curves(fit, standard_profiles())

    def test_grid_must_increase(self):
        from logitboot import GroupProfile

        with pytest.raises(DomainError):
            GroupProfile("x", {}, np.array([0.0, 0.0, 10.0]))
        with pytest.raises(DomainError):
            GroupProfile("x", {}, np.array([]))
