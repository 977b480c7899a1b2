"""Bootstrap resampling, interval estimates, and odds reporting."""

from __future__ import annotations

import importlib
import inspect
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

import logitboot
import logitboot.inference
from logitboot import (
    BootstrapResult,
    DegenerateResponseError,
    DomainError,
    EncodedDataset,
    FitConfig,
    InsufficientReplicatesError,
    NotConvergedError,
    ResamplingInstabilityError,
    SeparationError,
    UnknownPredictorError,
    acceleration_from_jackknife,
    bca_ci,
    bca_intervals,
    bootstrap_fit,
    fit_mle,
    jackknife_acceleration,
    jackknife_estimates,
    logit,
    odds_report,
    odds_scale,
    percentile_ci,
    resample_indices,
    wald_ci,
)
from logitboot.data_io import SimulationSpec, encode, simulate

from conftest import (
    GOLDEN_COEFFICIENTS,
    GOLDEN_COEFFICIENTS_FULL,
    GOLDEN_ODDS,
    make_fit,
    random_dataset,
)


@pytest.fixture(scope="module")
def study():
    spec = SimulationSpec(coefficients=GOLDEN_COEFFICIENTS, n=200, seed=314)
    return encode(simulate(spec))


@pytest.fixture(scope="module")
def study_boot(study):
    return bootstrap_fit(study, replicates=1200, master_seed=77)


def synthetic_result(column: np.ndarray, estimate: float) -> BootstrapResult:
    """BootstrapResult carrying a single prescribed replicate column."""
    fit = make_fit([estimate], names=("Intercept",))
    reps = np.asarray(column, dtype=float).reshape(-1, 1)
    return BootstrapResult(
        replicates=reps,
        replicate_ids=np.arange(reps.shape[0]),
        requested=reps.shape[0],
        master_seed=0,
        original_fit=fit,
    )


class TestResampleIndices:
    def test_deterministic(self):
        a = resample_indices(42, 7, 100)
        b = resample_indices(42, 7, 100)
        assert np.array_equal(a, b)

    def test_varies_with_replicate_and_seed(self):
        base = resample_indices(42, 7, 100)
        assert not np.array_equal(base, resample_indices(42, 8, 100))
        assert not np.array_equal(base, resample_indices(43, 7, 100))

    def test_range_and_length(self):
        idx = resample_indices(0, 0, 37)
        assert idx.shape == (37,)
        assert idx.min() >= 0 and idx.max() < 37

    def test_documented_recipe(self):
        # The generator contract: PCG64 from SeedSequence((master, b)),
        # then integers(0, n, size=n).
        rng = np.random.default_rng(np.random.SeedSequence((5, 9)))
        assert np.array_equal(resample_indices(5, 9, 50), rng.integers(0, 50, size=50))

    @pytest.mark.parametrize("master_seed, replicate, n", [
        (0, 0, 1),
        (11, 210, 30),
        (2**32, 7, 400),
        (3, 2**32 + 1, 400),
        (2**63 + 5, 2**40, 20_000),
    ])
    def test_default_rng_recipe_at_large_seeds_and_ids(
        self, master_seed, replicate, n
    ):
        rng = np.random.default_rng(np.random.SeedSequence((master_seed, replicate)))
        expected = rng.integers(0, n, size=n)
        got = resample_indices(master_seed, replicate, n)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            resample_indices(-1, 0, 10)
        with pytest.raises(DomainError):
            resample_indices(0, -1, 10)
        with pytest.raises(DomainError):
            resample_indices(0, 0, 0)

    @pytest.mark.parametrize("args", [
        (True, 0, 5), (1.5, 0, 5), (0, True, 5), (0, 1.5, 5), (0, 0, 2.5), (0, 0, True),
    ])
    def test_arguments_must_be_whole_numbers(self, args):
        with pytest.raises(DomainError, match="must be whole numbers"):
            resample_indices(*args)

    def test_integral_arguments_are_accepted(self):
        expected = resample_indices(3, 2, 5)
        for args in ((3.0, 2, 5), (3, np.float32(2.0), 5), (np.uint8(3), np.int64(2), 5.0)):
            assert resample_indices(*args).tobytes() == expected.tobytes()


# Master seeds as Python ints, and as NumPy ints where they fit in 64 bits;
# the limb boundary at 2**32 is always tried.
MASTER_SEEDS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32]), st.integers(0, 2**128 - 1)
).flatmap(lambda seed: st.sampled_from(
    [seed, np.uint64(seed), np.int64(seed)] if seed < 2**63 else [seed]))


def drawn_rows(master_seed, ids, n):
    """Rows of the block drawer for ``ids``, in a longer stack then a
    shorter one, as ``_refit_all`` hands them over."""
    fill_rows = logitboot.inference._resample_rows(master_seed, np.array(ids), n)
    rows = np.empty((len(ids), n), dtype=np.int64)
    split = len(ids) - len(ids) // 2
    drawn = []
    for lo, hi in ((0, split), (split, len(ids))):
        fill_rows(np.arange(lo, hi), rows[: hi - lo])
        drawn.extend(rows[: hi - lo].copy())
    return drawn


class TestBlockDrawer:
    @given(
        MASTER_SEEDS,
        st.lists(st.integers(0, 2**31), min_size=1, max_size=6),
        st.sampled_from([1, 2, 3, 400, 401, 20_000]),
    )
    def test_rows_equal_resample_indices(self, master_seed, ids, n):
        for b, row in zip(ids, drawn_rows(master_seed, ids, n)):
            expected = resample_indices(master_seed, b, n)
            assert row.tobytes() == expected.tobytes()

    def test_rejected_draws_fall_back_to_the_recipe(self, monkeypatch):
        # At n = 100 003 NumPy rejects and redraws in about 3 replicates of 5;
        # the others must come from the block itself.
        recipe = logitboot.inference.resample_indices
        redrawn = []

        def counting(master_seed, replicate, n):
            redrawn.append(replicate)
            return recipe(master_seed, replicate, n)

        monkeypatch.setattr(logitboot.inference, "resample_indices", counting)
        ids = list(range(8))
        rows = drawn_rows(2**40 + 3, ids, 100_003)
        assert 0 < len(redrawn) < len(ids)
        for b, row in zip(ids, rows):
            assert row.tobytes() == recipe(2**40 + 3, b, 100_003).tobytes()


class TestBootstrapFit:
    def test_bit_reproducible(self, study):
        a = bootstrap_fit(study, replicates=150, master_seed=9)
        b = bootstrap_fit(study, replicates=150, master_seed=9)
        assert a.replicates.tobytes() == b.replicates.tobytes()
        assert np.array_equal(a.replicate_ids, b.replicate_ids)

    def test_workers_do_not_change_results(self, study):
        serial = bootstrap_fit(study, replicates=120, master_seed=4, workers=1)
        threaded = bootstrap_fit(study, replicates=120, master_seed=4, workers=4)
        assert serial.replicates.tobytes() == threaded.replicates.tobytes()
        assert np.array_equal(serial.replicate_ids, threaded.replicate_ids)

    def test_replicates_regenerate_from_indices(self, study, study_boot):
        for row in (0, 5, 57):
            b = int(study_boot.replicate_ids[row])
            idx = resample_indices(study_boot.master_seed, b, study.n_observations)
            sub = EncodedDataset(
                study.design[idx], study.response[idx], study.column_names
            )
            refit = fit_mle(sub)
            assert np.array_equal(refit.coefficients, study_boot.replicates[row])

    def test_intercept_only_replicates_closed_form(self):
        response = np.zeros(40)
        response[:12] = 1.0
        data = EncodedDataset(np.ones((40, 1)), response)
        result = bootstrap_fit(data, replicates=50, master_seed=13)
        for row, b in enumerate(result.replicate_ids):
            mean = data.response[resample_indices(13, int(b), 40)].mean()
            assert result.replicates[row, 0] == pytest.approx(logit(mean), abs=1e-7)

    def test_replicate_mean_near_original(self, study_boot):
        # Bootstrap bias is O(1/n); stay within 3 bootstrap sd of original.
        original = study_boot.original_fit.coefficients
        means = study_boot.replicates.mean(axis=0)
        sds = study_boot.replicates.std(axis=0)
        assert np.all(np.abs(means - original) <= 3.0 * sds)

    def test_degenerate_resamples_dropped_and_counted(self):
        # Two positives among twelve rows: resamples frequently miss both.
        rng = np.random.default_rng(8)
        design = np.column_stack([np.ones(12), rng.normal(size=12)])
        response = np.zeros(12)
        response[:2] = 1.0
        data = EncodedDataset(design, response)
        result = bootstrap_fit(data, replicates=400, master_seed=21)
        assert result.dropped > 0
        assert result.converged + result.dropped == result.requested
        assert np.all(np.diff(result.replicate_ids) > 0)
        # the first dropped replicate must genuinely fail when regenerated
        dropped_ids = sorted(set(range(400)) - set(result.replicate_ids.tolist()))
        idx = resample_indices(21, dropped_ids[0], 12)
        resampled = data.response[idx]
        if resampled.sum() in (0.0, 12.0):
            return  # single-class resample: dropped before fitting
        sub = EncodedDataset(data.design[idx], resampled)
        try:
            refit = fit_mle(sub)
        except Exception:
            return  # separation or singular information: a valid drop
        assert not refit.converged

    def test_unstable_resampling_raises(self):
        # Ten rows, one swap from separated: the full fit converges, but
        # most resamples separate (89 of 200 converge at master_seed 3).
        x = np.arange(1.0, 11.0)
        y = (x > 5).astype(float)
        y[4], y[5] = 1.0, 0.0
        data = EncodedDataset(np.column_stack([np.ones(10), x]), y)
        assert fit_mle(data).converged
        with pytest.raises(ResamplingInstabilityError):
            bootstrap_fit(data, replicates=200, master_seed=3)

    def test_rejects_bad_arguments(self, study):
        with pytest.raises(DomainError):
            bootstrap_fit(study, replicates=0)
        with pytest.raises(DomainError):
            bootstrap_fit(study, replicates=10, workers=0)

    @pytest.mark.parametrize("replicates", [150.5, True, np.nan])
    def test_replicates_must_be_a_whole_number_before_the_fit(
        self, study, monkeypatch, replicates
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("the full fit ran for an invalid replicate count")

        monkeypatch.setattr(logitboot.inference, "fit_mle", no_fit)
        with pytest.raises(DomainError, match="replicates must be whole numbers"):
            bootstrap_fit(study, replicates=replicates)

    def test_integral_replicates_are_accepted(self, study):
        expected = bootstrap_fit(study, replicates=20, master_seed=4)
        for replicates in (20.0, np.int16(20), np.float64(20.0)):
            result = bootstrap_fit(study, replicates=replicates, master_seed=4)
            assert result.requested == 20 and type(result.requested) is int
            assert result.replicates.tobytes() == expected.replicates.tobytes()
            assert result.replicate_ids.tobytes() == expected.replicate_ids.tobytes()

    @pytest.mark.parametrize("name, value, message", [
        ("master_seed", 1.5, "master_seed must be whole numbers"),
        ("master_seed", True, "master_seed must be whole numbers"),
        ("master_seed", np.float64(np.nan), "master_seed must be whole numbers"),
        ("workers", 1.5, "workers must be whole numbers"),
        ("workers", True, "workers must be whole numbers"),
        ("replicates", 2**32 + 1, r"replicates must be at most 2\*\*32"),
        ("replicates", 2**70, r"replicates must be at most 2\*\*32"),
    ])
    def test_bad_seed_workers_or_count_is_refused_before_the_fit(
        self, study, monkeypatch, name, value, message
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("the full fit ran for an invalid argument")

        monkeypatch.setattr(logitboot.inference, "fit_mle", no_fit)
        with pytest.raises(DomainError, match=message):
            bootstrap_fit(study, **{"replicates": 20, name: value})

    def test_integral_master_seeds_are_accepted(self, study):
        expected = bootstrap_fit(study, replicates=20, master_seed=4)
        for seed in (4.0, np.float32(4.0), np.int64(4), np.uint8(4)):
            result = bootstrap_fit(study, replicates=20, master_seed=seed, workers=1.0)
            assert result.master_seed == 4 and type(result.master_seed) is int
            assert result.replicates.tobytes() == expected.replicates.tobytes()

    def test_master_seed_of_any_size_is_kept(self, study):
        # 2**70 is past int64, so the seed is never cast to a NumPy integer.
        result = bootstrap_fit(study, replicates=20, master_seed=2**70)
        assert result.master_seed == 2**70
        rows = resample_indices(2**70, 0, study.n_observations)
        refit = fit_mle(EncodedDataset(study.design[rows], study.response[rows]))
        assert result.replicate_ids[0] == 0
        assert result.replicates[0].tobytes() == refit.coefficients.tobytes()


def test_negative_master_seed_raises_after_the_full_fit(study, monkeypatch):
    fitted = []

    def spy(data, config=None):
        fitted.append(data)
        return fit_mle(data, config)

    monkeypatch.setattr(logitboot.inference, "fit_mle", spy)
    with pytest.raises(
        DomainError, match="^seeds and replicate indices must be non-negative$"
    ):
        bootstrap_fit(study, replicates=20, master_seed=-1)
    assert len(fitted) == 1 and fitted[0] is study


def no_refit(*args, **kwargs):
    raise AssertionError("a bootstrap refit ran")


def test_unconverged_full_fit_is_refused_before_any_refit(monkeypatch):
    data = golden_study(400, 7)
    assert not fit_mle(data, FitConfig(max_iterations=5)).converged
    monkeypatch.setattr(logitboot.inference, "_refit_all", no_refit)
    with pytest.raises(NotConvergedError, match="^full-sample fit did not converge$"):
        bootstrap_fit(data, FitConfig(max_iterations=5), replicates=2000)


def test_negative_seed_is_refused_before_the_convergence_gate(monkeypatch):
    data = golden_study(400, 7)
    monkeypatch.setattr(logitboot.inference, "_refit_all", no_refit)
    with pytest.raises(DomainError, match="must be non-negative"):
        bootstrap_fit(data, FitConfig(max_iterations=5), replicates=20, master_seed=-1)


def single_refit(data, rows, config=None):
    """Coefficients of fit_mle on the given rows alone, or None when that
    refit is single-class, separated, singular or out of iterations."""
    sub = EncodedDataset(data.design[rows], data.response[rows])
    try:
        fit = fit_mle(sub, config)
    except (DegenerateResponseError, SeparationError):
        return None
    return fit.coefficients if fit.converged else None


def golden_study(n, seed):
    spec = SimulationSpec(coefficients=GOLDEN_COEFFICIENTS, n=n, seed=seed)
    return encode(simulate(spec))


class TestStackedRefits:
    """Chunked refits keep exactly the outcomes of one fit_mle per refit."""

    def assert_bootstrap_contract(self, data, config, replicates, master_seed):
        result = bootstrap_fit(data, config, replicates, master_seed)
        kept = dict(zip(result.replicate_ids.tolist(), result.replicates))
        for b in range(replicates):
            rows = resample_indices(master_seed, b, data.n_observations)
            alone = single_refit(data, rows, config)
            assert (b in kept) == (alone is not None), b
            if alone is not None:
                assert kept[b].tobytes() == alone.tobytes(), b
        return result

    def test_bootstrap_every_id_across_chunk_boundaries(self):
        # 67 replicates of a 400 x 4 design: one partial stack at 1 MiB,
        # three full stacks and a partial fourth at 256 KiB.
        self.assert_bootstrap_contract(golden_study(400, 7), None, 67, 5)

    def test_bootstrap_every_id_across_chunk_bytes_boundaries(self):
        # Two full stacks of 400 x 4 resamples at CHUNK_BYTES and a partial
        # third.
        chunk = logitboot.inference.CHUNK_BYTES // (8 * 400 * 4)
        self.assert_bootstrap_contract(golden_study(400, 7), None, 2 * chunk + 3, 5)

    @pytest.mark.parametrize("refits", [
        lambda data: bootstrap_fit(data, replicates=1000, master_seed=5),
        jackknife_estimates,
    ], ids=["bootstrap", "jackknife"])
    def test_traced_peak_within_four_chunks(self, refits):
        # A stack's gathered design is CHUNK_BYTES; the kernel's working
        # set on top of it must stay bounded by a few more stacks.
        data = golden_study(400, 7)
        tracemalloc.start()
        try:
            refits(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * logitboot.inference.CHUNK_BYTES

    def test_bootstrap_quasi_separated_study(self):
        result = self.assert_bootstrap_contract(golden_study(30, 3), None, 300, 11)
        assert result.converged == 225
        assert 210 in result.replicate_ids

    def test_bootstrap_from_initial_coefficients(self):
        data = golden_study(400, 7)
        start = FitConfig(initial_coefficients=(1.0, -0.05, 1.0, 0.0))
        self.assert_bootstrap_contract(data, start, 45, 8)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_results_do_not_depend_on_chunk_length(self, monkeypatch, chunk):
        data = golden_study(30, 3)
        reference = bootstrap_fit(data, replicates=300, master_seed=11)
        jackknife = jackknife_estimates(data)
        monkeypatch.setattr(logitboot.inference, "CHUNK_BYTES", chunk * 8 * 30 * 4)
        result = bootstrap_fit(data, replicates=300, master_seed=11)
        assert result.replicate_ids.tobytes() == reference.replicate_ids.tobytes()
        assert result.replicates.tobytes() == reference.replicates.tobytes()
        assert jackknife_estimates(data).tobytes() == jackknife.tobytes()

    @pytest.mark.parametrize("n, seed", [(30, 3), (400, 7)])
    def test_jackknife_matches_leave_one_out_fits(self, n, seed):
        data = golden_study(n, seed)
        alone = [single_refit(data, np.delete(np.arange(n), i)) for i in range(n)]
        expected = np.array([c for c in alone if c is not None])
        assert jackknife_estimates(data).tobytes() == expected.tobytes()


# The 30-row study's kept ids and every refit's status, as JSON.
KERNEL_PROBE = f"""
import hashlib, json
import numpy as np
from logitboot import bootstrap_fit, resample_indices
from logitboot.data_io import SimulationSpec, encode, simulate
from logitboot.model_core import _fit_batch
spec = SimulationSpec(coefficients={GOLDEN_COEFFICIENTS!r}, n=30, seed=3)
data = encode(simulate(spec))
result = bootstrap_fit(data, replicates=300, master_seed=11)
rows = np.stack([resample_indices(11, b, 30) for b in range(300)])
batch = _fit_batch(data.design[rows], data.response[rows])
kept = result.replicate_ids.astype("<i8").tobytes()
print(json.dumps({{"kept": hashlib.sha256(kept).hexdigest(),
                  "count": int(result.converged),
                  "status": batch.status.tolist()}}))
"""


def avx512_features() -> list[str]:
    """The AVX-512 targets the running NumPy dispatches to on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy 1.x
        from numpy.core import _multiarray_umath as umath
    return [
        name for name in umath.__cpu_dispatch__
        if (name == "X86_V4" or name.startswith("AVX512"))
        and umath.__cpu_features__.get(name)
    ]


class TestKernelIndependence:
    """Fates do not hinge on which SIMD kernels NumPy and OpenBLAS pick."""

    def test_quasi_separated_study_under_each_kernel_setting(self):
        disabled = ",".join(avx512_features())
        settings = [{}, {"OPENBLAS_CORETYPE": "Haswell"},
                    {"NPY_DISABLE_CPU_FEATURES": disabled} if disabled else {}]
        outcomes = []
        for setting in settings:
            proc = subprocess.run([sys.executable, "-c", KERNEL_PROBE],
                                  capture_output=True, text=True,
                                  env={**os.environ, **setting})
            assert proc.returncode == 0, proc.stderr
            outcomes.append(json.loads(proc.stdout))
        assert outcomes[0]["count"] == 225
        for setting, outcome in zip(settings[1:], outcomes[1:]):
            assert outcome == outcomes[0], setting


class TestWaldCI:
    def test_golden_age_interval(self):
        # se 0.01133 around -0.07492 at the 0.975 normal quantile
        fit = make_fit_with_se([0.0, -0.07492, 0.0, 0.0], [1.0, 0.01133, 1.0, 1.0])
        interval = wald_ci(fit, 0.95)[1]
        assert interval.lower == pytest.approx(-0.09712639194483881, abs=1e-12)
        assert interval.upper == pytest.approx(-0.05271360805516119, abs=1e-12)
        assert interval.lower == pytest.approx(-0.09712, abs=1e-5)
        assert interval.upper == pytest.approx(-0.05272, abs=1e-5)

    def test_implied_normal_quantile(self):
        fit = make_fit_with_se([0.0], [1.0], names=("Intercept",))
        interval = wald_ci(fit, 0.95)[0]
        assert interval.upper == pytest.approx(1.959963984540054, abs=1e-6)
        assert interval.lower == pytest.approx(-interval.upper, abs=1e-12)

    def test_zero_se_collapses(self):
        fit = make_fit([1.5, -2.0], names=("Intercept", "x1"))
        for interval in wald_ci(fit, 0.95):
            assert interval.lower == interval.upper

    def test_wider_at_higher_level(self):
        fit = make_fit_with_se([0.4], [0.3], names=("Intercept",))
        narrow = wald_ci(fit, 0.95)[0]
        wide = wald_ci(fit, 0.99)[0]
        assert wide.lower < narrow.lower < narrow.upper < wide.upper

    def test_requires_convergence_and_valid_level(self, study):
        stalled = fit_mle(study, FitConfig(max_iterations=1))
        with pytest.raises(NotConvergedError):
            wald_ci(stalled, 0.95)
        fit = make_fit([0.0], names=("Intercept",))
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                wald_ci(fit, bad)


def make_fit_with_se(coefficients, standard_errors, names=None):
    theta = np.asarray(coefficients, dtype=float)
    se = np.asarray(standard_errors, dtype=float)
    if names is None:
        names = ("Intercept", "Age", "Emp", "Gender")[: theta.size]
    from logitboot import FitResult

    return FitResult(
        coefficients=theta,
        standard_errors=se,
        covariance=np.diag(se * se),
        log_likelihood=0.0,
        deviance=0.0,
        iterations=0,
        converged=True,
        column_names=tuple(names),
    )


class TestPercentileCI:
    def test_interpolation_rule_frozen(self):
        result = synthetic_result(np.arange(1.0, 101.0), estimate=50.0)
        interval = percentile_ci(result, 0, 0.90)
        # 1-based positions 0.05*99+1 = 5.95 and 0.95*99+1 = 95.05
        assert interval.lower == pytest.approx(5.95, abs=1e-12)
        assert interval.upper == pytest.approx(95.05, abs=1e-12)

    def test_matches_manual_order_statistic_interpolation(self, study_boot):
        column = np.sort(study_boot.replicates[:, 1])
        level = 0.95
        manual = []
        for q in ((1 - level) / 2, (1 + level) / 2):
            position = q * (column.size - 1)
            low = int(np.floor(position))
            frac = position - low
            high = min(low + 1, column.size - 1)
            manual.append((1 - frac) * column[low] + frac * column[high])
        interval = percentile_ci(study_boot, 1, level)
        assert interval.lower == pytest.approx(manual[0], rel=1e-12)
        assert interval.upper == pytest.approx(manual[1], rel=1e-12)

    def test_constant_replicates_collapse(self):
        result = synthetic_result(np.full(200, 2.5), estimate=2.5)
        interval = percentile_ci(result, 0, 0.95)
        assert interval.lower == interval.upper == 2.5

    def test_nested_levels(self, study_boot):
        inner = percentile_ci(study_boot, 1, 0.90)
        outer = percentile_ci(study_boot, 1, 0.99)
        assert outer.lower <= inner.lower <= inner.upper <= outer.upper

    def test_minimum_replicates_enforced(self):
        result = synthetic_result(np.arange(99.0), estimate=50.0)
        with pytest.raises(InsufficientReplicatesError):
            percentile_ci(result, 0, 0.95)


class TestCoefficientIndex:
    @pytest.mark.parametrize("index", [-1, 1])
    def test_percentile_rejects_index_outside_columns(self, index):
        result = synthetic_result(np.arange(200.0), estimate=100.0)
        with pytest.raises(DomainError, match="coefficient_index"):
            percentile_ci(result, index, 0.95)

    @pytest.mark.parametrize("index", [-1, 1])
    def test_bca_rejects_index_outside_columns(self, index):
        result = synthetic_result(np.arange(1200.0), estimate=600.0)
        with pytest.raises(DomainError, match="coefficient_index"):
            bca_ci(result, None, None, index, 0.95, acceleration=0.0)


    @pytest.mark.parametrize("index", [True, np.True_, 1.5, np.nan])
    def test_index_must_be_a_whole_number(self, study, study_boot, monkeypatch,
                                          index):
        # True would index a new axis and pool every coefficient's
        # replicates into one interval.
        def no_jackknife(*args, **kwargs):
            raise AssertionError("jackknife ran for an index that is not whole")

        monkeypatch.setattr(logitboot.inference, "jackknife_estimates", no_jackknife)
        for call in (
            lambda: percentile_ci(study_boot, index),
            lambda: bca_ci(study_boot, study, None, index, acceleration=0.0),
            lambda: jackknife_acceleration(study, None, index),
        ):
            with pytest.raises(DomainError, match="coefficient_index must be whole"):
                call()

    @pytest.mark.parametrize("index", [2**63, np.uint64(2**63), 2**70, -2**70])
    def test_index_beyond_int64_gets_the_range_message(self, study, study_boot,
                                                        monkeypatch, index):
        def no_jackknife(*args, **kwargs):
            raise AssertionError("jackknife ran for an index outside the columns")

        monkeypatch.setattr(logitboot.inference, "jackknife_estimates", no_jackknife)
        for call in (
            lambda: percentile_ci(study_boot, index),
            lambda: bca_ci(study_boot, study, None, index, acceleration=0.0),
            lambda: jackknife_acceleration(study, None, index),
        ):
            with pytest.raises(DomainError, match=r"coefficient_index must lie in 0\.\.3"):
                call()

    @pytest.mark.parametrize("index", [1.0, np.float32(1.0), np.int8(1)])
    def test_integral_index_is_accepted(self, study, study_boot, index):
        for method, expected in (
            (percentile_ci, percentile_ci(study_boot, 1)),
            (lambda r, j: bca_ci(r, study, None, j, acceleration=0.01),
             bca_ci(study_boot, study, None, 1, acceleration=0.01)),
        ):
            interval = method(study_boot, index)
            assert interval == expected
            assert type(interval.coefficient_index) is int

    @pytest.mark.parametrize("index", [-1, 4])
    def test_jackknife_acceleration_rejects_index_before_any_refit(
        self, study, monkeypatch, index
    ):
        def no_jackknife(*args, **kwargs):
            raise AssertionError("jackknife ran for an index outside the columns")

        monkeypatch.setattr(logitboot.inference, "jackknife_estimates", no_jackknife)
        with pytest.raises(DomainError, match=r"coefficient_index must lie in 0\.\.3"):
            jackknife_acceleration(study, None, index)


class TestJackknife:
    def test_estimates_shape_for_healthy_data(self, study):
        estimates = jackknife_estimates(study)
        assert estimates.shape == (study.n_observations, study.n_parameters)

    def test_acceleration_zero_for_symmetric_values(self):
        assert acceleration_from_jackknife(np.array([1.0, 2.0, 3.0])) == 0.0
        assert acceleration_from_jackknife(np.full(5, 4.2)) == 0.0

    def test_acceleration_frozen_hand_value(self):
        # mean 3/4, deviations (3/4, 3/4, 3/4, -9/4)
        value = acceleration_from_jackknife(np.array([0.0, 0.0, 0.0, 3.0]))
        assert value == pytest.approx(-0.09622504486493763, abs=1e-15)

    def test_acceleration_via_refits_matches_column_formula(self, study):
        estimates = jackknife_estimates(study)
        for j in range(study.n_parameters):
            assert jackknife_acceleration(study, None, j) == pytest.approx(
                acceleration_from_jackknife(estimates[:, j]), abs=1e-15
            )


class TestBCaCI:
    def test_forced_identity_equals_percentile(self, study, study_boot):
        for j in range(study.n_parameters):
            plain = percentile_ci(study_boot, j, 0.95)
            forced = bca_ci(
                study_boot, study, None, j, 0.95, bias_correction=0.0, acceleration=0.0
            )
            assert forced.lower == plain.lower
            assert forced.upper == plain.upper

    def test_organic_median_unbiased_zero_acceleration(self):
        # Exactly half the replicates below the estimate: z0 comes out 0.
        column = np.concatenate([np.linspace(-2, -0.1, 600), np.linspace(0.1, 2, 600)])
        result = synthetic_result(column, estimate=0.0)
        bca = bca_ci(result, None, None, 0, 0.95, acceleration=0.0)
        plain = percentile_ci(result, 0, 0.95)
        assert bca.lower == plain.lower
        assert bca.upper == plain.upper
        assert not bca.fallback

    def test_dual_route_reimplementation(self, study, study_boot):
        # Independent reimplementation of the adjusted-percentile pipeline.
        level = 0.95
        config = None
        for j in (0, 1):
            column = study_boot.replicates[:, j]
            theta_hat = study_boot.original_fit.coefficients[j]
            z0 = scipy.stats.norm.ppf((column < theta_hat).sum() / column.size)
            loo = []
            n = study.n_observations
            for i in range(n):
                keep = np.ones(n, dtype=bool)
                keep[i] = False
                sub = EncodedDataset(
                    study.design[keep], study.response[keep], study.column_names
                )
                loo.append(fit_mle(sub, config).coefficients[j])
            loo = np.array(loo)
            d = loo.mean() - loo
            a = np.sum(d**3) / (6.0 * np.sum(d**2) ** 1.5)
            z_lo, z_hi = scipy.stats.norm.ppf([(1 - level) / 2, (1 + level) / 2])
            alpha_lo = scipy.stats.norm.cdf(z0 + (z0 + z_lo) / (1 - a * (z0 + z_lo)))
            alpha_hi = scipy.stats.norm.cdf(z0 + (z0 + z_hi) / (1 - a * (z0 + z_hi)))
            expected = np.quantile(column, [alpha_lo, alpha_hi])
            interval = bca_ci(study_boot, study, config, j, level)
            assert interval.lower == pytest.approx(float(expected[0]), abs=1e-10)
            assert interval.upper == pytest.approx(float(expected[1]), abs=1e-10)

    def test_one_sided_replicates_fall_back(self):
        column = np.linspace(1.0, 2.0, 1500)
        result = synthetic_result(column, estimate=0.5)  # all replicates above
        interval = bca_ci(result, None, None, 0, 0.95)
        plain = percentile_ci(result, 0, 0.95)
        assert interval.fallback
        assert interval.method == "bca"
        assert interval.lower == plain.lower
        assert interval.upper == plain.upper

    def test_minimum_replicates_enforced(self):
        result = synthetic_result(np.linspace(0, 1, 999), estimate=0.5)
        with pytest.raises(InsufficientReplicatesError):
            bca_ci(result, None, None, 0, 0.95)

    def test_fallback_flag_is_a_python_bool(self):
        # json.dumps refuses numpy.bool_, and the CLI writes this flag as is.
        one_sided = synthetic_result(np.linspace(1.0, 2.0, 1500), estimate=0.5)
        column = np.concatenate([np.linspace(-2, -0.1, 600), np.linspace(0.1, 2, 600)])
        unbiased = synthetic_result(column, estimate=0.0)
        assert bca_ci(one_sided, None, None, 0, 0.95).fallback is True
        assert bca_ci(unbiased, None, None, 0, 0.95, acceleration=0.0).fallback is False

    def test_given_bias_correction_on_one_sided_column_adjusts_tails(self):
        # A given z0 needs no fraction below the estimate, so even when every
        # replicate lies above it the interval is a BCa one, not a fallback.
        column = np.linspace(1.0, 2.0, 1500)
        result = synthetic_result(column, estimate=0.5)
        z0, a, level = 0.3, 0.1, 0.9
        interval = bca_ci(result, None, None, 0, level, bias_correction=z0, acceleration=a)
        z = scipy.stats.norm.ppf([(1 - level) / 2, (1 + level) / 2])
        tails = scipy.stats.norm.cdf(z0 + (z0 + z) / (1 - a * (z0 + z)))
        expected = np.quantile(column, tails)
        plain = percentile_ci(result, 0, level)
        assert interval.fallback is False
        assert interval.lower == pytest.approx(float(expected[0]), abs=1e-12)
        assert interval.upper == pytest.approx(float(expected[1]), abs=1e-12)
        assert (interval.lower, interval.upper) != (plain.lower, plain.upper)


def counting_jackknife(monkeypatch):
    """Wrap ``logitboot.inference.jackknife_estimates``; returns its call list."""
    calls = []
    real = logitboot.inference.jackknife_estimates

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(logitboot.inference, "jackknife_estimates", counted)
    return calls


class TestBCaIntervals:
    def test_one_jackknife_same_bits_as_bca_ci(self, study, study_boot, monkeypatch):
        loo = jackknife_estimates(study)
        expected = [
            bca_ci(study_boot, study, None, j, 0.9,
                   acceleration=acceleration_from_jackknife(loo[:, j]))
            for j in range(study.n_parameters)
        ]
        calls = counting_jackknife(monkeypatch)
        intervals = bca_intervals(study_boot, study, None, 0.9)
        assert len(calls) == 1
        assert [i.coefficient_index for i in intervals] == list(range(study.n_parameters))
        # Dataclass equality: the same lower, upper and fallback, bit for bit.
        assert intervals == expected

    def test_jackknife_runs_when_every_interval_falls_back(
        self, study, study_boot, monkeypatch
    ):
        # An original estimate below every replicate leaves z0 undefined, but
        # the one jackknife is not skipped, so a study whose jackknife fails
        # still fails.
        below = make_fit(study_boot.replicates.min(axis=0) - 1.0)
        result = BootstrapResult(
            replicates=study_boot.replicates,
            replicate_ids=study_boot.replicate_ids,
            requested=study_boot.requested,
            master_seed=study_boot.master_seed,
            original_fit=below,
        )
        calls = counting_jackknife(monkeypatch)
        intervals = bca_intervals(result, study)
        assert len(calls) == 1
        assert [i.fallback for i in intervals] == [True] * study.n_parameters

    @pytest.mark.parametrize(
        "survivors, level, error",
        [
            (999, 0.95, InsufficientReplicatesError),
            (1200, 0.9999999999999999, DomainError),
        ],
    )
    def test_request_bound_to_fail_runs_no_refit(
        self, study, study_boot, monkeypatch, survivors, level, error
    ):
        def no_jackknife(*args, **kwargs):
            raise AssertionError("jackknife ran for a BCa request that must fail")

        result = BootstrapResult(
            replicates=study_boot.replicates[:survivors],
            replicate_ids=study_boot.replicate_ids[:survivors],
            requested=study_boot.requested,
            master_seed=study_boot.master_seed,
            original_fit=study_boot.original_fit,
        )
        monkeypatch.setattr(logitboot.inference, "jackknife_estimates", no_jackknife)
        with pytest.raises(error):
            bca_intervals(result, study, None, level)


@pytest.mark.parametrize(
    "module", ["data_io", "errors", "inference", "model_core", "validation"]
)
def test_all_lists_every_public_function_and_class(module):
    assert len(logitboot.__all__) == len(set(logitboot.__all__))
    for name in logitboot.__all__:
        assert hasattr(logitboot, name), name
    namespace = importlib.import_module(f"logitboot.{module}")
    public = {
        name
        for name, value in vars(namespace).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == namespace.__name__
    }
    assert public <= set(logitboot.__all__), public - set(logitboot.__all__)


class TestOddsReport:
    def test_zero_coefficient_gives_unit_odds(self):
        report = odds_report(make_fit([0.0, 0.5], names=("Intercept", "x1")))
        assert report.entries[0].odds_ratio == 1.0

    def test_golden_model_odds(self):
        report = odds_report(make_fit(GOLDEN_COEFFICIENTS_FULL))
        ratios = [e.odds_ratio for e in report.entries]
        assert ratios == pytest.approx(GOLDEN_ODDS, abs=1e-6)

    def test_scaled_age_multiplier(self):
        report = odds_report(make_fit(GOLDEN_COEFFICIENTS), scaled=(("Age", 15.0),))
        entry = report.scaled[0]
        assert entry.coefficient_index == 1
        assert entry.multiplier == pytest.approx(0.3250423, abs=1e-6)

    def test_ratio_side_tracks_coefficient_sign(self):
        report = odds_report(
            make_fit([0.7, -0.3, 0.0, 1.2])
        )
        signs = [np.sign(e.log_odds) for e in report.entries]
        sides = [np.sign(e.odds_ratio - 1.0) for e in report.entries]
        assert signs == sides

    def test_unknown_scaled_name_rejected(self):
        with pytest.raises(UnknownPredictorError):
            odds_report(make_fit(GOLDEN_COEFFICIENTS), scaled=(("Pmot", 1.0),))

    def test_requires_convergence(self, study):
        stalled = fit_mle(study, FitConfig(max_iterations=1))
        with pytest.raises(NotConvergedError):
            odds_report(stalled)


class TestOddsScale:
    def test_exponentiates_bounds(self, study_boot):
        interval = percentile_ci(study_boot, 1, 0.95)
        odds = odds_scale(interval)
        assert odds.scale == "odds"
        assert odds.lower == pytest.approx(np.exp(interval.lower), rel=1e-15)
        assert odds.upper == pytest.approx(np.exp(interval.upper), rel=1e-15)
        assert odds.lower <= odds.upper

    def test_double_conversion_rejected(self, study_boot):
        once = odds_scale(percentile_ci(study_boot, 1, 0.95))
        with pytest.raises(DomainError):
            odds_scale(once)
