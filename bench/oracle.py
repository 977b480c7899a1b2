"""Independent checks of every benchmark operation's output.

The reference fit is a plain NumPy Newton/IRLS loop written here, not a
call into logitboot.  Each ``check_*`` function returns a list of problems;
an empty list means the output is correct.

Allowed error.  logitboot stops when ``max|score| <= 1e-8``; the distance
from the exact MLE is then about ``|I^-1| * 1e-8``, below 1e-9 for every
input the benchmark makes (n >= 100, Age in [0, 90]).  The oracle iterates
to rounding level.  Coefficients must agree within ``COEF_TOL`` absolute
plus ``COEF_TOL`` relative, a hundredfold margin that still rejects any
error of 1e-6 or more.  Standard errors must agree within ``SE_RTOL``.
"""

from __future__ import annotations

import json
from statistics import NormalDist

import numpy as np

from inputs import COLUMNS, GOLDEN, draw_study, expit, read_csv

COEF_TOL = 1e-7
SE_RTOL = 1e-6
# Bounds derived from the same replicates by the same quantile rule.
BOUND_TOL = 1e-9
# logitboot's own convergence test; recomputing the score in another
# summation order moves it by far less than the slack allowed here.
SCORE_TOL = 1e-6


class OracleError(ArithmeticError):
    """The reference fit itself failed on an input."""


def fit(design: np.ndarray, response: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton/IRLS maximum-likelihood fit; returns ``(theta, standard_errors)``."""
    theta = np.zeros(design.shape[1])
    for _ in range(60):
        prob = expit(design @ theta)
        info = design.T @ (design * (prob * (1.0 - prob))[:, None])
        step = np.linalg.solve(info, design.T @ (response - prob))
        theta = theta + step
        if np.max(np.abs(theta)) > 50.0:
            raise OracleError("coefficients diverge: the data are separated")
        if np.max(np.abs(step)) <= 1e-13 * (1.0 + np.max(np.abs(theta))):
            break
    else:
        raise OracleError("reference fit did not converge")
    prob = expit(design @ theta)
    info = design.T @ (design * (prob * (1.0 - prob))[:, None])
    return theta, np.sqrt(np.diag(np.linalg.inv(info)))


def resample(master_seed: int, replicate: int, n: int) -> np.ndarray:
    """Rows of bootstrap replicate ``replicate`` by the documented recipe."""
    rng = np.random.default_rng(np.random.SeedSequence((master_seed, replicate)))
    return rng.integers(0, n, size=n)


def compare(label: str, got, want, atol: float, rtol: float = 0.0) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    err = np.abs(got - want)
    limit = atol + rtol * np.abs(want)
    if not np.all(err <= limit):
        return [f"{label}: max error {float(np.max(err)):.3g} exceeds tolerance"]
    return []


def compare_fit(label: str, coefficients, standard_errors, design, response) -> list[str]:
    try:
        theta, se = fit(design, response)
    except OracleError as exc:
        return [f"{label}: oracle failed: {exc}"]
    problems = compare(f"{label} coefficients", coefficients, theta, COEF_TOL, COEF_TOL)
    if standard_errors is not None:
        problems += compare(f"{label} standard errors", standard_errors, se, 0.0, SE_RTOL)
    return problems


def wald_bounds(coefficients, standard_errors, level: float = 0.95):
    z = NormalDist().inv_cdf((1.0 + level) / 2.0)
    theta = np.asarray(coefficients, dtype=float)
    se = np.asarray(standard_errors, dtype=float)
    return theta - z * se, theta + z * se


def acceleration(values: np.ndarray) -> float:
    d = values.mean() - values
    denom = 6.0 * np.sum(d * d) ** 1.5
    return 0.0 if denom == 0.0 else float(np.sum(d**3) / denom)


def bca_bounds(column: np.ndarray, estimate: float, accel: float, level: float = 0.95):
    """BCa bounds (Efron & Tibshirani 1993, ch. 14) with stdlib normal maths."""
    normal = NormalDist()
    alpha = (1.0 - level) / 2.0
    fraction = np.count_nonzero(column < estimate) / column.size
    if fraction in (0.0, 1.0):
        return tuple(np.quantile(column, [alpha, 1.0 - alpha]))
    z0 = normal.inv_cdf(fraction)
    tails = []
    for z in (normal.inv_cdf(alpha), normal.inv_cdf(1.0 - alpha)):
        tails.append(normal.cdf(z0 + (z0 + z) / (1.0 - accel * (z0 + z))))
    return tuple(np.quantile(column, tails))


# Replicates scored together; keeps the oracle's memory far below the
# program's, since boot-study reports the benchmark process's peak RSS.
CHUNK = 50


def bootstrap_scores(design, response, thetas, ids, master_seed) -> np.ndarray:
    """Score of replicate row ``thetas[k]`` on the resample of ``ids[k]``."""
    n = response.size
    out = np.empty_like(thetas)
    for lo in range(0, len(ids), CHUNK):
        rows = np.stack([resample(master_seed, int(b), n) for b in ids[lo:lo + CHUNK]])
        sub_x = design[rows]
        resid = response[rows] - expit(np.einsum("bnp,bp->bn", sub_x, thetas[lo:lo + CHUNK]))
        out[lo:lo + CHUNK] = np.einsum("bnp,bn->bp", sub_x, resid)
    return out


def jackknife_scores(design, response, thetas, deleted) -> np.ndarray:
    """Score of row ``thetas[k]`` on the data without observation ``deleted[k]``."""
    out = np.empty_like(thetas)
    for lo in range(0, len(deleted), CHUNK):
        drop = np.asarray(deleted[lo:lo + CHUNK])
        resid = response[:, None] - expit(design @ thetas[lo:lo + CHUNK].T)
        own = design[drop] * resid[drop, np.arange(drop.size)][:, None]
        out[lo:lo + CHUNK] = (design.T @ resid).T - own
    return out


def well_posed(design, response) -> bool:
    """Whether the data have a finite MLE: both classes present and no separation."""
    if not 0 < response.sum() < response.size:
        return False
    try:
        fit(design, response)
    except OracleError:
        return False
    return True


# ----------------------------------------------------------------- library


def check_study(study, design, response, master_seed, replicates, spot_ids) -> list[str]:
    """Check one boot-study operation: bootstrap, intervals and jackknife.

    A replicate id or a jackknife row the program left out is accepted only
    if its data have no finite MLE.
    """
    boot = study["bootstrap"]
    reps = np.asarray(boot.replicates)
    ids = np.asarray(boot.replicate_ids)
    n = response.size
    problems = compare_fit(
        "original fit", boot.original_fit.coefficients,
        boot.original_fit.standard_errors, design, response,
    )
    if boot.requested != replicates:
        problems.append(f"bootstrap requested {boot.requested}, not {replicates}")
    if ids.size and (np.any(np.diff(ids) <= 0) or ids[0] < 0 or ids[-1] >= replicates):
        problems.append("replicate ids are not increasing within range")
    if problems:
        return problems
    for b in sorted(set(range(replicates)) - set(ids.tolist())):
        idx = resample(master_seed, b, n)
        if well_posed(design[idx], response[idx]):
            problems.append(f"replicate {b} dropped although its resample has an MLE")
    worst = float(np.max(np.abs(bootstrap_scores(design, response, reps, ids, master_seed)),
                         initial=0.0))
    if worst > SCORE_TOL:
        problems.append(f"a replicate row is not the MLE of its resample (score {worst:.3g})")
    for b in spot_ids:
        where = np.flatnonzero(ids == b)
        if where.size != 1:
            continue  # a dropped id was checked above
        idx = resample(master_seed, int(b), n)
        problems += compare_fit(f"replicate {b}", reps[where[0]], None, design[idx], response[idx])

    theta = boot.original_fit.coefficients
    se = boot.original_fit.standard_errors
    lower, upper = wald_bounds(theta, se)
    for interval in study["wald"]:
        j = interval.coefficient_index
        problems += compare(f"wald {j}", [interval.lower, interval.upper],
                            [lower[j], upper[j]], 1e-12, 1e-12)
    for j, interval in enumerate(study["percentile"]):
        want = np.quantile(reps[:, j], [0.025, 0.975])
        problems += compare(f"percentile {j}", [interval.lower, interval.upper],
                            want, BOUND_TOL)

    loo = np.asarray(study["jackknife"])
    if loo.ndim != 2 or loo.shape[1] != theta.size:
        return problems + [f"jackknife shape {loo.shape}"]
    deleted = np.arange(n)
    if loo.shape[0] != n:
        # Rows are kept in deletion order; only ill-posed deletions may be missing.
        keep = np.ones(n, dtype=bool)
        posed = []
        for i in range(n):
            keep[i] = False
            if well_posed(design[keep], response[keep]):
                posed.append(i)
            keep[i] = True
        if len(posed) != loo.shape[0]:
            return problems + [
                f"jackknife kept {loo.shape[0]} rows, {len(posed)} are well posed"]
        deleted = np.array(posed)
    worst = float(np.max(np.abs(jackknife_scores(design, response, loo, deleted))))
    if worst > SCORE_TOL:
        problems.append(f"a jackknife row is not its leave-one-out MLE (score {worst:.3g})")
    for k in (0, deleted.size - 1):
        keep = np.arange(n) != deleted[k]
        problems += compare_fit(f"jackknife {deleted[k]}", loo[k], None,
                                design[keep], response[keep])
    for j, interval in enumerate(study["bca"]):
        want = bca_bounds(reps[:, j], theta[j], acceleration(loo[:, j]))
        problems += compare(f"bca {j}", [interval.lower, interval.upper], want, BOUND_TOL)
    return problems


# --------------------------------------------------------------------- CLI


def _names_in_order(doc, key):
    values = doc[key]
    return [values[name] for name in COLUMNS]


def check_fit_doc(doc, design, response) -> list[str]:
    problems = compare_fit(
        "fit", _names_in_order(doc, "coefficients"),
        _names_in_order(doc, "standard_errors"), design, response,
    )
    if doc.get("converged") is not True:
        problems.append("fit not converged")
    odds = [entry["odds_ratio"] for entry in doc.get("odds", [])]
    problems += compare("odds", odds, np.exp(_names_in_order(doc, "coefficients")), 0.0, 1e-12)
    return problems


def check_validate_doc(doc, design, response, train_count, threshold=0.5) -> list[str]:
    train = doc["train"]
    problems = compare_fit(
        "validate train fit", _names_in_order(train, "coefficients"), None,
        design[:train_count], response[:train_count],
    )
    theta = np.array(_names_in_order(train, "coefficients"))
    predicted = expit(design[train_count:] @ theta) >= threshold
    actual = response[train_count:] == 1.0
    want = {
        "test_count": int(actual.size),
        "true_positive": int(np.count_nonzero(predicted & actual)),
        "false_positive": int(np.count_nonzero(predicted & ~actual)),
        "true_negative": int(np.count_nonzero(~predicted & ~actual)),
        "false_negative": int(np.count_nonzero(~predicted & actual)),
    }
    report = doc["report"]
    for key, value in want.items():
        if report.get(key) != value:
            problems.append(f"validate {key}: {report.get(key)} != {value}")
    return problems


def check_split_doc(doc, design, response, sizes) -> list[str]:
    splits = doc["splits"]
    if [entry["size"] for entry in splits] != list(sizes):
        return [f"split sizes {[e['size'] for e in splits]} != {list(sizes)}"]
    problems = []
    for entry in splits:
        m = entry["size"]
        if entry.get("error") is not None:
            problems.append(f"split {m}: {entry['error']}")
            continue
        problems += compare_fit(
            f"split {m}", _names_in_order(entry, "coefficients"),
            _names_in_order(entry, "standard_errors"), design[:m], response[:m],
        )
    return problems


def curve_points(coefficients=GOLDEN, ages=np.arange(0.0, 121.0, 10.0)):
    """Expected ``curves`` points for the four standard profiles."""
    points = []
    for name, gender, emp in (("male-emp", 0, 0), ("male-unemp", 0, 1),
                              ("female-emp", 1, 0), ("female-unemp", 1, 1)):
        rows = np.column_stack([np.ones(ages.size), ages,
                                np.full(ages.size, emp), np.full(ages.size, gender)])
        for age, prob in zip(ages, expit(rows @ np.asarray(coefficients))):
            points.append((name, float(age), float(prob)))
    return points


def check_curves_doc(doc) -> list[str]:
    want = curve_points()
    got = [(p["profile"], p["age"], p["probability"]) for p in doc["points"]]
    if [g[:2] for g in got] != [w[:2] for w in want]:
        return ["curves grid or profile order differs"]
    return compare("curves", [g[2] for g in got], [w[2] for w in want], 1e-12)


def check_simulate_doc(doc, csv_path, n, seed) -> list[str]:
    design, response = draw_study(seed, n)
    try:
        got_x, got_y = read_csv(csv_path)
    except (OSError, ValueError) as exc:
        return [f"simulate output unreadable: {exc}"]
    problems = []
    if got_x.shape != design.shape or not (
        np.array_equal(got_x, design) and np.array_equal(got_y, response)
    ):
        problems.append("simulate rows differ from the documented generator recipe")
    if doc.get("records") != n:
        problems.append(f"simulate records {doc.get('records')} != {n}")
    if doc.get("positive_fraction") != int(response.sum()) / n:
        problems.append("simulate positive_fraction differs")
    return problems


def expected_bootstrap(design, response, replicates, master_seed):
    """Reference percentile bounds and means, refitting every replicate."""
    n = response.size
    reps = []
    for b in range(replicates):
        idx = resample(master_seed, b, n)
        reps.append(fit(design[idx], response[idx])[0])
    reps = np.array(reps)
    return np.quantile(reps, [0.025, 0.975], axis=0), reps.mean(axis=0)


def check_bootstrap_doc(doc, design, response, replicates, expected) -> list[str]:
    original = doc["original"]
    problems = compare_fit(
        "bootstrap original", _names_in_order(original, "coefficients"),
        _names_in_order(original, "standard_errors"), design, response,
    )
    counts = doc["replicates"]
    if counts != {"requested": replicates, "converged": replicates, "dropped": 0}:
        problems.append(f"bootstrap replicate counts {counts}")
        return problems
    bounds, means = expected
    problems += compare("bootstrap means", _names_in_order(doc, "bootstrap_means"),
                        means, COEF_TOL, COEF_TOL)
    intervals = [iv for iv in doc["intervals"] if iv["method"] == "percentile"]
    if [iv["index"] for iv in intervals] != list(range(len(COLUMNS))):
        return problems + ["bootstrap percentile intervals missing"]
    got = np.array([[iv["log_odds"]["lower"] for iv in intervals],
                    [iv["log_odds"]["upper"] for iv in intervals]])
    problems += compare("bootstrap percentile bounds", got, bounds, COEF_TOL, COEF_TOL)
    return problems


def parse_doc(stdout: bytes):
    """The CLI's JSON document, or ``None`` if stdout is not one."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None
