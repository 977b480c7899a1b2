"""Seeded study data for the benchmark, made without calling logitboot.

Every workload input comes from :func:`draw_study`, so a change to
``logitboot.simulate`` cannot change what the benchmark feeds the program.
The same function, given a plain integer seed, is also the oracle for the
``simulate`` subcommand: ``logitboot.data_io.simulate`` documents exactly
this draw order for ``SeedSequence(seed)``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# Encoded order Intercept, Age, Emp, Gender; the paper's fitted model.
GOLDEN = (1.56097, -0.07492, 1.64392, 0.08356)
COLUMNS = ("Intercept", "Age", "Emp", "Gender")
AGE_LOW, AGE_HIGH = 0.0, 90.0


def expit(eta: np.ndarray) -> np.ndarray:
    """Logistic function that never exponentiates a positive argument."""
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ez = np.exp(eta[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def draw_study(entropy, n: int, coefficients=GOLDEN) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(design, response)`` for ``n`` participants.

    PCG64 seeded with ``SeedSequence(entropy)``; draws in this order: Age
    uniform on [0, 90], Emp and Gender Bernoulli(0.5), then HIV Bernoulli
    with the logistic probability of ``coefficients``.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    age = rng.uniform(AGE_LOW, AGE_HIGH, n)
    emp = (rng.random(n) < 0.5).astype(float)
    gender = (rng.random(n) < 0.5).astype(float)
    b0, b1, b2, b3 = coefficients
    eta = b0 + b1 * age + b2 * emp + b3 * gender
    hiv = (rng.random(n) < expit(eta)).astype(float)
    design = np.column_stack([np.ones(n), age, emp, gender])
    return design, hiv


def write_csv(path: Path, design: np.ndarray, response: np.ndarray) -> None:
    """Write ``Age,Gender,Emp,HIV`` rows; ``repr`` keeps every age bit."""
    lines = ["Age,Gender,Emp,HIV"]
    lines.extend(
        f"{age!r},{int(g)},{int(e)},{int(y)}"
        for age, e, g, y in zip(
            design[:, 1].tolist(), design[:, 2], design[:, 3], response
        )
    )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a canonical ``Age,Gender,Emp,HIV`` file into ``(design, response)``."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != "Age,Gender,Emp,HIV":
        raise ValueError(f"{path}: unexpected header")
    table = np.array(
        [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    ).reshape(-1, 4)
    age, gender, emp, hiv = table.T
    return np.column_stack([np.ones(len(age)), age, emp, gender]), hiv
