"""CSV ingestion, design-matrix encoding, and the seeded data simulator.

File format: a header row, matched case-insensitively, containing Age,
Gender (Sex is accepted as an alias), Emp, and HIV in any column order.
Categorical cells must already be numeric 0/1; unrecognized columns are
skipped with a warning.  Parse failures cite the 1-based data-row number
(the header is row 0).

Encoding produces the fixed column order Intercept, Age, Emp, Gender with
the HIV indicator as response, matching the coefficient order used
throughout the package.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ParseError, SchemaError
from .model_core import EncodedDataset, sigmoid

ENCODED_COLUMNS = ("Intercept", "Age", "Emp", "Gender")

AGE_MIN = 0.0
AGE_MAX = 130.0


@dataclass(frozen=True)
class ObservationRecord:
    """One study participant.

    ``gender``: 0 male (reference), 1 female.  ``employment``: 0 employed
    (reference), 1 unemployed.  ``hiv``: serostatus, 1 positive.
    """

    age: float
    gender: int
    employment: int
    hiv: int

    def __post_init__(self):
        if not (AGE_MIN <= self.age <= AGE_MAX):
            raise DomainError(f"age must lie in [{AGE_MIN:g}, {AGE_MAX:g}]")
        for name in ("gender", "employment", "hiv"):
            if getattr(self, name) not in (0, 1):
                raise DomainError(f"{name} must be 0 or 1")


@dataclass(frozen=True)
class SimulationSpec:
    """Generating model and covariate distributions for :func:`simulate`.

    ``coefficients`` follow the encoded order (Intercept, Age, Emp,
    Gender).  Ages are uniform on ``[age_low, age_high]``; employment and
    gender are Bernoulli with the given rates.
    """

    coefficients: tuple[float, float, float, float]
    n: int
    age_low: float = 0.0
    age_high: float = 90.0
    employment_rate: float = 0.5
    female_rate: float = 0.5
    seed: int = 0

    def __post_init__(self):
        coefs = tuple(float(c) for c in self.coefficients)
        if len(coefs) != 4 or not all(np.isfinite(coefs)):
            raise DomainError("exactly four finite coefficients required")
        object.__setattr__(self, "coefficients", coefs)
        if self.n < 1:
            raise DomainError("n must be at least 1")
        if not (np.isfinite(self.age_low) and np.isfinite(self.age_high)):
            raise DomainError("age bounds must be finite")
        if not (AGE_MIN <= self.age_low < self.age_high <= AGE_MAX):
            raise DomainError(
                f"age bounds must satisfy {AGE_MIN:g} <= low < high <= {AGE_MAX:g}"
            )
        for name in ("employment_rate", "female_rate"):
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise DomainError(f"{name} must lie in [0, 1]")
        if self.seed < 0:
            raise DomainError("seed must be non-negative")


_COLUMN_ALIASES = {
    "age": "age",
    "gender": "gender",
    "sex": "gender",
    "emp": "employment",
    "hiv": "hiv",
}


def load_csv(path) -> list[ObservationRecord]:
    """Read observation records from a CSV file.

    Header names are matched case-insensitively; ``Sex`` is accepted for
    ``Gender``.  Columns beyond the four known ones are ignored with a
    warning.  Row order is preserved.

    Raises
    ------
    SchemaError
        For an empty file, a missing required column, or no data rows.
    ParseError
        For a ragged, non-numeric, or out-of-domain cell; the message
        cites the 1-based data-row number.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise SchemaError(f"{path}: empty file")

    header = [cell.strip() for cell in rows[0]]
    positions: dict[str, int] = {}
    ignored = []
    for pos, cell in enumerate(header):
        field = _COLUMN_ALIASES.get(cell.lower())
        if field is None or field in positions:
            ignored.append(cell)
        else:
            positions[field] = pos
    missing = [f for f in ("age", "gender", "employment", "hiv") if f not in positions]
    if missing:
        raise SchemaError(f"{path}: missing required column(s): {', '.join(missing)}")
    if ignored:
        warnings.warn(
            f"{path}: ignoring unrecognized column(s): {', '.join(ignored)}",
            stacklevel=2,
        )

    records = []
    for row_number, cells in enumerate(rows[1:], start=1):
        if len(cells) != len(header):
            raise ParseError(
                row_number,
                f"expected {len(header)} fields, got {len(cells)}",
            )
        values = {}
        for field, pos in positions.items():
            cell = cells[pos].strip()
            try:
                values[field] = float(cell)
            except ValueError:
                raise ParseError(
                    row_number, f"column {header[pos]!r}: {cell!r} is not numeric"
                ) from None
        for field in ("gender", "employment", "hiv"):
            if values[field] not in (0.0, 1.0):
                pos = positions[field]
                raise ParseError(
                    row_number,
                    f"column {header[pos]!r}: expected 0 or 1, got {cells[pos].strip()!r}",
                )
        try:
            records.append(
                ObservationRecord(
                    age=values["age"],
                    gender=int(values["gender"]),
                    employment=int(values["employment"]),
                    hiv=int(values["hiv"]),
                )
            )
        except DomainError as exc:
            raise ParseError(row_number, str(exc)) from None
    if not records:
        raise SchemaError(f"{path}: no data rows")
    return records


def save_csv(records: Sequence[ObservationRecord], path) -> None:
    """Write records with the canonical header ``Age,Gender,Emp,HIV``.

    Ages are written with full precision so a load round-trips losslessly.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["Age", "Gender", "Emp", "HIV"])
        for rec in records:
            writer.writerow([repr(rec.age), rec.gender, rec.employment, rec.hiv])


def encode(records: Sequence[ObservationRecord]) -> EncodedDataset:
    """Build the design matrix (Intercept, Age, Emp, Gender) and response.

    Row order is preserved.  A single-class response is allowed here but
    warned about, since fitting will reject it.
    """
    if not records:
        raise DomainError("cannot encode an empty record list")
    design = np.empty((len(records), 4))
    response = np.empty(len(records))
    for i, rec in enumerate(records):
        design[i] = (1.0, rec.age, rec.employment, rec.gender)
        response[i] = rec.hiv
    total = response.sum()
    if total == 0 or total == response.size:
        warnings.warn(
            "response contains a single class; fitting will fail", stacklevel=2
        )
    return EncodedDataset(design, response, ENCODED_COLUMNS)


def decode(data: EncodedDataset) -> list[ObservationRecord]:
    """Invert :func:`encode`; requires the canonical column layout."""
    if data.column_names != ENCODED_COLUMNS:
        raise SchemaError(
            f"dataset columns {data.column_names} are not the canonical layout"
        )
    return [
        ObservationRecord(
            age=float(row[1]),
            gender=int(row[3]),
            employment=int(row[2]),
            hiv=int(y),
        )
        for row, y in zip(data.design, data.response)
    ]


def simulate(spec: SimulationSpec) -> list[ObservationRecord]:
    """Draw records from the logistic model described by ``spec``.

    Deterministic given ``spec.seed``.  The generator is PCG64 seeded with
    ``SeedSequence(seed)`` and variates are drawn in this fixed order:

    1. ``ages = rng.uniform(age_low, age_high, n)``
    2. ``employment = rng.random(n) < employment_rate``
    3. ``gender = rng.random(n) < female_rate``
    4. ``hiv = rng.random(n) < sigmoid(eta)`` with
       ``eta = b0 + b1 * age + b2 * employment + b3 * gender``.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    n = spec.n
    ages = rng.uniform(spec.age_low, spec.age_high, n)
    employment = (rng.random(n) < spec.employment_rate).astype(np.int64)
    gender = (rng.random(n) < spec.female_rate).astype(np.int64)
    b0, b1, b2, b3 = spec.coefficients
    eta = b0 + b1 * ages + b2 * employment + b3 * gender
    hiv = (rng.random(n) < sigmoid(eta)).astype(np.int64)
    return [
        ObservationRecord(
            age=float(ages[i]),
            gender=int(gender[i]),
            employment=int(employment[i]),
            hiv=int(hiv[i]),
        )
        for i in range(n)
    ]
