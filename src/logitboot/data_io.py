"""CSV ingestion, design-matrix encoding, and the seeded data simulator.

File format: a header row, matched case-insensitively, containing Age,
Gender (Sex is accepted as an alias), Emp, and HIV in any column order.
Categorical cells must already be numeric 0/1; unrecognized columns are
skipped with a warning.  Parse failures cite the 1-based data-row number
(the header is row 0).

Encoding produces the fixed column order Intercept, Age, Emp, Gender with
the HIV indicator as response, matching the coefficient order used
throughout the package.

The data path is columnar.  ``_read_columns`` reads a file's bytes once,
and the bytes pick the parser; that is its one fork.  A plain file, one
whose data rows hold only ASCII digits, signs, points, exponents, commas
and line ends (see ``_plain_table``), is parsed by ``np.loadtxt``, which
reads a cell as ``float`` does.  Every other file, quoted, padded,
non-ASCII or with a cell ``float`` rejects, goes through one
``csv.reader`` pass (``_csv_table``), and each cell is read by ``float``
once stripped, NaN where ``float`` rejects it.  Both parsers give the
header cells, a float table and the data-row count, and every step after
that is shared: the header checks, the vector masks and, on a fault,
``_row_fault``, which explains the first faulty row from its
``csv.reader`` cells and is the one place the parse messages live.
``_simulate_columns`` draws a study as columns,
``_encoded`` stacks columns into an :class:`EncodedDataset`, and
``_write_study``, the one study writer of the CLI and :func:`save_csv`,
writes each row as the age's ``repr`` and one of eight flag tails.
The CLI uses these alone.  :class:`ObservationRecord` lists exist only at
the public wrappers :func:`load_csv`, :func:`encode`, :func:`save_csv`,
:func:`simulate` and :func:`decode`.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ParseError, SchemaError
from .model_core import EncodedDataset, _whole_number, sigmoid

ENCODED_COLUMNS = ("Intercept", "Age", "Emp", "Gender")

AGE_MIN = 0.0
AGE_MAX = 130.0
_AGE_DOMAIN = f"age must lie in [{AGE_MIN:g}, {AGE_MAX:g}]"


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
            raise DomainError(_AGE_DOMAIN)
        for name in ("gender", "employment", "hiv"):
            if getattr(self, name) not in (0, 1):
                raise DomainError(f"{name} must be 0 or 1")


@dataclass(frozen=True)
class SimulationSpec:
    """Generating model and covariate distributions for :func:`simulate`.

    ``coefficients`` follow the encoded order (Intercept, Age, Emp,
    Gender).  Ages are uniform on ``[age_low, age_high]``; employment and
    gender are Bernoulli with the given rates.  ``n`` and ``seed`` are
    whole numbers (``3.0`` is one, ``True`` is not), ``seed`` of any size.
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
        object.__setattr__(self, "n", _whole_number(self.n, "n"))
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
        object.__setattr__(self, "seed", _whole_number(self.seed, "seed"))
        if self.seed < 0:
            raise DomainError("seed must be non-negative")


_COLUMN_ALIASES = {
    "age": "age",
    "gender": "gender",
    "sex": "gender",
    "emp": "employment",
    "hiv": "hiv",
}

_FLAGS = ("gender", "employment", "hiv")


class _Columns(NamedTuple):
    """One study as columns, in :class:`ObservationRecord` field order."""

    age: np.ndarray  # float
    gender: np.ndarray  # 0/1
    employment: np.ndarray  # 0/1
    hiv: np.ndarray  # 0/1


def _records(columns: _Columns) -> list[ObservationRecord]:
    return list(map(ObservationRecord, *(c.tolist() for c in columns)))


def _float_or_nan(cell: str) -> float:
    # float() is the parser the messages describe, on the stripped cell as
    # _row_fault reads it.  NaN fails every domain mask, so a non-numeric
    # cell's row is flagged.
    try:
        return float(cell.strip())
    except ValueError:
        return np.nan


def _row_fault(cells, header, positions) -> str:
    """The message for the first fault of a data row the masks flagged.

    Faults rank by field count, then non-numeric cells in header order,
    then flags that are not 0/1 in Gender, Emp, HIV order, then the age
    domain; a flagged row that passes the first three is out of domain.
    """
    if len(cells) != len(header):
        return f"expected {len(header)} fields, got {len(cells)}"
    values = {}
    for field, pos in positions.items():
        cell = cells[pos].strip()
        try:
            values[field] = float(cell)
        except ValueError:
            return f"column {header[pos]!r}: {cell!r} is not numeric"
    for field in _FLAGS:
        if values[field] not in (0.0, 1.0):
            pos = positions[field]
            return f"column {header[pos]!r}: expected 0 or 1, got {cells[pos].strip()!r}"
    return _AGE_DOMAIN


def _csv_rows(raw: bytes, path) -> list[list[str]]:
    # The rows csv.reader gives for the file opened as UTF-8 text.  The
    # text layer decodes in the same chunks as it does from disk, so a
    # decoding error cites the same position.
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="")
    try:
        return list(csv.reader(text))
    except (UnicodeDecodeError, csv.Error) as exc:
        # Bytes that are not UTF-8, or a cell over csv's field size limit.
        raise SchemaError(f"{path}: unreadable as a UTF-8 CSV file ({exc})") from None


def _csv_table(raw: bytes, path):
    """What :func:`_plain_table` gives, for any file, and the data-row count.

    The table holds the data rows before the first ragged one, so it may
    be shorter than the count; the ragged row is itself a fault, so no row
    after it matters.  Each cell is read by :func:`_float_or_nan`.
    """
    rows = _csv_rows(raw, path)
    if not rows:
        raise SchemaError(f"{path}: empty file")
    head, body = rows[0], rows[1:]
    width = len(head)
    lengths = np.fromiter(map(len, body), np.intp, count=len(body))
    ragged = np.flatnonzero(lengths != width)
    n = int(ragged[0]) if ragged.size else len(body)
    cells = map(_float_or_nan, chain.from_iterable(body[:n]))
    return head, np.fromiter(cells, float, count=n * width).reshape(n, width), len(body)


# Every byte a plain data row may hold: digits, sign, point, exponent,
# comma and line ends.
_PLAIN_BYTES = b"0123456789+-.eE,\r\n"


def _plain_table(raw: bytes):
    """The header cells and the data rows as an ``(n, width)`` float array,
    when csv.reader would give the same cells; None otherwise.

    That holds when the data rows hold only :data:`_PLAIN_BYTES`, the first
    of them is not blank, the header is UTF-8 with no quote, no line is
    longer than csv's field size limit, and ``np.loadtxt`` reads every line
    as a row of ``width`` numbers.  ``np.loadtxt`` parses a cell as
    ``float`` does; the line count catches the blank lines it skips, which
    csv.reader reports as ragged rows.
    """
    raw = raw.removeprefix(b"\xef\xbb\xbf")
    ends = [at for at in (raw.find(b"\r"), raw.find(b"\n")) if at >= 0]
    if not ends:
        return None
    cut = min(ends)
    head = raw[:cut]
    data = raw[cut + (2 if raw.startswith(b"\r\n", cut) else 1):]
    if (not head or b'"' in head or data[:1] in (b"", b"\r", b"\n")
            or data.translate(None, _PLAIN_BYTES)):
        return None
    try:
        header = head.decode("utf-8").split(",")
    except UnicodeDecodeError:
        return None
    breaks = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord("\n"))
    if np.diff(breaks, prepend=-1, append=len(raw)).max() > csv.field_size_limit():
        return None
    try:
        table = np.loadtxt(io.BytesIO(data), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        # A cell float() rejects, a ragged row or a lone \r line end.
        return None
    lines = data.count(b"\n") + (not data.endswith(b"\n"))
    return (header, table) if table.shape == (lines, len(header)) else None


def _read_columns(path) -> _Columns:
    """Parse and check a CSV file as columns; see :func:`load_csv`."""
    with open(path, "rb") as handle:
        raw = handle.read()
    plain = _plain_table(raw)
    # np.loadtxt read every data row, so a plain table's length is the count.
    head, table, count = _csv_table(raw, path) if plain is None else (*plain, len(plain[1]))

    header = [cell.strip() for cell in head]
    positions: dict[str, int] = {}
    ignored = []
    for pos, cell in enumerate(header):
        field = _COLUMN_ALIASES.get(cell.lower())
        if field is None or field in positions:
            ignored.append(cell)
        else:
            positions[field] = pos
    missing = [f for f in _Columns._fields if f not in positions]
    if missing:
        raise SchemaError(f"{path}: missing required column(s): {', '.join(missing)}")
    if ignored:
        # Attributed to the caller of load_csv or of the CLI's loader.
        warnings.warn(
            f"{path}: ignoring unrecognized column(s): {', '.join(ignored)}",
            stacklevel=3,
        )

    if not count:
        raise SchemaError(f"{path}: no data rows")
    n = len(table)
    values = {field: table[:, pos] for field, pos in positions.items()}
    age = values["age"]
    good = (AGE_MIN <= age) & (age <= AGE_MAX)
    for field in _FLAGS:
        good &= (values[field] == 0.0) | (values[field] == 1.0)
    bad = np.flatnonzero(~good)
    if bad.size or n < count:
        row = int(bad[0]) if bad.size else n
        # The faulty row's cells as csv.reader reads them, on either path.
        faulty = _csv_rows(raw, path)[row + 1]
        raise ParseError(row + 1, _row_fault(faulty, header, positions))
    # A flag compared with 1 reads a "-0" cell as +0, as int() does.
    return _Columns(age, *((values[f] == 1.0).astype(np.int64) for f in _FLAGS))


def load_csv(path) -> list[ObservationRecord]:
    """Read observation records from a CSV file.

    Header names are matched case-insensitively; ``Sex`` is accepted for
    ``Gender``.  Columns beyond the four known ones are ignored with a
    warning.  Row order is preserved.

    Raises
    ------
    SchemaError
        For an empty file, a missing required column, or no data rows, and
        for a file that is not UTF-8 or has a cell longer than ``csv``'s
        field size limit.
    ParseError
        For a ragged, non-numeric, or out-of-domain cell; the message
        cites the 1-based data-row number of the first faulty row.
    """
    return _records(_read_columns(path))


# The row tails ",g,e,y\r\n" of the study layout, indexed by 4g + 2e + y.
_FLAG_TAILS = np.array(
    [f",{g},{e},{y}\r\n" for g in (0, 1) for e in (0, 1) for y in (0, 1)], dtype=object
)


def _write_study(path, columns: _Columns) -> None:
    # The bytes csv.writer would write: an age's repr is the shortest text
    # that reads back as the same float.  A flag is 0/1, integer or float.
    tails = _FLAG_TAILS[(4 * columns.gender + 2 * columns.employment
                         + columns.hiv).astype(np.intp)]
    body = [None] * (2 * len(tails))
    body[::2] = map(repr, columns.age.tolist())
    body[1::2] = tails.tolist()
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("Age,Gender,Emp,HIV\r\n")
        handle.write("".join(body))


def _write_csv(path, *columns, header) -> None:
    # The bytes csv.writer would write for cells that need no quoting.
    row = (",".join(["{}"] * len(header)) + "\r\n").format
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.write("".join(map(row, *columns)))


def _record_columns(records: Sequence[ObservationRecord]) -> _Columns:
    return _Columns(*(np.fromiter(map(attrgetter(f), records), float, count=len(records))
                      for f in _Columns._fields))


def save_csv(records: Sequence[ObservationRecord], path) -> None:
    """Write records with the canonical header ``Age,Gender,Emp,HIV``.

    Ages are written as floats in full precision, so a load round-trips
    losslessly, and flags as 0 or 1: an age ``40`` is written ``40.0``.
    """
    _write_study(path, _record_columns(records))


def _encoded(columns: _Columns) -> EncodedDataset:
    design = np.column_stack(
        (np.ones(len(columns.age)), columns.age, columns.employment, columns.gender)
    )
    total = columns.hiv.sum()
    if total == 0 or total == columns.hiv.size:
        # Attributed to the caller of encode or of the CLI's loader.
        warnings.warn(
            "response contains a single class; fitting will fail", stacklevel=3
        )
    return EncodedDataset(design, columns.hiv, ENCODED_COLUMNS)


def encode(records: Sequence[ObservationRecord]) -> EncodedDataset:
    """Build the design matrix (Intercept, Age, Emp, Gender) and response.

    Row order is preserved.  A single-class response is allowed here but
    warned about, since fitting will reject it.
    """
    if not records:
        raise DomainError("cannot encode an empty record list")
    return _encoded(_record_columns(records))


def decode(data: EncodedDataset) -> list[ObservationRecord]:
    """Invert :func:`encode`; requires the canonical column layout."""
    if data.column_names != ENCODED_COLUMNS:
        raise SchemaError(
            f"dataset columns {data.column_names} are not the canonical layout"
        )
    design = data.design
    flags = (design[:, 3], design[:, 2], data.response)  # Gender, Emp, HIV
    # astype truncates a flag as int() does.
    return _records(_Columns(design[:, 1], *(f.astype(np.int64) for f in flags)))


def _simulate_columns(spec: SimulationSpec) -> _Columns:
    # The draws that simulate() documents, as columns.
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    n = spec.n
    ages = rng.uniform(spec.age_low, spec.age_high, n)
    employment = (rng.random(n) < spec.employment_rate).astype(np.int64)
    gender = (rng.random(n) < spec.female_rate).astype(np.int64)
    b0, b1, b2, b3 = spec.coefficients
    eta = b0 + b1 * ages + b2 * employment + b3 * gender
    hiv = (rng.random(n) < sigmoid(eta)).astype(np.int64)
    return _Columns(ages, gender, employment, hiv)


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
    return _records(_simulate_columns(spec))
