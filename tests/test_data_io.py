"""CSV ingestion, encoding, and the seeded simulator."""

from __future__ import annotations

import csv
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logitboot import (
    DomainError,
    ObservationRecord,
    ParseError,
    SchemaError,
    SimulationSpec,
    decode,
    encode,
    load_csv,
    probability_curves,
    save_csv,
    sigmoid,
    simulate,
    standard_profiles,
)
from logitboot import data_io
from logitboot.cli import _load_dataset, main
from logitboot.data_io import (
    ENCODED_COLUMNS,
    _Columns,
    _plain_table,
    _read_columns,
    _simulate_columns,
    _write_csv,
    _write_study,
)

from conftest import GOLDEN_COEFFICIENTS, GOLDEN_COEFFICIENTS_FULL, make_fit


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestObservationRecord:
    def test_validation(self):
        ObservationRecord(age=25.5, gender=1, employment=0, hiv=1)
        with pytest.raises(DomainError):
            ObservationRecord(age=-1.0, gender=0, employment=0, hiv=0)
        with pytest.raises(DomainError):
            ObservationRecord(age=131.0, gender=0, employment=0, hiv=0)
        with pytest.raises(DomainError):
            ObservationRecord(age=float("nan"), gender=0, employment=0, hiv=0)
        with pytest.raises(DomainError):
            ObservationRecord(age=float("inf"), gender=0, employment=0, hiv=0)
        with pytest.raises(DomainError):
            ObservationRecord(age=-float("inf"), gender=0, employment=0, hiv=0)
        with pytest.raises(DomainError):
            ObservationRecord(age=25.0, gender=2, employment=0, hiv=0)
        with pytest.raises(DomainError):
            ObservationRecord(age=25.0, gender=0, employment=-1, hiv=0)


class TestLoadCsv:
    def test_save_load_round_trip(self, tmp_path):
        records = [
            ObservationRecord(age=25.37, gender=1, employment=0, hiv=1),
            ObservationRecord(age=60.0, gender=0, employment=1, hiv=0),
            ObservationRecord(age=0.125, gender=0, employment=0, hiv=1),
        ]
        path = tmp_path / "round.csv"
        save_csv(records, path)
        assert load_csv(path) == records

    def test_numpy_scalar_ages_round_trip(self, tmp_path):
        ages = np.array([25.5, 0.1, 89.99999999999999])
        records = [
            ObservationRecord(age=age, gender=k % 2, employment=0, hiv=1)
            for k, age in enumerate(ages)
        ]
        path = tmp_path / "numpy.csv"
        save_csv(records, path)
        assert path.read_text().splitlines()[1] == "25.5,0,0,1"
        assert load_csv(path) == records

    @given(st.lists(st.tuples(
        st.one_of(st.floats(0.0, 130.0), st.integers(0, 130), st.fractions(0, 130),
                  st.floats(0.0, 130.0, width=32).map(np.float32)),
        *[st.sampled_from([0, 1, 0.0, 1.0, -0.0, True, False])] * 3,
    ), min_size=1, max_size=8))
    def test_any_valid_record_round_trips(self, tmp_path_factory, rows):
        # One writer for every record: ages as float reprs, flags as 0/1.
        records = [ObservationRecord(*row) for row in rows]
        path = tmp_path_factory.mktemp("round") / "any.csv"
        save_csv(records, path)
        loaded = [tuple(vars(r).values()) for r in load_csv(path)]
        assert loaded == [(float(age), *map(int, flags)) for age, *flags in rows]
        assert {tuple(map(type, row)) for row in loaded} == {(float, int, int, int)}

    def test_header_case_insensitive_and_sex_alias(self, tmp_path):
        path = write(tmp_path, "sex,AGE,emp,Hiv\n1,42.5,0,1\n")
        records = load_csv(path)
        assert records == [ObservationRecord(age=42.5, gender=1, employment=0, hiv=1)]

    def test_column_order_irrelevant(self, tmp_path):
        path = write(tmp_path, "HIV,Emp,Gender,Age\n1,0,1,33\n")
        assert load_csv(path)[0] == ObservationRecord(
            age=33.0, gender=1, employment=0, hiv=1
        )

    def test_extra_column_ignored_with_warning(self, tmp_path):
        path = write(tmp_path, "Age,Gender,Emp,HIV,PMOT\n20,0,1,0,7\n")
        with pytest.warns(UserWarning, match="PMOT"):
            records = load_csv(path)
        assert records == [ObservationRecord(age=20.0, gender=0, employment=1, hiv=0)]

    def test_out_of_domain_cell_cites_data_row(self, tmp_path):
        rows = "\n".join("20,0,0,0" for _ in range(6))
        path = write(tmp_path, f"Age,Gender,Emp,HIV\n{rows}\n30,0,0,2\n")
        with pytest.raises(ParseError, match="row 7") as info:
            load_csv(path)
        assert info.value.row == 7

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = write(tmp_path, "Age,Gender,Emp,HIV\nforty,0,0,1\n")
        with pytest.raises(ParseError, match="row 1"):
            load_csv(path)

    def test_age_out_of_domain_rejected(self, tmp_path):
        path = write(tmp_path, "Age,Gender,Emp,HIV\n200,0,0,1\n")
        with pytest.raises(ParseError, match="row 1"):
            load_csv(path)

    def test_fractional_categorical_rejected(self, tmp_path):
        path = write(tmp_path, "Age,Gender,Emp,HIV\n20,0.5,0,1\n")
        with pytest.raises(ParseError, match="Gender"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "Age,Gender,Emp,HIV\n20,0,0,1\n30,0,1\n")
        with pytest.raises(ParseError, match="row 2"):
            load_csv(path)

    def test_missing_column_named(self, tmp_path):
        path = write(tmp_path, "Age,Emp,HIV\n20,0,1\n")
        with pytest.raises(SchemaError, match="gender"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            load_csv(write(tmp_path, ""))

    def test_header_only_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            load_csv(write(tmp_path, "Age,Gender,Emp,HIV\n"))

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "absent.csv")


GOOD_ROWS = "20,0,0,1\n30,1,1,0\n40,0,1,1\n50,1,0,0\n"
HEADER = "Age,Gender,Emp,HIV\n"

# Files with several faults: the first faulty row is cited, and within it
# the first fault by priority (field count, then a non-numeric cell in
# header order, then a flag that is not 0/1 in Gender, Emp, HIV order,
# then the age domain).
MULTI_FAULT_FILES = [
    pytest.param(HEADER + GOOD_ROWS + "200,2,0,1\n", 5,
                 "column 'Gender': expected 0 or 1, got '2'", id="two-faults-in-a-row"),
    pytest.param(HEADER + GOOD_ROWS + "200,1,x,7\n", 5,
                 "column 'Emp': 'x' is not numeric", id="three-faults-in-a-row"),
    pytest.param(HEADER + "20,0,0,1\n20,0,1,1\n130.5,0,0,1\nx,0,0,1\n30,0\n", 3,
                 "age must lie in [0, 130]", id="earlier-row-wins-over-priority"),
    pytest.param(HEADER + "20,0,0,1\n20,0,2,1\n20,0,x,1\n", 2,
                 "column 'Emp': expected 0 or 1, got '2'", id="earlier-flag-over-later-text"),
    pytest.param(HEADER + "20,0,0,1\n20,0,0,1\n\n20,0,0,x\n", 3,
                 "expected 4 fields, got 0", id="blank-line-mid-file"),
    pytest.param("Gender,Emp,Age,HIV\n0,0,20,1\n x ,0,y,1\n", 2,
                 "column 'Gender': 'x' is not numeric", id="text-before-age-in-header"),
    pytest.param("HIV,Sex,Emp,Age\n1,0,0,20\n3,2,0,-1\n", 2,
                 "column 'Sex': expected 0 or 1, got '2'", id="flag-order-not-header-order"),
    pytest.param(HEADER + GOOD_ROWS + "nan,0,0,1\n", 5,
                 "age must lie in [0, 130]", id="nan-age"),
    pytest.param(HEADER + GOOD_ROWS + "inf,0,0,1\n", 5,
                 "age must lie in [0, 130]", id="inf-age"),
    pytest.param(HEADER + GOOD_ROWS + "-1,0,0,1\n", 5,
                 "age must lie in [0, 130]", id="negative-age"),
    pytest.param(HEADER + GOOD_ROWS + "20,0,0,nan\n", 5,
                 "column 'HIV': expected 0 or 1, got 'nan'", id="nan-flag"),
]


class TestParseErrorParity:
    @pytest.mark.parametrize("text, row, message", MULTI_FAULT_FILES)
    def test_load_csv(self, tmp_path, text, row, message):
        with pytest.raises(ParseError) as info:
            load_csv(write(tmp_path, text))
        assert info.value.row == row
        assert str(info.value) == f"row {row}: {message}"

    @pytest.mark.parametrize("text, row, message", MULTI_FAULT_FILES)
    def test_cli_fit(self, tmp_path, capsys, text, row, message):
        code = main(["fit", "--input", str(write(tmp_path, text))])
        doc = json.loads(capsys.readouterr().out)
        assert code == 4
        assert doc["error"] == {"type": "ParseError", "message": f"row {row}: {message}"}


def test_negative_zero_flags_encode_as_positive_zero(tmp_path):
    path = write(tmp_path, HEADER + "20,-0,-0,-0\n30,1,1,1\n40,-0.0,1,-0\n50,1,-0,1\n")
    data = _load_dataset(path)
    assert not np.signbit(data.design).any()
    assert not np.signbit(data.response).any()
    library = encode(load_csv(path))
    assert data.design.tobytes() == library.design.tobytes()
    assert data.response.tobytes() == library.response.tobytes()


def outcome(path):
    """The column bytes or the error _read_columns gives, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = [column.tobytes() for column in _read_columns(path)]
        except (ParseError, SchemaError) as exc:
            result = [type(exc), str(exc), getattr(exc, "row", None)]
    return result, [(w.category, str(w.message)) for w in caught]


# (file bytes, whether np.loadtxt reads it).  Each must give what the
# csv.reader path gives.
PLAIN_PARITY = [
    pytest.param(b"Age,Gender,Emp,HIV\n" + b"0" * 140_000 + b",0,0,1\n30,1,1,0\n",
                 False, id="digits-only-cell-over-the-field-limit"),
    pytest.param((HEADER + "20,0,0,1\n\n30,1,1,0\n").encode(), False,
                 id="blank-line-mid-file"),
    pytest.param((HEADER + "20,0,0,1\n30,1,1,0\n\n").encode(), False,
                 id="blank-line-at-the-end"),
    pytest.param(b"Age,Gender,Emp,HIV\r\n20,0,0,1\r\n\r\n30,1,1,0\r\n", False,
                 id="blank-crlf-line"),
    pytest.param(b"Age,Gender,Emp,HIV\r20,0,0,1\r30,1,1,0\r", False, id="cr-line-ends"),
    pytest.param(b"Age,Gender,Emp,HIV\r\n20,0,0,1\r\n30,1,1,0\r\n", True,
                 id="crlf-line-ends"),
    pytest.param(b"Age,Gender,Emp,HIV\n20,0,0,1\r\n30,1,1,0", True,
                 id="mixed-line-ends-no-final-end"),
    pytest.param(b"\xef\xbb\xbf" + (HEADER + GOOD_ROWS).encode(), True, id="bom"),
    pytest.param((HEADER + "-0,-0,-0,-0\n30,1,1,1\n40,-0.0,1,-0\n").encode(), True,
                 id="negative-zero-cells"),
    pytest.param((HEADER + ".5,0,0,1\n5.,1,1,0\n1e1,0,1,1\n").encode(), True,
                 id="point-and-exponent-ages"),
    pytest.param((HEADER + "20,0,0,1\n1e5,1,1,0\n").encode(), True,
                 id="exponent-age-out-of-domain"),
    pytest.param((HEADER + "20,0,0,1\n30,1e0,1,2\n").encode(), True,
                 id="flag-not-0-or-1"),
    pytest.param(b"Age,Gender,Emp,HIV,PMOT\n20,0,1,0,7\n30,1,0,1,-8.5\n", True,
                 id="extra-numeric-column"),
    pytest.param(b"Age,Gender,Emp,HIV,PMOT\n20,0,1,0,7\n30,1,0,1,1e\n", False,
                 id="extra-column-float-rejects"),
    pytest.param((HEADER + "20,0,0,1\n30,1,1\n").encode(), False, id="ragged-row"),
    pytest.param((HEADER + "20,0,0,1\n30,,1,0\n").encode(), False, id="empty-cell"),
    pytest.param((HEADER + "20,0,0,1\n1_0,1,1,0\n").encode(), False, id="underscore"),
    pytest.param((HEADER + "20,0,0,1\n30, 1,1,0\n").encode(), False, id="padded-cell"),
    pytest.param(b'Age,"Gender",Emp,HIV\n20,0,0,1\n', False, id="quoted-header"),
    pytest.param("Åge,Age,Gender,Emp,HIV\n1,20,0,0,1\n".encode(), True,
                 id="non-ascii-header"),
    pytest.param(b"\xc5ge,Age,Gender,Emp,HIV\n1,20,0,0,1\n", False,
                 id="header-not-utf8"),
]

# Headers for the parity property: canonical, reordered, the Sex alias, an
# extra column, and a byte order mark.
PARITY_HEADERS = ["Age,Gender,Emp,HIV", "HIV,Emp,Gender,Age", "Sex,Age,Emp,HIV",
                  "Age,Gender,Emp,HIV,PMOT", "\ufeffAge,Gender,Emp,HIV"]
# Cells np.loadtxt reads, most of them 0/1 so that some files load, and
# cells it rejects: three of the plain alphabet and four only csv.reader reads.
NUMBER_CELLS = ["0", "1", "-0", "1.0", "+1"] * 3 + ["20", ".5", "1e1", "200", "2"]
OTHER_CELLS = ["1e", "-", ".", " 1", "1_0", "", "abc"]


def parity_rows(cells, steps):
    # Up to six rows; each is the header's width plus a step, so a nonzero
    # step makes it ragged.
    row = st.tuples(st.lists(st.sampled_from(cells), min_size=6, max_size=6),
                    st.sampled_from(steps))
    return st.lists(row, max_size=6)


# Files of numbers with no ragged row, and files with any cell and ragged rows.
PARITY_ROWS = st.one_of(parity_rows(NUMBER_CELLS, [0]),
                        parity_rows(NUMBER_CELLS + OTHER_CELLS * 2, [0] * 4 + [-1, 1]))


class TestPlainPath:
    """np.loadtxt reads plain files; every file gives what csv.reader gives."""

    @pytest.mark.parametrize("raw, plain", PLAIN_PARITY)
    def test_parity_with_the_csv_path(self, tmp_path, monkeypatch, raw, plain):
        path = tmp_path / "data.csv"
        path.write_bytes(raw)
        assert (_plain_table(raw) is not None) == plain
        got = outcome(path)
        monkeypatch.setattr(data_io, "_plain_table", lambda raw: None)
        assert got == outcome(path)

    @pytest.mark.parametrize("loader", [load_csv, _load_dataset])
    def test_ignored_column_warning_names_the_caller(self, tmp_path, loader):
        rows = "".join(f"{row},7\n" for row in GOOD_ROWS.split())
        path = write(tmp_path, "Age,Gender,Emp,HIV,PMOT\n" + rows)
        assert _plain_table(path.read_bytes()) is not None
        with pytest.warns(UserWarning, match="PMOT") as record:
            loader(path)
        assert [w.filename for w in record] == [__file__]

    def test_plain_file_needs_no_csv_reader(self, tmp_path, monkeypatch):
        columns = _simulate_columns(SimulationSpec(GOLDEN_COEFFICIENTS, n=400, seed=7))
        path = tmp_path / "study.csv"
        _write_study(path, columns)

        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader called on a plain file")

        monkeypatch.setattr(data_io.csv, "reader", refuse)
        read = _read_columns(path)
        assert [c.tobytes() for c in read] == [c.tobytes() for c in columns]

    @settings(max_examples=200)
    @given(
        header=st.sampled_from(PARITY_HEADERS),
        rows=PARITY_ROWS,
        end=st.sampled_from(["\n", "\r\n"]),
        final=st.booleans(),
    )
    def test_any_file_gives_what_the_csv_path_gives(self, tmp_path_factory, header,
                                                    rows, end, final):
        width = header.count(",") + 1
        lines = [header] + [",".join(cells[:width + step]) for cells, step in rows]
        path = tmp_path_factory.mktemp("parity") / "data.csv"
        path.write_text(end.join(lines) + end * final, encoding="utf-8")
        got = outcome(path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data_io, "_plain_table", lambda raw: None)
            assert got == outcome(path)

    def test_csv_file_needs_one_csv_reader_pass(self, tmp_path, monkeypatch):
        columns = _simulate_columns(SimulationSpec(GOLDEN_COEFFICIENTS, n=400, seed=7))
        path = tmp_path / "study.csv"
        _write_study(path, columns)
        path.write_bytes(path.read_bytes().replace(b",", b", "))
        assert _plain_table(path.read_bytes()) is None
        passes = []
        reader = csv.reader

        def counted(*args, **kwargs):
            passes.append(args)
            return reader(*args, **kwargs)

        monkeypatch.setattr(data_io.csv, "reader", counted)
        read = _read_columns(path)
        assert len(passes) == 1
        assert [c.tobytes() for c in read] == [c.tobytes() for c in columns]

    def test_faulty_row_is_read_no_further_than_itself(self, tmp_path, monkeypatch):
        columns = _simulate_columns(SimulationSpec(GOLDEN_COEFFICIENTS, n=2000, seed=7))
        path = tmp_path / "study.csv"
        _write_study(path, columns)
        lines = path.read_bytes().split(b"\r\n")
        lines[3] = lines[3][:-1] + b"2"  # data row 3's last flag
        path.write_bytes(b"\r\n".join(lines))
        assert _plain_table(path.read_bytes()) is not None
        yielded = []
        reader = csv.reader

        def counted(*args, **kwargs):
            for row in reader(*args, **kwargs):
                yielded.append(row)
                yield row

        monkeypatch.setattr(data_io.csv, "reader", counted)
        with pytest.raises(ParseError, match="row 3"):
            _read_columns(path)
        assert len(yielded) <= 4


def test_writer_matches_csv_writer(tmp_path):
    columns = _simulate_columns(SimulationSpec(GOLDEN_COEFFICIENTS, n=1000, seed=3))
    cells = [c.tolist() for c in columns]
    cells[0][:3] = np.array([25.5, 0.1, 89.99999999999999])  # NumPy float64 ages
    # The CLI's curves file: profile names, then float ages and probabilities.
    curve_header = ("profile", "age", "probability")
    curve = probability_curves(
        make_fit(GOLDEN_COEFFICIENTS_FULL), standard_profiles(np.arange(0.0, 130.0, 0.37))
    )
    curve_cells = [[getattr(p, field) for p in curve] for field in curve_header]
    join, reference = tmp_path / "join.csv", tmp_path / "reference.csv"
    for header, body in ((("Age", "Gender", "Emp", "HIV"), cells),
                         (curve_header, curve_cells)):
        _write_csv(join, *body, header=header)
        with open(reference, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(zip(*body))
        assert join.read_bytes() == reference.read_bytes()


def csv_writer_bytes(path, header, columns) -> bytes:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(zip(*columns))
    return path.read_bytes()


class TestStudyWriter:
    """The study writer and the generic writer both write the bytes
    csv.writer would."""

    HEADER = ("Age", "Gender", "Emp", "HIV")
    AGES = [0.0, -0.0, 5e-324, 1e-05, 0.1, 89.99999999999999, 130.0]

    def check(self, tmp_path, columns, study):
        if study:
            _write_study(tmp_path / "out.csv", _Columns(*columns))
        else:
            _write_csv(tmp_path / "out.csv", *columns, header=self.HEADER)
        expected = csv_writer_bytes(tmp_path / "reference.csv", self.HEADER,
                                    [list(c) for c in columns])
        assert (tmp_path / "out.csv").read_bytes() == expected

    def test_edge_ages_with_every_flag_combination(self, tmp_path):
        rng = np.random.default_rng(15)
        ages = np.array(self.AGES + rng.uniform(0.0, 130.0, 1000).tolist())
        combos = np.array([(g, e, y) for g in (0, 1) for e in (0, 1) for y in (0, 1)])
        flags = combos[np.arange(ages.size) % 8].T
        self.check(tmp_path, (ages, *flags), study=True)

    @pytest.mark.parametrize("age", AGES)
    @pytest.mark.parametrize("code", range(8))
    def test_one_row(self, tmp_path, age, code):
        flags = (np.array([bit], np.int64) for bit in (code >> 2, code >> 1 & 1, code & 1))
        self.check(tmp_path, (np.array([age]), *flags), study=True)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32])
    def test_other_integer_widths(self, tmp_path, dtype):
        columns = _simulate_columns(SimulationSpec(GOLDEN_COEFFICIENTS, n=50, seed=1))
        self.check(tmp_path, (columns.age, *(c.astype(dtype) for c in columns[1:])),
                   study=True)

    def test_other_flags_take_the_generic_join(self, tmp_path):
        columns = _simulate_columns(SimulationSpec(GOLDEN_COEFFICIENTS, n=50, seed=1))
        with_two, with_minus_one = columns.gender.copy(), columns.gender.copy()
        with_two[7], with_minus_one[7] = 2, -1
        for gender in (with_two, with_minus_one, columns.gender.astype(bool),
                       columns.gender.astype(float), columns.gender.tolist()):
            self.check(tmp_path, (columns.age, gender, *columns[2:]), study=False)

    def test_other_ages_take_the_generic_join(self, tmp_path):
        columns = _simulate_columns(SimulationSpec(GOLDEN_COEFFICIENTS, n=50, seed=1))
        self.check(tmp_path, (columns.age.tolist(), *columns[1:]), study=False)


class TestEncode:
    def test_canonical_row_mapping(self):
        records = [
            ObservationRecord(age=25.0, gender=1, employment=1, hiv=1),
            ObservationRecord(age=70.0, gender=0, employment=0, hiv=0),
            ObservationRecord(age=18.0, gender=0, employment=1, hiv=0),
            ObservationRecord(age=55.0, gender=1, employment=0, hiv=1),
        ]
        data = encode(records)
        assert data.column_names == ENCODED_COLUMNS
        assert np.array_equal(data.design[0], [1.0, 25.0, 1.0, 1.0])
        assert np.array_equal(data.design[1], [1.0, 70.0, 0.0, 0.0])
        assert np.array_equal(data.design[2], [1.0, 18.0, 1.0, 0.0])
        assert np.array_equal(data.design[3], [1.0, 55.0, 0.0, 1.0])
        assert np.array_equal(data.response, [1.0, 0.0, 0.0, 1.0])

    def test_decode_inverts_encode(self):
        spec = SimulationSpec(coefficients=GOLDEN_COEFFICIENTS, n=50, seed=12)
        records = simulate(spec)
        assert decode(encode(records)) == records

    def test_single_class_warns(self):
        records = [
            ObservationRecord(age=a, gender=0, employment=0, hiv=1)
            for a in (10.0, 20.0, 30.0, 40.0)
        ]
        with pytest.warns(UserWarning, match="single class"):
            encode(records)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            encode([])


class TestSimulate:
    def test_deterministic_per_seed(self):
        spec = SimulationSpec(coefficients=GOLDEN_COEFFICIENTS, n=300, seed=99)
        assert simulate(spec) == simulate(spec)

    def test_seeds_differ(self):
        a = simulate(SimulationSpec(coefficients=GOLDEN_COEFFICIENTS, n=50, seed=1))
        b = simulate(SimulationSpec(coefficients=GOLDEN_COEFFICIENTS, n=50, seed=2))
        assert a != b

    def test_documented_draw_order(self):
        # Reimplementation of the documented recipe must reproduce the
        # records exactly: uniform ages, then employment, then gender, then
        # the outcome draw against sigmoid(eta).
        spec = SimulationSpec(
            coefficients=GOLDEN_COEFFICIENTS,
            n=200,
            age_low=10.0,
            age_high=80.0,
            employment_rate=0.3,
            female_rate=0.6,
            seed=424242,
        )
        rng = np.random.default_rng(np.random.SeedSequence(424242))
        ages = rng.uniform(10.0, 80.0, 200)
        emp = (rng.random(200) < 0.3).astype(int)
        gender = (rng.random(200) < 0.6).astype(int)
        b0, b1, b2, b3 = GOLDEN_COEFFICIENTS
        eta = b0 + b1 * ages + b2 * emp + b3 * gender
        hiv = (rng.random(200) < sigmoid(eta)).astype(int)
        expected = [
            ObservationRecord(
                age=float(ages[i]),
                gender=int(gender[i]),
                employment=int(emp[i]),
                hiv=int(hiv[i]),
            )
            for i in range(200)
        ]
        assert simulate(spec) == expected

    def test_age_bounds_respected(self):
        spec = SimulationSpec(
            coefficients=(0.0, 0.0, 0.0, 0.0), n=500, age_low=18.0, age_high=22.0, seed=5
        )
        ages = [r.age for r in simulate(spec)]
        assert min(ages) >= 18.0 and max(ages) <= 22.0

    def test_extreme_intercept_saturates(self):
        spec = SimulationSpec(coefficients=(30.0, 0.0, 0.0, 0.0), n=2000, seed=8)
        assert all(r.hiv == 1 for r in simulate(spec))

    def test_rate_matches_independent_monte_carlo(self):
        spec = SimulationSpec(coefficients=GOLDEN_COEFFICIENTS, n=100_000, seed=31415)
        observed = np.mean([r.hiv for r in simulate(spec)])
        # independent sampler for E[sigmoid(eta)] under the same spec
        rng = np.random.default_rng(5551212)
        m = 400_000
        ages = rng.uniform(0.0, 90.0, m)
        emp = rng.random(m) < 0.5
        gender = rng.random(m) < 0.5
        b0, b1, b2, b3 = GOLDEN_COEFFICIENTS
        target = sigmoid(b0 + b1 * ages + b2 * emp + b3 * gender).mean()
        assert observed == pytest.approx(target, abs=0.01)

    def test_invalid_specs_rejected(self):
        with pytest.raises(DomainError):
            SimulationSpec(coefficients=(1.0, 2.0, 3.0), n=10)
        with pytest.raises(DomainError):
            SimulationSpec(coefficients=GOLDEN_COEFFICIENTS, n=0)
        with pytest.raises(DomainError):
            SimulationSpec(coefficients=GOLDEN_COEFFICIENTS, n=10, age_low=50.0, age_high=50.0)
        with pytest.raises(DomainError):
            SimulationSpec(coefficients=GOLDEN_COEFFICIENTS, n=10, employment_rate=1.5)
        with pytest.raises(DomainError):
            SimulationSpec(coefficients=GOLDEN_COEFFICIENTS, n=10, seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", True), ("n", 2.5), ("n", True), ("n", np.nan),
    ])
    def test_seed_and_n_must_be_whole_numbers(self, field, value):
        with pytest.raises(DomainError, match=f"^{field} must be whole numbers"):
            SimulationSpec(**{"coefficients": GOLDEN_COEFFICIENTS, "n": 10, field: value})

    def test_integral_seed_and_n_are_accepted(self):
        expected = simulate(SimulationSpec(GOLDEN_COEFFICIENTS, n=50, seed=7))
        for n, seed in ((50.0, 7.0), (np.int64(50), np.uint8(7))):
            spec = SimulationSpec(GOLDEN_COEFFICIENTS, n=n, seed=seed)
            assert (spec.n, spec.seed) == (50, 7)
            assert type(spec.n) is int and type(spec.seed) is int
            assert simulate(spec) == expected
