"""Parser fuzzing: one value of a valid input file is replaced by a drawn
one, and every read either succeeds or raises a data error that the CLI
reports with exit code 1."""

import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rocofscreen import CaseValidationError, load_case9, read_case
from rocofscreen.case_io import (CaseParseError, import_cdf, read_contingencies,
                                 read_loading_cases, read_scenario_table,
                                 write_sidecar)
from rocofscreen.scenarios import SCENARIO_COLUMNS, ScenarioRecord
from test_case_io import CDF_SAMPLE
from test_cli import CASE9, GOOD_CONTINGENCIES, GOOD_LOADING

DATA_ERRORS = (CaseParseError, CaseValidationError)
FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

numbers = st.integers() | st.floats()
# half the draws are numbers, which most fields take, so that reads also
# get past the parser into validation
json_values = numbers | st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6)
cells = (st.sampled_from(["", " ", "0", "-1", "1e400", "nan", "4.7", "ture",
                          "gen1", "load5", "stage1", "wind"])
         | st.text(max_size=8))


def _paths(value, path=()):
    """The path of every value in a JSON document, the root included."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _with_cell(text, row, col, cell):
    rows = list(csv.reader(io.StringIO(text)))
    rows[row % len(rows)][col % len(rows[0])] = cell
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def _reads_or_data_error(read, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_text(text)
        try:
            read(path)
        except DATA_ERRORS:
            pass


def _case9_sidecar():
    with tempfile.TemporaryDirectory() as tmp:
        write_sidecar(load_case9(), Path(tmp) / "case.dyn.csv")
        return (Path(tmp) / "case.dyn.csv").read_text()


def _read_case9_with_sidecar(path):
    return read_case(CASE9, sidecar=path)


CASE9_SIDECAR = _case9_sidecar()
CASE9_DOC = json.loads(CASE9.read_text())
CASE9_PATHS = list(_paths(CASE9_DOC))
BANK_DOC = [GOOD_LOADING]
BANK_PATHS = list(_paths(BANK_DOC))
TABLE = (",".join(SCENARIO_COLUMNS) + "\n" + ",".join(
    ScenarioRecord("lc0", "c1", 85.0, 1.0, -1.0, -1.2, -1.0, -0.9, 5).row()) + "\n")
CDF_FIELDS = [(31, 37), (0, 4), (5, 9), (19, 29), (24, 26), (27, 33), (29, 40),
              (33, 40), (40, 49), (40, 50), (49, 59), (59, 67), (67, 75),
              (76, 82), (76, 83)]


@pytest.mark.parametrize("read, text", [
    (read_case, CASE9.read_text()), (_read_case9_with_sidecar, CASE9_SIDECAR),
    (read_loading_cases, json.dumps(BANK_DOC)),
    (read_contingencies, GOOD_CONTINGENCIES), (read_scenario_table, TABLE),
    (import_cdf, CDF_SAMPLE)])
def test_fuzzed_inputs_start_valid(read, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_text(text)
        assert read(path)


@FUZZ
@given(st.sampled_from(CASE9_PATHS), json_values)
def test_case_document_value(path, value):
    _reads_or_data_error(read_case, json.dumps(_replaced(CASE9_DOC, path, value)))


@FUZZ
@given(st.integers(0, 99), st.integers(0, 99), cells)
def test_sidecar_cell(row, col, cell):
    _reads_or_data_error(_read_case9_with_sidecar,
                         _with_cell(CASE9_SIDECAR, row, col, cell))


@FUZZ
@given(st.integers(0, 99), st.sampled_from(CDF_FIELDS), st.text(max_size=11))
def test_cdf_fixed_column(line, field, text):
    lines = CDF_SAMPLE.splitlines()
    k, (lo, hi) = line % len(lines), field
    card = lines[k].ljust(hi)
    lines[k] = card[:lo] + text[:hi - lo].rjust(hi - lo) + card[hi:]
    _reads_or_data_error(import_cdf, "\n".join(lines) + "\n")


@FUZZ
@given(st.sampled_from(BANK_PATHS), json_values)
def test_loading_bank_value(path, value):
    _reads_or_data_error(read_loading_cases,
                         json.dumps(_replaced(BANK_DOC, path, value)))


@FUZZ
@given(st.sampled_from([read_contingencies, read_scenario_table]),
       st.integers(0, 99), st.integers(0, 99), cells)
def test_bank_and_table_cell(read, row, col, cell):
    text = GOOD_CONTINGENCIES if read is read_contingencies else TABLE
    _reads_or_data_error(read, _with_cell(text, row, col, cell))
