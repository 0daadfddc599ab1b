"""CSV rendering of result tables: the column-at-a-time renderer against
the cell-at-a-time csv.writer path it replaced, and tables built from
columns against the same cells given as rows."""

import csv
import io
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fogscope import reporting
from fogscope.reporting import ResultTable, format_cell


def oracle_format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else str(value)


class Rows(NamedTuple):
    """A header and its cells as rows, as a test draws them."""
    columns: tuple
    rows: list


def oracle_csv_text(table: Rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([oracle_format_cell(v) for v in row])
    return buf.getvalue()


# -0.0 beside 0.0, NaN, the infinities, the smallest subnormal, and values
# either side of repr's switches to exponent notation (1e16, 1e-4 / 1e-5)
SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  1e16, 9999999999999998.0, 1e-4, 1e-5, 0.00011, 9.9e-05,
                  0.1, 1.0, -1.0, 1e22, 1.7976931348623157e308]
TRICKY_TEXTS = ["", ",", '"', "\r", "\n", "\r\n", 'a,"b"', " x ", "true",
                "1.0", "#"]
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
texts = st.one_of(st.sampled_from(TRICKY_TEXTS), st.text(max_size=6))
CELLS = {
    "float": floats,
    "bool": st.booleans(),
    "int": st.integers(),
    "str": texts,
    "none": st.none(),
    "mixed": st.one_of(floats, st.booleans(), st.integers(), texts,
                       st.none()),
}


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1,
                          max_size=5))
    n_rows = draw(st.integers(min_value=0, max_value=12))
    columns = tuple(draw(texts) for _ in kinds)
    rows = [tuple(draw(CELLS[kind]) for kind in kinds) for _ in range(n_rows)]
    return Rows(columns, rows)


class TestToCsvText:
    @given(table=tables())
    @example(table=Rows(("only",), [("",), (None,), (1.5,)]))
    @example(table=Rows(("flag", "x"), [(True, -0.0), (1, 0.0),
                                        (None, math.nan), ("", 5e-324)]))
    # equal values of different types, which a cell keyed by value would merge
    @example(table=Rows(("v",), [(1,), (1.0,), (True,), (0,), (-0.0,), (0.0,),
                                 (False,)]))
    @example(table=Rows(("a", "b,c"), [("a,b", 'say "hi"'), ("\r", "\n")]))
    @example(table=Rows(("r", "v"), [(1e16, 1e-4), (1e15, 1e-5),
                                     (math.inf, -math.inf)]))
    @example(table=Rows(("empty",), []))
    @example(table=Rows(("",), [("",)]))
    @example(table=Rows((), [(), ()]))
    def test_matches_the_csv_writer_path(self, table):
        # every render shares the process's column memo, which holds the
        # columns of earlier examples too: render the table, its mirror
        # (the same columns in reverse order) and the table again, at a
        # cap that clears the memo often and at the default cap
        mirror = Rows(table.columns[::-1], [row[::-1] for row in table.rows])
        for cap in (4, reporting.FLOAT_REPR_CACHE_CAP):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(reporting, "FLOAT_REPR_CACHE_CAP", cap)
                for rendered in (table, mirror, table):
                    assert ResultTable(*rendered).to_csv_text() \
                        == oracle_csv_text(rendered)

    @pytest.mark.parametrize("n_rows", [
        reporting.ROWS_PER_BLOCK - 1, reporting.ROWS_PER_BLOCK,
        reporting.ROWS_PER_BLOCK + 1, 2 * reporting.ROWS_PER_BLOCK + 1],
        ids=["block-less-one", "block", "block-plus-one",
             "two-blocks-plus-one"])
    def test_rows_either_side_of_a_block_boundary(self, n_rows):
        # the float column is rendered, then split out of the memo's string
        table = Rows(("i", "x", "s"), [(i, i / 7, f"a,{i}") for i in
                                       range(n_rows)])
        for _ in range(2):
            blocks = ResultTable(*table).csv_blocks()
            assert "".join(blocks) == oracle_csv_text(table)
            assert [block.count("\n") for block in blocks[1:]] == [
                min(reporting.ROWS_PER_BLOCK, n_rows - start) for start in
                range(0, n_rows, reporting.ROWS_PER_BLOCK)]
        manifest = reporting.RunManifest("t", "d", None, "v", "0")
        assert reporting.render_artifact(manifest, ResultTable(*table)) \
            == manifest.to_comment_line() + "\n" + oracle_csv_text(table)

    def test_renders_keep_signed_zeros_apart_through_the_cache(self):
        first = ResultTable(("v",), [(0.0,)]).to_csv_text()
        second = ResultTable(("v",), [(-0.0,), (0.0,)]).to_csv_text()
        third = ResultTable(("v",), [(0.0,)]).to_csv_text()
        assert (first, second, third) == ("v\n0.0\n", "v\n-0.0\n0.0\n",
                                          "v\n0.0\n")

    @pytest.mark.parametrize("rows", [
        [(1.0, 2.0), (3.0,)],
        [(1.0,), (2.0, 3.0)],
        [(1.0, 2.0), (3.0, 4.0, 5.0)],
        [(1.0, 2.0, 3.0)],
        [(1.0,)],
    ])
    def test_ragged_row_raises(self, rows):
        with pytest.raises(ValueError):
            ResultTable(("a", "b"), rows).to_csv_text()

    def test_full_cache_is_cleared_and_output_unchanged(self, monkeypatch):
        monkeypatch.setattr(reporting, "_FLOAT_COLUMNS", {})
        monkeypatch.setattr(reporting, "_float_cells_kept", 0)
        monkeypatch.setattr(reporting, "FLOAT_REPR_CACHE_CAP", 4)
        sevenths = [float(i) / 7 for i in range(9)]
        # (column, the columns kept after it is rendered) at a cap of 4 cells
        steps = [
            ([0.5, 1.5, 0.5], [[0.5, 1.5, 0.5]]),
            ([2.5], [[0.5, 1.5, 0.5], [2.5]]),          # 4 cells: at the cap
            ([0.5, 1.5, 0.5], [[0.5, 1.5, 0.5], [2.5]]),  # a hit
            ([3.5, 4.5], [[3.5, 4.5]]),                 # 6 cells: cleared
            (sevenths, [[3.5, 4.5]]),                   # longer than the cap
            ([-0.0, 0.5], [[3.5, 4.5], [-0.0, 0.5]]),
            ([0.0, 0.5], [[0.0, 0.5]]),                 # not -0.0's column
        ]
        for values, kept in steps:
            table = Rows(("v", "n"), [(v, 1) for v in values])
            assert ResultTable(*table).to_csv_text() == oracle_csv_text(table)
            assert list(reporting._FLOAT_COLUMNS) == [column_key(c)
                                                      for c in kept]
            assert reporting._float_cells_kept == sum(map(len, kept))


def column_key(column) -> bytes:
    """The memo key of a float column: its IEEE-754 doubles in native byte
    order, packed by struct rather than by the array module."""
    return struct.pack(f"={len(column)}d", *column)


def quiet_nan(payload: int) -> float:
    return struct.unpack("<d", struct.pack(
        "<Q", 0x7FF8000000000000 | payload))[0]


# float cells with NaN payloads beside the special floats; numpy copies a
# double's bits, so an array keeps the payload
payloads = st.integers(min_value=0, max_value=(1 << 51) - 1)
column_floats = st.one_of(floats, payloads.map(quiet_nan),
                          payloads.map(lambda p: -quiet_nan(p)))
# the cells of each kind of column the renderer takes, and the form the
# column is given in: numpy arrays, read as they are, or Python values
COLUMN_CELLS = {**CELLS, "float": column_floats,
                "float64-array": column_floats, "bool-array": st.booleans()}
AS_COLUMN = {"float64-array": partial(np.array, dtype=np.float64),
             "bool-array": partial(np.array, dtype=bool), "float": tuple}


@st.composite
def column_tables(draw):
    """(header, cells by column), of one to five columns"""
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_CELLS)), min_size=1,
                          max_size=5))
    n_rows = draw(st.integers(min_value=0, max_value=12))
    return (tuple(draw(texts) for _ in kinds),
            [AS_COLUMN.get(kind, list)(draw(st.lists(
                COLUMN_CELLS[kind], min_size=n_rows, max_size=n_rows)))
             for kind in kinds])


def as_rows(cells) -> list[tuple]:
    """The same cells a row at a time; an array's cells are numpy scalars,
    which go through format_cell."""
    return list(zip(*cells))


class TestColumnsAgainstRows:
    @given(table=column_tables())
    @example(table=(("x", "ok"), [np.array([-0.0, 0.0, math.nan,
                                            quiet_nan(1), -quiet_nan(7)]),
                                  np.array([True, False, True, True, False])]))
    @example(table=(("n", "say"), [(1, -2, 10 ** 30), ["a,b", 'say "hi"',
                                                       "\r\n"]]))
    @example(table=(("only",), [["", None, "x", ""]]))
    @example(table=(("only",), [np.array([], dtype=float)]))
    def test_columns_render_as_the_same_rows(self, table):
        header, cells = table
        text = ResultTable(header, cells=cells).to_csv_text()
        assert text == ResultTable(header, as_rows(cells)).to_csv_text()
        python_rows = as_rows([c.tolist() if isinstance(c, np.ndarray)
                               else c for c in cells])
        assert text == oracle_csv_text(Rows(header, python_rows))

    @pytest.mark.parametrize("cells", [
        [(1.0, 2.0), (3.0,)],
        [(1.0,), ()],
        [(1.0,), (2.0,), (3.0,)],
    ])
    def test_column_count_or_length_mismatch_raises(self, cells):
        with pytest.raises(ValueError):
            ResultTable(("a", "b"), cells=cells).to_csv_text()

    def test_array_and_equal_tuple_share_one_memo_entry(self, monkeypatch):
        monkeypatch.setattr(reporting, "_FLOAT_COLUMNS", {})
        monkeypatch.setattr(reporting, "_float_cells_kept", 0)
        values = (0.1, -0.0, quiet_nan(3), 1e16)
        from_tuple = ResultTable(("v",), cells=[values]).to_csv_text()
        from_array = ResultTable(("v",), cells=[np.array(values)]).to_csv_text()
        assert from_tuple == from_array == "v\n0.1\n-0.0\nnan\n1e+16\n"
        assert list(reporting._FLOAT_COLUMNS) == [column_key(values)]
        assert reporting._float_cells_kept == len(values)

    def test_array_hit_is_read_without_tolist(self, monkeypatch):
        class NoList(np.ndarray):
            def tolist(self):
                raise AssertionError("an array's memo hit called tolist")
        monkeypatch.setattr(reporting, "_FLOAT_COLUMNS",
                            {column_key((-0.0, 1.5)): "planted,cells"})
        column = np.array([-0.0, 1.5]).view(NoList)
        table = ResultTable(("v", "n"), cells=[column, (1, 2)])
        assert table.to_csv_text() == "v,n\nplanted,1\ncells,2\n"


# Each runs in a fresh interpreter, whose memo is empty and which must
# never load numpy; the script prints the numpy modules loaded.  The memo
# keeps each column's cells as one comma-joined string, which
# _float_cells returns.
MEMO_PROBE_HEAD = """
import struct, sys
from fogscope import reporting
from fogscope.reporting import ResultTable

def key(column):
    return struct.pack(f"={len(column)}d", *column)

def from_bits(bits):
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]
"""
MEMO_PROBE_TAIL = """
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""
MEMO_PROBES = {
    # 0.0 beside -0.0 and three NaN payloads: five columns, five entries
    "signed-zeros-and-nans": """
nans = [from_bits(b) for b in (0x7FF8000000000000, 0x7FF8000000000001,
                               0xFFF8000000000000)]
columns = [(0.0,), (-0.0,), *((nan,) for nan in nans)]
for column in columns + columns:
    assert reporting._float_cells(column) == repr(column[0])
assert sorted(reporting._FLOAT_COLUMNS) == sorted(map(key, columns))
assert reporting._FLOAT_COLUMNS[key((-0.0,))] == "-0.0"
assert ResultTable(("v",), [(0.0,)]).to_csv_text() == "v\\n0.0\\n"
assert ResultTable(("v",), [(-0.0,)]).to_csv_text() == "v\\n-0.0\\n"
""",
    # a hit is read by the column's bytes: a planted entry comes back
    "planted-entry": """
reporting._FLOAT_COLUMNS[key((-0.0, 1.5))] = "planted,cells"
assert reporting._float_cells((-0.0, 1.5)) == "planted,cells"
assert reporting._float_cells((0.0, 1.5)) == "0.0,1.5"
table = ResultTable(("v", "n"), [(-0.0, 1), (1.5, 2)])
assert table.to_csv_text() == "v,n\\nplanted,1\\ncells,2\\n"
""",
    # five cells fit a cap of 5; a sixth clears the memo, which refills
    "cap-clears": """
reporting.FLOAT_REPR_CACHE_CAP = 5
reporting._float_cells((1.0, 2.0))
reporting._float_cells((3.0, 4.0, 5.0))
assert reporting._float_cells((1.0, 2.0)) == "1.0,2.0"
assert reporting._FLOAT_COLUMNS == {key((1.0, 2.0)): "1.0,2.0",
                                    key((3.0, 4.0, 5.0)): "3.0,4.0,5.0"}
assert reporting._float_cells((6.0,)) == "6.0"
assert list(reporting._FLOAT_COLUMNS) == [key((6.0,))]
reporting._float_cells((7.0, 8.0, 9.0, 10.0))
assert list(reporting._FLOAT_COLUMNS) == [key((6.0,)),
                                          key((7.0, 8.0, 9.0, 10.0))]
""",
    # a column longer than the cap is rendered and not kept, and the memo
    # keeps what it held
    "long-column": """
reporting.FLOAT_REPR_CACHE_CAP = 3
reporting._float_cells((1.0,))
wide = (0.5, 1.5, 2.5, 3.5)
assert reporting._float_cells(wide) == "0.5,1.5,2.5,3.5"
assert list(reporting._FLOAT_COLUMNS) == [key((1.0,))]
reporting._float_cells((2.0, 3.0))
assert list(reporting._FLOAT_COLUMNS) == [key((1.0,)), key((2.0, 3.0))]
assert reporting._float_cells(()) == ""     # nothing to keep
assert list(reporting._FLOAT_COLUMNS) == [key((1.0,)), key((2.0, 3.0))]
""",
    # a one-column table quotes an empty cell; the memo's cells stay as
    # they were, and a wider table writes them unquoted
    "one-column-rule": """
reporting._FLOAT_COLUMNS[key((1.0, 2.0))] = ",x"
assert ResultTable(("v",), [(1.0,), (2.0,)]).to_csv_text() == 'v\\n""\\nx\\n'
assert reporting._FLOAT_COLUMNS[key((1.0, 2.0))] == ",x"
wide = ResultTable(("v", "n"), [(1.0, 1), (2.0, 2)])
assert wide.to_csv_text() == "v,n\\n,1\\nx,2\\n"
""",
}


# the benchmark sweep's grid: with the built-in scenario at 2,001 steps of
# r it gives 27 distinct float columns
BENCHMARK_GRID = ("network=gsm,umts,hspa,hspa_plus;"
                  "v_fog_frac=0.25,0.5,0.75,1.0;fog.tdp_w=2.0607,10")


class TestFloatColumnMemoSize:
    def test_benchmark_columns_kept_in_bounded_bytes(self, monkeypatch):
        # on CPython 3.11, the 27 columns kept as tuples of separate str
        # objects took 4.28 MB; as one comma-joined string each, 1.26 MB
        from fogscope import model
        from fogscope.scenario import (default_scenario, parse_grid_spec,
                                       sweep_grid)
        monkeypatch.setattr(reporting, "_FLOAT_COLUMNS", {})
        monkeypatch.setattr(reporting, "_float_cells_kept", 0)
        r = np.linspace(0.0, 1.0, 2001)
        evaluations = [model.evaluate(member, r) for member in sweep_grid(
            default_scenario(), parse_grid_spec(BENCHMARK_GRID))]
        tracemalloc.start()
        try:
            for evaluation in evaluations:
                ResultTable(evaluation._fields, cells=evaluation).to_csv_text()
            kept = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, reporting.__file__)])
        finally:
            tracemalloc.stop()
        assert len(reporting._FLOAT_COLUMNS) == 27
        assert reporting._float_cells_kept == 27 * 2001
        assert sum(stat.size for stat in kept.statistics("filename")) \
            < 1_500_000


class TestFloatColumnMemoWithoutNumpy:
    @pytest.mark.parametrize("name", sorted(MEMO_PROBES))
    def test_memo_probe(self, name):
        src = Path(reporting.__file__).parents[1]
        script = MEMO_PROBE_HEAD + MEMO_PROBES[name] + MEMO_PROBE_TAIL
        out = subprocess.run([sys.executable, "-c", script],
                             check=True, capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout == "[]\n"


class TestWriteText:
    @pytest.mark.parametrize("start", [0, 1, 3, 4, 9, 10])
    def test_writes_the_text_from_start_a_chunk_at_a_time(self, monkeypatch,
                                                          start):
        writes = []

        class Recorded(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)
        monkeypatch.setattr(reporting, "WRITE_CHUNK", 4)
        stream = Recorded()
        reporting.write_text(stream, "ab,\x1b[31m\n", start)
        assert stream.getvalue() == "ab,\x1b[31m\n"[start:]
        assert all(0 < len(chunk) <= 4 for chunk in writes)

    def test_artifact_of_several_chunks_is_written_whole(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.setenv("FOGSCOPE_OUT", str(tmp_path))
        text = "".join(f"{i},é\n" for i in range(reporting.WRITE_CHUNK))
        path = reporting.write_artifact("long.csv", text)
        assert path.read_bytes() == text.encode("utf-8")


class TestManifestTimestamp:
    @pytest.mark.parametrize("epoch,stamp", [
        ("0", "1970-01-01T00:00:00+00:00"),
        ("012", "1970-01-01T00:00:12+00:00"),
        ("-12", "1969-12-31T23:59:48+00:00"),
        ("1700000000", "2023-11-14T22:13:20+00:00"),
    ])
    def test_ascii_digits_with_an_optional_minus(self, monkeypatch, epoch,
                                                 stamp):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        assert reporting.manifest_timestamp() == stamp


class TestNumpyScalars:
    def test_format_cell_uses_the_python_value(self):
        assert format_cell(np.float64(0.1)) == "0.1"
        assert format_cell(np.True_) == "true"
        assert format_cell(np.int64(7)) == "7"

    def test_table_uses_the_python_value(self):
        table = ResultTable(("x", "ok", "n"), [
            (np.float64(0.1), np.True_, np.int64(7)),
            (np.float64(-0.0), np.False_, 3),
        ])
        assert table.to_csv_text() == "x,ok,n\n0.1,true,7\n-0.0,false,3\n"
