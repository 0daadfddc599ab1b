"""CSV rendering of result tables: the column-at-a-time renderer against
the cell-at-a-time csv.writer path it replaced."""

import csv
import io
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

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


def oracle_csv_text(table: ResultTable) -> str:
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
    return ResultTable(columns, rows)


class TestToCsvText:
    @given(table=tables())
    @example(table=ResultTable(("only",), [("",), (None,), (1.5,)]))
    @example(table=ResultTable(("flag", "x"), [(True, -0.0), (1, 0.0),
                                               (None, math.nan), ("", 5e-324)]))
    @example(table=ResultTable(("a", "b,c"), [("a,b", 'say "hi"'),
                                              ("\r", "\n")]))
    @example(table=ResultTable(("r", "v"), [(1e16, 1e-4), (1e15, 1e-5),
                                            (math.inf, -math.inf)]))
    @example(table=ResultTable(("empty",), []))
    @example(table=ResultTable(("",), [("",)]))
    @example(table=ResultTable((), [(), ()]))
    def test_matches_the_csv_writer_path(self, table):
        # every render shares the process's column memo, which holds the
        # columns of earlier examples too: render the table, its mirror
        # (the same columns in reverse order) and the table again, at a
        # cap that clears the memo often and at the default cap
        mirror = ResultTable(table.columns[::-1],
                             [row[::-1] for row in table.rows])
        for cap in (4, reporting.FLOAT_REPR_CACHE_CAP):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(reporting, "FLOAT_REPR_CACHE_CAP", cap)
                for rendered in (table, mirror, table):
                    assert rendered.to_csv_text() == oracle_csv_text(rendered)

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
            table = ResultTable(("v", "n"), [(v, 1) for v in values])
            assert table.to_csv_text() == oracle_csv_text(table)
            assert list(reporting._FLOAT_COLUMNS) == [column_key(c)
                                                      for c in kept]
            assert reporting._float_cells_kept == sum(map(len, kept))


def column_key(column) -> bytes:
    """The memo key of a float column: its IEEE-754 doubles in native byte
    order, packed by struct rather than by the array module."""
    return struct.pack(f"={len(column)}d", *column)


# Each runs in a fresh interpreter, whose memo is empty and which must
# never load numpy; the script prints the numpy modules loaded.
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
    assert reporting._float_cells(column) == (repr(column[0]),)
assert sorted(reporting._FLOAT_COLUMNS) == sorted(map(key, columns))
assert ResultTable(("v",), [(0.0,)]).to_csv_text() == "v\\n0.0\\n"
assert ResultTable(("v",), [(-0.0,)]).to_csv_text() == "v\\n-0.0\\n"
""",
    # a hit is read by the column's bytes: a planted entry comes back
    "planted-entry": """
reporting._FLOAT_COLUMNS[key((-0.0, 1.5))] = ("planted", "cells")
assert reporting._float_cells((-0.0, 1.5)) == ("planted", "cells")
assert reporting._float_cells((0.0, 1.5)) == ("0.0", "1.5")
table = ResultTable(("v", "n"), [(-0.0, 1), (1.5, 2)])
assert table.to_csv_text() == "v,n\\nplanted,1\\ncells,2\\n"
""",
    # five cells fit a cap of 5; a sixth clears the memo, which refills
    "cap-clears": """
reporting.FLOAT_REPR_CACHE_CAP = 5
reporting._float_cells((1.0, 2.0))
reporting._float_cells((3.0, 4.0, 5.0))
assert reporting._float_cells((1.0, 2.0)) == ("1.0", "2.0")
assert list(reporting._FLOAT_COLUMNS) == [key((1.0, 2.0)),
                                          key((3.0, 4.0, 5.0))]
assert reporting._float_cells((6.0,)) == ("6.0",)
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
assert reporting._float_cells(wide) == ("0.5", "1.5", "2.5", "3.5")
assert list(reporting._FLOAT_COLUMNS) == [key((1.0,))]
reporting._float_cells((2.0, 3.0))
assert list(reporting._FLOAT_COLUMNS) == [key((1.0,)), key((2.0, 3.0))]
""",
    # a one-column table quotes an empty cell; the memo's cells stay as
    # they were, and a wider table writes them unquoted
    "one-column-rule": """
reporting._FLOAT_COLUMNS[key((1.0, 2.0))] = ("", "x")
assert ResultTable(("v",), [(1.0,), (2.0,)]).to_csv_text() == 'v\\n""\\nx\\n'
assert reporting._FLOAT_COLUMNS[key((1.0, 2.0))] == ("", "x")
wide = ResultTable(("v", "n"), [(1.0, 1), (2.0, 2)])
assert wide.to_csv_text() == "v,n\\n,1\\nx,2\\n"
""",
}


class TestFloatColumnMemoWithoutNumpy:
    @pytest.mark.parametrize("name", sorted(MEMO_PROBES))
    def test_memo_probe(self, name):
        src = Path(reporting.__file__).parents[1]
        script = MEMO_PROBE_HEAD + MEMO_PROBES[name] + MEMO_PROBE_TAIL
        out = subprocess.run([sys.executable, "-c", script],
                             check=True, capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout == "[]\n"


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
