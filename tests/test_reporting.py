"""CSV rendering of result tables: the column-at-a-time renderer against
the cell-at-a-time csv.writer path it replaced."""

import csv
import io
import math
import os
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
        assert table.to_csv_text() == oracle_csv_text(table)

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
        monkeypatch.setattr(reporting, "_FLOAT_REPRS", {})
        monkeypatch.setattr(reporting, "FLOAT_REPR_CACHE_CAP", 4)
        # the third overflows with one value cached, the fourth alone
        for values in ([0.5, 1.5, 0.5], [2.5, 3.5, 0.5], [0.5, 4.5],
                       [float(i) / 7 for i in range(9)], [-0.0, 0.5]):
            table = ResultTable(("v",), [(v,) for v in values])
            assert table.to_csv_text() == oracle_csv_text(table)
            assert len(reporting._FLOAT_REPRS) <= 4


# Runs in a fresh interpreter: _float_cells keys its cache by the IEEE-754
# bits of each float without numpy, checked here against struct.
FLOAT_KEYS_PROBE = """
import struct, sys
from fogscope import reporting

def bits(x):
    return int.from_bytes(struct.pack("<d", x), "little")

def from_bits(key):
    return struct.unpack("<d", key.to_bytes(8, "little"))[0]

nans = [from_bits(k) for k in (0x7FF8000000000000, 0x7FF8000000000001,
                               0xFFF8000000000000)]
column = (0.0, -0.0, *nans, 0.1, 0.0)
reporting._FLOAT_REPRS = {}
assert reporting._float_cells(column) == list(map(repr, column))
# -0.0 beside 0.0 and three NaN payloads: six keys for seven values
assert sorted(reporting._FLOAT_REPRS) == sorted(set(map(bits, column)))
assert len(reporting._FLOAT_REPRS) == 6

# a hit reads the cache by bit pattern: a planted entry comes back
reporting._FLOAT_REPRS[bits(-0.0)] = "planted"
assert reporting._float_cells((0.0, -0.0)) == ["0.0", "planted"]

# six cached and two missing overflow a cap of 7: cleared, then refilled
reporting.FLOAT_REPR_CACHE_CAP = 7
assert reporting._float_cells((1.5, 2.5, 1.5)) == ["1.5", "2.5", "1.5"]
assert sorted(reporting._FLOAT_REPRS) == sorted(map(bits, (1.5, 2.5)))
# more distinct values than the cap: cleared and used once
wide = tuple(i / 7 for i in range(8))
assert reporting._float_cells(wide) == list(map(repr, wide))
assert reporting._FLOAT_REPRS == {}

print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""


class TestFloatCellsWithoutNumpy:
    def test_bit_keys_cache_hits_and_clears(self):
        src = Path(reporting.__file__).parents[1]
        out = subprocess.run([sys.executable, "-c", FLOAT_KEYS_PROBE],
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
