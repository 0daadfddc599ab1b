"""A fixed reference program, timed next to every measured command.

It does the kinds of work the fogscope CLI does, without fogscope: it
imports the CLI's dependencies (numpy, scipy.stats, PyYAML, click) and
formats rows of floats as CSV.  A shared host's slow phases slow it and
the commands alike, so a command's time divided by this program's time
moves less from run to run than the command's time alone.  Its code
must not change, or the ratios it anchors stop being comparable.
"""

import csv
import io

import click  # noqa: F401
import numpy  # noqa: F401
import scipy.stats  # noqa: F401
import yaml  # noqa: F401

ROWS = 60_000


def row(i: int) -> tuple:
    x = i * 0.001
    return (i, x, x * x + 1.5, 1.0 / (1.0 + x), x > 0.5)


buf = io.StringIO()
writer = csv.writer(buf, lineterminator="\n")
for i in range(ROWS):
    writer.writerow([repr(v) if isinstance(v, float) else str(v)
                     for v in row(i)])
