"""The per-cell CSV builder: one Python call per cell and one ``",".join`` per
row.  :func:`diamondwalk.cli._csv` formats whole chunks of rows with one
``%`` instead, and :func:`diamondwalk.cli._walk_csv` a walk record's zero runs
with one ``str.join`` and its light-cone span with one ``%``; the tests
require both to give exactly these bytes.
"""


def per_cell_csv(header, *columns):
    cells = [map("%.17g".__mod__ if c.dtype.kind == "f" else str, c.tolist()) for c in columns]
    return "\n".join([header, *map(",".join, zip(*cells))]) + "\n"
