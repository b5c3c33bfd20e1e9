"""Test-only exact Gauss-Jordan elimination over Q.

``row_reduce`` divides each pivot row by its lead, as a textbook reduction
does.  It is the oracle for the integer echelon of
``eigenforms.cusp_space_basis`` and, through ``local_solve_reference``, for
the Newton interpolation of the local factors, and shares no code with
either.
"""


def row_reduce(rows: list[list], n_cols: int) -> list[int]:
    """Exact Gauss-Jordan elimination of ``rows`` in place; the pivot columns.

    Only the first ``n_cols`` columns are scanned, left to right; further
    columns (a right-hand side) are carried along.  Each pivot row is scaled
    to a leading 1, cleared from every other row and swapped up, so the
    pivot rows come first in pivot order and the rest are zero on the scanned
    columns.  The scan stops once every row has a pivot.
    """
    pivots: list[int] = []
    for col in range(n_cols):
        rank = len(pivots)
        if rank == len(rows):
            break
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col] != 0:
                f = row[col]
                rows[i] = [x - f * y for x, y in zip(row, rows[rank])]
        pivots.append(col)
    return pivots
