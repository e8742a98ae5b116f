import tracemalloc

import numpy as np


def materialize(apply_op, shape):
    """Dense matrix of a linear operator by probing unit vectors; the output
    may have another size than the input of ``shape``."""
    n = int(np.prod(shape))
    return np.column_stack(
        [np.asarray(apply_op(e.reshape(shape))).ravel() for e in np.eye(n)]
    )


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(b.ravel()), 1e-300)
    return np.linalg.norm((a - b).ravel()) / denom


def peak_allocation(call):
    """Peak bytes allocated while ``call()`` runs, as tracemalloc sees them
    (numpy reports its array buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
