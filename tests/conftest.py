import tracemalloc

import numpy as np


def materialize(apply_op, shape):
    """Dense matrix of a linear operator by probing unit vectors; the output
    may have another size than the input of ``shape``.  Each column is a
    copy, so ``apply_op`` may write every result into one buffer."""
    n = int(np.prod(shape))
    return np.column_stack(
        [np.array(apply_op(e.reshape(shape))).ravel() for e in np.eye(n)]
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


def noisy_step(h=32, w=32, sigma=0.05, seed=0):
    """``(clean, noisy)``: a vertical 0.25/0.75 step and a copy with
    Gaussian noise of standard deviation ``sigma``."""
    rng = np.random.default_rng(seed)
    f = np.full((h, w), 0.25)
    f[:, w // 2:] = 0.75
    return f, f + sigma * rng.standard_normal((h, w))


def local_energy(f, j, i, alpha):
    """Sum of the smoothed-TV terms that involve pixel (j, i)."""
    h, w = f.shape
    total = 0.0
    for (r, c) in ((j, i), (j, i - 1), (j - 1, i)):
        if r < 0 or c < 0:
            continue
        dx = f[r, c + 1] - f[r, c] if c < w - 1 else 0.0
        dy = f[r + 1, c] - f[r, c] if r < h - 1 else 0.0
        total += np.sqrt(dx * dx + dy * dy + alpha * alpha)
    return total
