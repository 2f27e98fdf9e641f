"""Closed-form numpy references for the seven Table-2 kernels whose math
has one, written independently of the simulator.

Each function takes the launch as built (its memory still the initial
image) and the final memory image of a run, and returns ``None`` when the
run's output matches or a one-line reason when it does not.
"""

from __future__ import annotations

import numpy as np


def _words(launch, param, count, image=None):
    start = int(launch.params[param]) // 4
    source = launch.memory.words if image is None else image
    return source[start:start + count]


def _threads(launch):
    return launch.num_blocks * launch.threads_per_block


def _mismatch(name, got, expected, exact=False):
    ok = (np.array_equal(got, expected) if exact
          else np.allclose(got, expected, rtol=1e-9, atol=1e-9))
    return None if ok else f"{name} differs from its closed form"


def lud(launch, image):
    n, cols = _threads(launch), int(launch.params["cols"])
    pivot = _words(launch, "pivot", cols)
    mat = _words(launch, "mat", n * cols).reshape(n, cols)
    return _mismatch("LUD row elimination", _words(launch, "out", n, image),
                     -(mat * pivot).sum(axis=1))


def sp(launch, image):
    blocks, threads = launch.num_blocks, launch.threads_per_block
    n, chunks = blocks * threads, int(launch.params["chunks"])
    a = _words(launch, "A", n * chunks).reshape(chunks, n)
    b = _words(launch, "B", n * chunks).reshape(chunks, n)
    expected = (a * b).sum(axis=0).reshape(blocks, threads).sum(axis=1)
    return _mismatch("SP dot product", _words(launch, "out", blocks, image),
                     expected)


def km(launch, image):
    n = _threads(launch)
    nfeat, ncl = int(launch.params["nfeat"]), int(launch.params["nclusters"])
    feat = _words(launch, "feat", n * nfeat).reshape(nfeat, n).T
    cent = _words(launch, "cent", ncl * nfeat).reshape(ncl, nfeat)
    dist = ((feat[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
    return _mismatch("KM assignment", _words(launch, "assign", n, image),
                     np.argmin(dist, axis=1).astype(np.float64), exact=True)


def sc(launch, image):
    n, ncenters = _threads(launch), int(launch.params["ncenters"])
    pts = _words(launch, "pts", n * 2 * ncenters).reshape(ncenters, n, 2)
    centers = _words(launch, "centers", ncenters * 2).reshape(ncenters, 2)
    d2 = ((pts - centers[:, None, :]) ** 2).sum(axis=2)
    expected = np.minimum(d2.min(axis=0), 1e6)
    return _mismatch("SC nearest centre", _words(launch, "out", n, image),
                     expected)


def img(launch, image):
    n, iters = _threads(launch), int(launch.params["iters"])
    pix = _words(launch, "pix", n * iters).astype(np.int64)
    expected = np.bincount(pix & 63, minlength=64).astype(np.float64)
    return _mismatch("IMG histogram", _words(launch, "hist", 64, image),
                     expected, exact=True)


def cs(launch, image):
    n = _threads(launch)
    taps, rows = int(launch.params["taps"]), int(launch.params["rows"])
    border = int(launch.params["border"])
    row_words = int(launch.params["rowbytes"]) // 4
    inp = _words(launch, "inp", row_words * rows)
    coef = _words(launch, "coef", taps)
    tid = np.arange(n)
    start = np.where(tid < border, 0, tid)
    expected = np.zeros(n)
    for r in range(rows):
        for k in range(taps):
            expected += coef[k] * inp[r * row_words + start + k]
    return _mismatch("CS convolution", _words(launch, "out", n, image),
                     expected)


def bfs(launch, image):
    n, degree = _threads(launch), int(launch.params["degree"])
    cur = launch.params["cur"]
    levels = _words(launch, "levels", n).copy()
    edges = _words(launch, "edges", n * degree).astype(np.int64) \
        .reshape(n, degree)
    neighbours = edges[levels == cur].ravel()
    levels[neighbours] = np.minimum(levels[neighbours], cur + 1)
    return _mismatch("BFS frontier update",
                     _words(launch, "levels", n, image), levels, exact=True)


CLOSED_FORMS = {"LUD": lud, "SP": sp, "KM": km, "SC": sc, "IMG": img,
                "CS": cs, "BFS": bfs}
