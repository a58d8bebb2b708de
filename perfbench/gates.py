"""Exact oracles the workloads' answers are checked against.

Each gate raises :class:`GateError` on a mismatch; a run with a failed
gate reports ``"correct": false``.
"""

from __future__ import annotations

import math

import numpy as np


class GateError(AssertionError):
    """A workload produced a wrong answer."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def exact_det(matrix: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss)
    elimination; every intermediate value is an exact integer."""
    a = [row[:] for row in matrix]
    size = len(a)
    sign, prev = 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if size else 1


def recurrent_count(graph, n: int, laplacian_entry) -> int:
    """Number of recurrent configurations on a window of ``n`` rungs: the
    determinant of the reduced ladder Laplacian (matrix-tree theorem,
    Dhar 1990), built entry by entry from ``laplacian_entry``."""
    sites = [(x, k) for k in range(1, n + 1) for x in range(graph.n)]
    return exact_det([[laplacian_entry(graph, u, v) for v in sites]
                      for u in sites])


def check_conservation(graph, initial, additions, final, odometer,
                       laplacian_apply) -> None:
    """final = initial + additions - L(odometer) site by site, and the
    grains that left through the end rungs match ``grains_to_sink``."""
    added = np.zeros_like(initial.heights)
    for x, k in additions:
        added[k - initial.window.n, x] += 1
    expect = initial.heights + added - laplacian_apply(
        graph, initial.window, odometer.counts)
    require(bool((final.heights == expect).all()),
            "toppling does not conserve grains site by site")
    lost = int(initial.heights.sum() + added.sum() - final.heights.sum())
    require(lost == odometer.grains_to_sink,
            f"sink outflow {odometer.grains_to_sink} != grains lost {lost}")


def same_avalanche(a, b) -> bool:
    (fa, oa), (fb, ob) = a, b
    return (bool((fa.heights == fb.heights).all())
            and bool((oa.counts == ob.counts).all())
            and oa.grains_to_sink == ob.grains_to_sink)


def close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol
