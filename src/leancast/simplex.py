"""Derivative-free Nelder-Mead simplex minimization.

Small, self-contained implementation that nothing in leancast calls: the
SARIMA fitter uses Levenberg-Marquardt.  It stays because perfbench's
tracer wraps ``nelder_mead`` by name.
"""

from __future__ import annotations

import numpy as np

# standard reflection / expansion / contraction / shrink coefficients
_ALPHA = 1.0
_GAMMA = 2.0
_RHO = 0.5
_SIGMA = 0.5


def nelder_mead(func, x0, *, step: float = 0.25, f_tol: float = 1e-8,
                max_iter: int = 5000) -> tuple[np.ndarray, float, bool]:
    """Minimize ``func`` starting from ``x0``.

    Returns (best point, best value, converged).  ``converged`` is True when
    the spread of function values across the simplex fell below ``f_tol``
    before ``max_iter`` iterations.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    dim = len(x0)
    if dim == 0:
        return x0, float(func(x0)), True

    points = [x0.copy()]
    for i in range(dim):
        x = x0.copy()
        x[i] += step if x[i] == 0.0 else step * abs(x[i]) + step
        points.append(x)
    values = [float(func(p)) for p in points]

    converged = False
    for _ in range(max_iter):
        order = np.argsort(values, kind="stable")
        points = [points[i] for i in order]
        values = [values[i] for i in order]

        if abs(values[-1] - values[0]) <= f_tol:
            converged = True
            break

        centroid = np.mean(points[:-1], axis=0)
        worst = points[-1]

        reflected = centroid + _ALPHA * (centroid - worst)
        f_reflected = float(func(reflected))
        if values[0] <= f_reflected < values[-2]:
            points[-1], values[-1] = reflected, f_reflected
            continue

        if f_reflected < values[0]:
            expanded = centroid + _GAMMA * (centroid - worst)
            f_expanded = float(func(expanded))
            if f_expanded < f_reflected:
                points[-1], values[-1] = expanded, f_expanded
            else:
                points[-1], values[-1] = reflected, f_reflected
            continue

        # contraction: outside when the reflection beat the worst point,
        # inside otherwise
        if f_reflected < values[-1]:
            contracted = centroid + _RHO * (reflected - centroid)
        else:
            contracted = centroid + _RHO * (worst - centroid)
        f_contracted = float(func(contracted))
        if f_contracted < min(f_reflected, values[-1]):
            points[-1], values[-1] = contracted, f_contracted
            continue

        # shrink toward the current best vertex
        best = points[0]
        for i in range(1, dim + 1):
            points[i] = best + _SIGMA * (points[i] - best)
            values[i] = float(func(points[i]))

    i_best = int(np.argmin(values))
    return points[i_best], values[i_best], converged
