"""No simplex: leancast has one minimizer, Levenberg-Marquardt in ``sarima.fit``.

This placeholder keeps the name ``nelder_mead`` only because perfbench's
tracer wraps it, and goes once the tracer stops wrapping that name.
"""


def nelder_mead(*args, **kwargs):
    raise NotImplementedError("leancast has no Nelder-Mead minimizer; use sarima.fit")
