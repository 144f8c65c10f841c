"""RMSProp and Adam updates and global-norm clipping on the flat parameter
and gradient vectors of ``neural`` (layout in its docstring): each is a few
whole-vector operations, and steps update ``theta`` and the state in place,
computing into scratch vectors that ``init_optimizer`` allocates once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

RMSPROP_RHO = 0.9
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class OptimizerState:
    kind: str                      # "rmsprop" | "adam"
    v: np.ndarray                  # running mean of g^2 (RMSProp's s, Adam's v)
    m: np.ndarray | None = None    # Adam's running mean of g
    t: int = 0                     # steps taken
    # two theta-sized vectors the steps compute into, so a step allocates nothing
    scratch: tuple = field(default=(), repr=False)


def init_optimizer(kind: str, theta: np.ndarray) -> OptimizerState:
    if kind not in ("rmsprop", "adam"):
        raise ValueError(f"unknown optimizer {kind!r}")
    return OptimizerState(kind, np.zeros_like(theta),
                          np.zeros_like(theta) if kind == "adam" else None,
                          scratch=(np.empty_like(theta), np.empty_like(theta)))


# The steps evaluate each docstring formula's products and quotients left to
# right, as the written expression would, so they give its bits exactly.

def rmsprop_step(theta, grad, state: OptimizerState, learning_rate: float) -> None:
    """s <- rho*s + (1-rho)*g^2 ;  theta <- theta - lr * g / sqrt(s + eps)."""
    a, b = state.scratch
    state.t += 1
    state.v *= RMSPROP_RHO
    np.multiply(1.0 - RMSPROP_RHO, grad, out=a)
    a *= grad
    state.v += a
    np.multiply(learning_rate, grad, out=a)
    np.add(state.v, EPSILON, out=b)
    np.sqrt(b, out=b)
    a /= b
    theta -= a


def adam_step(theta, grad, state: OptimizerState, learning_rate: float) -> None:
    """Bias-corrected first/second moment update:
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps)."""
    a, b = state.scratch
    state.t += 1
    state.m *= ADAM_BETA1
    np.multiply(1.0 - ADAM_BETA1, grad, out=a)
    state.m += a
    state.v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, grad, out=a)
    a *= grad
    state.v += a
    np.divide(state.m, 1.0 - ADAM_BETA1 ** state.t, out=a)    # m_hat
    np.divide(state.v, 1.0 - ADAM_BETA2 ** state.t, out=b)    # v_hat
    a *= learning_rate
    np.sqrt(b, out=b)
    b += EPSILON
    a /= b
    theta -= a


def optimizer_step(theta, grad, state: OptimizerState, learning_rate: float) -> None:
    (rmsprop_step if state.kind == "rmsprop" else adam_step)(theta, grad, state, learning_rate)


def clip_global_norm(grad: np.ndarray, max_norm: float) -> np.ndarray:
    """``grad`` itself when its L2 norm is within ``max_norm``, else a new
    vector scaled down to that norm; keeps long-unroll training from
    diverging."""
    total = np.sqrt(float(grad @ grad))
    if total <= max_norm or total == 0.0:
        return grad
    return grad * (max_norm / total)
