import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from leancast import optim
from reference_kernels import allocating_adam_step, allocating_rmsprop_step


def single(value):
    return np.array([float(value)])


class TestRmsprop:
    def test_first_step_magnitude(self):
        # s' = 0.1, update = 0.01 / sqrt(0.1 + 1e-8)
        theta = single(0.0)
        state = optim.init_optimizer("rmsprop", theta)
        optim.rmsprop_step(theta, single(1.0), state, 0.01)
        npt.assert_allclose(state.v, [0.1], rtol=1e-12)
        npt.assert_allclose(-theta, [0.01 / np.sqrt(0.1 + 1e-8)], rtol=1e-9)
        assert abs(-theta[0] - 0.0316228) < 1e-6

    def test_zero_gradient_decays_accumulator(self):
        theta = single(5.0)
        state = optim.init_optimizer("rmsprop", theta)
        optim.rmsprop_step(theta, single(2.0), state, 0.01)
        before = theta.copy()
        s_before = state.v.copy()
        optim.rmsprop_step(theta, single(0.0), state, 0.01)
        npt.assert_array_equal(theta, before)
        npt.assert_allclose(state.v, 0.9 * s_before, rtol=1e-12)

    def test_equal_gradients_get_equal_updates(self):
        theta = np.zeros(6)
        state = optim.init_optimizer("rmsprop", theta)
        optim.rmsprop_step(theta, np.full(6, 0.7), state, 0.05)
        npt.assert_array_equal(theta[:3], theta[3:])


class TestAdam:
    def test_first_step_magnitude(self):
        theta = single(0.0)
        state = optim.init_optimizer("adam", theta)
        optim.adam_step(theta, single(1.0), state, 0.001)
        # bias correction cancels at t=1: |update| ~ lr
        npt.assert_allclose(-theta, [0.001 / (1.0 + 1e-8)], rtol=1e-9)
        assert state.t == 1

    def test_zero_gradients_never_move(self):
        theta = single(3.0)
        state = optim.init_optimizer("adam", theta)
        for _ in range(5):
            optim.adam_step(theta, single(0.0), state, 0.001)
        npt.assert_array_equal(theta, [3.0])
        assert state.t == 5

    def test_descent_direction(self):
        for g in (0.3, -1.7, 42.0):
            theta = single(0.0)
            state = optim.init_optimizer("adam", theta)
            optim.adam_step(theta, single(g), state, 0.001)
            assert np.sign(theta[0]) == -np.sign(g)


class TestClip:
    def test_below_threshold_untouched(self):
        grad = np.array([0.3, 0.4])
        assert optim.clip_global_norm(grad, 5.0) is grad
        npt.assert_array_equal(grad, [0.3, 0.4])

    def test_scales_jointly_to_max_norm(self):
        grad = np.array([30.0, 40.0, 0.0])
        out = optim.clip_global_norm(grad, 5.0)
        assert out is not grad
        npt.assert_array_equal(grad, [30.0, 40.0, 0.0])
        npt.assert_allclose(np.sqrt(np.sum(out * out)), 5.0, rtol=1e-12)
        # direction preserved
        npt.assert_allclose(out[1] / out[0], 40.0 / 30.0, rtol=1e-12)


def test_dispatcher_matches_direct_calls():
    via_dispatch, direct = single(1.0), single(1.0)
    optim.optimizer_step(via_dispatch, single(0.5),
                         optim.init_optimizer("rmsprop", via_dispatch), 0.01)
    optim.rmsprop_step(direct, single(0.5), optim.init_optimizer("rmsprop", direct), 0.01)
    npt.assert_array_equal(via_dispatch, direct)


@pytest.mark.parametrize("kind", ["rmsprop", "adam"])
@pytest.mark.parametrize("learning_rate", [0.01, 1e-300, 3])
def test_steps_match_allocating_steps_bit_for_bit(kind, learning_rate):
    rng = np.random.default_rng(11)
    theta = rng.normal(0, 1, 997)
    ref_theta = theta.copy()
    state, ref_state = optim.init_optimizer(kind, theta), optim.init_optimizer(kind, ref_theta)
    reference = allocating_rmsprop_step if kind == "rmsprop" else allocating_adam_step
    for _ in range(40):
        # squares stay finite; the smallest underflow to subnormals and zero
        grad = rng.normal(0, 10.0 ** rng.uniform(-150, 150), theta.size)
        grad[rng.random(theta.size) < 0.1] = 0.0
        optim.optimizer_step(theta, grad, state, learning_rate)
        reference(ref_theta, grad, ref_state, learning_rate)
        for a, b in [(theta, ref_theta), (state.v, ref_state.v), (state.m, ref_state.m)]:
            if a is not None:
                npt.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
    assert state.t == ref_state.t == 40


@pytest.mark.parametrize("kind", ["rmsprop", "adam"])
def test_steps_allocate_no_parameter_sized_vector(kind):
    theta = np.zeros(200_000)
    grad = np.full(theta.size, 0.5)
    state = optim.init_optimizer(kind, theta)
    optim.optimizer_step(theta, grad, state, 0.01)
    tracemalloc.start()
    try:
        optim.optimizer_step(theta, grad, state, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < theta.nbytes // 10


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        optim.init_optimizer("sgd", single(0.0))


# -- the former name -> array API, kept as oracles -------------------------

def _oracle_init(kind, params):
    return {name: {"s": np.zeros_like(v)} if kind == "rmsprop"
            else {"m": np.zeros_like(v), "v": np.zeros_like(v)}
            for name, v in params.items()}


def _oracle_rmsprop(params, grads, acc, t, lr):
    new_params, new_acc = {}, {}
    for name, theta in params.items():
        g = grads[name]
        s = optim.RMSPROP_RHO * acc[name]["s"] + (1.0 - optim.RMSPROP_RHO) * g * g
        new_params[name] = theta - lr * g / np.sqrt(s + optim.EPSILON)
        new_acc[name] = {"s": s}
    return new_params, new_acc


def _oracle_adam(params, grads, acc, t, lr):
    new_params, new_acc = {}, {}
    for name, theta in params.items():
        g = grads[name]
        m = optim.ADAM_BETA1 * acc[name]["m"] + (1.0 - optim.ADAM_BETA1) * g
        v = optim.ADAM_BETA2 * acc[name]["v"] + (1.0 - optim.ADAM_BETA2) * g * g
        m_hat = m / (1.0 - optim.ADAM_BETA1 ** t)
        v_hat = v / (1.0 - optim.ADAM_BETA2 ** t)
        new_params[name] = theta - lr * m_hat / (np.sqrt(v_hat) + optim.EPSILON)
        new_acc[name] = {"m": m, "v": v}
    return new_params, new_acc


def _oracle_clip(grads, max_norm):
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return {name: g * scale for name, g in grads.items()}


SHAPES = {"layer0.W": (8, 11), "layer0.b": (8,), "layer1.W": (8, 16), "out.W": (1, 4),
          "out.b": (1,)}


def _as_dict(vector):
    out, start = {}, 0
    for name, shape in SHAPES.items():
        size = int(np.prod(shape))
        out[name] = vector[start:start + size].reshape(shape)
        start += size
    return out


@pytest.mark.parametrize("kind", ["rmsprop", "adam"])
def test_in_place_steps_match_dict_oracle_bit_for_bit(kind):
    rng = np.random.default_rng(3)
    size = sum(int(np.prod(s)) for s in SHAPES.values())
    theta = rng.normal(0, 1, size)
    params = {name: arr.copy() for name, arr in _as_dict(theta.copy()).items()}
    state = optim.init_optimizer(kind, theta)
    acc = _oracle_init(kind, params)
    oracle = _oracle_rmsprop if kind == "rmsprop" else _oracle_adam
    clipped_steps = 0
    for t in range(1, 51):
        # scales from 1e-3 to 1e3 so that some steps clip and some do not
        grad = rng.normal(0, 10.0 ** rng.uniform(-3, 3), size)
        clipped = optim.clip_global_norm(grad, 5.0)
        clipped_steps += clipped is not grad
        ref_grads = _oracle_clip(_as_dict(grad.copy()), 5.0)
        for name, ref in _as_dict(clipped).items():
            npt.assert_allclose(ref, ref_grads[name], rtol=1e-15, atol=0)
        optim.optimizer_step(theta, clipped, state, 0.01)
        # the dict oracle steps on the same clipped values
        params, acc = oracle(params, _as_dict(clipped), acc, t, 0.01)
        assert state.t == t
        for name, arr in _as_dict(theta).items():
            npt.assert_array_equal(arr, params[name], err_msg=f"{name} at step {t}")
            if kind == "rmsprop":
                npt.assert_array_equal(_as_dict(state.v)[name], acc[name]["s"])
            else:
                npt.assert_array_equal(_as_dict(state.m)[name], acc[name]["m"])
                npt.assert_array_equal(_as_dict(state.v)[name], acc[name]["v"])
    assert 0 < clipped_steps < 50
