"""MLP forward/backward and Adam updates against hand-computed oracles."""

import numpy as np
import pytest

from sgnn import ad
from sgnn.errors import ShapeError, TrainingError
from sgnn.mlp import MLP, adam_step, mlp_forward, mlp_grads, mlp_init

from helpers import check_mlp_grads_fd, per_tensor_adam


def test_identity_single_layer():
    net = MLP(
        weights=[np.eye(3)],
        biases=[np.zeros(3)],
        activations=["linear"],
    )
    out = mlp_forward(net, np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(out, np.array([1.0, 2.0, 3.0]))


def test_zero_weight_network_returns_bias():
    rng = np.random.default_rng(0)
    b = np.array([0.3, -1.2])
    net = MLP(weights=[np.zeros((4, 2))], biases=[b], activations=["linear"])
    for _ in range(5):
        out = mlp_forward(net, rng.normal(size=4))
        np.testing.assert_array_equal(out, b)


def test_two_layer_forward_matches_hand_evaluation():
    rng = np.random.default_rng(11)
    net = mlp_init(rng, [2, 3, 2], activation="silu")
    x = np.array([0.5, -0.3])
    # independent straight-line evaluation of the same arithmetic
    pre = x @ net.weights[0] + net.biases[0]
    hid = pre / (1.0 + np.exp(-pre))
    want = hid @ net.weights[1] + net.biases[1]
    got = mlp_forward(net, x)
    np.testing.assert_allclose(got, want, atol=1e-12, rtol=0.0)


@pytest.mark.parametrize("dims", [[0, 4, 2], [3, 0, 2], [3, 4, 0], [3, -1, 2]])
def test_init_rejects_dims_below_one(dims):
    with pytest.raises(ShapeError, match="dim"):
        mlp_init(np.random.default_rng(0), dims)


def test_forward_shape_error():
    net = mlp_init(np.random.default_rng(0), [3, 2])
    with pytest.raises(ShapeError):
        mlp_forward(net, np.ones(4))


def test_layer_chain_validation():
    with pytest.raises(ShapeError):
        MLP(
            weights=[np.zeros((2, 3)), np.zeros((4, 1))],
            biases=[np.zeros(3), np.zeros(1)],
            activations=["silu", "linear"],
        )


@pytest.mark.parametrize("activation", ["silu", "relu"])
def test_three_layer_grads_match_finite_differences(activation):
    rng = np.random.default_rng(21)
    net = mlp_init(rng, [4, 8, 8, 3], activation=activation)
    x0 = rng.normal(size=(5, 4)) + 0.1  # keep relu kinks away from samples

    def make_loss(tape):
        out = mlp_forward(net, x0, tape=tape)
        return ad.sum_(ad.mul(out, out))

    worst = check_mlp_grads_fd(make_loss, [net], rng, coords_per_tensor=4)
    assert worst < 1e-4


def test_input_gradient_identity_layer():
    net = MLP(weights=[np.eye(3)], biases=[np.zeros(3)], activations=["linear"])
    tape = ad.Tape()
    x = tape.var(np.array([[1.0, 2.0, 3.0]]))
    out = mlp_forward(net, x, tape=tape)
    g = np.array([[0.2, -0.4, 0.6]])
    grads = tape.backward(out, g)
    np.testing.assert_allclose(grads.of(x), g)


def test_adam_zero_grad_keeps_params():
    rng = np.random.default_rng(1)
    net = mlp_init(rng, [2, 3, 1])
    before = [p.copy() for p in net.parameters()]
    adam_step(net, [np.zeros_like(p) for p in net.parameters()], lr=0.1)
    assert net.step == 1
    for p, b in zip(net.parameters(), before):
        np.testing.assert_array_equal(p, b)


def test_adam_single_scalar_matches_hand_computation():
    net = MLP(weights=[np.array([[1.0]])], biases=[np.zeros(1)], activations=["linear"])
    grads = [np.array([[1.0]]), np.zeros(1)]
    adam_step(net, grads, lr=0.1, betas=(0.9, 0.999), eps=1e-8)
    # bias-corrected first step: m_hat = v_hat = 1, update = lr / (1 + eps)
    expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8))
    assert abs(net.weights[0][0, 0] - expected) < 1e-15


def test_adam_identical_params_stay_identical():
    rng = np.random.default_rng(5)
    w = rng.normal(size=(3, 3))
    net = MLP(
        weights=[w.copy(), w.copy()],
        biases=[np.zeros(3), np.zeros(3)],
        activations=["silu", "linear"],
    )
    g = rng.normal(size=(3, 3))
    for _ in range(17):
        adam_step(net, [g, g, np.zeros(3), np.zeros(3)], lr=0.03)
    np.testing.assert_array_equal(net.weights[0], net.weights[1])


def test_adam_rejects_non_finite_grads():
    net = mlp_init(np.random.default_rng(2), [2, 2])
    grads = [np.full((2, 2), np.nan), np.zeros(2)]
    with pytest.raises(TrainingError, match="index 0"):
        adam_step(net, grads, lr=0.1)


@pytest.mark.parametrize("bad", [1, 2, 3])
def test_adam_names_the_first_non_finite_parameter_and_changes_nothing(bad):
    rng = np.random.default_rng(3)
    net = mlp_init(rng, [3, 4, 2])
    adam_step(net, [rng.normal(size=p.shape) for p in net.parameters()], lr=0.1)
    before = [p.copy() for p in net.parameters()] + [net.adam_m.copy(), net.adam_v.copy()]
    grads = [rng.normal(size=p.shape) for p in net.parameters()]
    grads[bad].reshape(-1)[-1] = np.inf
    grads[3].reshape(-1)[0] = np.nan
    with pytest.raises(TrainingError, match=f"index {bad}$"):
        adam_step(net, grads, lr=0.1)
    assert net.step == 1
    after = net.parameters() + [net.adam_m, net.adam_v]
    assert all(np.array_equal(a, b) for a, b in zip(after, before))


def test_flat_adam_matches_per_tensor_adam_bit_for_bit():
    rng = np.random.default_rng(4)
    net = mlp_init(rng, [5, 7, 7, 3])
    ref = [p.copy() for p in net.parameters()]
    moments = [np.zeros_like(p) for p in ref], [np.zeros_like(p) for p in ref]
    for step in range(1, 6):
        grads = [rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3, size=p.shape)
                 for p in ref]
        adam_step(net, grads, lr=0.01)
        per_tensor_adam(ref, *moments, grads, step, lr=0.01)
        for got, want in zip(net.parameters(), ref):
            assert got.tobytes() == want.tobytes()
    assert net.adam_m.tobytes() == np.concatenate([m.reshape(-1) for m in moments[0]]).tobytes()
    assert net.adam_v.tobytes() == np.concatenate([v.reshape(-1) for v in moments[1]]).tobytes()


@pytest.mark.parametrize("shape", [(4,), (6, 4)], ids=["1d", "2d"])
@pytest.mark.parametrize("acts", [["silu", "relu", "linear"], ["relu", "silu"], ["linear"]],
                         ids=["silu-relu-linear", "relu-silu", "linear"])
def test_eager_value_equals_taped_value(shape, acts):
    rng = np.random.default_rng(6)
    dims = [4] + [5] * (len(acts) - 1) + [3]
    net = MLP(weights=[rng.normal(size=(i, o)) for i, o in zip(dims, dims[1:])],
              biases=[rng.normal(size=o) for o in dims[1:]], activations=acts)
    x = rng.normal(size=shape)
    eager = mlp_forward(net, x)
    taped = mlp_forward(net, x, tape=ad.Tape())
    assert isinstance(eager, np.ndarray) and isinstance(taped, ad.Var)
    assert eager.shape == shape[:-1] + (3,)
    assert eager.tobytes() == taped.value.tobytes()


def test_each_mlp_call_is_one_tape_record():
    rng = np.random.default_rng(7)
    net = mlp_init(rng, [3, 8, 8, 3])
    tape = ad.Tape()
    y = mlp_forward(net, tape.var(rng.normal(size=(5, 3))))
    assert len(tape._records) == 1
    mlp_forward(net, y)  # the same MLP again: one more record, shared params
    assert len(tape._records) == 2
    assert len(tape._params) == 6


def test_grad_correctness_100_random_instances():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        dims = [int(rng.integers(1, 5)) for _ in range(3)]
        net = mlp_init(rng, [dims[0], dims[1], dims[2]])
        x0 = rng.normal(size=(2, dims[0]))
        proj = rng.normal(size=(dims[2],))

        def make_loss(tape):
            out = mlp_forward(net, x0, tape=tape)
            return ad.sum_(ad.mul(out, proj))

        worst = max(worst, check_mlp_grads_fd(make_loss, [net], rng, coords_per_tensor=2))
    assert worst < 1e-4
