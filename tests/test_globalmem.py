import numpy as np
import pytest

from decorgnn import globalmem as gm
from decorgnn.numcore import DimensionError


def test_init_memory_zero_states_unit_weights():
    mem = gm.init_memory(3, batch_size=4, d=5, gammas=(0.0, 0.5, 0.9))
    assert mem.k_groups == 3
    assert len(mem.z_groups) == 3 and len(mem.w_groups) == 3
    for z, w in zip(mem.z_groups, mem.w_groups):
        assert z.shape == (4, 5)
        assert np.all(z == 0.0)
        assert w.shape == (4,)
        assert np.all(w == 1.0)


def test_init_memory_k_zero_is_empty():
    mem = gm.init_memory(0, batch_size=4, d=5, gammas=())
    assert mem.k_groups == 0
    assert len(mem.z_groups) == 0 and len(mem.w_groups) == 0


def test_init_memory_rejects_bad_momentum():
    with pytest.raises(ValueError):
        gm.init_memory(1, 4, 5, gammas=(1.0,))
    with pytest.raises(ValueError):
        gm.init_memory(1, 4, 5, gammas=(-0.1,))
    with pytest.raises(ValueError):
        gm.init_memory(2, 4, 5, gammas=(0.5,))


def test_concat_orders_groups_before_local():
    mem = gm.init_memory(2, batch_size=2, d=3, gammas=(0.5, 0.5))
    mem.z_groups[0] = np.full((2, 3), 1.0)
    mem.z_groups[1] = np.full((2, 3), 2.0)
    mem.w_groups[0] = np.array([10.0, 11.0])
    mem.w_groups[1] = np.array([20.0, 21.0])
    z_local = np.full((2, 3), 3.0)
    w_local = np.array([30.0, 31.0])

    z_hat, w_hat = gm.concat(mem, z_local, w_local)
    assert z_hat.shape == (6, 3)
    assert np.all(z_hat[0:2] == 1.0)
    assert np.all(z_hat[2:4] == 2.0)
    assert np.all(z_hat[4:6] == 3.0)
    assert np.array_equal(w_hat, [10.0, 11.0, 20.0, 21.0, 30.0, 31.0])


def test_concat_with_no_groups_returns_local():
    mem = gm.init_memory(0, batch_size=3, d=2, gammas=())
    z_local = np.arange(6.0).reshape(3, 2)
    w_local = np.array([1.0, 2.0, 3.0])
    z_hat, w_hat = gm.concat(mem, z_local, w_local)
    assert np.array_equal(z_hat, z_local)
    assert np.array_equal(w_hat, w_local)


def test_concat_rejects_mismatched_shapes():
    mem = gm.init_memory(1, batch_size=4, d=5, gammas=(0.5,))
    with pytest.raises(DimensionError):
        gm.concat(mem, np.zeros((3, 5)), np.ones(3))      # wrong batch size
    with pytest.raises(DimensionError):
        gm.concat(mem, np.zeros((4, 6)), np.ones(4))      # wrong width
    with pytest.raises(DimensionError):
        gm.concat(mem, np.zeros((4, 5)), np.ones(5))      # wrong weight length


def test_momentum_update_matches_hand_computation():
    mem = gm.init_memory(2, batch_size=2, d=2, gammas=(0.0, 0.75))
    mem.z_groups[1] = np.array([[4.0, 0.0], [0.0, 4.0]])
    mem.w_groups[1] = np.array([2.0, 4.0])
    z_local = np.array([[1.0, 2.0], [3.0, 4.0]])
    w_local = np.array([1.0, 1.0])

    gm.momentum_update(mem, z_local, w_local)

    # gamma = 0 replaces the stored group outright.
    assert np.array_equal(mem.z_groups[0], z_local)
    assert np.array_equal(mem.w_groups[0], w_local)
    expected_z = 0.75 * np.array([[4.0, 0.0], [0.0, 4.0]]) + 0.25 * z_local
    expected_w = 0.75 * np.array([2.0, 4.0]) + 0.25 * w_local
    assert np.allclose(mem.z_groups[1], expected_z, atol=1e-15)
    assert np.allclose(mem.w_groups[1], expected_w, atol=1e-15)


def test_gap_contracts_by_exactly_gamma_each_step():
    # Against a fixed target the stored-to-target gap must shrink by the
    # group's momentum factor per update, to floating-point accuracy.
    rng = np.random.default_rng(7)
    z_local = rng.normal(size=(4, 6))
    w_local = rng.uniform(0.5, 1.5, size=4)
    for gamma in (0.0, 0.5, 0.9):
        mem = gm.init_memory(1, batch_size=4, d=6, gammas=(gamma,))
        mem.z_groups[0] = rng.normal(size=(4, 6))
        mem.w_groups[0] = rng.uniform(0.5, 1.5, size=4)
        for _ in range(20):
            gap_z = mem.z_groups[0] - z_local
            gap_w = mem.w_groups[0] - w_local
            gm.momentum_update(mem, z_local, w_local)
            new_gap_z = mem.z_groups[0] - z_local
            new_gap_w = mem.w_groups[0] - w_local
            assert np.max(np.abs(new_gap_z - gamma * gap_z)) <= 1e-12
            assert np.max(np.abs(new_gap_w - gamma * gap_w)) <= 1e-12


def test_momentum_update_with_no_groups_is_noop():
    mem = gm.init_memory(0, batch_size=2, d=2, gammas=())
    gm.momentum_update(mem, np.ones((2, 2)), np.ones(2))
    assert len(mem.z_groups) == 0


def test_momentum_update_matches_the_per_group_loop_bit_for_bit():
    rng = np.random.default_rng(3)
    gammas = (0.0, 0.3, 0.9, 0.97)
    mem = gm.init_memory(4, batch_size=5, d=7, gammas=gammas)
    mem.z_groups[:] = rng.normal(size=(4, 5, 7))
    mem.w_groups[:] = rng.uniform(0.5, 2.0, size=(4, 5))
    # reference: one list entry per group, updated one group at a time
    z_ref = [z.copy() for z in mem.z_groups]
    w_ref = [w.copy() for w in mem.w_groups]
    stored = mem.z_groups, mem.w_groups
    for _ in range(5):
        z_local = rng.normal(size=(5, 7))
        w_local = rng.uniform(0.5, 2.0, size=5)
        for k, gamma in enumerate(gammas):
            z_ref[k] = gamma * z_ref[k] + (1.0 - gamma) * z_local
            w_ref[k] = gamma * w_ref[k] + (1.0 - gamma) * w_local
        gm.momentum_update(mem, z_local, w_local)
        assert np.array_equal(mem.z_groups, np.stack(z_ref))
        assert np.array_equal(mem.w_groups, np.stack(w_ref))
        z_hat, w_hat = gm.concat(mem, z_local, w_local)
        assert np.array_equal(z_hat, np.concatenate([*z_ref, z_local]))
        assert np.array_equal(w_hat, np.concatenate([*w_ref, w_local]))
    # the update works in place in the stored arrays
    assert stored[0] is mem.z_groups and stored[1] is mem.w_groups


def test_memory_rejects_mismatched_groups():
    mem = gm.init_memory(2, batch_size=3, d=4, gammas=(0.3, 0.8))
    z, w, gammas = mem.z_groups, mem.w_groups, mem.gammas
    with pytest.raises(DimensionError):
        gm.GlobalMemory(z[:1], w, gammas)                # k differs
    with pytest.raises(DimensionError):
        gm.GlobalMemory(z[:, :2], w, gammas)             # batch size differs
    with pytest.raises(DimensionError):
        gm.GlobalMemory(z[0], w, gammas)                 # not [k × B × d]
    with pytest.raises(ValueError):
        gm.GlobalMemory(z, w, gammas[:1])                # one momentum short
    with pytest.raises(ValueError):
        gm.GlobalMemory(z, w, np.array([0.3, 1.0]))      # momentum of one
    with pytest.raises(ValueError):
        gm.init_memory(2, batch_size=0, d=4, gammas=(0.3, 0.8))
    with pytest.raises(DimensionError):
        gm.momentum_update(mem, np.zeros((3, 5)), np.ones(3))   # width differs
    with pytest.raises(DimensionError):
        gm.momentum_update(mem, np.zeros((2, 4)), np.ones(2))   # batch differs
