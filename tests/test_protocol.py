import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from ripplesim import (Graph, LinearPlant, ProtocolGains, adjacency_matrix,
                       auto_gains, gain_condition, is_equilibrium,
                       message_counts, monotonicity_probe, protocol_round,
                       round_constants, spectral_norm)


def unit_gains(n):
    return ProtocolGains(eta1=np.ones(n), eta2=np.ones(n), eta3=np.ones(n))


def plant_round(plant, u, beacons, gains, adjacency):
    """One round driven by a plant reading taken at u; returns (u_next,
    beacons_next)."""
    constants = round_constants(gains, adjacency, plant.u_upper,
                                plant.y_lower, plant.measured_nodes)
    return protocol_round(u, beacons, plant.solve(u), constants)[1:]


def single_round(u, deficit, beacons, gains, u_upper, adjacency=None):
    """protocol_round on float arrays with this deficit at every node (the
    reading -deficit against floor 0); no overlay unless adjacency is given.
    Returns (u_next, beacons_next)."""
    u = np.asarray(u, dtype=float)
    n = len(u)
    if adjacency is None:
        adjacency = np.zeros((n, n))
    constants = round_constants(gains, adjacency, u_upper, np.zeros(n),
                                range(n))
    return protocol_round(u, np.asarray(beacons, dtype=float),
                          -np.asarray(deficit, dtype=float), constants)[1:]


def violation(y, y_lower, measured_nodes, node_count):
    """The deficit protocol_round computes from the reading y."""
    constants = round_constants(unit_gains(node_count),
                                np.zeros((node_count, node_count)),
                                np.full(node_count, 9.0), y_lower,
                                measured_nodes)
    return protocol_round(np.zeros(node_count), np.zeros(node_count), y,
                          constants)[0]


def test_violation_shortfall():
    f = violation(y=[0.9], y_lower=[0.94], measured_nodes=[0], node_count=1)
    assert_allclose(f, [0.04])


def test_violation_zero_when_cleared():
    f = violation(y=[1.0, 2.0], y_lower=[0.5, 1.5], measured_nodes=[0, 2],
                  node_count=3)
    assert_array_equal(f, [0.0, 0.0, 0.0])


def test_violation_unmeasured_nodes_stay_zero():
    f = violation(y=[0.0], y_lower=[1.0], measured_nodes=[1], node_count=3)
    assert_array_equal(f, [0.0, 1.0, 0.0])


@pytest.mark.parametrize("y, y_lower, measured", [
    ([0.0, 0.0], [1.0, 1.0], [0, 1, 2]),
    ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], np.array([0, 1])),
    ([0.0, 0.0], [1.0, 1.0, 1.0], (0, 1)),
])
def test_violation_rejects_readings_that_do_not_match_the_measured_nodes(
        y, y_lower, measured):
    with pytest.raises(ValueError):
        violation(y, y_lower, measured, 3)


def test_violation_matches_loop_reference():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        measured = np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)),
                                      replace=False))
        y = rng.uniform(-1.0, 1.0, size=len(measured))
        floors = rng.uniform(-1.0, 1.0, size=len(measured))
        expect = np.zeros(n)
        for yk, floor, node in zip(y, floors, measured):
            if floor >= yk:
                expect[node] = floor - yk
        assert_array_equal(violation(y, floors, tuple(measured), n), expect)


def composed_round(u, beacons, y, gains, adjacency, u_upper, y_lower,
                   measured):
    """The round as three calls composed it before the kernel: the deficit
    of the reading, then the target with A @ beacons, clipped and beaconed
    against a Python 0.0."""
    deficit = np.zeros(len(u))
    deficit[np.asarray(measured, dtype=np.intp)] = np.maximum(
        np.subtract(y_lower, y), 0.0)
    target = u + gains.eta1 * deficit + gains.eta2 * (adjacency @ beacons)
    beacons_next = np.maximum(0.0, gains.eta3 * (target - u_upper))
    return deficit, np.minimum(target, u_upper), beacons_next


ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308]),
    st.floats(-2.0, 2.0), st.floats())
GAINS = st.one_of(st.sampled_from([0.5, 1.0, 1e308]),
                  st.floats(0.0, 1e308, exclude_min=True))


@st.composite
def round_inputs(draw):
    """(u, beacons, y, gains, adjacency, u_upper, y_lower, measured) with
    1 to 12 agents, a random measured subset and a random 0/1 overlay."""
    n = draw(st.integers(1, 12))
    measured = np.flatnonzero(draw(arrays(bool, n)))
    m = len(measured)
    gains = ProtocolGains(*(draw(arrays(float, n, elements=GAINS))
                            for _ in range(3)))
    adjacency = draw(arrays(float, (n, n),
                            elements=st.sampled_from([0.0, 1.0])))
    u, beacons, u_upper = (draw(arrays(float, n, elements=ENTRIES))
                           for _ in range(3))
    y, y_lower = (draw(arrays(float, m, elements=ENTRIES)) for _ in range(2))
    return u, beacons, y, gains, adjacency, u_upper, y_lower, measured


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(round_inputs())
def test_round_kernel_matches_the_composed_round_bit_for_bit(inputs):
    u, beacons, y, gains, adjacency, u_upper, y_lower, measured = inputs
    constants = round_constants(gains, adjacency, u_upper, y_lower, measured)
    with np.errstate(all="ignore"):
        expect = composed_round(*inputs)
        got = protocol_round(u, beacons, y, constants)
    for name, g, e in zip(("deficit", "u_next", "beacons_next"), got, expect):
        assert (g.dtype, g.shape, g.tobytes()) == \
            (e.dtype, e.shape, e.tobytes()), name


def test_target_adds_scaled_deficit():
    # the ceiling sits far above, so the target is the implemented control
    gains = ProtocolGains(eta1=[0.1], eta2=[1.0], eta3=[1.0])
    u_next, beacons = single_round([1.0], [0.04], [0.0], gains, [9.0])
    assert_allclose(u_next, [1.004])
    assert_array_equal(beacons, [0.0])


def test_target_fixed_point_without_inputs():
    gains = unit_gains(3)
    u = np.array([0.3, -1.0, 2.0])
    u_next, beacons = single_round(u, np.zeros(3), np.zeros(3), gains,
                                   np.full(3, 9.0))
    assert_array_equal(u_next, u)
    assert_array_equal(beacons, np.zeros(3))
    assert message_counts(beacons, np.zeros((3, 3))) == 0


def test_target_adds_neighbor_beacons():
    # agent 0 receives the 0.05 beacon of agent 1 over their edge
    gains = ProtocolGains(eta1=[1.0, 1.0], eta2=[0.2, 0.2], eta3=[1.0, 1.0])
    u_next, _ = single_round([0.5, 0.0], [0.0, 0.0], [0.0, 0.05], gains,
                             [9.0, 9.0], [[0.0, 1.0], [1.0, 0.0]])
    assert_allclose(u_next, [0.51, 0.0])


def test_beacon_update_cases():
    # a target of 1.03 (u 1.0 plus deficit 0.03) against a ceiling of 1.02
    def beacon(target, u_upper, eta3):
        gains = ProtocolGains(eta1=[1.0], eta2=[1.0], eta3=[eta3])
        return single_round([1.0], [target - 1.0], [0.0], gains,
                            [u_upper])[1]

    assert_allclose(beacon(1.03, 1.02, 1.0), [0.01])
    assert_array_equal(beacon(1.0, 1.02, 1.0), [0.0])
    assert_allclose(beacon(1.03, 1.02, 2.0), [0.02])


def test_project_cases():
    def project(target, u_upper):
        n = len(target)
        return single_round(np.zeros(n), target, np.zeros(n), unit_gains(n),
                            u_upper)[0]

    assert_allclose(project([1.03], [1.02]), [1.02])
    assert_allclose(project([0.9], [1.02]), [0.9])
    assert_allclose(project([1.03, 0.9, 2.0], [1.02, 1.0, 1.5]),
                    [1.02, 0.9, 1.5])


def test_gains_must_be_positive():
    with pytest.raises(ValueError):
        ProtocolGains(eta1=[0.0], eta2=[1.0], eta3=[1.0])
    with pytest.raises(ValueError):
        ProtocolGains(eta1=[1.0], eta2=[-1.0], eta3=[1.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            ProtocolGains(eta1=[1.0], eta2=[bad], eta3=[1.0])


def test_gains_copy_the_callers_vectors():
    a = np.ones(3)
    gains = ProtocolGains(eta1=a, eta2=a, eta3=a)
    a[0] = 3
    assert gains.eta1[0] == gains.eta2[0] == gains.eta3[0] == 1.0
    assert not gains.eta1.flags.writeable


def test_gain_condition_two_node_values():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    # hand 2x2: diag(0.25) A has singular values {0.25, 0.25}
    assert_allclose(gain_condition([0.5, 0.5], [0.5, 0.5], a), 0.25,
                    atol=1e-9)
    assert_allclose(gain_condition([1.0, 1.0], [1.0, 1.0], a), 1.0,
                    atol=1e-9)


def test_gain_condition_empty_graph():
    assert gain_condition([2.0, 3.0], [1.0, 1.0], np.zeros((2, 2))) == 0.0


def test_gain_condition_overflow_is_infinite():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    norm = gain_condition([1e308, 1e308], [1e308, 1e308], a)
    assert norm == np.inf
    assert not norm < 1.0


def test_gain_condition_is_infinite_when_only_part_of_the_product_overflows():
    # agent 0's product is inf, agent 1's is 1: the matrix holds inf, nan
    # (inf * 0) and finite entries
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert gain_condition([1e200, 1.0], [1e200, 1.0], a) == np.inf


def test_spectral_norm_matches_dense_svd():
    # oracle: the root of the largest eigenvalue of M^T M, not an SVD
    rng = np.random.default_rng(9)
    from synth import random_connected_graph
    for _ in range(30):
        n = int(rng.integers(2, 13))
        a = adjacency_matrix(random_connected_graph(rng, n))
        d = rng.uniform(0.05, 3.0, size=n)
        m = d[:, None] * a
        oracle = np.sqrt(np.max(np.linalg.eigvalsh(m.T @ m)))
        assert abs(spectral_norm(m) - oracle) <= 1e-8 * max(1.0, oracle)


def test_spectral_norm_is_the_2_norm_bit_for_bit():
    rng = np.random.default_rng(18)
    for _ in range(60):
        shape = tuple(rng.integers(1, 9, size=2))
        m = rng.normal(size=shape) * rng.choice([1e-3, 1.0, 1e3])
        m[rng.random(shape) < 0.3] = 0.0
        assert spectral_norm(m) == np.linalg.norm(m, 2)
    assert spectral_norm(np.zeros((3, 2))) == spectral_norm(np.zeros((0, 2))) \
        == 0.0
    for not_a_matrix in (np.ones(3), np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="two-dimensional matrix"):
            spectral_norm(not_a_matrix)


def reference_eta1(plant, u0):
    """auto_gains' eta1 as an agent-by-agent loop over the probe's Jacobian."""
    jac = monotonicity_probe(plant, u0).jacobian
    row_of = {node: i for i, node in enumerate(plant.measured_nodes)}
    eta1 = np.ones(plant.control_dim)
    for k in range(plant.control_dim):
        if k in row_of:
            sens = jac[row_of[k], k]
        else:
            sens = float(np.max(np.abs(jac[:, k]))) if jac.size else 0.0
        if sens > 1e-12:
            eta1[k] = 0.5 / sens
    return eta1


def test_auto_gains_falls_back_at_a_sensitivity_of_exactly_1e_12():
    # at u0 = 0 the probe's central difference returns 1e-12 exactly, which
    # is not above the cut-off
    plant = LinearPlant([[1e-12]], offset=[0.0], u_lower=[0.0], u_upper=[1.0],
                        y_lower=[0.0], measured_nodes=[0])
    assert monotonicity_probe(plant, [0.0]).jacobian.tolist() == [[1e-12]]
    assert auto_gains(plant, np.zeros((1, 1)), [0.0]).eta1.tolist() == [1.0]


def test_auto_gains_eta1_matches_a_per_agent_loop_bit_for_bit():
    # agent 0: measured, own sensitivity 2; agent 1: unmeasured, largest
    # column entry |-0.8|; agent 2: measured, negative own sensitivity;
    # agent 3: unmeasured, zero column; agent 4: measured, own sensitivity
    # 5e-13 (probed as about that, so not above 1e-12) below the 0.9 of its
    # column
    sensitivity = [[2.0, 0.3, 0.0, 0.0, 0.9],
                   [0.1, -0.8, -0.4, 0.0, 0.7],
                   [0.0, 0.0, 0.0, 0.0, 5e-13]]
    plant = LinearPlant(sensitivity, offset=np.zeros(3), u_lower=np.zeros(5),
                        u_upper=np.ones(5), y_lower=np.zeros(3),
                        measured_nodes=[0, 2, 4])
    adjacency = adjacency_matrix(Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4))))
    eta1 = auto_gains(plant, adjacency, np.full(5, 0.5)).eta1
    assert eta1.tobytes() == reference_eta1(plant, np.full(5, 0.5)).tobytes()
    assert_allclose(eta1[:2], [0.25, 0.5 / 0.8])
    assert eta1[2:].tolist() == [1.0, 1.0, 1.0]
    assert 0.0 < monotonicity_probe(plant, np.full(5, 0.5)).jacobian[2, 4] \
        <= 1e-12
    rng = np.random.default_rng(18)
    for _ in range(40):
        n, m = int(rng.integers(1, 7)), int(rng.integers(0, 7))
        measured = sorted(rng.choice(n, size=min(m, n), replace=False))
        s = rng.normal(size=(len(measured), n))
        s[:, rng.random(n) < 0.3] = 0.0
        plant = LinearPlant(s, np.zeros(len(measured)), np.zeros(n),
                            np.ones(n), np.zeros(len(measured)), measured)
        u0 = rng.uniform(0.0, 1.0, n)
        eta1 = auto_gains(plant, np.ones((n, n)) - np.eye(n), u0).eta1
        assert eta1.tobytes() == reference_eta1(plant, u0).tobytes()


@pytest.mark.parametrize("position", [0, 1, 2])
def test_gain_errors_name_the_bad_vector(position):
    good, bad = [1.0, 2.0], [1.0, np.nan]
    etas = [good, good, good]
    etas[position] = bad
    with pytest.raises(ValueError, match=f"^eta{position + 1} must be "
                                         "finite and strictly positive$"):
        ProtocolGains(*etas)
    etas[position] = [1.0]
    with pytest.raises(ValueError, match="^gain vectors disagree in length$"):
        ProtocolGains(*etas)


def test_gains_must_be_vectors():
    # (1, 2) "vectors": their NaN must not pass a row-by-row check
    with pytest.raises(ValueError, match="^gain vectors must be one-dim"):
        ProtocolGains(*[[[1.0, np.nan]]] * 3)


def test_is_equilibrium_on_lists():
    assert is_equilibrium([1.0, 2.0], [0.0, 0.0], [1.0, 2.0 + 1e-9],
                          [0.0, 1e-9], 1e-8)
    assert not is_equilibrium([1.0], [0.0], [1.0], [float("nan")], 1e-8)
    with pytest.raises(ValueError, match="disagree in dimension"):
        is_equilibrium([1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [0.0], 1e-8)


def test_round_single_agent_first_step():
    plant = LinearPlant(sensitivity=[[1.0]], offset=[0.0], u_lower=[0.0],
                        u_upper=[2.0], y_lower=[1.0], measured_nodes=[0])
    gains = ProtocolGains(eta1=[0.5], eta2=[1.0], eta3=[1.0])
    u, beacons = plant_round(plant, np.zeros(1), np.zeros(1), gains,
                             np.zeros((1, 1)))
    assert_allclose(u, [0.5])
    assert_array_equal(beacons, [0.0])
    assert message_counts(beacons, np.zeros((1, 1))) == 0


def test_round_two_agent_cascade_oracle():
    # y = u1 + u2, node 0 measured, floors and ceilings chosen so agent 0
    # saturates immediately and recruits agent 1
    plant = LinearPlant(sensitivity=[[1.0, 1.0]], offset=[0.0],
                        u_lower=[0.0, 0.0], u_upper=[0.5, 1.0],
                        y_lower=[1.0], measured_nodes=[0])
    a = adjacency_matrix(Graph(node_count=2, edges=((0, 1),)))
    gains = unit_gains(2)

    u1, beacons1 = plant_round(plant, np.zeros(2), np.zeros(2), gains, a)
    assert_allclose(u1, [0.5, 0.0])
    assert_allclose(beacons1, [0.5, 0.0])
    # one message: agent 0 beacons 0.5 and agent 1 receives it
    assert message_counts(beacons1, a) == 1
    assert_array_equal(a @ beacons1, [0.0, 0.5])

    u2, beacons2 = plant_round(plant, u1, beacons1, gains, a)
    assert_allclose(u2, [0.5, 0.5])
    assert beacons2[0] > 0
    assert message_counts(beacons2, a) == 1


def test_round_equilibrium_is_fixed_point():
    plant = LinearPlant(sensitivity=[[1.0, 0.5]], offset=[0.0],
                        u_lower=[0.0, 0.0], u_upper=[2.0, 2.0],
                        y_lower=[1.0], measured_nodes=[0])
    a = adjacency_matrix(Graph(node_count=2, edges=((0, 1),)))
    u = np.array([1.5, 0.5])
    u_next, beacons = plant_round(plant, u, np.zeros(2), unit_gains(2), a)
    assert_array_equal(u_next, u)
    assert_array_equal(beacons, np.zeros(2))
    assert message_counts(beacons, a) == 0


def test_round_monotone_and_bounded_random():
    rng = np.random.default_rng(15)
    from synth import random_connected_graph, random_monotone_linear_plant
    for _ in range(20):
        n = int(rng.integers(1, 8))
        plant, u0 = random_monotone_linear_plant(rng, n)
        a = adjacency_matrix(random_connected_graph(rng, n)) if n > 1 \
            else np.zeros((1, 1))
        gains = ProtocolGains(eta1=rng.uniform(0.1, 2.0, n),
                              eta2=rng.uniform(0.1, 0.4, n),
                              eta3=rng.uniform(0.1, 1.0, n))
        u, beacons = u0, np.zeros(n)
        for _ in range(30):
            u_next, beacons = plant_round(plant, u, beacons, gains, a)
            assert np.all(u_next >= u)                # exactly nondecreasing
            assert np.all(u_next <= plant.u_upper)    # exactly bounded
            assert np.all(beacons >= 0)
            for k in np.nonzero(beacons > 0)[0]:
                assert u_next[k] == plant.u_upper[k]  # beacon => saturated
            expected = sum(int(a[k].sum())
                           for k in np.nonzero(beacons > 0)[0])
            assert message_counts(beacons, a) == expected
            u = u_next


def test_message_counts_match_the_rows_of_the_beaconing_agents():
    # oracle: the nonzero overlay entries in the rows of the beaconing
    # agents, one message per neighbor
    rng = np.random.default_rng(33)
    from synth import random_connected_graph
    for _ in range(30):
        n = int(rng.integers(2, 13))
        a = adjacency_matrix(random_connected_graph(rng, n))
        stack = np.where(rng.random((6, n)) < 0.4,
                         rng.uniform(-0.5, 2.0, (6, n)), 0.0)
        stack[0] = 0.0
        stack[1, 0] = np.nan
        expect = [int(np.count_nonzero(a[row > 0.0])) for row in stack]
        assert [message_counts(row, a) for row in stack] == expect
        assert message_counts(stack, a).tolist() == expect


def test_is_equilibrium_cases():
    u, beacons = np.array([1.0, 2.0]), np.zeros(2)
    assert is_equilibrium(u, beacons, u, beacons, 1e-8)
    moved = np.array([1.0, 2.0 + 2e-8])
    assert not is_equilibrium(u, beacons, moved, beacons, 1e-8)
    # a NaN counts as moved, in the controls and in the beacons
    nan = np.array([1.0, np.nan])
    assert not is_equilibrium(u, beacons, nan, beacons, 1e-8)
    assert not is_equilibrium(u, beacons, u, nan - 1.0, 1e-8)
    assert not is_equilibrium(nan, beacons, nan, beacons, 1e-8)
    empty = np.zeros(0)
    assert is_equilibrium(empty, empty, empty, empty, 1e-8)


def test_single_agent_geometric_convergence():
    plant = LinearPlant(sensitivity=[[1.0]], offset=[0.0], u_lower=[0.0],
                        u_upper=[2.0], y_lower=[1.0], measured_nodes=[0])
    gains = ProtocolGains(eta1=[0.5], eta2=[1.0], eta3=[1.0])
    u, beacons = np.zeros(1), np.zeros(1)
    for _ in range(200):
        u_next, beacons_next = plant_round(plant, u, beacons, gains,
                                           np.zeros((1, 1)))
        if is_equilibrium(u, beacons, u_next, beacons_next, 1e-8):
            break
        u, beacons = u_next, beacons_next
    assert abs(u_next[0] - 1.0) < 1e-6


def test_auto_gains_satisfy_condition():
    rng = np.random.default_rng(21)
    from synth import random_connected_graph, random_monotone_linear_plant
    for _ in range(10):
        n = int(rng.integers(2, 9))
        plant, u0 = random_monotone_linear_plant(rng, n)
        a = adjacency_matrix(random_connected_graph(rng, n))
        gains = auto_gains(plant, a, u0)
        assert_allclose(gain_condition(gains.eta2, gains.eta3, a), 0.5,
                        atol=1e-6)
        assert np.all(gains.eta1 > 0)
