import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cogrelay.model import (
    IID_MODE,
    SPATIAL_MODE,
    PuActivityModel,
    PuActivityState,
    Topology,
    make_linear_route,
    min_safe_distance,
    partition_segments,
    path_loss,
    sample_pu_activity,
    segment_probabilities,
    segment_probabilities_mc,
    segment_probability,
)
from cogrelay.seeding import stream
from cogrelay.subpolicy import RayleighGains


class TestPathLoss:
    def test_unit_distance(self):
        assert path_loss(1.0, 2.0) == 1.0

    def test_decade(self):
        assert path_loss(10.0, 2.0) == pytest.approx(0.01, rel=1e-12)

    def test_cubic(self):
        assert path_loss(5.0, 3.0) == pytest.approx(0.008, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_distance(self, bad):
        with pytest.raises(ValueError):
            path_loss(bad, 2.0)


class TestMinSafeDistance:
    def test_equal_powers(self):
        assert min_safe_distance(7.0, 7.0, 2.5) == pytest.approx(1.0)

    def test_square(self):
        assert min_safe_distance(100.0, 1.0, 2.0) == pytest.approx(10.0)

    def test_cube(self):
        assert min_safe_distance(8.0, 1.0, 3.0) == pytest.approx(2.0)

    def test_nonpositive(self):
        with pytest.raises(ValueError):
            min_safe_distance(0.0, 1.0, 2.0)


class TestTopology:
    def test_matrix_symmetric_positive(self):
        topo = Topology.from_positions((0.0, 1.0, 3.0, 5.0), alpha=2.0)
        d = topo.pathloss
        assert np.allclose(d, d.T)
        off = ~np.eye(4, dtype=bool)
        assert np.all(d[off] > 0.0)
        assert d[0, 1] == pytest.approx(1.0)
        assert d[0, 2] == pytest.approx(3.0 ** -2)

    def test_requires_increasing_positions(self):
        with pytest.raises(ValueError):
            Topology.from_positions((0.0, 2.0, 2.0), alpha=2.0)

    @settings(max_examples=60, deadline=None)
    @given(
        deltas=st.lists(
            st.floats(min_value=0.05, max_value=4.0, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
        alpha=st.floats(min_value=0.5, max_value=4.0),
    )
    def test_line_topology_gains_monotone(self, deltas, alpha):
        positions = np.concatenate(([0.0], np.cumsum(deltas)))
        topo = Topology.from_positions(positions, alpha=alpha)
        assert topo.has_monotone_gains()

    def test_monotone_check_rejects_adversarial_table(self):
        topo = Topology.from_positions((0.0, 1.0, 2.0), alpha=2.0)
        tampered = topo.pathloss.copy()
        tampered[0, 1] = tampered[0, 2] / 2.0  # nearer node weaker: violates
        tampered[1, 0] = tampered[0, 1]
        bad = Topology(positions=topo.positions, alpha=topo.alpha, pathloss=tampered)
        assert not bad.has_monotone_gains()

    def test_make_linear_route_is_deterministic(self):
        a = make_linear_route(6, 5.0, placement_seed=7)
        b = make_linear_route(6, 5.0, placement_seed=7)
        assert a == b
        assert a[0] == 0.0 and a[-1] == 5.0
        assert min(np.diff(a)) >= 0.25


class TestPartition:
    def test_full_run(self):
        state = PuActivityState(np.array([1, 1, 1, 1, 1, 1]))
        assert [(s.head, s.end) for s in partition_segments(state)] == [(0, 5)]

    def test_split_run(self):
        state = PuActivityState(np.array([1, 1, 0, 1, 1]))
        assert [(s.head, s.end) for s in partition_segments(state)] == [(0, 1), (3, 4)]

    def test_all_blocked(self):
        assert partition_segments(PuActivityState(np.array([0, 0, 0]))) == []

    def test_exhaustive_reconstruction(self):
        # Segments must be disjoint, cover exactly the available nodes, and
        # rebuild the vector; checked for every activity vector up to M=10.
        for n in range(2, 12):
            for bits in itertools.product((0, 1), repeat=n):
                segs = partition_segments(PuActivityState(np.array(bits)))
                rebuilt = np.zeros(n, dtype=int)
                prev_end = -2
                for seg in segs:
                    assert seg.head > prev_end + 1  # maximality of runs
                    rebuilt[seg.head : seg.end + 1] += 1
                    prev_end = seg.end
                assert np.all(rebuilt <= 1)
                assert np.array_equal(rebuilt, np.array(bits))


class TestSegmentProbability:
    def test_certain_availability(self):
        model = PuActivityModel(p_avail=1.0)
        m = 4
        for i in range(m + 1):
            for j in range(i, m + 1):
                expected = 1.0 if (i, j) == (0, m) else 0.0
                assert segment_probability(i, j, model, m + 1) == expected

    def test_closed_form_three_nodes(self):
        model = PuActivityModel(p_avail=0.5)
        assert segment_probability(0, 1, model, 3) == pytest.approx(0.125)

    def test_closed_form_matches_enumeration(self):
        p = 0.3
        model = PuActivityModel(p_avail=p)
        n = 3
        counts = {}
        for bits in itertools.product((0, 1), repeat=n):
            weight = np.prod([p if b else 1.0 - p for b in bits])
            for seg in partition_segments(PuActivityState(np.array(bits))):
                counts[(seg.head, seg.end)] = counts.get((seg.head, seg.end), 0.0) + weight
        for i in range(n):
            for j in range(i, n):
                assert segment_probability(i, j, model, n) == pytest.approx(
                    counts.get((i, j), 0.0), abs=1e-12
                )

    @pytest.mark.parametrize("m", range(1, 11))
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.85])
    def test_node_membership_identity(self, m, p):
        # Every available node belongs to exactly one segment, so the
        # size-weighted probabilities sum to the expected available count.
        model = PuActivityModel(p_avail=p)
        total = sum(
            segment_probability(i, j, model, m + 1) * (j - i + 1)
            for i in range(m + 1)
            for j in range(i, m + 1)
        )
        assert total == pytest.approx((m + 1) * p, rel=1e-10)

    def test_out_of_range(self):
        model = PuActivityModel(p_avail=0.5)
        with pytest.raises(ValueError):
            segment_probability(2, 1, model, 5)
        with pytest.raises(ValueError):
            segment_probability(0, 5, model, 5)

    def test_monte_carlo_matches_closed_form(self, bench_topology):
        model = PuActivityModel(p_avail=0.7)
        rng = stream(3, "mc-freq")
        probs, errors = segment_probabilities_mc(model, bench_topology, rng, samples=100_000)
        n = bench_topology.node_count
        for pair, freq in probs.items():
            exact = segment_probability(pair[0], pair[1], model, n)
            se = max(errors[pair], 1e-4)
            assert abs(freq - exact) <= 3.0 * se


class TestFading:
    def test_local_csi_scope(self, bench_topology):
        # Node 2 of segment (1, 4) sees its links to nodes 3 and 4 only; the
        # end node has no candidate to see.
        gains = RayleighGains(bench_topology)
        block = gains.draw_block(stream(0, "csi"), 2, 4, 5)
        fading = stream(0, "csi").exponential(1.0, size=(5, 2))
        assert np.array_equal(block, fading * bench_topology.pathloss[2, [3, 4]])
        assert gains.draw_block(stream(0, "csi"), 4, 4, 5).shape == (5, 0)

    def test_unit_mean_fading_power(self):
        topo = Topology.from_positions((0.0, 1.0), alpha=2.0)  # unit path loss
        block = RayleighGains(topo).draw_block(stream(1, "fade"), 0, 1, 1_000_000)
        assert abs(block.mean() - 1.0) <= 0.01

    def test_exponential_distribution(self):
        topo = Topology.from_positions((0.0, 1.0), alpha=2.0)
        block = RayleighGains(topo).draw_block(stream(2, "fade"), 0, 1, 20_000)[:, 0]
        _, pvalue = stats.kstest(block, "expon")
        assert pvalue > 0.01

    def test_fixed_seed_reproducible(self, bench_topology):
        gains = RayleighGains(bench_topology)
        a = gains.draw_block(stream(7, "fade"), 1, 5, 10)
        b = gains.draw_block(stream(7, "fade"), 1, 5, 10)
        assert np.array_equal(a, b)


class TestPuActivity:
    def test_certain_and_impossible(self, bench_topology):
        ones = sample_pu_activity(PuActivityModel(p_avail=1.0), bench_topology, stream(0, "a"))
        zeros = sample_pu_activity(PuActivityModel(p_avail=0.0), bench_topology, stream(0, "a"))
        assert np.all(ones.bits == 1)
        assert np.all(zeros.bits == 0)

    def test_sparse_spatial_field_is_mostly_available(self, bench_topology):
        model = PuActivityModel(
            mode=SPATIAL_MODE, rho_p=1e-4, p_active=0.5, d0=1.0
        )
        rng = stream(5, "spatial")
        bits = [sample_pu_activity(model, bench_topology, rng).bits for _ in range(2000)]
        assert np.mean(bits) > 0.995

    def test_spatial_field_blocks_under_dense_actives(self, bench_topology):
        model = PuActivityModel(mode=SPATIAL_MODE, rho_p=50.0, p_active=1.0, d0=1.0)
        rng = stream(6, "spatial")
        bits = sample_pu_activity(model, bench_topology, rng).bits
        assert np.all(bits == 0)

    def test_spatial_probabilities_sane(self, bench_topology):
        model = PuActivityModel(mode=SPATIAL_MODE, rho_p=0.4, p_active=0.5, d0=0.8)
        rng = stream(8, "spatial")
        probs = segment_probabilities(model, bench_topology, rng=rng, samples=4000)
        assert sum(probs.values()) > 0.0
        assert all(0.0 <= v <= 1.0 for v in probs.values())

    def test_bad_model_rejected(self):
        with pytest.raises(ValueError):
            PuActivityModel(p_avail=1.5)
        with pytest.raises(ValueError):
            PuActivityModel(mode=SPATIAL_MODE, rho_p=0.0, p_active=0.5, d0=1.0)
        with pytest.raises(ValueError):
            PuActivityModel(mode="other")
