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
    Topology,
    make_linear_route,
    partition_segments,
    sample_availability,
    sample_pu_activity,
    segment_probabilities,
    segment_runs,
)
from cogrelay.seeding import stream
from cogrelay.subpolicy import RayleighGains


def link_gain(distance, alpha):
    """``Topology.pathloss`` of a two-node route ``distance`` long."""
    return Topology.from_positions((0.0, distance), alpha=alpha).pathloss[0, 1]


def iid_probability(i, j, p, nodes):
    """``segment_probabilities`` entry ``(i, j)`` of an iid route of ``nodes`` nodes."""
    topo = Topology.from_positions(range(nodes), alpha=2.0)
    return segment_probabilities(PuActivityModel(p_avail=p), topo)[(i, j)]


class TestPathLoss:
    def test_unit_distance(self):
        assert link_gain(1.0, 2.0) == 1.0

    def test_decade(self):
        assert link_gain(10.0, 2.0) == pytest.approx(0.01, rel=1e-12)

    def test_cubic(self):
        assert link_gain(5.0, 3.0) == pytest.approx(0.008, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_distance(self, bad):
        with pytest.raises(ValueError):
            link_gain(bad, 2.0)


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
        # Gains dominate with proximity: D[s, t] >= D[s, t'] and
        # D[s, t] >= D[s', t] for all t' >= t > s >= s'.
        positions = np.concatenate(([0.0], np.cumsum(deltas)))
        d = Topology.from_positions(positions, alpha=alpha).pathloss
        for s in range(d.shape[0] - 1):
            assert np.all(np.diff(d[s, s + 1 :]) <= 1e-15)
            assert np.all(np.diff(d[: s + 1, s + 1]) >= -1e-15)

    def test_make_linear_route_is_deterministic(self):
        a = make_linear_route(6, 5.0, placement_seed=7)
        b = make_linear_route(6, 5.0, placement_seed=7)
        assert a == b
        assert a[0] == 0.0 and a[-1] == 5.0
        assert min(np.diff(a)) >= 0.25

    @pytest.mark.parametrize("nodes, span, positions", [
        (6, 5.0, (0.0, 2.2838478670997726, 2.7404976284675797, 3.945009202062486,
                  4.528172535054712, 5.0)),
        (12, 10.0, (0.0, 0.3158099649335788, 2.4738734201938453, 2.925057596101708,
                    3.6539630496234077, 4.5728134213450335, 5.217032760146276,
                    6.168931628161122, 7.521059878807433, 8.29605753855701,
                    9.013075267728839, 10.0)),
    ], ids=["readme", "long12"])
    def test_seed_7_routes_are_pinned(self, nodes, span, positions):
        assert make_linear_route(nodes, span, placement_seed=7) == positions

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_linear_route(4, 5.0, 7, float("nan")),
            lambda: make_linear_route(4, float("nan"), 7),
            lambda: Topology.from_positions((0.0, float("nan"), 2.0), 2.0),
        ],
        ids=["min_gap", "span", "positions"],
    )
    def test_nan_route_arguments_are_refused(self, build):
        with pytest.raises(ValueError):
            build()

    def test_route_too_dense_to_place_is_refused(self):
        # One draw in about 2.7e8 would place these relays 0.25 apart.
        with pytest.raises(ValueError, match=r"16 nodes over span 5 with min_gap 0\.25"):
            make_linear_route(16, 5.0, placement_seed=7)


class TestPartition:
    def test_full_run(self):
        assert partition_segments(np.array([1, 1, 1, 1, 1, 1])) == [(0, 5)]

    def test_split_run(self):
        assert partition_segments(np.array([1, 1, 0, 1, 1])) == [(0, 1), (3, 4)]

    def test_all_blocked(self):
        assert partition_segments(np.array([0, 0, 0])) == []

    def test_exhaustive_reconstruction(self):
        # Segments must be disjoint, cover exactly the available nodes, and
        # rebuild the vector; checked for every activity vector up to M=10.
        for n in range(2, 12):
            for bits in itertools.product((0, 1), repeat=n):
                segs = partition_segments(np.array(bits))
                rebuilt = np.zeros(n, dtype=int)
                prev_end = -2
                for head, end in segs:
                    assert head > prev_end + 1  # maximality of runs
                    rebuilt[head : end + 1] += 1
                    prev_end = end
                assert np.all(rebuilt <= 1)
                assert np.array_equal(rebuilt, np.array(bits))


class TestSegmentProbability:
    def test_certain_availability(self):
        model = PuActivityModel(p_avail=1.0)
        m = 4
        for i in range(m + 1):
            for j in range(i, m + 1):
                expected = 1.0 if (i, j) == (0, m) else 0.0
                assert iid_probability(i, j, model.p_avail, m + 1) == expected

    def test_closed_form_three_nodes(self):
        assert iid_probability(0, 1, 0.5, 3) == pytest.approx(0.125)

    def test_closed_form_matches_enumeration(self):
        p = 0.3
        n = 3
        counts = {}
        for bits in itertools.product((0, 1), repeat=n):
            weight = np.prod([p if b else 1.0 - p for b in bits])
            for seg in partition_segments(np.array(bits)):
                counts[seg] = counts.get(seg, 0.0) + weight
        for i in range(n):
            for j in range(i, n):
                assert iid_probability(i, j, p, n) == pytest.approx(
                    counts.get((i, j), 0.0), abs=1e-12
                )

    @pytest.mark.parametrize("m", range(1, 11))
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.85])
    def test_node_membership_identity(self, m, p):
        # Every available node belongs to exactly one segment, so the
        # size-weighted probabilities sum to the expected available count.
        topo = Topology.from_positions(range(m + 1), alpha=2.0)
        probs = segment_probabilities(PuActivityModel(p_avail=p), topo)
        total = sum(v * (j - i + 1) for (i, j), v in probs.items())
        assert total == pytest.approx((m + 1) * p, rel=1e-10)

    def test_monte_carlo_matches_closed_form(self, bench_topology):
        # The iid draws counted as a spatial model would count them, against
        # the closed form, within three binomial standard errors.
        model = PuActivityModel(p_avail=0.7)
        samples = 100_000
        bits = sample_availability(model, bench_topology, [stream(3, "mc-freq")] * samples)
        _, heads, ends = segment_runs(bits)
        exact = segment_probabilities(model, bench_topology)
        for pair in set(zip(heads.tolist(), ends.tolist())):
            freq = np.sum((heads == pair[0]) & (ends == pair[1])) / samples
            se = max(np.sqrt(freq * (1.0 - freq) / samples), 1e-4)
            assert abs(freq - exact[pair]) <= 3.0 * se


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
        assert np.all(ones == 1)
        assert np.all(zeros == 0)

    def test_sparse_spatial_field_is_mostly_available(self, bench_topology):
        model = PuActivityModel(
            mode=SPATIAL_MODE, rho_p=1e-4, p_active=0.5, d0=1.0
        )
        rng = stream(5, "spatial")
        bits = [sample_pu_activity(model, bench_topology, rng) for _ in range(2000)]
        assert np.mean(bits) > 0.995

    def test_spatial_field_blocks_under_dense_actives(self, bench_topology):
        model = PuActivityModel(mode=SPATIAL_MODE, rho_p=50.0, p_active=1.0, d0=1.0)
        rng = stream(6, "spatial")
        bits = sample_pu_activity(model, bench_topology, rng)
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


def one_vector_reference(model, topology, rng):
    """One availability vector drawn with one generator call per quantity,
    the way the sampler worked before it was batched."""
    n = topology.node_count
    if model.mode == IID_MODE:
        return (rng.random(n) < model.p_avail).astype(np.uint8)
    x = np.asarray(topology.positions)
    lo, hi = x[0] - model.d0, x[-1] + model.d0
    width = model.strip_width
    measure = (hi - lo) * width if width > 0.0 else hi - lo
    count = rng.poisson(model.rho_p * measure)
    px = rng.uniform(lo, hi, size=count)
    py = rng.uniform(-width / 2.0, width / 2.0, size=count) if width > 0.0 else np.zeros(count)
    active = rng.random(count) < model.p_active
    px, py = px[active], py[active]
    if px.size == 0:
        return np.ones(n, dtype=np.uint8)
    d2 = (x[:, None] - px[None, :]) ** 2 + py[None, :] ** 2
    return (d2.min(axis=1) >= model.d0**2).astype(np.uint8)


def mc_reference(model, topology, rng, samples):
    """Segment counts one draw at a time, in first-occurrence order."""
    counts = {}
    for _ in range(samples):
        bits = one_vector_reference(model, topology, rng)
        for seg in partition_segments(bits):
            counts[seg] = counts.get(seg, 0) + 1
    return {k: c / samples for k, c in counts.items()}


ACTIVITY_CASES = {
    "iid": PuActivityModel(p_avail=0.7),
    "strip": PuActivityModel(mode=SPATIAL_MODE, rho_p=0.4, p_active=0.5, d0=0.8,
                             strip_width=1.0),
    "line": PuActivityModel(mode=SPATIAL_MODE, rho_p=0.4, p_active=0.5, d0=0.8),
    "dense": PuActivityModel(mode=SPATIAL_MODE, rho_p=6.0, p_active=0.9, d0=0.4,
                             strip_width=2.0),
    "sparse": PuActivityModel(mode=SPATIAL_MODE, rho_p=1e-3, p_active=0.5, d0=1.0),
}


class TestBatchedSampler:
    @pytest.mark.parametrize("case", sorted(ACTIVITY_CASES))
    @pytest.mark.parametrize("nodes, span", [(6, 5.0), (12, 10.0)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mc_matches_one_draw_at_a_time(self, case, nodes, span, seed):
        # Same frequencies in the same dict order, and the generator left in
        # the same state: the batches consume the stream draw for draw.
        model = ACTIVITY_CASES[case]
        topo = Topology.from_positions(make_linear_route(nodes, span, 7), alpha=2.0)
        samples = 2500  # spans a chunk boundary
        ref_rng, rng = stream(seed, "mc"), stream(seed, "mc")
        expected = mc_reference(model, topo, ref_rng, samples)
        probs = segment_probabilities(model, topo, rng, samples)
        if model.mode == IID_MODE:
            # The closed form draws nothing, and the one-draw frequencies
            # agree with it within four binomial standard errors.
            assert rng.bit_generator.state == stream(seed, "mc").bit_generator.state
            for pair, freq in expected.items():
                se = max(np.sqrt(freq * (1.0 - freq) / samples), 1e-3)
                assert abs(freq - probs[pair]) <= 4.0 * se
            return
        assert list(probs.items()) == list(expected.items())
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("case", sorted(ACTIVITY_CASES))
    def test_rows_from_separate_generators(self, case, bench_topology):
        model = ACTIVITY_CASES[case]
        bits = sample_availability(model, bench_topology, (stream(4, "row", k) for k in range(50)))
        for k, row in enumerate(bits):
            expected = one_vector_reference(model, bench_topology, stream(4, "row", k))
            assert np.array_equal(row, expected)

    def test_no_generators_no_rows(self, bench_topology):
        for model in ACTIVITY_CASES.values():
            assert sample_availability(model, bench_topology, []).shape == (0, 6)

    def test_segment_runs_match_partition_row_by_row(self):
        bits = np.array(list(itertools.product((0, 1), repeat=5)), dtype=np.uint8)
        row, head, end = segment_runs(bits)
        for r, vector in enumerate(bits):
            expected = partition_segments(vector)
            assert list(zip(head[row == r].tolist(), end[row == r].tolist())) == expected
