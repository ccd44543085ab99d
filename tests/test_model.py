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
    availability_chunks,
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
        probs = segment_probabilities(model, bench_topology)
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


def batched_frequencies(model, topology, rng, samples):
    """Segment frequencies of ``samples`` draws from ``rng`` through the
    batched sampler, in first-occurrence order."""
    counts = {}
    for bits in availability_chunks(model, topology, itertools.repeat(rng, samples)):
        _, heads, ends = segment_runs(bits)
        for seg in zip(heads.tolist(), ends.tolist()):
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
        # the same state: the batches consume the stream draw for draw.  The
        # closed form agrees with the one-draw frequencies within four
        # binomial standard errors, the segments never drawn included.
        model = ACTIVITY_CASES[case]
        topo = Topology.from_positions(make_linear_route(nodes, span, 7), alpha=2.0)
        samples = 2500  # spans a chunk boundary
        ref_rng, rng = stream(seed, "mc"), stream(seed, "mc")
        expected = mc_reference(model, topo, ref_rng, samples)
        batched = batched_frequencies(model, topo, rng, samples)
        assert list(batched.items()) == list(expected.items())
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        probs = segment_probabilities(model, topo)
        assert set(expected) <= set(probs)
        for pair, p in probs.items():
            freq = expected.get(pair, 0.0)
            se = max(np.sqrt(freq * (1.0 - freq) / samples), 1e-3)
            assert abs(freq - p) <= 4.0 * se

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


# Three geometries of the closed form: the README route in a strip narrower
# than the disks, on the line, and a 12-node route in a strip whose
# half-width exceeds d0, so that every disk lies whole inside it.
CLOSED_FORM_CASES = {
    "readme-strip": ((6, 5.0), ACTIVITY_CASES["strip"]),
    "readme-line": ((6, 5.0), ACTIVITY_CASES["line"]),
    "long12-wide-strip": ((12, 10.0), PuActivityModel(mode=SPATIAL_MODE, rho_p=0.4,
                                                      p_active=0.5, d0=0.8, strip_width=3.0)),
}


def closed_form_case(case):
    (nodes, span), model = CLOSED_FORM_CASES[case]
    return model, Topology.from_positions(make_linear_route(nodes, span, 7), alpha=2.0)


def node_availability(model):
    """Void probability of one node's d0-disk clipped to the strip: the disk
    less its two caps beyond the strip's edges."""
    d0, half = model.d0, model.strip_width / 2.0
    if model.strip_width == 0.0:
        measure = 2.0 * d0
    elif half >= d0:
        measure = np.pi * d0**2
    else:
        cap = d0**2 * np.arccos(half / d0) - half * np.sqrt(d0**2 - half**2)
        measure = np.pi * d0**2 - 2.0 * cap
    return np.exp(-model.rho_p * model.p_active * measure)


class TestSpatialClosedForm:
    @pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
    def test_matches_monte_carlo(self, case):
        # Every segment within four binomial standard errors of 200 000
        # draws of the sampler, the segments never drawn included.
        model, topo = closed_form_case(case)
        samples = 200_000
        freq = batched_frequencies(model, topo, stream(9, "closed-form"), samples)
        probs = segment_probabilities(model, topo)
        assert len(probs) == topo.node_count * (topo.node_count + 1) // 2
        assert set(freq) <= set(probs)
        for pair, p in probs.items():
            assert abs(freq.get(pair, 0.0) - p) <= 4.0 * np.sqrt(p * (1.0 - p) / samples), pair

    @pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
    def test_segments_through_a_node_sum_to_its_availability(self, case):
        model, topo = closed_form_case(case)
        probs = segment_probabilities(model, topo)
        for s in range(topo.node_count):
            through = sum(v for (i, j), v in probs.items() if i <= s <= j)
            assert abs(through - node_availability(model)) <= 1e-12

    @pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES) + ["dense", "sparse"])
    def test_entries_are_probabilities(self, case):
        if case in CLOSED_FORM_CASES:
            model, topo = closed_form_case(case)
        else:
            model = ACTIVITY_CASES[case]
            topo = Topology.from_positions(make_linear_route(12, 10.0, 7), alpha=2.0)
        assert all(0.0 <= v <= 1.0 for v in segment_probabilities(model, topo).values())

    @pytest.mark.parametrize("strip_width", [0.0, 1.0])
    def test_no_active_primary_leaves_the_whole_route_one_segment(self, bench_topology,
                                                                 strip_width):
        model = PuActivityModel(mode=SPATIAL_MODE, rho_p=0.4, p_active=0.0, d0=0.8,
                                strip_width=strip_width)
        probs = segment_probabilities(model, bench_topology)
        last = bench_topology.last_index
        assert probs[(0, last)] == 1.0
        assert all(v == 0.0 for pair, v in probs.items() if pair != (0, last))
