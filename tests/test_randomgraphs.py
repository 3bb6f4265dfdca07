import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvespec.arrangement import validate
from curvespec.randomgraphs import (
    MAX_GRAPH_SIZE,
    GraphBounds,
    SplitMix64,
    generate_graph,
    insert_smooth_point,
    insert_snc_node,
)

from conftest import graph, nodal_cubic


class TestSplitMix64:
    def test_published_seed_zero_sequence(self):
        # Known-answer vector for seed 0, shared by the reference
        # implementations of SplitMix64.
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(5)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
            0x1B39896A51A8749B,
        ]

    def test_seed_is_masked_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()
        assert SplitMix64(-1).state == (1 << 64) - 1

    @pytest.mark.parametrize("seed", [1.5, True, "1"], ids=["float", "bool", "string"])
    def test_seed_must_be_an_int(self, seed):
        # A float seed would fail inside the mask, and True would replay seed 1.
        with pytest.raises(TypeError, match="^seed must be an integer, got "):
            SplitMix64(seed)

    def test_deterministic(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    @given(st.integers(0, 2**64 - 1), st.integers(1, 1000))
    def test_below_range(self, seed, n):
        assert 0 <= SplitMix64(seed).below(n) < n

    def test_below_is_plain_modulo(self):
        seed = 7
        assert SplitMix64(seed).below(10) == SplitMix64(seed).next_u64() % 10

    @pytest.mark.parametrize("n", [0, -1])
    def test_below_rejects_empty_range(self, n):
        with pytest.raises(ValueError):
            SplitMix64(0).below(n)


class TestGenerateGraph:
    def test_deterministic_per_seed(self):
        assert generate_graph(SplitMix64(3)) == generate_graph(SplitMix64(3))
        seen = {generate_graph(SplitMix64(s)) for s in range(20)}
        assert len(seen) > 1

    @pytest.mark.parametrize("seed", range(25))
    def test_always_valid(self, seed):
        assert validate(generate_graph(SplitMix64(seed))).ok

    @pytest.mark.parametrize("seed", range(25))
    def test_respects_bounds(self, seed):
        bounds = GraphBounds(max_components=2, max_points=3, max_degree=2, max_mult=2)
        g = generate_graph(SplitMix64(seed), bounds)
        assert 1 <= len(g.components) <= 2
        assert 1 <= len(g.points) <= 3
        for c in g.components:
            assert 1 <= c.degree <= 2
            assert 1 <= c.multiplicity <= 2

    @pytest.mark.parametrize("seed", range(50))
    def test_first_point_is_never_a_simple_node(self, seed):
        g = generate_graph(SplitMix64(seed))
        first = g.points[0]
        is_node = len(first.branches) == 2 and all(b.mult == 1 for b in first.branches)
        assert not is_node

    def test_forced_point_prefers_a_singular_branch(self):
        # With max_degree >= 2 some component can carry a multiplicity-2
        # branch; the forced first point must use one of those whenever
        # one exists.
        for seed in range(50):
            g = generate_graph(SplitMix64(seed))
            if any(c.degree >= 2 for c in g.components):
                first = g.points[0]
                assert len(first.branches) == 1
                assert first.branches[0].mult >= 2

    def test_forced_triple_point_when_only_lines(self):
        bounds = GraphBounds(max_components=5, max_degree=1)
        for seed in range(50):
            g = generate_graph(SplitMix64(seed), bounds)
            if len(g.components) >= 3:
                assert len(g.points[0].branches) == 3
                assert all(b.mult == 1 for b in g.points[0].branches)

    @pytest.mark.parametrize("field", ["max_components", "max_points"])
    def test_size_bounds_are_capped(self, field):
        GraphBounds(**{field: MAX_GRAPH_SIZE})
        with pytest.raises(ValueError, match=f"{field} exceeds the limit"):
            GraphBounds(**{field: MAX_GRAPH_SIZE + 1})

    def test_bounds_that_reach_past_the_total_degree_limit_are_rejected(self):
        # The largest draw has max_components components of degree
        # max_degree and multiplicity max_mult: 5 * 5000 * 4 is the limit.
        GraphBounds(max_components=5, max_degree=5000, max_mult=4)
        message = "max_components \\* max_degree \\* max_mult exceeds the total degree limit"
        with pytest.raises(ValueError, match=message):
            GraphBounds(max_components=5, max_degree=5001, max_mult=4)

    @pytest.mark.parametrize(
        "field, low", [("max_components", 1), ("max_points", 0), ("max_degree", 1), ("max_mult", 1)]
    )
    def test_bounds_below_their_minimum_are_rejected(self, field, low):
        GraphBounds(**{field: low})
        with pytest.raises(ValueError, match=f"{field} must be at least {low}"):
            GraphBounds(**{field: low - 1})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_mult", 2.0),
            ("max_points", 2.5),
            ("max_degree", True),
            ("max_components", "3"),
        ],
    )
    def test_bounds_must_be_ints(self, field, value):
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got "):
            GraphBounds(**{field: value})

    def test_types_are_checked_before_values(self):
        with pytest.raises(TypeError, match="^max_mult must be an integer"):
            GraphBounds(max_components=0, max_mult=2.0)

    def test_max_points_zero_yields_pointless_graphs(self):
        g = generate_graph(SplitMix64(0), GraphBounds(max_points=0))
        assert g.points == ()

    def test_documented_draw_order(self):
        # Replay the documented recipe by hand against generate_graph.
        bounds = GraphBounds()
        for seed in (0, 1, 2026):
            rng = SplitMix64(seed)
            n_comp = 1 + rng.below(bounds.max_components)
            specs = []
            for _ in range(n_comp):
                degree = 1 + rng.below(bounds.max_degree)
                specs.append((degree, 1 + rng.below(bounds.max_mult)))
            g = generate_graph(SplitMix64(seed), bounds)
            assert [(c.degree, c.multiplicity) for c in g.components] == specs


class TestInsertions:
    def test_snc_node_shape(self):
        g = graph([(2, 2), (3, 1)], [[(0, 2), (1, 1)]])
        augmented = insert_snc_node(g, SplitMix64(0))
        assert augmented.components == g.components
        assert augmented.points[:-1] == g.points
        extra = augmented.points[-1]
        assert extra.id == "w1"
        assert len(extra.branches) == 2
        assert all(b.mult == 1 for b in extra.branches)
        comps = [b.component for b in extra.branches]
        assert len(set(comps)) == 2
        assert validate(augmented).ok
        codes = [code for code, _, _ in validate(augmented).warnings]
        assert "snc-node" in codes

    def test_snc_node_requires_two_components(self):
        with pytest.raises(ValueError):
            insert_snc_node(nodal_cubic(), SplitMix64(0))

    def test_smooth_point_shape(self):
        g = nodal_cubic()
        augmented = insert_smooth_point(g, SplitMix64(0))
        assert augmented.components == g.components
        extra = augmented.points[-1]
        assert extra.id == "w1"
        assert [b.mult for b in extra.branches] == [1]
        assert validate(augmented).ok
        codes = [code for code, _, _ in validate(augmented).warnings]
        assert "smooth-point" in codes

    def test_fresh_ids_never_collide(self):
        g = graph([(2, 1), (3, 1)])
        for seed in range(5):
            g = insert_snc_node(g, SplitMix64(seed))
            g = insert_smooth_point(g, SplitMix64(seed))
        ids = [p.id for p in g.points]
        assert len(ids) == len(set(ids))
        assert validate(g).ok

    @pytest.mark.parametrize("seed", range(10))
    def test_insertions_keep_graphs_valid(self, seed):
        rng = SplitMix64(seed)
        g = generate_graph(rng)
        if len(g.components) >= 2:
            g = insert_snc_node(g, rng)
        g = insert_smooth_point(g, rng)
        assert validate(g).ok
