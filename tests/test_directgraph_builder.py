"""Tests for Algorithm 1: planning, packing, and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.directgraph import (
    LAYOUTS,
    FormatSpec,
    PAGE_TYPE_PRIMARY,
    PAGE_TYPE_SECONDARY,
    DirectGraphReader,
    PrimarySectionView,
    SecondarySectionView,
    build_directgraph,
    decode_page,
)
from repro.gnn import (
    DenseFeatureTable,
    Graph,
    power_law_graph,
    ring_of_cliques,
    uniform_random_graph,
)
from repro.platforms.runner import PreparedWorkload
from repro.workloads import workload_by_name
from repro.workloads.registry import EXTRA_WORKLOADS, WORKLOADS


def small_spec(dim=4, page_size=512):
    from repro.directgraph import AddressCodec

    return FormatSpec(page_size=page_size, feature_dim=dim, codec=AddressCodec())


def build_small(graph, dim=4, page_size=512, **kwargs):
    features = DenseFeatureTable.random(graph.num_nodes, dim, seed=0)
    spec = small_spec(dim, page_size)
    return build_directgraph(graph, features, spec, **kwargs), features


class TestPlanning:
    def test_low_degree_node_has_no_secondaries(self):
        g = Graph.from_neighbor_lists([[1, 2], [0], [0]])
        image, _ = build_small(g)
        for plan in image.node_plans:
            assert plan.n_secondary == 0
            assert plan.n_inline == plan.degree

    def test_high_degree_node_spills_to_secondaries(self):
        # one node with 500 neighbors, page 512 B -> must overflow
        lists = [[j % 10 for j in range(500)]] + [[0]] * 9
        g = Graph.from_neighbor_lists(lists)
        image, _ = build_small(g)
        plan = image.node_plans[0]
        assert plan.n_secondary >= 1
        assert plan.n_inline + sum(plan.secondary_counts) == 500

    def test_all_neighbors_accounted(self):
        g = power_law_graph(200, 30.0, seed=3)
        image, _ = build_small(g, page_size=1024)
        for plan in image.node_plans:
            assert plan.n_inline + sum(plan.secondary_counts) == plan.degree

    def test_section_count_cap_respected(self):
        g = uniform_random_graph(500, 2.0, seed=1)
        image, _ = build_small(g)
        for page in image.page_plans:
            assert page.n_sections <= image.spec.max_sections_per_page

    def test_page_capacity_respected(self):
        g = power_law_graph(300, 25.0, seed=2)
        image, _ = build_small(g, page_size=1024)
        for page in image.page_plans:
            assert page.used_bytes <= image.spec.page_payload_bytes

    def test_page_types_partition_sections(self):
        g = power_law_graph(100, 40.0, seed=4)
        image, _ = build_small(g, page_size=512)
        kinds = {PAGE_TYPE_PRIMARY: 0, PAGE_TYPE_SECONDARY: 0}
        for page in image.page_plans:
            kinds[page.page_type] += 1
            for _node, kind, _ord in page.entries:
                assert kind == page.page_type  # section kind matches page kind
        assert kinds[PAGE_TYPE_PRIMARY] > 0

    def test_plan_only_skips_bytes(self):
        g = ring_of_cliques(3, 4)
        spec = small_spec()
        image = build_directgraph(g, None, spec, serialize=False)
        assert not image.serialized
        with pytest.raises(RuntimeError):
            image.page_bytes(0)

    def test_serialize_requires_features(self):
        g = ring_of_cliques(3, 4)
        with pytest.raises(ValueError):
            build_directgraph(g, None, small_spec(), serialize=True)

    def test_feature_dim_mismatch_rejected(self):
        g = ring_of_cliques(3, 4)
        feats = DenseFeatureTable.random(g.num_nodes, 8, seed=0)
        with pytest.raises(ValueError):
            build_directgraph(g, feats, small_spec(dim=4))


class TestStats:
    def test_stats_consistency(self):
        g = power_law_graph(150, 20.0, seed=5)
        image, _ = build_small(g, page_size=1024)
        stats = image.stats
        assert stats.total_pages == len(image.page_plans)
        assert stats.num_nodes == 150
        assert stats.total_bytes == stats.total_pages * 1024
        assert 0.0 <= stats.internal_waste_fraction < 1.0

    def test_inflation_low_for_dense_graph(self):
        """Paper Table IV: high-degree graphs inflate only a few percent."""
        g = power_law_graph(400, 200.0, max_degree=2000, seed=6)
        feats = DenseFeatureTable.random(400, 100, seed=0)
        spec = FormatSpec(page_size=4096, feature_dim=100)
        image = build_directgraph(g, feats, spec)
        raw = 400 * 100 * 2 + g.num_edges * 4
        assert image.stats.inflation_vs_raw(raw) < 0.15

    def test_inflation_high_for_short_sections(self):
        """Paper Table IV: OGBN-like graphs (tiny sections) inflate ~32%
        because at most 16 sections fit per page."""
        g = uniform_random_graph(2000, 28.0, seed=7)
        feats = DenseFeatureTable.random(2000, 16, seed=0)
        spec = FormatSpec(page_size=4096, feature_dim=16)
        image = build_directgraph(g, feats, spec)
        raw = 2000 * 16 * 2 + g.num_edges * 4
        assert image.stats.inflation_vs_raw(raw) > 0.20

    def test_inflation_requires_positive_raw(self):
        g = ring_of_cliques(2, 3)
        image, _ = build_small(g)
        with pytest.raises(ValueError):
            image.stats.inflation_vs_raw(0)


class TestSerialization:
    def test_pages_have_declared_size(self):
        g = power_law_graph(120, 15.0, seed=8)
        image, _ = build_small(g, page_size=1024)
        for page in image.page_plans:
            assert len(image.page_bytes(page.page_index)) == 1024

    def test_page_header_fields(self):
        g = ring_of_cliques(2, 4)
        image, _ = build_small(g)
        for page in image.page_plans:
            raw = image.page_bytes(page.page_index)
            assert raw[0] == page.page_type
            assert raw[1] == page.n_sections

    def test_decode_page_roundtrip(self):
        g = power_law_graph(100, 10.0, seed=9)
        image, _ = build_small(g, page_size=1024)
        for page in image.page_plans:
            decoded = decode_page(image.spec, image.page_bytes(page.page_index))
            assert decoded.page_type == page.page_type
            assert len(decoded.sections) == page.n_sections

    def test_reader_neighbors_match_graph(self):
        g = power_law_graph(150, 12.0, seed=10)
        image, _ = build_small(g, page_size=1024)
        reader = DirectGraphReader(image)
        for node in range(0, 150, 7):
            assert reader.neighbors(node) == [int(x) for x in g.neighbors(node)]

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("workload", sorted({**WORKLOADS, **EXTRA_WORKLOADS}))
    def test_sections_match_build_plan(self, workload, layout):
        """Every section of every registered workload decodes to its plan.

        At 2 KB pages the wide-feature workloads spill into secondary
        sections, so both section kinds and every address field are read
        back entry by entry.
        """
        prepared = PreparedWorkload.prepare(
            workload_by_name(workload).scaled(256), page_size=2048, layout=layout
        )
        graph, image = prepared.graph, prepared.image
        reader = DirectGraphReader(image)
        spilled = 0
        for plan in image.node_plans:
            node = plan.node_id
            packed = [image.address_of(int(n)) for n in graph.neighbors(node)]
            primary = reader.section_at(plan.primary_addr)
            assert isinstance(primary, PrimarySectionView)
            assert primary.node_id == node
            assert primary.neighbor_count == plan.degree == len(packed)
            assert primary.n_inline == plan.n_inline
            assert list(primary.secondary_addrs) == plan.secondary_addrs
            assert list(primary.inline_neighbor_addrs) == packed[: plan.n_inline]
            assert primary.feature_bytes == (
                prepared.features.vector(node).astype(np.float16).tobytes()
            )
            at = plan.n_inline
            for addr, count in zip(plan.secondary_addrs, plan.secondary_counts):
                secondary = reader.section_at(addr)
                assert isinstance(secondary, SecondarySectionView)
                assert secondary.node_id == node
                assert secondary.neighbor_count == count
                assert list(secondary.neighbor_addrs) == packed[at : at + count]
                at += count
                spilled += 1
            assert at == len(packed)
        if workload == "reddit":
            assert spilled > 0  # degree 492 overflows a 2 KB primary

    def test_reader_neighbors_match_with_secondaries(self):
        lists = [[j % 20 for j in range(300)]] + [[0, 1]] * 19
        g = Graph.from_neighbor_lists(lists)
        image, _ = build_small(g, page_size=512)
        assert image.node_plans[0].n_secondary >= 1
        reader = DirectGraphReader(image)
        assert reader.neighbors(0) == [j % 20 for j in range(300)]

    def test_reader_features_match_table(self):
        g = ring_of_cliques(3, 5)
        image, features = build_small(g, dim=6)
        reader = DirectGraphReader(image)
        for node in range(g.num_nodes):
            assert np.array_equal(reader.feature(node), features.vector(node))

    def test_node_at_reverse_lookup(self):
        g = power_law_graph(80, 10.0, seed=11)
        image, _ = build_small(g, page_size=1024)
        for node in range(80):
            assert image.node_at(image.address_of(node)) == node

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_roundtrip_property(self, seed):
        g = power_law_graph(60, 8.0, seed=seed)
        image, _ = build_small(g, page_size=1024)
        reader = DirectGraphReader(image)
        for node in range(0, 60, 13):
            assert reader.neighbors(node) == [int(x) for x in g.neighbors(node)]
