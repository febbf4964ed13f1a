"""Tests for in-place DirectGraph edge additions (the growth-slot extension)."""

import pytest

from repro.directgraph import (
    DirectGraphReader,
    FormatSpec,
    build_directgraph,
    verify_image,
)
from repro.directgraph.updates import DirectGraphUpdater, UpdateCapacityError
from repro.gnn import DenseFeatureTable, Graph, power_law_graph, sample_subgraph
from repro.isc import GnnTaskConfig, run_in_storage_sampling

DIM = 4


def build(graph, page_size=512, growth_slots=2):
    feats = DenseFeatureTable.random(graph.num_nodes, DIM, seed=0)
    spec = FormatSpec(
        page_size=page_size, feature_dim=DIM, growth_slots=growth_slots
    )
    return build_directgraph(graph, feats, spec)


def spare_pages(image, count=16):
    base = max(p.page_index for p in image.page_plans) + 1
    return list(range(base, base + count))


class TestGrowthSlotFormat:
    def test_growth_slots_written_and_decoded(self):
        g = power_law_graph(50, 6.0, seed=1)
        image = build(g, growth_slots=3)
        reader = DirectGraphReader(image)
        view = reader.primary_section(0)
        assert view.growth_slots_free == 3

    def test_roundtrip_unchanged_with_growth_slots(self):
        g = power_law_graph(60, 8.0, seed=2)
        image = build(g, growth_slots=2)
        reader = DirectGraphReader(image)
        for node in range(0, 60, 7):
            assert reader.neighbors(node) == [int(x) for x in g.neighbors(node)]

    def test_verify_image_passes_with_growth_slots(self):
        g = power_law_graph(40, 6.0, seed=3)
        assert verify_image(build(g, growth_slots=2)).ok

    def test_growth_slots_bounded(self):
        with pytest.raises(ValueError):
            FormatSpec(page_size=512, feature_dim=4, growth_slots=256)


class TestAddNeighbors:
    def test_simple_addition_visible_to_reader(self):
        g = power_law_graph(60, 6.0, seed=4)
        image = build(g)
        updater = DirectGraphUpdater(image, spare_ppas=spare_pages(image))
        before = DirectGraphReader(image).neighbors(5)
        updater.add_neighbors(5, [10, 11, 12])
        after = DirectGraphReader(image).neighbors(5)
        assert after == before + [10, 11, 12]

    def test_degree_header_updated(self):
        g = power_law_graph(60, 6.0, seed=4)
        image = build(g)
        updater = DirectGraphUpdater(image, spare_ppas=spare_pages(image))
        old_degree = DirectGraphReader(image).primary_section(7).neighbor_count
        updater.add_neighbors(7, [1, 2])
        assert (
            DirectGraphReader(image).primary_section(7).neighbor_count
            == old_degree + 2
        )

    def test_extends_partial_last_section_first(self):
        """A node with a partially-filled last secondary section grows it
        in place before consuming a growth slot."""
        lists = [[(j % 30) + 1 for j in range(200)]] + [[0]] * 30
        g = Graph.from_neighbor_lists(lists)
        image = build(g, page_size=512)
        plan = image.node_plans[0]
        assert plan.n_secondary >= 1
        cap = image.spec.max_secondary_neighbors
        assert plan.secondary_counts[-1] < cap  # partial last section
        updater = DirectGraphUpdater(image, spare_ppas=spare_pages(image))
        updater.add_neighbors(0, [3])
        assert updater.stats.sections_extended == 1
        assert updater.stats.growth_slots_consumed == 0
        assert DirectGraphReader(image).neighbors(0)[-1] == 3

    def test_extends_the_last_of_several_secondaries(self):
        """The updater finds the node's last secondary through the decoded
        view's ``secondary_addrs[-1]`` and grows that one, not the first."""
        lists = [[(j % 30) + 1 for j in range(300)]] + [[0]] * 30
        image = build(Graph.from_neighbor_lists(lists), page_size=512)
        plan = image.node_plans[0]
        assert plan.n_secondary >= 2
        first, last = plan.secondary_addrs[0], plan.secondary_addrs[-1]
        counts = list(plan.secondary_counts)
        assert counts[-1] < image.spec.max_secondary_neighbors
        reader = DirectGraphReader(image)
        assert reader.primary_section(0).secondary_addrs[-1] == last
        updater = DirectGraphUpdater(image, spare_ppas=spare_pages(image))
        updater.add_neighbors(0, [3])
        assert updater.stats.sections_extended == 1
        assert reader.section_at(first).neighbor_count == counts[0]
        assert reader.section_at(last).neighbor_count == counts[-1] + 1
        assert reader.neighbors(0) == lists[0] + [3]

    def test_creates_section_when_last_is_full(self):
        g = power_law_graph(60, 6.0, seed=4)
        image = build(g)
        cap = image.spec.max_secondary_neighbors
        updater = DirectGraphUpdater(image, spare_ppas=spare_pages(image))
        node = 3
        # push enough neighbors to force at least one new section
        additions = [(i % 59) + 1 for i in range(cap + 5)]
        updater.add_neighbors(node, additions)
        assert updater.stats.sections_created >= 1
        assert updater.stats.growth_slots_consumed >= 1
        expected = [int(x) for x in g.neighbors(node)] + additions
        assert DirectGraphReader(image).neighbors(node) == expected

    def test_growth_slots_exhaustion_raises(self):
        g = power_law_graph(40, 4.0, seed=5)
        image = build(g, growth_slots=1)
        cap = image.spec.max_secondary_neighbors
        updater = DirectGraphUpdater(image, spare_ppas=spare_pages(image, 64))
        node = 2
        updater.add_neighbors(node, [(i % 39) + 1 for i in range(cap)])
        with pytest.raises(UpdateCapacityError):
            updater.add_neighbors(node, [(i % 39) + 1 for i in range(cap)])

    def test_no_spare_pages_raises_when_section_needed(self):
        g = power_law_graph(40, 4.0, seed=6)
        image = build(g)
        updater = DirectGraphUpdater(image)  # no spare pages
        cap = image.spec.max_secondary_neighbors
        with pytest.raises(UpdateCapacityError):
            updater.add_neighbors(1, [(i % 39) + 1 for i in range(cap + 1)])

    def test_unknown_neighbor_rejected(self):
        g = power_law_graph(30, 4.0, seed=7)
        image = build(g)
        updater = DirectGraphUpdater(image, spare_ppas=spare_pages(image))
        with pytest.raises(ValueError):
            updater.add_neighbors(0, [999])

    def test_other_nodes_unaffected(self):
        g = power_law_graph(80, 8.0, seed=8)
        image = build(g)
        reader = DirectGraphReader(image)
        snapshot = {n: reader.neighbors(n) for n in range(0, 80, 9)}
        updater = DirectGraphUpdater(image, spare_ppas=spare_pages(image))
        updater.add_neighbors(40, [1, 2, 3, 4, 5])
        for node, neighbors in snapshot.items():
            if node != 40:
                assert DirectGraphReader(image).neighbors(node) == neighbors

    def test_image_still_verifies_after_updates(self):
        g = power_law_graph(60, 8.0, seed=9)
        image = build(g)
        updater = DirectGraphUpdater(image, spare_ppas=spare_pages(image))
        updater.add_neighbors(10, [1, 2, 3])
        updater.add_neighbors(20, [4, 5])
        report = verify_image(image)
        assert report.ok, report.violations


class TestSamplingAfterUpdates:
    def test_sampler_sees_new_neighbors(self):
        """In-storage sampling over the updated image can sample the
        appended edges and matches the updated reference graph."""
        g = power_law_graph(60, 5.0, seed=10)
        image = build(g, page_size=1024)
        updater = DirectGraphUpdater(image, spare_ppas=spare_pages(image))
        node = 6
        additions = [50, 51, 52, 53]
        updater.add_neighbors(node, additions)
        # rebuild the reference graph with the new edges appended
        lists = [[int(x) for x in g.neighbors(v)] for v in range(g.num_nodes)]
        lists[node].extend(additions)
        updated_graph = Graph.from_neighbor_lists(lists)
        config = GnnTaskConfig(num_hops=2, fanout=3, feature_dim=DIM, seed=77)
        run = run_in_storage_sampling(image, config, [node])
        ref = sample_subgraph(updated_graph, node, config.fanouts, seed=77)
        assert run.subgraphs[node].canonical() == ref.canonical()
