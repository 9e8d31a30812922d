import random
from itertools import combinations

import pytest

from graphmin import (
    BlockShape,
    Graph,
    InvalidPartitionError,
    Partition,
    UnknownVertexError,
    canonical_foliage_partition,
    classify_block,
    complete_graph,
    foliage_equivalent,
    foliage_graph,
    is_foliage_partition,
    lc_orbit,
    local_complement,
    nth_foliage_graph,
    path_graph,
    ring_graph,
    singletons,
    source_reduce,
)
from graphmin.foliage import _row_groups, _star_centers
from graphmin.graph import _pair_ranks

from conftest import (all_graphs, fig4a, lifted_local_complement, pair_rank_table, random_graph,
                      random_refinement)


def star(center, leaves):
    verts = [center] + list(leaves)
    return Graph(verts, [(center, leaf) for leaf in leaves])


def leaves_axils(g):
    """All (leaf, axil) pairs: degree-1 vertices with their unique neighbor."""
    return frozenset((v, w) for v in g.vertices for w in g.neighbors(v) if g.neighbors(v) == {w})


def twins(g):
    """All twin pairs {v, w}: equal neighborhoods outside the pair, nonempty."""
    return frozenset(frozenset((v, w)) for v, w in combinations(g.vertices, 2)
                     if g.neighbors(v) - {w} == g.neighbors(w) - {v} != set())


class TestLeavesTwinsFoliage:
    def test_eight_vertex_example_foliage(self):
        # every vertex but 6 is a leaf, an axil, or a twin, so it shares a
        # canonical block with another vertex
        blocks = canonical_foliage_partition(fig4a())
        assert {v for block in blocks if len(block) > 1 for v in block} == {1, 2, 3, 4, 5, 7, 8}

    def test_mutual_pair_is_leaf_axil_not_twin(self):
        g = Graph(2, [(1, 2)])
        assert leaves_axils(g) == frozenset({(1, 2), (2, 1)})
        assert twins(g) == frozenset()

    def test_star_leaves_and_twins(self):
        g = star(1, [2, 3, 4])
        assert leaves_axils(g) == frozenset({(2, 1), (3, 1), (4, 1)})
        assert twins(g) == frozenset(frozenset(p) for p in combinations([2, 3, 4], 2))

    def test_twin_condition_requires_shared_neighbor(self):
        # two isolated vertices agree on the empty neighborhood but are not twins
        assert twins(Graph(2)) == frozenset()


class TestFoliageEquivalence:
    def test_twins_through_shared_axil(self):
        assert foliage_equivalent(fig4a(), 1, 2)

    def test_unrelated_vertices(self):
        assert not foliage_equivalent(fig4a(), 1, 5)

    def test_reflexive(self):
        assert foliage_equivalent(fig4a(), 4, 4)

    def test_twin_pair_and_singleton_block(self):
        assert foliage_equivalent(fig4a(), 4, 5)
        assert not foliage_equivalent(fig4a(), 5, 6)

    def test_unknown_label(self):
        with pytest.raises(Exception):
            foliage_equivalent(fig4a(), 1, 99)

    def test_row_relation_and_twin_classes_match_the_definitions(self):
        # the relation's one statement on rows, and the row grouping that the
        # partition and source reduction share, against leaf-axil and twin
        # sets built from neighbor sets; scattered labels reach bit 64
        rng = random.Random(1717)
        scattered = []
        for _ in range(200):
            labels = sorted(rng.sample(range(1, 65), rng.randint(2, 9)))
            scattered.append(Graph(labels, [p for p in combinations(labels, 2) if rng.random() < 0.4]))
        for g in list(all_graphs(5)) + scattered:
            la, tw = leaves_axils(g), twins(g)
            for v in g.vertices:
                for w in g.vertices:
                    related = v == w or (v, w) in la or (w, v) in la or frozenset((v, w)) in tw
                    assert foliage_equivalent(g, v, w) == related, (g, v, w)
            _, twin_class = _row_groups(g)
            for v in g.vertices:
                assert twin_class[v] == sorted({v}.union(*(pair for pair in tw if v in pair))), (g, v)


class TestPartitionChecks:
    def test_empty_block_raises(self):
        with pytest.raises(InvalidPartitionError, match="^empty block$"):
            Partition([{1, 2}, set()])

    def test_overlapping_blocks_raise(self):
        with pytest.raises(InvalidPartitionError, match=r"^overlapping blocks at \[2, 3\]$"):
            Partition([{1, 2, 3}, {2, 3, 4}])

    def test_block_of_an_uncovered_label_raises(self):
        with pytest.raises(UnknownVertexError, match="^vertex 5 not covered by partition$"):
            Partition([{1, 2}, {3}]).block_of(5)


class TestCanonicalPartition:
    def test_eight_vertex_example(self):
        assert canonical_foliage_partition(fig4a()) == Partition(
            [{1, 2, 3}, {4, 5}, {6}, {7, 8}]
        )

    def test_edgeless_graph_all_singletons(self):
        g = Graph(4)
        assert canonical_foliage_partition(g) == singletons(g)

    def test_path_four(self):
        assert canonical_foliage_partition(path_graph(4)) == Partition([{1, 2}, {3, 4}])

    def test_is_lc_invariant_on_random_corpus(self):
        rng = random.Random(41)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 8))
            part = canonical_foliage_partition(g)
            for a in g.vertices:
                assert canonical_foliage_partition(local_complement(g, a)) == part


def _pairwise_partition(g):
    """Reference partition: close the pairwise relation with a union-find."""
    parent = {v: v for v in g.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v, w in combinations(g.vertices, 2):
        if foliage_equivalent(g, v, w):
            parent[find(w)] = find(v)
    classes = {}
    for v in g.vertices:
        classes.setdefault(find(v), set()).add(v)
    return Partition(classes.values())


class TestAgainstPairwiseOracle:
    def test_every_labelled_graph_up_to_six_vertices(self):
        count = 0
        for n in range(7):
            for g in all_graphs(n):
                assert canonical_foliage_partition(g) == _pairwise_partition(g), g
                count += 1
        assert count == 33_868

    def test_random_graphs_on_scattered_labels(self):
        rng = random.Random(6161)
        for _ in range(2_000):
            labels = rng.sample(range(1, 65), rng.randint(1, 16))
            p = rng.choice([0.1, 0.2, 0.4, 0.6, 0.9])
            g = Graph(labels, [pair for pair in combinations(labels, 2) if rng.random() < p])
            assert canonical_foliage_partition(g) == _pairwise_partition(g), g


class TestIsFoliagePartition:
    def test_refinement_accepted(self):
        w = Partition([{1, 2}, {3}, {4, 5}, {6}, {7, 8}])
        assert is_foliage_partition(fig4a(), w)

    def test_all_singletons_accepted(self):
        assert is_foliage_partition(fig4a(), singletons(fig4a()))

    def test_cross_class_block_rejected(self):
        w = Partition([{1, 2, 3}, {4}, {5, 6}, {7, 8}])
        assert not is_foliage_partition(fig4a(), w)

    def test_non_cover_raises(self):
        with pytest.raises(InvalidPartitionError):
            is_foliage_partition(fig4a(), Partition([{1, 2, 3}]))

    def test_canonical_is_coarsest(self):
        # merging any two inequivalent canonical blocks breaks validity
        g = fig4a()
        canon = canonical_foliage_partition(g)
        blocks = list(canon.blocks)
        for i, j in combinations(range(len(blocks)), 2):
            merged = [b for k, b in enumerate(blocks) if k not in (i, j)]
            merged.append(blocks[i] | blocks[j])
            assert not is_foliage_partition(g, Partition(merged))


def _corpus():
    """Every graph on at most 5 vertices, then random graphs on scattered labels."""
    for n in range(6):
        yield from all_graphs(n)
    rng = random.Random(2103)
    for _ in range(600):
        labels = rng.sample(range(1, 65), rng.randint(1, 12))
        p = rng.choice([0.1, 0.3, 0.6, 0.9])
        yield Graph(labels, [pair for pair in combinations(labels, 2) if rng.random() < p])


def _random_coarsening(rng, partition):
    """Merge random groups of ``partition``'s blocks."""
    blocks = list(partition.blocks)
    if not blocks:
        return partition
    rng.shuffle(blocks)
    cuts = sorted(rng.sample(range(1, len(blocks)), rng.randint(0, len(blocks) - 1)))
    return Partition([frozenset().union(*blocks[i:j]) for i, j in zip([0] + cuts, cuts + [len(blocks)])])


def edge_list_quotient(g, w, reps):
    """The quotient as ``foliage_graph`` built it before it wrapped rows: an
    edge list through ``Graph``, blocks adjacent iff some cross-edge exists."""
    masks = [sum(1 << v for v in block) for block in w.blocks]
    edges = []
    for i, block in enumerate(w.blocks):
        hit = 0
        for v in block:
            hit |= g.neighbor_mask(v)
        edges += [(reps[i], reps[j]) for j in range(i + 1, len(w.blocks)) if hit & masks[j]]
    return Graph(reps, edges)


class TestUncheckedBuilds:
    """What the partition and quotient builders no longer check on each call."""

    def test_canonical_blocks_are_a_partition_in_order(self):
        for g in _corpus():
            canon = canonical_foliage_partition(g)
            blocks = canon.blocks
            assert type(blocks) is tuple and all(type(b) is frozenset and b for b in blocks), g
            assert sum(map(len, blocks)) == g.n and frozenset().union(*blocks) == set(g.vertices), g
            assert [min(b) for b in blocks] == sorted(min(b) for b in blocks), g
            assert canon == Partition(blocks) and hash(canon) == hash(Partition(blocks)), g

    def test_refinement_check_agrees_with_partition_refines(self):
        rng, answers = random.Random(2104), set()
        for g in _corpus():
            canon = canonical_foliage_partition(g)
            for w in (random_refinement(rng, canon), _random_coarsening(rng, canon),
                      _random_coarsening(rng, random_refinement(rng, canon)), singletons(g)):
                answers.add(is_foliage_partition(g, w))
                assert is_foliage_partition(g, w) == w.refines(canon), (g, w)
        assert answers == {True, False}

    @pytest.mark.parametrize("blocks", [[{True, 2}, {3, 4}], [{1, 2.0}, {3, 4}], [{1}, {2.0}, {3, 4}]],
                             ids=["bool-minimum", "float-member", "float-singleton"])
    def test_refinement_check_refuses_labels_that_are_not_int(self, blocks):
        # the blocks cover ``path_graph(4)``'s labels by ``==``, but ``True`` and ``2.0`` are not labels
        bad = next(v for b in blocks for v in b if type(v) is not int)
        with pytest.raises(UnknownVertexError) as caught:
            is_foliage_partition(path_graph(4), Partition(blocks))
        assert str(caught.value) == f"unknown vertex label {bad}"

    @pytest.mark.parametrize("call", [lambda: classify_block(path_graph(3), [1, "2"]),
                                      lambda: Partition([{1, "2"}, {3}])], ids=["classify_block", "Partition"])
    def test_a_member_that_cannot_be_ordered_is_an_unknown_label(self, call):
        # "2" is checked as a label before ``sorted`` or ``min`` tries to order it against 1
        with pytest.raises(UnknownVertexError, match="^unknown vertex label '2'$"):
            call()

    @pytest.mark.parametrize("extra", [True, 1.0], ids=repr)
    @pytest.mark.parametrize("call, error, message", [
        (lambda labels: Partition([labels, [2]]), UnknownVertexError, "unknown vertex label {!r}"),
        (lambda labels: classify_block(path_graph(3), labels), UnknownVertexError, "unknown vertex label {!r}"),
        (lambda labels: source_reduce(path_graph(5), labels), ValueError, "protected labels must be integers, got {!r}"),
        (lambda labels: Partition([labels[:1], [2]]).block_of(labels[1]), UnknownVertexError,
         "unknown vertex label {!r}"),
    ], ids=["Partition", "classify_block", "source_reduce", "block_of"])
    def test_members_are_checked_as_given(self, call, error, message, extra):
        # each call refuses ``[extra]`` alone; beside ``1``, a set (or ``in`` a block) would merge ``extra`` into it
        with pytest.raises(error) as caught:
            call([1, extra])
        assert str(caught.value) == message.format(extra)

    def test_quotient_equals_the_edge_list_build(self):
        rng = random.Random(2105)
        for g in _corpus():
            for w in (None, random_refinement(rng, canonical_foliage_partition(g))):
                blocks = (w or canonical_foliage_partition(g)).blocks
                reps = [rng.choice(sorted(b)) for b in blocks]
                rng.shuffle(reps)
                fg = foliage_graph(g, w, reps)
                expected = edge_list_quotient(g, fg.partition, fg.representatives)
                assert fg.graph == expected and fg.graph._rows == expected._rows, (g, w, reps)
                assert foliage_graph(g, w).graph == edge_list_quotient(g, fg.partition, [min(b) for b in blocks])

    @pytest.mark.parametrize("blocks, reps, message", [
        ([{True}, {2}, {3}, {4}], None, "unknown vertex label True"),
        ([{1}, {2.0}, {3}, {4}], None, "unknown vertex label 2.0"),  # once TypeError
        ([{1}, {2}, {3}, {4}], [True, 2, 3, 4], "unknown vertex label True"),  # once ValueError, from ``Graph``
        ([{1}, {2}, {3}, {4}], [1, 2.0, 3, 4], "unknown vertex label 2.0"),
    ], ids=["bool-member", "float-member", "bool-representative", "float-representative"])
    def test_quotient_labels_are_checked(self, blocks, reps, message):
        # the rows are wrapped unchecked, so a label equal to an alive one but not an
        # ``int`` is refused on the way: a member by ``Partition``, a representative by ``block_of``
        with pytest.raises(UnknownVertexError) as caught:
            foliage_graph(path_graph(4), Partition(blocks), reps)
        assert type(caught.value) is UnknownVertexError and str(caught.value) == message


class TestFoliageGraph:
    def test_eight_vertex_example_quotient(self):
        fg = foliage_graph(fig4a())
        assert fg.representatives == (1, 4, 6, 7)
        assert fg.graph.edges() == ((1, 4), (4, 6))

    def test_second_level_quotient(self):
        fg = nth_foliage_graph(fig4a(), 2)
        assert fg.partition == Partition([{1, 2, 3, 4, 5, 6}, {7, 8}])
        assert fg.graph.edges() == ()

    def test_wrong_number_of_representatives_raises(self):
        with pytest.raises(ValueError, match="^expected 4 representatives, got 3$"):
            foliage_graph(fig4a(), reps=[1, 4, 6])

    def test_depth_below_one_raises(self):
        with pytest.raises(ValueError, match="^depth must be >= 1, got 0$"):
            nth_foliage_graph(fig4a(), 0)

    @pytest.mark.parametrize("depth", [True, 2.0, "2"])
    def test_depth_must_be_an_int(self, depth):
        # ``True`` once ran as depth 1, and ``2.0`` raised TypeError from ``range``
        with pytest.raises(ValueError, match=f"^depth must be an integer, got {depth!r}$"):
            nth_foliage_graph(fig4a(), depth)

    def test_first_level_is_the_quotient(self, rng):
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 10), rng.choice([0.2, 0.5, 0.8]))
            assert nth_foliage_graph(g, 1) == foliage_graph(g)

    def test_all_singleton_partition_is_identity(self):
        g = fig4a()
        fg = foliage_graph(g, singletons(g))
        assert fg.graph == g

    def test_custom_representatives(self):
        fg = foliage_graph(fig4a(), reps=[2, 5, 6, 8])
        assert fg.graph.edges() == ((2, 5), (5, 6))

    def test_representative_outside_block_rejected(self):
        with pytest.raises(ValueError):
            foliage_graph(fig4a(), reps=[2, 5, 6, 6])

    def test_quotients_isomorphic_across_representative_choices(self):
        g = fig4a()
        low = foliage_graph(g, reps=[1, 4, 6, 7])
        high = foliage_graph(g, reps=[3, 5, 6, 8])
        relabel = dict(zip(low.representatives, high.representatives))
        mapped = {(min(relabel[a], relabel[b]), max(relabel[a], relabel[b])) for a, b in low.graph.edges()}
        assert mapped == set(high.graph.edges())


def edge_count_shape(g, members):
    """``classify_block`` by the count of edges inside, as it was before it tested the
    relation; None for a set with some but not all edges inside."""
    if len(members) == 1:
        return BlockShape.SINGLETON
    if _star_centers(g, members):
        return BlockShape.STAR
    inside = sum(g.has_edge(v, w) for v, w in combinations(members, 2))
    if inside == len(members) * (len(members) - 1) // 2:
        return BlockShape.CLIQUE
    return BlockShape.ANTICLIQUE if inside == 0 else None


class TestClassifyBlock:
    def test_star_block(self):
        assert classify_block(fig4a(), {1, 2, 3}) is BlockShape.STAR
        assert _star_centers(fig4a(), [1, 2, 3]) == [3]

    def test_singleton_block(self):
        assert classify_block(fig4a(), {6}) is BlockShape.SINGLETON

    def test_clique_block(self):
        assert classify_block(fig4a(), {4, 5}) is BlockShape.CLIQUE

    def test_mutual_pair_reports_star(self):
        assert classify_block(fig4a(), {7, 8}) is BlockShape.STAR

    def test_anticlique_block(self):
        g = star(1, [2, 3])
        assert classify_block(g, {2, 3}) is BlockShape.ANTICLIQUE

    def test_invalid_block_raises(self):
        with pytest.raises(ValueError):
            classify_block(path_graph(4), {1, 2, 3})

    @pytest.mark.parametrize("block", [[2, 4], [1, 3], [1, 4], [1, 5]], ids=["2-4", "1-3", "1-4", "1-5"])
    def test_inequivalent_independent_set_raises(self, block):
        # no edge inside once read as an anticlique, though the two are not twins
        with pytest.raises(ValueError, match=r"^block \[\d, \d\] is not a valid foliage class shape$"):
            classify_block(path_graph(5), block)

    def test_every_subset_of_a_class_keeps_its_edge_count_shape(self):
        seen = set()
        for n in range(1, 6):
            for g in all_graphs(n):
                for block in canonical_foliage_partition(g).blocks:
                    for size in range(1, len(block) + 1):
                        for members in combinations(sorted(block), size):
                            shape = edge_count_shape(g, list(members))
                            assert shape is not None and classify_block(g, members) is shape, (g, members)
                            seen.add(shape)
        assert seen == set(BlockShape)

    def test_empty_block_raises(self):
        # an empty member list passes every shape test vacuously; it is refused as ``Partition`` refuses it
        with pytest.raises(InvalidPartitionError, match="^empty block$"):
            classify_block(path_graph(4), [])


class TestLiftedLocalComplement:
    def test_eight_vertex_example_at_vertex_3(self):
        g = fig4a()
        w = canonical_foliage_partition(g)
        lifted = lifted_local_complement(g, w, 3)
        direct = local_complement(foliage_graph(g, w).graph, 1)  # block {1,2,3} -> rep 1
        assert lifted.graph == direct

    def test_star_center_with_block_internal_neighbors(self):
        g = star(1, [2, 3, 4])
        w = canonical_foliage_partition(g)
        lifted = lifted_local_complement(g, w, 1)
        assert lifted.graph == foliage_graph(g, w).graph  # single block, nothing to change

    def test_degree_one_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="degree"):
            lifted_local_complement(g, canonical_foliage_partition(g), 1)

    def test_random_triples(self, rng):
        done = 0
        while done < 60:
            g = random_graph(rng, rng.randint(2, 8))
            w = random_refinement(rng, canonical_foliage_partition(g))
            verts = [v for v in g.vertices if g.degree(v) > 1]
            if not verts:
                continue
            a = rng.choice(verts)
            lifted = lifted_local_complement(g, w, a)
            rep = lifted.representatives[w.blocks.index(w.block_of(a))]
            assert lifted.graph == local_complement(foliage_graph(g, w).graph, rep)
            done += 1


class TestTransitivityCases:
    """The six pairwise combinations behind transitivity of the equivalence."""

    def test_twin_twin_yields_twin(self):
        g = star(1, [2, 3, 4])
        assert foliage_equivalent(g, 2, 3) and foliage_equivalent(g, 3, 4)
        assert foliage_equivalent(g, 2, 4)
        k = complete_graph(4)
        assert foliage_equivalent(k, 1, 2) and foliage_equivalent(k, 2, 3)
        assert foliage_equivalent(k, 1, 3)

    def test_twin_with_leaf_of_axil_yields_leaf(self):
        g = star(1, [2, 3])
        # 2 and 3 twins, 3 a leaf of 1, hence 2 a leaf of 1
        assert frozenset({2, 3}) in twins(g)
        assert (3, 1) in leaves_axils(g)
        assert (2, 1) in leaves_axils(g)
        assert foliage_equivalent(g, 2, 1)

    def test_two_leaves_sharing_axil_are_twins(self):
        g = star(1, [2, 3])
        assert (2, 1) in leaves_axils(g) and (3, 1) in leaves_axils(g)
        assert frozenset({2, 3}) in twins(g)

    def test_impossible_combinations_never_occur(self):
        # twin with a leaf hanging off the partner, chained leaf-axils, and
        # one leaf with two axils: no small graph exhibits any of them
        for n in range(2, 6):
            for g in all_graphs(n):
                la = leaves_axils(g)
                tw = twins(g)
                for v, w, u in _distinct_triples(g.vertices):
                    assert not (frozenset({v, w}) in tw and (u, w) in la)
                    assert not ((v, w) in la and (w, u) in la)
                    assert not ((w, v) in la and (w, u) in la)

    def test_relation_transitive_on_random_corpus(self):
        # the partition joins chains of related pairs; transitivity means
        # every pair inside a block is related directly
        rng = random.Random(4242)
        corpus = [random_graph(rng, rng.randint(3, 8)) for _ in range(60)]
        for g in corpus + list(all_graphs(5)):
            for block in canonical_foliage_partition(g):
                for v, w in combinations(sorted(block), 2):
                    assert foliage_equivalent(g, v, w), (g, sorted(block), v, w)


class TestPairRanks:
    def test_table_is_the_cut_rank_and_the_same_on_every_orbit_member(self):
        # the decider answers "not in the orbit" for a leaf whose table
        # differs from the target's: a table that moved along an orbit
        # would turn a "yes" into a wrong "no"
        rng = random.Random(1991)
        sizes, ranks = [], set()
        for _ in range(60):
            n, p = rng.randint(2, 8), rng.choice((0.3, 0.5, 0.7))
            labels = sorted(rng.sample(range(1, 65), n))
            g = Graph(labels, [pair for pair in combinations(labels, 2) if rng.random() < p])
            table = _pair_ranks(g._rows, g.vertices)
            assert table == pair_rank_table(g)
            orbit = lc_orbit(g)
            for member in orbit:
                assert _pair_ranks(member._rows, member.vertices) == table, (g, member)
            sizes.append(len(orbit))
            ranks |= set(table)
        assert ranks == {0, 1, 2} and max(sizes) > 500


def _distinct_triples(vertices):
    for v in vertices:
        for w in vertices:
            for u in vertices:
                if len({v, w, u}) == 3:
                    yield v, w, u


class TestInvarianceCases:
    """Pointwise effect of a local complement on twin and leaf-axil pairs."""

    def test_complement_at_adjacent_twin_makes_leaf_axil(self):
        g = Graph(4, [(1, 2), (1, 3), (2, 3), (1, 4)])  # 2,3 adjacent twins via 1
        assert frozenset({2, 3}) in twins(g)
        image = local_complement(g, 2)
        assert (3, 2) in leaves_axils(image)

    def test_complement_at_nonadjacent_twin_keeps_twins(self):
        g = ring_graph(4)  # 1,3 and 2,4 are non-adjacent twin pairs
        image = local_complement(g, 1)
        assert frozenset({1, 3}) in twins(image)

    def test_complement_at_common_neighbor_toggles_twin_edge(self):
        g = ring_graph(4)
        assert not g.has_edge(1, 3)
        image = local_complement(g, 2)
        assert image.has_edge(1, 3)
        assert frozenset({1, 3}) in twins(image)

    def test_complement_at_leaf_does_nothing(self):
        g = path_graph(3)
        assert local_complement(g, 1) == g

    def test_complement_at_axil_turns_pair_into_twins(self):
        g = path_graph(3)
        image = local_complement(g, 2)
        assert frozenset({1, 2}) in twins(image)

    def test_complement_elsewhere_keeps_leaf_axil(self):
        g = path_graph(4)
        image = local_complement(g, 3)
        assert (1, 2) in leaves_axils(image)
