"""Value-type contract of the four records: Step, Decision, FoliageGraph, BellQuery.

They construct positionally or by keyword with the same defaults and
validation, compare equal only within one class, hash as the tuple of their
fields, print as ``Class(field=value, ...)``, refuse assignment, and survive
copy, deepcopy and pickle. They are not tuples. ``Graph`` and ``Partition``
stand on the same base.
"""

import copy
import pickle

import pytest

from graphmin import BellQuery, Decision, FoliageGraph, Graph, NotATreeError, Partition, Step, path_graph

WITNESS = (Step("measure_z", 5), Step("lc", 2))
QUOTIENT = Graph([1, 3], [(1, 3)])
TREE = path_graph(6)

# (record, its fields in order, the same record built by keyword)
CASES = {
    "step": (Step("measure_x", 3, 4), ("measure_x", 3, 4),
             Step(neighbor=4, vertex=3, op="measure_x")),
    "step-default": (Step("lc", 1), ("lc", 1, None), Step(op="lc", vertex=1)),
    "decision-yes": (Decision("yes", "brute-force", WITNESS), ("yes", "brute-force", WITNESS),
                     Decision(witness=WITNESS, rule="brute-force", answer="yes")),
    "decision-default": (Decision("no", "line-nested"), ("no", "line-nested", None),
                         Decision(rule="line-nested", answer="no")),
    "foliage-graph": (FoliageGraph(Partition([[1, 2], [3]]), (1, 3), QUOTIENT),
                      (Partition([[1, 2], [3]]), (1, 3), QUOTIENT),
                      FoliageGraph(graph=QUOTIENT, representatives=(1, 3),
                                   partition=Partition([[3], [1, 2]]))),
    "bell-line": (BellQuery("line", (1, 2), (4, 6), 6), ("line", (1, 2), (4, 6), 6, None),
                  BellQuery("line", pair_b=(4, 6), pair_a=(1, 2), size=6)),
    "bell-tree": (BellQuery("tree", (1, 2), (4, 6), None, TREE), ("tree", (1, 2), (4, 6), None, TREE),
                  BellQuery(tree=TREE, topology="tree", pair_a=(1, 2), pair_b=(4, 6))),
}
FIELDS = {Step: ("op", "vertex", "neighbor"), Decision: ("answer", "rule", "witness"),
          FoliageGraph: ("partition", "representatives", "graph"),
          BellQuery: ("topology", "pair_a", "pair_b", "size", "tree")}
# records of plain values; those holding a Graph or a Partition are below
DEEP = ("step", "step-default", "decision-yes", "decision-default", "bell-line")

params = pytest.mark.parametrize("case", list(CASES))


def fields_of(record):
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


@params
def test_fields_keywords_and_defaults(case):
    record, fields, by_keyword = CASES[case]
    assert fields_of(record) == fields
    assert record == by_keyword and hash(record) == hash(by_keyword)
    assert type(record).__match_args__ == FIELDS[type(record)]


@params
def test_equality_only_within_one_class(case):
    record, fields, _ = CASES[case]

    class Sub(type(record)):
        pass

    assert record == type(record)(*fields)
    assert record != fields and fields != record
    assert record != Sub(*fields) and Sub(*fields) != record
    assert not isinstance(record, tuple)
    others = [r for r, _, _ in CASES.values() if type(r) is not type(record)]
    assert all(record != other for other in others)


@params
def test_hash_is_the_hash_of_the_fields(case):
    record, fields, _ = CASES[case]
    assert hash(record) == hash(fields)


def test_set_and_dict_order_follow_the_field_hash():
    steps = [Step("lc", v) for v in (9, 3, 7, 1, 5)] + [Step("measure_x", 4, 2)]
    assert list(set(steps)) == [Step(*t) for t in set((s.op, s.vertex, s.neighbor) for s in steps)]


def test_repr():
    assert repr(Step("measure_x", 3, 4)) == "Step(op='measure_x', vertex=3, neighbor=4)"
    assert repr(Step("lc", 1)) == "Step(op='lc', vertex=1, neighbor=None)"
    assert repr(Decision("yes", "r", (Step("lc", 2),))) == \
        "Decision(answer='yes', rule='r', witness=(Step(op='lc', vertex=2, neighbor=None),))"
    assert repr(CASES["foliage-graph"][0]) == \
        "FoliageGraph(partition=Partition({1,2}, {3}), representatives=(1, 3), graph=Graph([1, 3], [(1, 3)]))"
    assert repr(CASES["bell-line"][0]) == \
        "BellQuery(topology='line', pair_a=(1, 2), pair_b=(4, 6), size=6, tree=None)"


@params
def test_match_statement(case):
    record, fields, _ = CASES[case]
    match record:
        case Step(op, vertex, neighbor):
            assert (op, vertex, neighbor) == fields
        case Decision(answer, rule, witness):
            assert (answer, rule, witness) == fields
        case FoliageGraph(partition, reps, graph):
            assert (partition, reps, graph) == fields
        case BellQuery(topology, pair_a, pair_b, size, tree):
            assert (topology, pair_a, pair_b, size, tree) == fields
        case _:
            pytest.fail(f"{record!r} matched no record pattern")


@params
def test_assignment_raises_attribute_error(case):
    record, fields, _ = CASES[case]
    for name in FIELDS[type(record)]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert fields_of(record) == fields


@params
def test_copy_deepcopy_pickle(case):
    record, _, _ = CASES[case]
    copies = [copy.copy(record)]
    if case in DEEP:
        copies += [copy.deepcopy(record), pickle.loads(pickle.dumps(record))]
    for clone in copies:
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record) and repr(clone) == repr(record)
        with pytest.raises(AttributeError):
            clone.extra = 1


@pytest.mark.parametrize("value", [path_graph(4), Graph([2, 5, 9], [(2, 9)]), Partition([[3], [1, 2]]),
                                   CASES["foliage-graph"][0], CASES["bell-tree"][0]],
                         ids=["graph", "graph-with-gaps", "partition", "foliage-graph", "bell-tree"])
def test_graphs_and_partitions_copy_deeply_and_pickle(value):
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value and hash(clone) == hash(value)
        assert repr(clone) == repr(value)


@pytest.mark.parametrize("value", [path_graph(3), Partition([[1, 2]])], ids=["graph", "partition"])
def test_graph_and_partition_refuse_assignment_and_deletion(value):
    for name in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, ())
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == copy.copy(value)


def test_graph_equals_only_a_graph():
    class Sub(Graph):
        pass

    g = Graph([1, 2], [(1, 2)])
    assert g != Sub([1, 2], [(1, 2)]) and Sub([1, 2], [(1, 2)]) != g
    assert Sub([1, 2], [(1, 2)]) == Sub([1, 2], [(1, 2)])


def test_partition_matches_on_its_one_field():
    p = Partition([[3], [1, 2]])
    assert Partition.__match_args__ == ("blocks",)
    match p:
        case Partition(blocks):
            assert blocks == (frozenset({1, 2}), frozenset({3}))
        case _:
            pytest.fail(f"{p!r} matched no Partition pattern")


def test_bell_query_holds_its_pairs_as_tuples():
    from_lists, from_tuples = BellQuery("line", [1, 2], [4, 5], size=6), BellQuery("line", (1, 2), (4, 5), size=6)
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    assert repr(from_lists) == "BellQuery(topology='line', pair_a=(1, 2), pair_b=(4, 5), size=6, tree=None)"


@pytest.mark.parametrize("build, error, message", [
    (lambda: Step("swap", 1), ValueError, "unknown op kind 'swap'"),
    (lambda: Step("lc", 1, 2), ValueError, "lc takes no neighbor"),
    (lambda: Step(op="measure_z", vertex=1, neighbor=2), ValueError, "measure_z takes no neighbor"),
    (lambda: Decision("yes", "r"), ValueError, "witness present iff the answer is yes"),
    (lambda: Decision("no", "r", ()), ValueError, "witness present iff the answer is yes"),
    (lambda: BellQuery("star", (1, 2), (3, 4), 6), ValueError, "unknown topology 'star'"),
    (lambda: BellQuery("tree", (1, 2), (3, 4)), ValueError, "tree topology needs a graph"),
    (lambda: BellQuery("tree", (1, 2), (3, 4), tree=Graph(4)), NotATreeError, "wrong edge count"),
    (lambda: BellQuery("line", (1, 2), (3, 4)), ValueError, "line topology needs a size"),
    (lambda: BellQuery("ring", (1, 2), (3, 4), 3), ValueError, "ring queries need n >= 4, got 3"),
    (lambda: BellQuery("line", (1, 2), (3, 4), 65), ValueError, "line queries need n <= 64, got 65"),
    (lambda: BellQuery("line", (1, 2), (2, 4), 6), ValueError, "the four endpoints must be distinct"),
    (lambda: BellQuery("line", (1, 2), (3, 9), 6), ValueError, r"endpoints \[9\] outside the graph"),
])
def test_validation_messages(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_missing_field_is_a_type_error():
    for build in (lambda: Step("lc"), lambda: Decision("no"), lambda: FoliageGraph(Partition([[1]]), (1,)),
                  lambda: BellQuery("line", (1, 2))):
        with pytest.raises(TypeError):
            build()
