"""graph-core: parsing, distances, classification, predicates, layers.

Two checks run as a script over any plain edge-list files, as
`serialize_graph` writes them. The parse's three routes:

    PYTHONPATH=src python tests/test_graph.py FILE...

Each file is read whole with no sort, its copy with the edge lines
reversed is read whole and sorted once, and its copy behind a comment line
goes line by line (see `check_routes`). It prints the number of files and
exits 0 when the three give one graph for each; the first that does not
stops it with the file.

Every Dijkstra call of a solve against the heap reference:

    PYTHONPATH=src python tests/test_graph.py --dijkstra FILE...

Each file is solved with `dijkstra` wrapped under each name the program
calls it by, so that every call is replayed through `heap_dijkstra` (see
`replayed_dijkstra`). It prints the number of graphs and calls and exits 0
when every call matches; the first that does not stops it with the file.
"""
from __future__ import annotations

import ast
import contextlib
import dataclasses
import importlib
import json
import operator
import random
import re
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType, ModuleType
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    TRIANGLE,
    bead_graph,
    bellman_ford_from,
    build_graph,
    fresh_distances,
    heap_dijkstra,
    relabelled,
    skip_edge_graph,
    skip_path_graph,
    sorted_rows_index,
    sum_rule_off,
)
from nextpath import graph
from nextpath import (
    GraphFormatError,
    InternalInvariantError,
    InvalidPathError,
    WeightedDigraph,
    format_weight,
    is_layered,
    is_straight,
    layered_digraph,
    layerize,
    parse_graph,
    path_weight,
    random_digraph,
    serialize_graph,
    shortest_distances,
    shortest_path_avoiding,
    solve,
    straighten,
    validate_path,
)
from nextpath.graph import MAX_ACCUMULATOR, dijkstra, edge_slack
from nextpath.oracle import simple_paths
from nextpath.solver import _LayeredSearch, _layering


# --- parsing ---------------------------------------------------------------


def test_parse_triangle():
    g = parse_graph(TRIANGLE)
    assert g.vertex_count == 3 and g.s == 0 and g.t == 2
    assert g.edges == {(0, 1): 1, (1, 2): 1, (0, 2): 1}
    assert g.scale == 0


def test_parse_accepts_comments_blank_lines_and_bytes():
    text = "# header\n\n3 1 0 2  # inline\n\n0 1 1\n"
    g = parse_graph(text.encode())
    assert g.edges == {(0, 1): 1}


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("2 1 0 1\n0 1 0\n", 2, "non-positive"),
        ("2 2 0 1\n0 1 1\n0 1 2\n", 3, "duplicate edge"),
        ("2 1 0 1\n0 0 1\n", 2, "self-loop"),
        ("2 1 0 1\n0 7 1\n", 2, "out of range"),
        ("2 1 1 1\n0 1 1\n", 1, "must differ"),
        ("2 1 0 1\nnope\n", 2, "edge line"),
        ("1 0 0 0\n", 1, "two vertices"),
        ("2 1 0 1\n0 1 1.1234567891\n", 2, "fractional"),
        ("2 1 0 1\n0 1 9999999999999999999\n", 2, "overflow"),
        ("1_1 2 0 2\n0 1 1\n1 2 1\n", 1, "non-integer header"),
        ("3 2 0 +2\n0 1 1\n1 2 1\n", 1, "non-integer header"),
        ("2 1 0 1\n+0 1 1\n", 2, "non-integer vertex id"),
        ("2 1 0 1\n0 1 \u0661\n", 2, "positive decimal"),
        ("3 2 0 2\n0 1 1\x0c\n1 2 0\n", 3, "non-positive"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert err.value.line == line
    assert fragment in str(err.value)


# A weight longer than the 4,300 digits that int() converts from a string.
_HUGE = "9" * 5000


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("3 3 0 2\n0 1 1\n0 1 1\n1 2 x\n", 4, "positive decimal"),
        ("3 3 0 2\n0 1 1\n0 1 1\n", None, "header declares 3 edges, found 2"),
        ("3 1 0 2\n0 1 1\n0 1 2\n", None, "header declares 1 edges, found 2"),
        ("3 3 0 2\n0 1 1\n0 1 1\n1 2 9999999999999999999\n", 3, "duplicate edge"),
        ("3 4 0 2\n0 1 1\n1 2 1\n1 2 2\n0 1 2\n", 4, "duplicate edge (1, 2)"),
        ("3 2 0 2\n0 1 9999999999999999999\n1 2 9999999999999999999\n", 2, "overflow"),
        ("3 2 0 2\n0 1 0.5\n1 2 999999999999999999\n", 3, "overflow"),
        ("3 2 0 2\n0 1 999999999999999999.1\n1 2 999999999999999999.5\n", 3, "overflow"),
        ("2 1 0 1\n0 1 461168601842738790.4\n", 2, "overflow"),
        ("2 1 0 1\n-1 1 1\n", 2, "vertex id out of range"),
        pytest.param(f"2 1 0 1\n0 1 {_HUGE}\n", 2, "weight overflow", id="huge-overflow"),
        pytest.param(
            f"3 3 0 2\n0 1 1\n1 2 1\n0 1 {_HUGE}\n", 4, "duplicate edge (0, 1)",
            id="huge-duplicate",
        ),
        pytest.param(f"3 2 0 2\n0 1 {_HUGE}\n1 2 x\n", 3, "positive decimal", id="huge-malformed"),
        pytest.param(
            f"# a comment\n2 1 0 1\n\n0 1 {_HUGE}.5  # heavy\n", 4, "weight overflow",
            id="huge-commented",
        ),
        # Edge lines in (u, v) order, but for the one that repeats or fails.
        ("3 3 0 2\n0 1 1\n0 1 2\n1 2 1\n", 3, "duplicate edge (0, 1)"),
        ("3 3 0 2\n0 1 1\n1 2 1\n1 2 1\n", 4, "duplicate edge (1, 2)"),
        ("3 4 0 2\n0 1 1\n0 2 1\n0 2 3\n1 2 1\n", 4, "duplicate edge (0, 2)"),
        ("3 3 0 2\n0 1 9999999999999999999\n1 2 1\n1 2 1\n", 4, "duplicate edge (1, 2)"),
        ("3 2 0 2\n0 1 1\n1 2 9999999999999999999\n", 3, "weight overflow"),
        ("3 3 0 2\n0 1 9999999999999999999\n0 2 1\n1 2 9999999999999999999\n", 2, "overflow"),
        ("3 2 0 2\n0 1 1\n1 3 1\n", 3, "vertex id out of range 0..2"),
        ("3 3 0 2\n0 1 1\n1 1 1\n1 2 1\n1 2 1\n", 3, "self-loop at vertex 1"),
        # The edge count is off, and a line fails a check that the whole-text
        # pass makes only once the index builder has refused the list: a
        # self-loop, a tail past the last row on the last line, where the
        # builder's row lookup fails; or one it makes before: a head >= n.
        ("3 3 0 2\n0 1 1\n1 1 1\n", 3, "self-loop at vertex 1"),
        ("3 2 0 2\n0 1 1\n1 2 1\n3 0 1\n", 4, "vertex id out of range 0..2"),
        ("3 1 0 2\n0 1 1\n1 3 1\n", 3, "vertex id out of range 0..2"),
    ],
)
def test_parse_error_precedence(text, line, fragment):
    """A malformed line beats the edge count, which beats a duplicate, which
    beats an overflow; an overflow names the first line with the largest
    scaled weight, however many digits it has. Edge lines in (u, v) order
    raise the same. A trailing comment, which sends a plain text line by
    line, moves no line number."""
    for variant in (text, text + "# end\n"):
        with pytest.raises(GraphFormatError) as err:
            parse_graph(variant)
        assert err.value.line == line
        assert fragment in str(err.value)


def test_parse_reads_minus_zero_as_zero():
    assert parse_graph("2 1 0 1\n-0 1 1\n").edges == {(0, 1): 1}


def test_parse_ends_lines_only_at_lf_crlf_and_cr():
    g = parse_graph("3 2 0 2\n0 1 1 # a\u2028b\n1 2 1\n")
    assert g.edges == {(0, 1): 1, (1, 2): 1}
    assert parse_graph("3 2 0 2\r0 1 1\r1 2 1\r") == g
    assert parse_graph("3 2 0 2\r\n0 1 1\r\n1 2 1\r\n") == g


def test_parse_edge_count_mismatch():
    with pytest.raises(GraphFormatError, match="declares 2 edges"):
        parse_graph("3 2 0 2\n0 1 1\n")


def test_decimal_weights_share_one_global_scale():
    g = parse_graph("3 2 0 2\n0 1 2.5\n1 2 3\n")
    assert g.scale == 1
    assert g.edges == {(0, 1): 25, (1, 2): 30}
    # trailing zeros do not inflate the scale
    g2 = parse_graph("2 1 0 1\n0 1 0.50\n")
    assert g2.scale == 1 and g2.edges[(0, 1)] == 5
    # the largest weight a 2-vertex graph accepts: 2 * w <= 2**63 - 1
    g3 = parse_graph("2 1 0 1\n0 1 461168601842738790.3\n")
    assert g3.edges[(0, 1)] == 4611686018427387903


def test_serialize_round_trip():
    for text in (TRIANGLE, "3 2 0 2\n0 1 2.5\n1 2 3\n"):
        g = parse_graph(text)
        assert parse_graph(serialize_graph(g)) == g
    for seed in range(5):
        g = random_digraph(6, 0.5, 4, seed)
        assert parse_graph(serialize_graph(g)) == g


_DECIMALS = st.one_of(
    st.integers(1, 10**6).map(str),
    st.tuples(st.integers(0, 10**6), st.text("0123456789", min_size=1, max_size=9))
    .filter(lambda p: p[0] or p[1].strip("0"))
    .map(lambda p: f"{p[0]}.{p[1]}"),
)


@st.composite
def edge_list_texts(draw):
    n = draw(st.integers(2, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.dictionaries(pairs, _DECIMALS, max_size=12))
    lines = [f"{n} {len(edges)} 0 {n - 1}"] + [f"{u} {v} {w}" for (u, v), w in edges.items()]
    return "\n".join(lines) + "\n", edges


@settings(derandomize=True, database=None)
@given(edge_list_texts())
def test_parse_serialize_round_trip(drawn):
    text, weights = drawn
    g = parse_graph(text)
    for (u, v), w in weights.items():
        assert Decimal(g.edges[(u, v)]).scaleb(-g.scale) == Decimal(w)
    out = serialize_graph(g)
    assert parse_graph(out) == g
    assert serialize_graph(parse_graph(out)) == out


# Each sends a plain edge list to the line loop: a line fails its check, a
# weight is too long for int(), or the text leaves the plain format.
_LINE_FALLBACKS = {"id >= n", "self-loop", "weight 0", "huge weight", "no final newline", "CR LF"}
# The rest fail a check of the whole list, which the whole-text pass raises.
_FALLBACKS = (*sorted(_LINE_FALLBACKS), "duplicate edge", "count off by one", "overflow")


@st.composite
def plain_texts(draw):
    """A plain edge list whose integers may carry leading zeros, with a
    drawn set of fallbacks injected; (text, fallbacks)."""
    n = draw(st.integers(2, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.dictionaries(pairs, st.integers(1, 10**6), max_size=10))
    lines = [[u, v, w] for (u, v), w in edges.items()]
    fallbacks = draw(st.sets(st.sampled_from(_FALLBACKS)))
    vertex = st.integers(0, n - 1)

    def insert(u, v, w):
        lines.insert(draw(st.integers(0, len(lines))), [u, v, w])

    if "duplicate edge" in fallbacks:
        if not lines:
            insert(0, 1, 1)
        u, v, _ = draw(st.sampled_from(lines))
        insert(u, v, draw(st.integers(1, 9)))
    if "id >= n" in fallbacks:
        insert(*draw(st.permutations([draw(vertex), draw(st.integers(n, n + 3))])), 1)
    if "self-loop" in fallbacks:
        u = draw(vertex)
        insert(u, u, 1)
    if "weight 0" in fallbacks:
        insert(0, 1, 0)
    if "overflow" in fallbacks:
        insert(1, 0, MAX_ACCUMULATOR // n + draw(st.integers(1, 10**6)))
    if "huge weight" in fallbacks:
        insert(0, 1, draw(st.sampled_from("123456789")) * draw(st.integers(4301, 5000)))
    m = len(lines)
    if "count off by one" in fallbacks:
        m += draw(st.sampled_from((-1, 1))) if m else 1
    rows = [[n, m, 0, n - 1]] + lines
    zeros = st.text("0", max_size=2)
    text = "".join(" ".join(draw(zeros) + str(x) for x in row) + "\n" for row in rows)
    if "no final newline" in fallbacks:
        text = text[:-1]
    if "CR LF" in fallbacks:
        text = text.replace("\n", "\r\n")
    return text, fallbacks


_LEADING_ZERO = re.compile(r"(?<![0-9])0[0-9]")


def parse_outcome(text):
    """The graph that `parse_graph` reads, or the line and message it raises."""
    try:
        return parse_graph(text)
    except GraphFormatError as err:
        return err.line, str(err)


@settings(derandomize=True, database=None, max_examples=400)
@given(plain_texts())
def test_the_whole_text_path_reads_like_the_line_loop(drawn):
    """A plain text whose lines pass their checks is read whole, and raises
    the line loop's error if the whole list fails one; any other text goes
    to the line loop, and so does one with a leading zero, which the JSON
    decode rejects. A trailing comment sends the reference to the line loop
    without moving a line number."""
    text, fallbacks = drawn
    reference = text + "# end\n"
    assert graph._parse_plain(reference) is None
    if fallbacks & _LINE_FALLBACKS or _LEADING_ZERO.search(text):
        assert graph._parse_plain(text) is None
    elif fallbacks:
        with pytest.raises(GraphFormatError) as err:
            graph._parse_plain(text)
        assert (err.value.line, str(err.value)) == parse_outcome(reference)
    else:
        assert graph._parse_plain(text) is not None
    assert parse_outcome(text) == parse_outcome(reference)
    if not fallbacks - {"no final newline", "CR LF"}:
        assert_built_as_public(parse_graph(text))
        assert_built_as_public(parse_graph(reference))


# The plain-text check before the digit-dropping one, kept as the reference:
# a full match of this regex, then the same JSON decode and column checks.
_REGEX_PLAIN = re.compile(r"[0-9]+ [0-9]+ [0-9]+ [0-9]+\n(?:[0-9]+ [0-9]+ [0-9]+\n)*")


def regex_parse_plain(text):
    """`graph._parse_plain` with its shape proved by `_REGEX_PLAIN`."""
    if not _REGEX_PLAIN.fullmatch(text):
        return None
    try:
        vals = json.loads("[" + text[:-1].translate(str.maketrans(" \n", ",,")) + "]")
    except ValueError:
        return None
    n, m, s, t = vals[:4]
    us, vs, ws = vals[4::3], vals[5::3], vals[6::3]
    if not (
        s < n and t < n and s != t
        and max(us, default=0) < n and max(vs, default=0) < n and min(ws, default=1) > 0
        and all(map(operator.ne, us, vs))
    ):
        return None
    return graph._edge_list(n, m, s, t, us, vs, ws, 0, range(2, m + 2))


def outcome_of(parse, text):
    """What `parse` returns on `text`, or the line and message it raises."""
    try:
        return parse(text)
    except GraphFormatError as err:
        return err.line, str(err)


# What a one-character edit of a plain text inserts or swaps in: the digits,
# the separators the line loop accepts, a sign, a decimal point, a comment
# and a non-ASCII digit.
_EDIT_CHARS = "0123456789 \n\r\t-.#\u0663"


def edited_texts(text, rng, count):
    """`count` one-character edits of `text`, each an insert, a delete or a
    swap of one character for one of `_EDIT_CHARS`, drawn from `rng`; every
    edit when `count` is None."""
    edits = [(k, k, c) for k in range(len(text) + 1) for c in _EDIT_CHARS]
    edits += [(k, k + 1, "") for k in range(len(text))]
    edits += [(k, k + 1, c) for k in range(len(text)) for c in _EDIT_CHARS if c != text[k]]
    if count is not None:
        edits = rng.sample(edits, min(count, len(edits)))
    return [text[:i] + c + text[j:] for i, j, c in edits]


def test_the_shape_check_takes_what_the_regex_took():
    """The whole-text parse proves a plain text's shape by dropping its
    digits, where it matched a regex: on valid serializations, on one-
    character edits of them and on empty, header-only and unterminated
    texts it returns what it did under the regex, and `parse_graph` gives
    the same graph or error."""
    rng = random.Random("shape")
    bases = [TRIANGLE, "2 0 0 1\n", "12 1 10 11\n10 11 100\n"]
    bases += [serialize_graph(random_digraph(n, 0.3, 200, n)) for n in range(2, 14)]
    bases += [serialize_graph(layered_digraph(5, 3, 4, seed)) for seed in range(3)]
    # Unterminated: a text whose digits after its last line feed, read as
    # one more token, would still decode and pass the column checks.
    texts = ["", "2 0 0 1", TRIANGLE[:-1], TRIANGLE + "10", "2 1 0 1\n0 1 1\n11"]
    for k, base in enumerate(bases):
        texts += [base] + edited_texts(base, rng, None if k < 3 else 150)
    read = 0
    for text in texts:
        expected = outcome_of(regex_parse_plain, text)
        got = outcome_of(graph._parse_plain, text)
        assert got == expected
        read += got is not None
        reference = outcome_of(lambda t: regex_parse_plain(t) or graph._parse_lines(t), text)
        assert outcome_of(parse_graph, text) == reference
    assert len(texts) > 4000 and 500 < read < len(texts) - 2000


def assert_built_as_public(g):
    """`g`, which `_edge_list` built without `__init__`, is the graph
    the public constructor builds from its fields, in every derived view;
    its `into`, derived on first read, is the reference's."""
    public = WeightedDigraph(g.vertices, dict(g.edges), g.s, g.t, g.scale)
    assert isinstance(g.edges, MappingProxyType)
    assert g == public and g.edges == public.edges and repr(g) == repr(public)
    reference = sorted_rows_index(g.vertices, g.edges)
    assert g.index == public.index == reference and "into" not in vars(g.index)
    assert g.index.into == reference.into
    assert g.distances == public.distances
    if is_straight(g, g.distances):
        assert g.layering == public.layering


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: layered_digraph(36, 18, 200, seed),
        lambda seed: random_digraph(100, 0.045, 10, seed),
    ],
    ids=["layered-dense", "random-general"],
)
def test_serialized_graphs_take_the_whole_text_path(monkeypatch, make):
    """What `serialize_graph` writes, as every benchmark file is, never
    enters the line loop."""
    line_loop = graph._parse_lines
    calls = []
    monkeypatch.setattr(graph, "_parse_lines", lambda text: calls.append(text) or line_loop(text))
    for seed in range(3):
        g = make(seed)
        text = serialize_graph(g)
        assert parse_graph(text) == g
        assert calls == []
        assert line_loop(text) == g


def test_the_json_decode_routes_every_plain_text(monkeypatch):
    """A leading zero, which JSON rejects, and a token past int()'s 4,300
    digits, which the decode cannot convert, send a plain text to the line
    loop, which gives the graph or the error that the whole-text path would;
    a header with no edge line is read whole."""
    line_loop = graph._parse_lines
    calls = []
    monkeypatch.setattr(graph, "_parse_lines", lambda text: calls.append(text) or line_loop(text))
    assert parse_graph("02 1 0 1\n0 1 5\n") == parse_graph("2 1 0 1\n0 1 5\n")
    assert calls == ["02 1 0 1\n0 1 5\n"]
    huge = "2 1 0 1\n0 1 " + "9" * 4301 + "\n"
    with pytest.raises(GraphFormatError) as err:
        parse_graph(huge)
    assert str(err.value) == "line 2: weight overflow after scaling"
    assert calls[1:] == [huge]
    g = parse_graph("2 0 0 1\n")
    assert calls[2:] == [] and g.edge_count == 0
    assert_built_as_public(g)


@contextlib.contextmanager
def counted_sorts():
    """Yields a list that each call of `sorted` inside `graph` appends to."""
    sorts = []

    def counting(rows):
        sorts.append(1)
        return sorted(rows)

    with mock.patch.object(graph, "sorted", counting, create=True):
        yield sorts


@pytest.mark.parametrize(
    "lines,sorts",
    [
        (["0 1 1", "0 2 1", "1 2 1"], 0),
        (["0 1 1", "1 2 1", "0 2 1"], 1),  # one descending pair
        (["0 2 1", "0 1 1", "1 2 1"], 1),  # equal tails, descending heads
        (["1 2 1", "0 1 1", "0 2 1"], 1),
        (["0 2 1", "1 0 1", "1 2 1"], 0),  # a new tail, on a smaller head
    ],
)
def test_edges_out_of_order_take_one_sort(lines, sorts):
    """`_index` proves the (u, v) order while it buckets the edges: a list
    in strictly increasing order is built as it is, also one whose tail
    steps up onto a smaller head, and any other, also one whose only
    descent is between equal tails, is refused and sorted once."""
    text = f"3 {len(lines)} 0 2\n" + "".join(line + "\n" for line in lines)
    with counted_sorts() as calls:
        g = graph._parse_plain(text)
    assert len(calls) == sorts
    assert g.edges == {(int(u), int(v)): int(w) for u, v, w in map(str.split, lines)}
    assert_built_as_public(g)


def check_routes(text):
    """The graph of a plain edge list, read whole with no sort, is the graph
    of its edge lines reversed, read whole and sorted once when it has two
    or more, and of a copy behind a comment line, read line by line."""
    header, *lines = text.splitlines(keepends=True)
    commented = "# the same graph\n" + text
    with counted_sorts() as calls:
        g = graph._parse_plain(text)
        assert g is not None and calls == [], "not read whole, or sorted"
        assert graph._parse_plain(header + "".join(reversed(lines))) == g, "reversed"
        assert len(calls) == (len(lines) > 1), "reversed copy not sorted once"
    assert graph._parse_plain(commented) is None and parse_graph(commented) == g, "commented"


@pytest.mark.parametrize(
    "g",
    [random_digraph(40, 0.3, 10, 1), layered_digraph(8, 5, 6, 2), random_digraph(3, 0.1, 5, 0)],
    ids=["random", "layered", "edgeless"],
)
def test_every_route_reads_one_graph(g):
    text = serialize_graph(g)
    check_routes(text)
    assert parse_graph(text) == g


@st.composite
def serialized_graphs(draw):
    """A seeded `random_digraph`, up to 40 vertices and dense enough for
    rows of dozens of edges, or `layered_digraph`, and the text that
    `serialize_graph` writes for it; (graph, text)."""
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        n, p = draw(st.integers(2, 40)), draw(st.sampled_from([0.1, 0.3, 0.6, 0.9]))
        g = random_digraph(n, p, 10, seed)
    else:
        layers = draw(st.integers(2, 10))
        g = layered_digraph(layers, draw(st.integers(1, 6)), draw(st.integers(0, layers - 1)), seed)
    return g, serialize_graph(g)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(serialized_graphs(), st.data())
def test_one_swapped_pair_of_edge_lines_takes_one_sort(drawn, data):
    """What `serialize_graph` writes is read whole with no sort. With one
    adjacent pair of its edge lines swapped, the index builder refuses the
    list, which is then sorted once into the same graph."""
    g, text = drawn
    header, *lines = text.splitlines(keepends=True)
    assume(len(lines) >= 2)
    k = data.draw(st.integers(0, len(lines) - 2))
    lines[k : k + 2] = lines[k + 1], lines[k]
    with counted_sorts() as calls:
        assert graph._parse_plain(text) == g and calls == []
        assert graph._parse_plain(header + "".join(lines)) == g and len(calls) == 1


@pytest.mark.parametrize(
    "workload", ["random-general", "layer-skip", "layered-dense", "layered-none"]
)
def test_parsed_graphs_equal_publicly_built_ones(monkeypatch, workload):
    """`_edge_list` trusts the parse checks in place of `__init__`'s;
    on the benchmark's four families the graph it builds is the one the
    public constructor builds."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    build = importlib.import_module("workloads").WORKLOADS[workload].build
    for seed in range(3):
        built = build(seed)
        g = parse_graph(serialize_graph(built))
        assert g == built
        assert_built_as_public(g)


# The four renderings of an edge list: the first two are plain and read in
# one pass, the last two go line by line; "shuffled" and "CR LF with
# comments" list the edges out of (u, v) order.
_RENDERINGS = ("sorted", "shuffled", "CR LF with comments", "decimal")


@st.composite
def rendered_graphs(draw):
    """A generated graph on the ids 0..n-1 and one rendering of its edge
    list; (graph, text). A "decimal" graph has every weight w replaced by
    w + 0.25, which scales to 100 w + 25 at scale 2 (0 with no edge)."""
    kind = draw(st.sampled_from(["layered", "bead", "random", "relabelled"]))
    seed = draw(st.integers(0, 10**6))
    if kind == "layered":
        layers = draw(st.integers(2, 8))
        g = layered_digraph(layers, draw(st.integers(1, 4)), draw(st.integers(0, layers - 1)), seed)
    elif kind == "bead":
        g = bead_graph(draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(0, 3)), seed)
    else:
        g = random_digraph(draw(st.integers(2, 12)), draw(st.sampled_from([0.1, 0.3, 0.5])), 5, seed)
        if kind == "relabelled":
            g = relabelled(g, seed)
    rendering = draw(st.sampled_from(_RENDERINGS))
    if rendering == "decimal":
        edges = {e: 100 * w + 25 for e, w in g.edges.items()}
        g = WeightedDigraph(g.vertices, edges, g.s, g.t, 2 if edges else 0)
    header, *lines = serialize_graph(g).splitlines()
    if rendering in ("shuffled", "CR LF with comments"):
        lines = draw(st.permutations(lines))
    if rendering == "CR LF with comments":
        return g, "".join(f"{x}  # a comment\r\n" for x in ["# first", header, *lines])
    return g, "".join(f"{x}\n" for x in [header, *lines])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(rendered_graphs())
def test_parsed_graphs_equal_publicly_built_ones_in_every_rendering(drawn):
    """Edge lines in any order give the graph its `index` at parse time and
    no `edges`, which it derives on first read, in (u, v) order. The graph
    is the one the public constructor builds."""
    public, text = drawn
    g = parse_graph(text)
    rows = [x.partition("#")[0].split() for x in text.splitlines()]
    edge_lines = [(int(r[0]), int(r[1])) for r in rows if r][1:]
    assert "index" in vars(g) and "edges" not in vars(g)
    assert g == public and list(g.edges) == sorted(edge_lines)
    assert_built_as_public(g)


@st.composite
def mapped_graphs(draw):
    """(vertices, edges, s, t): ids drawn from -5..40, so rarely 0..n-1,
    and an edge map whose insertion order is a drawn permutation."""
    ids = sorted(draw(st.sets(st.integers(-5, 40), min_size=2, max_size=12)))
    s, t = draw(st.permutations(ids))[:2]
    pairs = draw(st.sets(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=40))
    pairs = draw(st.permutations(sorted((u, v) for u, v in pairs if u != v)))
    return frozenset(ids), {e: draw(st.integers(1, 9)) for e in pairs}, s, t


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mapped_graphs())
def test_constructed_graphs_hold_the_index_of_sorted_rows(drawn):
    """The constructor builds `index` at once, with no sort per row, and
    keeps no `edges`; the index is the one a sort of each row gives, and
    `edges`, derived on first read, lists the map in (u, v) order."""
    vertices, edges, s, t = drawn
    g = WeightedDigraph(vertices, edges, s, t)
    assert "index" in vars(g) and "edges" not in vars(g)
    reference = sorted_rows_index(vertices, edges)
    assert g.index == reference and "into" not in vars(g.index)
    assert g.index.into == reference.into
    assert g.edge_count == len(edges) and "edges" not in vars(g)
    copy = g.replace(edges=edges)
    assert copy == g and "edges" not in vars(g) and copy.index.into == reference.into
    assert list(g.edges.items()) == sorted(edges.items())
    assert g == WeightedDigraph(vertices, dict(g.edges), s, t)


def test_equality_compares_the_stored_form():
    """Two graphs are equal when their vertices, terminals, scale and
    index are; comparing them derives no `edges` and no `into`, and hashing
    one raises TypeError without deriving `edges` either."""
    text = serialize_graph(layered_digraph(6, 3, 4, 0))
    g, h = parse_graph(text), parse_graph(text)
    assert g == h and not g != h and g.index == h.index
    assert all("edges" not in vars(x) and "into" not in vars(x.index) for x in (g, h))
    with pytest.raises(TypeError):
        hash(g)
    assert "edges" not in vars(g)
    edges = dict(g.edges)
    (u, v), w = next(iter(edges.items()))
    other = set(g.vertices) - {g.s, g.t}
    for changed in (
        WeightedDigraph(g.vertices, {**edges, (u, v): w + 1}, g.s, g.t),
        WeightedDigraph(g.vertices, {e: x for e, x in edges.items() if e != (u, v)}, g.s, g.t),
        WeightedDigraph(g.vertices | {max(g.vertices) + 1}, edges, g.s, g.t),
        WeightedDigraph(g.vertices, edges, min(other), g.t),
        WeightedDigraph(g.vertices, edges, g.s, g.t, 1),
    ):
        assert g != changed and changed != g
    assert g != (g.vertices, g.s, g.t, g.scale, g.index)


@pytest.mark.parametrize(
    "edges",
    [
        {(0, 1): 0.1, (1, 2): 0.2, (0, 2): 0.3},
        {(0, 1): Decimal("0.1"), (1, 2): Decimal("0.2"), (0, 2): Decimal("0.3")},
        {(0, 1): Fraction(1, 10), (1, 2): Fraction(2, 10), (0, 2): Fraction(3, 10)},
        {(0, 1): True, (1, 2): True, (0, 2): 2},
        {(0, 1): 1.0, (1, 2): 1, (0, 2): 2},
    ],
    ids=["float", "Decimal", "Fraction", "bool", "integral float"],
)
def test_constructor_rejects_weights_that_are_not_ints(edges):
    """With float weights 0.1 + 0.2 would outweigh 0.3, and (0, 1, 2) would
    pass for the triangle's next-to-shortest path; the exact answer, which
    the parse's scaled integers give, is NONE. A weight whose type is not
    `int` is refused, with its edge named."""
    with pytest.raises(ValueError, match=r"^non-integer weight on edge \(0, 1\)$"):
        WeightedDigraph(frozenset(range(3)), edges, 0, 2)
    assert not solve(parse_graph("3 3 0 2\n0 1 0.1\n1 2 0.2\n0 2 0.3\n")).found


def test_format_weight():
    assert format_weight(2, 0) == "2"
    assert format_weight(25, 1) == "2.5"
    assert format_weight(30, 1) == "3"
    assert format_weight(5, 2) == "0.05"


def test_graph_invariants_enforced():
    with pytest.raises(ValueError, match="self-loop"):
        build_graph(3, {(0, 0): 1})
    with pytest.raises(ValueError, match="non-positive"):
        build_graph(3, {(0, 1): 0})
    with pytest.raises(ValueError, match="non-positive"):
        build_graph(3, {(0, 1): 1, (1, 2): -2})
    with pytest.raises(ValueError, match="leaves the vertex set"):
        build_graph(3, {(0, 1): 1, (1, 3): 1})
    with pytest.raises(ValueError, match="leaves the vertex set"):
        build_graph(3, {(-1, 2): 1})
    with pytest.raises(ValueError, match="must be graph vertices"):
        WeightedDigraph(frozenset({0, 1}), {}, 0, 2)
    with pytest.raises(ValueError):
        WeightedDigraph(frozenset({0, 1}), {}, 0, 0)


@pytest.mark.parametrize("scale", [-1, 1.5, True, "1", None])
def test_the_constructor_rejects_a_scale_that_is_not_a_non_negative_int(scale):
    """A negative scale would serialize weights that `parse_graph` rejects,
    and a float one would make `serialize_graph` raise a TypeError."""
    with pytest.raises(ValueError, match="scale must be a non-negative integer"):
        WeightedDigraph(frozenset({0, 1, 2}), {(0, 1): 1, (1, 2): 1, (0, 2): 3}, 0, 2, scale)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(2, 14), st.floats(0.1, 0.6), st.integers(0, 10**6))
def test_any_iterable_of_vertices_builds_the_same_graph(n, p, seed):
    """The constructor reads the vertices it is given once, so a set,
    list, tuple, range or generator builds the graph that a frozenset
    does, and `solve` gives the same answer on each."""
    edges = dict(random_digraph(n, p, 5, seed).edges)
    reference = WeightedDigraph(frozenset(range(n)), edges, 0, n - 1)
    collections = [set(range(n)), list(range(n)), tuple(range(n)), range(n), (v for v in range(n))]
    for vertices in collections:
        g = WeightedDigraph(vertices, edges, 0, n - 1)
        assert type(g.vertices) is frozenset
        assert g == reference and solve(g) == solve(reference)


def test_changing_the_callers_vertex_set_leaves_the_graph_as_it_was():
    vertices = {0, 1, 2}
    g = WeightedDigraph(vertices, {(0, 1): 1, (1, 2): 1, (0, 2): 3}, 0, 2)
    text = serialize_graph(g)
    vertices.add(3)
    assert g.vertex_count == 3 and serialize_graph(g) == text == "3 3 0 2\n0 1 1\n0 2 3\n1 2 1\n"
    assert g == parse_graph(text)
    assert validate_path(g, (0, 1, 2)).weight == 2


def test_the_private_constructor_builds_a_graph_complete():
    """`_graph` takes its vertices from the index ids, and stores a given
    distance table and layering as the graph's own, at construction."""
    g = parse_graph(serialize_graph(layered_digraph(5, 3, 4, 1)))
    bare = graph._graph(g.s, g.t, g.scale, g.index)
    assert bare == g and bare.vertices == frozenset(g.index.ids)
    assert "distances" not in vars(bare) and "layering" not in vars(bare)
    held = graph._graph(g.s, g.t, g.scale, g.index, g.distances, g.layering)
    assert held == g and held.distances is g.distances and held.layering is g.layering
    assert {"distances", "layering"} <= set(vars(held))


def test_a_graph_stores_only_its_terminals_scale_and_index():
    """Every way of building a graph stores s, t, scale and index and no
    view: `vertices` and `edges` are derived on first read, `vertices` as
    the frozenset of the index ids. Neither a solve nor a serialization
    reads a view."""
    assert [f.name for f in dataclasses.fields(WeightedDigraph)] == ["s", "t", "scale", "index"]
    text = serialize_graph(random_digraph(12, 0.3, 5, 20))
    g = parse_graph(text)
    g_s = straighten(g)[0]
    made = [
        g,
        parse_graph("# line by line\n" + text),
        graph._graph(g.s, g.t, g.scale, g.index),
        g_s,
        layerize(g_s)[0],
        layerize(parse_graph(serialize_graph(layered_digraph(6, 3, 8, 2))))[0],
        WeightedDigraph(range(3), {(0, 1): 1, (1, 2): 1}, 0, 2),
    ]
    assert g_s is not g and made[-2] is not g_s
    for h in made:
        solve(h)
        if h.index.ids == tuple(range(h.vertex_count)):
            serialize_graph(h)
        assert vars(h).keys() & {"vertices", "edges"} == set()
        assert vars(h).keys() >= {"s", "t", "scale", "index"}
        assert type(h.vertices) is frozenset and h.vertices == frozenset(h.index.ids)
        assert "vertices" in vars(h) and "edges" not in vars(h)


def test_repr_prints_the_views_as_fields():
    g = WeightedDigraph({5, 1, 3}, {(5, 3): 25, (1, 5): 10, (1, 3): 40}, 1, 3, 1)
    assert repr(g) == (
        "WeightedDigraph(vertices=frozenset({1, 3, 5}), "
        "edges=mappingproxy({(1, 3): 40, (1, 5): 10, (5, 3): 25}), s=1, t=3, scale=1)"
    )


@pytest.mark.parametrize(
    "args, message",
    [
        ((frozenset({0, 1.0, 2}), {(0, 1.0): 1}, 0, 2), "vertex ids and terminals must be integers"),
        ((frozenset({False, True}), {}, False, True), "vertex ids and terminals must be integers"),
        ((frozenset({0, 1, 2}), {}, 0, 2.0), "vertex ids and terminals must be integers"),
        ((frozenset({0, 1, 2}), {}, True, 2), "vertex ids and terminals must be integers"),
        ((frozenset({0, 1, 2}), {(0, 1.0): 1}, 0, 2), r"non-integer vertex id on edge \(0, 1\.0\)"),
        ((frozenset({0, 1, 2}), {(True, 2): 1}, 0, 2), r"non-integer vertex id on edge \(True, 2\)"),
    ],
    ids=["float id", "bool ids", "float terminal", "bool terminal", "float head", "bool tail"],
)
def test_the_constructor_rejects_ids_that_are_not_ints(args, message):
    """An id equal to an int but of another type would serialize text that
    `parse_graph` rejects ("0 1.0 1", or a "2 0 False True" header), and a
    float one makes `solve` index a list with it."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        WeightedDigraph(*args)


@pytest.mark.parametrize("ids", [{1, 2, 3}, {0, 2}, {-1, 0, 1}])
def test_only_contiguous_ids_serialize(ids):
    g = WeightedDigraph(ids, {}, min(ids), max(ids))
    with pytest.raises(ValueError, match="^only graphs with contiguous vertex ids serialize$"):
        serialize_graph(g)


@pytest.mark.parametrize(
    "path, weight",
    [((1, 2, 3), 2), ((0, 1, 2), 2), ((0, 1, 2, 1, 2, 3), 5), ((0, 1, 2, 3), 4), ((0, 3), 1)],
    ids=["not from s", "not to t", "not simple", "wrong weight", "shortest"],
)
def test_check_answer_refuses_each_broken_condition(path, weight):
    """A simple s-t path of the weight stated, heavier than d(s,t), passes;
    a path that breaks one of these alone raises InternalInvariantError."""
    g = build_graph(4, {(0, 1): 1, (1, 2): 1, (2, 1): 1, (2, 3): 1, (0, 3): 1})
    graph.check_answer(g, (0, 1, 2, 3), 3, validate_path(g, (0, 1, 2, 3)))
    with pytest.raises(InternalInvariantError, match="invalid answer"):
        graph.check_answer(g, path, weight, validate_path(g, path))


def test_edges_are_read_only():
    src = {(0, 1): 1, (1, 2): 1}
    g = WeightedDigraph(frozenset(range(3)), src, 0, 2)
    adj = g.index.out
    with pytest.raises(TypeError):
        g.edges[(0, 2)] = 5
    src[(0, 2)] = 5  # the graph keeps nothing of the map it was given
    assert g.edges == {(0, 1): 1, (1, 2): 1}
    assert g.index.out is adj
    assert adj == (((1, 1),), ((2, 1),), ())
    assert g.replace(edges=g.edges) == g


def test_a_graph_parsed_in_order_derives_its_edges_once():
    """The parse builds the index of edge lines in (u, v) order, and no
    `edges`; counting the edges does not derive them, and the first read
    does, once, as a read-only view in (u, v) order. The class defines no
    `__getattr__`, which would slow every attribute read on a graph."""
    g = parse_graph("3 3 0 2\n0 1 1\n0 2 1\n1 2 1\n")
    assert g.edge_count == 3 and "edges" not in vars(g)
    edges = g.edges
    assert isinstance(edges, MappingProxyType) and g.edges is edges
    assert list(edges.items()) == [((0, 1), 1), ((0, 2), 1), ((1, 2), 1)]
    with pytest.raises(TypeError):
        edges[(1, 0)] = 1
    assert "__getattr__" not in vars(WeightedDigraph)


def test_adjacencies_are_read_only():
    g = parse_graph(TRIANGLE)
    with pytest.raises(TypeError):
        g.index.out[0] = ()
    with pytest.raises(TypeError):
        g.index.into[2] = ()
    assert g.index.into == ((), ((0, 1),), ((0, 1), (1, 1)))
    assert g.index.out == (((1, 1), (2, 1)), ((2, 1),), ())
    answer = solve(g)
    assert (answer.weight, answer.path) == (2, (0, 1, 2))


# --- distances ------------------------------------------------------------


def test_triangle_distances():
    g = parse_graph(TRIANGLE)
    d = shortest_distances(g)
    assert [d.from_s[u] for u in range(3)] == [0, 1, 1]
    assert [d.to_t[u] for u in range(3)] == [1, 1, 0]


def test_unreachable_is_a_sentinel():
    g = build_graph(3, {(1, 2): 1}, s=0, t=1)
    d = shortest_distances(g)
    assert d.from_s[2] is None and d.from_s[1] is None
    assert d.to_t[0] is None


def test_seed42_distances_match_enumeration_oracle():
    # frozen from brute-force simple-path enumeration over this instance
    g = random_digraph(5, 0.5, 5, 42)
    assert sorted(g.edges.items()) == [
        ((0, 2), 3), ((0, 3), 2), ((1, 3), 4), ((1, 4), 1),
        ((2, 0), 5), ((3, 1), 4), ((4, 0), 2), ((4, 2), 2), ((4, 3), 3),
    ]
    d = shortest_distances(g)
    assert [d.from_s[u] for u in range(5)] == [0, 6, 3, 2, 7]
    assert [d.to_t[u] for u in range(5)] == [7, 1, 12, 5, 0]


@pytest.mark.parametrize("seed", range(8))
def test_distances_agree_with_relaxation_oracle(seed):
    g = random_digraph(7, 0.4, 5, seed)
    d = shortest_distances(g)
    assert d.from_s == bellman_ford_from(g, g.s)


def _sparse(g, seed):
    """`g` relabelled by a seeded shuffle onto the ids u * 1009 + 7."""
    g = relabelled(g, seed)
    m = {u: u * 1009 + 7 for u in g.vertices}
    edges = {(m[u], m[v]): w for (u, v), w in g.edges.items()}
    return WeightedDigraph(frozenset(m.values()), edges, m[g.s], m[g.t], g.scale)


@st.composite
def table_graphs(draw):
    """Graphs that compute their own distance table: layered graphs on
    sparse ids, bead, skip-edge and skip-path graphs, random graphs, and
    random graphs straightened and rebuilt through the constructor."""
    kinds = ["layered", "bead", "skip", "skip-path", "random", "straightened"]
    kind = draw(st.sampled_from(kinds))
    seed = draw(st.integers(0, 10**6))
    if kind == "layered":
        layers = draw(st.integers(2, 8))
        g = layered_digraph(layers, draw(st.integers(1, 4)), draw(st.integers(0, layers - 1)), seed)
        return _sparse(g, seed)
    if kind == "bead":
        wide, width = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        return bead_graph(wide, width, draw(st.integers(0, 3)), seed)
    if kind == "skip":
        return skip_edge_graph(seed)
    if kind == "skip-path":
        return skip_path_graph(draw(st.integers(5, 40)), draw(st.integers(0, 6)), seed)
    g = random_digraph(draw(st.integers(2, 12)), draw(st.sampled_from([0.1, 0.3, 0.5])), 5, seed)
    if kind == "straightened" and shortest_distances(g).from_s[g.t] is not None:
        out = straighten(g)[0]
        return WeightedDigraph(out.vertices, out.edges, out.s, out.t, out.scale)
    return WeightedDigraph(g.vertices, g.edges, g.s, g.t, g.scale)


def _check_own_table(g):
    """g's `distances`, by slot and aligned with g's index, match a fresh
    Dijkstra each way, its `off`, as ids, the distance-sum rule over those,
    and it took one Dijkstra when g is straight, from s, with `dt` d(s,t)
    minus `ds` slot by slot, and two otherwise."""
    from_s, to_t = fresh_distances(g)
    off = sum_rule_off(g, from_s, to_t)
    with mock.patch.object(graph, "dijkstra", wraps=graph.dijkstra) as spy:
        d = g.distances
    ids = g.index.ids
    assert d.ids is ids and len(d.ds) == len(d.dt) == len(ids)
    assert (dict(zip(ids, d.ds)), dict(zip(ids, d.dt)), d.dst) == (from_s, to_t, from_s[g.t])
    assert (dict(d.from_s), dict(d.to_t), tuple(ids[i] for i in d.off)) == (from_s, to_t, off)
    assert spy.call_count == (2 if off else 1)
    if not off:
        assert spy.call_args.args[1] == g.index.slot[g.s]
        assert d.dt == tuple(d.dst - x for x in d.ds)
    return not off


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(table_graphs())
def test_distance_table_matches_fresh_dijkstras(g):
    _check_own_table(g)


@pytest.mark.parametrize(
    "n, edges, straight",
    [
        (3, {(0, 2): 1, (0, 1): 5, (1, 2): 1}, False),  # 1 settles beyond t
        (3, {(0, 2): 2, (0, 1): 2, (1, 2): 1}, False),  # 1 settles at d(s,t)
        (3, {(0, 2): 1, (1, 2): 1}, False),  # 1 is unreachable from s
        (4, {(0, 3): 3, (0, 1): 1, (1, 2): 1, (2, 1): 1}, False),  # 1, 2 cannot reach t
        (3, {(0, 1): 1, (2, 1): 1}, False),  # t is unreachable
        (4, {(0, 1): 1, (0, 2): 1, (1, 3): 1, (2, 3): 1, (2, 1): 2}, True),  # tie, back-edge
    ],
    ids=["beyond-t", "at-d(s,t)", "unreachable", "dead-end", "no-s-t-path", "straight"],
)
def test_distance_table_edge_cases(n, edges, straight):
    assert _check_own_table(build_graph(n, edges)) == straight


def test_distance_table_is_computed_once_per_graph():
    g = random_digraph(7, 0.4, 5, 1)
    assert shortest_distances(g) is shortest_distances(g)


def test_distance_table_is_read_only():
    d = shortest_distances(random_digraph(7, 0.4, 5, 1))
    with pytest.raises(TypeError):
        d.from_s[0] = 1
    with pytest.raises(TypeError):
        d.to_t[0] = 1


def test_layering_violations_are_id_edges_on_sparse_ids():
    """The layering holds slot pairs; `layering_violations` returns them as
    id pairs, in (tail, head) id order, on a graph whose ids are not its
    slots: the graph below with 0..4 mapped onto -40, 7, 300, 12, -3."""
    m = {0: -40, 1: 7, 2: 300, 3: 12, 4: -3}
    edges = {(0, 1): 1, (1, 2): 1, (0, 2): 2, (2, 3): 1, (0, 4): 1, (4, 2): 1,
             (1, 4): 1, (4, 1): 2, (2, 1): 3}
    g = WeightedDigraph(m.values(), {(m[u], m[v]): w for (u, v), w in edges.items()}, -40, 12)
    assert g.index.ids == (-40, -3, 7, 12, 300)
    assert g.layering.against == ((1, 2), (2, 1)) and g.layering.spans == ((0, 4),)
    assert graph.layering_violations(g) == ([(-3, 7), (7, -3)], [(-40, 300)])


def test_layering_classifies_each_edge_once():
    g = build_graph(
        5,
        {(0, 1): 1, (1, 2): 1, (0, 2): 2, (2, 3): 1, (0, 4): 1, (4, 2): 1,
         (1, 4): 1, (4, 1): 2, (2, 1): 3},
        s=0,
        t=3,
    )
    layering = g.layering
    assert layering is g.layering
    # The layering is by slot, and the ids 0..4 are their own slots.
    assert g.index.ids == (0, 1, 2, 3, 4)
    assert layering.lam == (1, 2, 3, 4, 2)
    assert layering.layers == ((), (0,), (1, 4), (2,), (3,))
    assert layering.forward == ((1, 2, 4), (2,), (3,), (), (2,))
    assert layering.spans == ((0, 2),)
    assert dict(layering.back) == {(2, 1): 4}
    assert layering.against == ((1, 4), (4, 1))
    with pytest.raises(ValueError, match="straight"):
        build_graph(3, {(0, 1): 1, (1, 2): 1, (0, 2): 1}, s=0, t=2).layering


def _straight_graphs():
    """Seeded straight graphs: layered ones and relabelled copies, skip-edge
    graphs, whose same-layer and heavy skip edges go against the layers,
    and straightened random graphs, whose ids have gaps."""
    for seed in range(6):
        g = layered_digraph(6, 3, 6, seed, back_weight_max=2)
        yield g
        yield relabelled(g, seed)
        yield skip_edge_graph(seed)
        yield relabelled(skip_edge_graph(seed), seed)
        yield straighten(random_digraph(12, 0.3, 5, seed))[0]


def test_layering_agrees_with_edge_slack():
    """`layering` computes each edge's slack inline; `edge_slack` stays the
    definition of an edge's kind, and of a back-edge's slack. Both are by
    slot, and are compared here by id, through the graph's index."""
    kinds = set()
    for g in _straight_graphs():
        d, layering = g.distances, g.layering
        ids, slot = g.index.ids, g.index.slot
        lam = dict(zip(ids, layering.lam))
        values = sorted(set(d.from_s.values()))
        assert lam == {u: values.index(d.from_s[u]) + 1 for u in g.vertices}
        want = {}
        for (u, v), w in g.edges.items():
            slack = edge_slack(d, slot[u], slot[v], w)
            if slack == 0:
                want[(u, v)] = "span" if lam[v] > lam[u] + 1 else "forward"
            elif lam[v] < lam[u]:
                want[(u, v)] = ("back", slack)
            else:
                want[(u, v)] = "against"
        got = {
            (ids[i], ids[j]): "forward" for i, heads in enumerate(layering.forward) for j in heads
        }
        got.update({(ids[i], ids[j]): "span" for i, j in layering.spans})
        got.update({(ids[i], ids[j]): ("back", slack) for (i, j), slack in layering.back.items()})
        got.update({(ids[i], ids[j]): "against" for i, j in layering.against})
        assert got == want
        kinds.update(k if isinstance(k, str) else k[0] for k in want.values())
    assert kinds == {"forward", "span", "back", "against"}


def test_layering_is_read_only():
    """No field of the cached layering, nor its table of tree parents, can
    be changed, so a later solve sees the layering the graph was built
    with."""
    g = layered_digraph(5, 3, 6, 2)
    answer = solve(g)
    layering = g.layering
    u = max(g.vertices)
    for view, key in (
        (layering.lam, u),
        (layering.forward, u),
        (layering.back, next(iter(layering.back))),
        (layering.layers, 1),
        (layering.parent, u),
    ):
        with pytest.raises(TypeError):
            view[key] = ()
    for name in ("lam", "layers", "forward", "spans", "back", "against", "parent"):
        with pytest.raises(AttributeError):
            setattr(layering, name, ())
    with pytest.raises(AttributeError):
        g.layering = layering
    assert g.layering is layering
    assert solve(g) == answer


@st.composite
def blocked_queries(draw):
    """A digraph on 2..7 vertices with weights 1..3 (many ties), distinct
    endpoints a = s and b = t, and a set of other vertices to avoid. Its ids
    are 0..n-1, so each is its own slot and `dijkstra` takes them as they are."""
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.dictionaries(st.sampled_from(pairs), st.integers(1, 3)))
    a, b = draw(st.permutations(range(n)))[:2]
    blocked = draw(st.frozensets(st.sampled_from(range(n)).filter(lambda v: v not in (a, b))))
    g = build_graph(n, edges, s=a, t=b)
    rest = g.replace(
        vertices=g.vertices - blocked,
        edges={(u, v): w for (u, v), w in g.edges.items() if not {u, v} & blocked},
    )
    return g, blocked, rest


@settings(derandomize=True, database=None)
@given(blocked_queries())
def test_dijkstra_matches_relaxation_on_the_unblocked_graph(query):
    g, blocked, rest = query
    want = {v: d for v, d in bellman_ford_from(rest, g.s).items() if d is not None}
    dist, parent = dijkstra(g.index.out, g.s, blocked=blocked)
    assert dist == want
    for v, u in parent.items():
        assert dist[u] + g.edges[(u, v)] == dist[v]
    cut, _ = dijkstra(g.index.out, g.s, target=g.t, blocked=blocked)
    assert cut.get(g.t) == want.get(g.t)
    assert all(dist[v] == d for v, d in cut.items())


@settings(derandomize=True, database=None)
@given(blocked_queries())
def test_shortest_path_avoiding_is_a_lightest_simple_path(query):
    g, blocked, rest = query
    weights = [w for _p, w in simple_paths(rest, g.s, g.t, budget=None)]
    path = shortest_path_avoiding(g, blocked, g.s, g.t)
    if not weights:
        assert path is None
        return
    assert path is not None and path[0] == g.s and path[-1] == g.t
    assert len(set(path)) == len(path) and not set(path) & blocked
    assert path_weight(g, path) == min(weights)


@settings(derandomize=True, database=None)
@given(blocked_queries(), st.integers(1, 10))
def test_a_limit_keeps_everything_closer_than_it(query, limit):
    g, blocked, _rest = query
    dist, parent = dijkstra(g.index.out, g.s, blocked=blocked)
    near = {v: d for v, d in dist.items() if d < limit}
    assert dijkstra(g.index.out, g.s, blocked=blocked, limit=limit) == (
        near,
        {v: u for v, u in parent.items() if v in near},
    )
    path = shortest_path_avoiding(g, blocked, g.s, g.t)
    if path is not None and path_weight(g, path) >= limit:
        path = None
    assert shortest_path_avoiding(g, blocked, g.s, g.t, limit) == path


@settings(derandomize=True, database=None)
@given(blocked_queries(), st.data())
def test_a_failed_search_leaves_a_cut_that_decides_wider_searches(query, data):
    g, blocked, _rest = query
    dist, _ = dijkstra(g.index.out, g.s, blocked=blocked)
    inner = sorted(g.vertices - {g.s, g.t})
    for limit in (None, *range(1, 11)):
        met: set[int] = set()
        if shortest_path_avoiding(g, blocked, g.s, g.t, limit, met) is not None:
            continue
        # Exactly the blocked vertices pushed from the settled ball below the limit.
        assert met == {
            v
            for u, du in dist.items()
            for v, w in g.index.out[u]
            if v in blocked and (limit is None or du + w < limit)
        }, limit
        # Any superset of the cut blocks every route below any limit no larger.
        wider = met | (data.draw(st.frozensets(st.sampled_from(inner))) if inner else set())
        for cap in (None, *range(1, 11)) if limit is None else range(1, limit + 1):
            assert shortest_path_avoiding(g, wider, g.s, g.t, cap) is None, (limit, wider, cap)


@st.composite
def dijkstra_queries(draw):
    """Out-edge rows on 1..12 slots, weighted 1..3 (ties everywhere) or up
    to 10^9 (all but surely distinct distances), and a query: a source, a
    target or None, a blocked set and a limit, None, 0, 1..12 or anywhere
    in the weights' range."""
    n = draw(st.integers(1, 12))
    top = draw(st.sampled_from((3, 10**9)))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.dictionaries(st.sampled_from(pairs), st.integers(1, top))) if pairs else {}
    adj = [[] for _ in range(n)]
    for (u, v), w in edges.items():
        adj[u].append((v, w))
    slots = st.integers(0, n - 1)
    return (
        tuple(map(tuple, adj)),
        draw(slots),
        dict(
            target=draw(st.none() | slots),
            blocked=draw(st.frozensets(slots)),
            limit=draw(st.none() | st.integers(0, 12) | st.integers(0, 4 * top)),
        ),
    )


def check_dijkstra_call(adj, source, query, met=None):
    """`dijkstra`'s answer to one call, checked against the heap
    reference's: the same `dist` items in settle order, `parent` items in
    order and `met`, which each adds to a set of its own that starts as a
    copy of `met`."""
    want_met = None if met is None else set(met)
    got = dijkstra(adj, source, met=met, **query)
    want = heap_dijkstra(adj, source, met=want_met, **query)
    assert [list(x.items()) for x in got] == [list(x.items()) for x in want], (source, query)
    assert met == want_met, (source, query)
    return got


@contextlib.contextmanager
def replayed_dijkstra():
    """Wraps `dijkstra` under the names `graph`, `solver` and `reduction`
    call it by, so that `check_dijkstra_call` checks each call as it is
    made; yields a list that counts the calls."""
    from nextpath import reduction, solver

    calls = []

    def wrapped(adj, source, *, met=None, **query):
        calls.append(None)
        return check_dijkstra_call(adj, source, query, met)

    with contextlib.ExitStack() as stack:
        for module in (graph, solver, reduction):
            stack.enter_context(mock.patch.object(module, "dijkstra", wrapped))
        yield calls


@settings(derandomize=True, database=None, max_examples=500)
@given(dijkstra_queries())
def test_dijkstra_settles_in_the_order_of_a_heap_of_pairs(query):
    adj, source, rest = query
    check_dijkstra_call(adj, source, rest, set())


@pytest.mark.parametrize(
    "workload", ["random-general", "layer-skip", "layered-dense", "layered-none"]
)
def test_every_dijkstra_call_of_a_solve_matches_the_heap_reference(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    build = importlib.import_module("workloads").WORKLOADS[workload].build
    with replayed_dijkstra() as calls:
        solve(build(0))
    assert calls


# --- classification ---------------------------------------------------------


def test_classification_examples():
    g = build_graph(3, {(0, 1): 1, (1, 2): 1, (2, 1): 5}, s=0, t=2)
    d = shortest_distances(g)
    assert edge_slack(d, 2, 1, 5) > 0  # back-edge: 2 + 5 > 1
    assert edge_slack(d, 0, 1, 1) == 0  # forward edge: the equality case
    assert edge_slack(d, 1, 2, 1) == 0


def test_classification_matches_independent_distances():
    g = layered_digraph(4, 2, 2, seed=7)
    d = shortest_distances(g)
    dist = bellman_ford_from(g, g.s)
    for (u, v), w in g.edges.items():
        assert (edge_slack(d, u, v, w) > 0) == (dist[u] + w > dist[v])


# --- path validation --------------------------------------------------------


def test_validate_path_triangle():
    g = parse_graph(TRIANGLE)
    check = validate_path(g, (0, 1, 2))
    assert check.simple and check.weight == 2 and check.uses_back_edge
    check = validate_path(g, (0, 2))
    assert check.simple and check.weight == 1 and not check.uses_back_edge


def test_validate_path_missing_edge():
    g = parse_graph(TRIANGLE)
    with pytest.raises(InvalidPathError, match=r"missing edge \(2, 0\)"):
        validate_path(g, (0, 2, 0))


def test_validate_path_detects_repeats():
    g = build_graph(3, {(0, 1): 1, (1, 0): 1, (0, 2): 1}, s=0, t=2)
    check = validate_path(g, (0, 1, 0, 2))
    assert not check.simple and check.weight == 3


@pytest.mark.parametrize("seed", range(6))
def test_not_shortest_iff_back_edge(seed):
    # over every simple s-t path of a seeded 8-vertex instance
    g = random_digraph(8, 0.35, 3, seed)
    d = shortest_distances(g)
    dst = d.from_s[g.t]
    if dst is None:
        pytest.skip("no s-t path for this seed")
    for path, w in simple_paths(g, g.s, g.t):
        assert (w > dst) == validate_path(g, path).uses_back_edge


# --- structural predicates ---------------------------------------------------


def test_straight_and_layered_examples():
    g = parse_graph(TRIANGLE)
    assert not is_straight(g, shortest_distances(g))  # vertex 1: 1 + 1 > 1

    path_graph = build_graph(3, {(0, 1): 1, (1, 2): 1}, s=0, t=2)
    d = shortest_distances(path_graph)
    assert is_straight(path_graph, d)
    assert is_layered(path_graph, d)


def test_distance_table_off_lists_vertices_off_every_shortest_path():
    # 1 lies only on a longer path, 3 is cut off from s, 4 cannot reach t
    g = build_graph(5, {(0, 1): 2, (1, 2): 1, (0, 2): 2, (3, 2): 1, (0, 4): 1}, s=0, t=2)
    assert shortest_distances(g).off == (1, 3, 4)
    no_route = build_graph(3, {(1, 0): 1}, s=0, t=2)
    assert shortest_distances(no_route).off == (0, 1, 2)


def test_a_table_lists_off_slots_as_the_index_ints():
    """`off` holds the index's own slot ints, not fresh ones: a table of a
    parsed 300,000-vertex graph without edges, whose every slot is off,
    keeps four tuples of 300,000 pointers (the index's derived `into` and
    the table's `ds`, `dt` and `off`), 9.2 MiB, where fresh ints would add
    8.0 MiB."""
    g = parse_graph("300000 0 0 1\n")
    tracemalloc.start()
    try:
        d = g.distances
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(d.off) == 300000
    assert all(map(operator.is_, d.off, g.index.ids))
    assert retained < 12 * 2**20


def test_layered_rejects_skipping_edge():
    g = build_graph(4, {(0, 1): 1, (1, 2): 1, (0, 2): 2, (2, 3): 1}, s=0, t=3)
    d = shortest_distances(g)
    assert is_straight(g, d)
    assert not is_layered(g, d)  # edge (0,2) spans past distance value 1


def test_search_layers_path_graph():
    g = build_graph(3, {(0, 1): 1, (1, 2): 1}, s=0, t=2)
    lam = _LayeredSearch(g, _layering(g)).lam
    assert [lam[u] for u in range(3)] == [1, 2, 3]


def test_search_layers_parallel_chains_share_layers():
    g = build_graph(
        6, {(0, 1): 1, (1, 2): 1, (2, 5): 1, (0, 3): 1, (3, 4): 1, (4, 5): 1}, s=0, t=5
    )
    lam = _LayeredSearch(g, _layering(g)).lam
    assert lam[1] == lam[3] == 2
    assert lam[2] == lam[4] == 3


def test_search_rejects_non_layered():
    g = parse_graph(TRIANGLE)
    with pytest.raises(ValueError, match="layered"):
        _LayeredSearch(g, _layering(g))


@pytest.mark.parametrize("seed", range(10))
def test_layer_stepping_on_generated_instances(seed):
    g = layered_digraph(4 + seed % 3, 2, 2 + seed % 4, seed)
    d = shortest_distances(g)
    lam = _LayeredSearch(g, _layering(g)).lam
    for (u, v), w in g.edges.items():
        slack = edge_slack(d, u, v, w)
        if slack == 0:
            assert lam[v] == lam[u] + 1
        else:
            assert slack > 0 and lam[v] < lam[u]
    for u in g.vertices:
        for v in g.vertices:
            assert (d.from_s[u] < d.from_s[v]) == (lam[u] < lam[v])


# --- package surface -------------------------------------------------------


def test_all_exports_no_modules():
    import nextpath

    modules = [n for n in nextpath.__all__ if isinstance(getattr(nextpath, n), ModuleType)]
    assert modules == []
    assert "solve" in nextpath.__all__ and "WeightedDigraph" in nextpath.__all__


def test_runtime_imports_only_the_standard_library():
    src = Path(__file__).resolve().parents[1] / "src" / "nextpath"
    files = sorted(src.glob("*.py"))
    assert len(files) >= 10
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top == "nextpath" or top in sys.stdlib_module_names, (path.name, name)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--dijkstra"]:
        files = sys.argv[2:]
        with replayed_dijkstra() as calls:
            for name in files:
                with open(name, encoding="utf-8") as fh:
                    g = parse_graph(fh.read())
                try:
                    solve(g)
                except AssertionError as exc:
                    sys.exit(f"{name}: {exc}")
        print(f"{len(files)} graphs: {len(calls)} Dijkstra calls match the heap reference")
        sys.exit()
    files = sys.argv[1:]
    for name in files:
        with open(name, encoding="utf-8") as fh:
            try:
                check_routes(fh.read())
            except AssertionError as exc:
                sys.exit(f"{name}: {exc}")
    print(f"{len(files)} files: the three parse routes give one graph")
