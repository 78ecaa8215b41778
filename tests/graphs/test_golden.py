"""Golden fingerprints of the generated cities and their bus routes.

The generators' remove-then-re-add street edits reorder adjacency, and
Dijkstra's tie-breaking and parent recovery follow that order, so any
change to the set-up searches can silently move a street or a route.
These digests were recorded before the reachability and shortest-path
searches learned to stop at their target; they must never change.
"""

import hashlib
import random

from repro.graphs import dublin_like_city, manhattan_grid, seattle_like_city
from repro.traces import generate_patterns


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_small_dublin_edges():
    net = dublin_like_city(12, 12, seed=5)
    assert (net.node_count, net.edge_count) == (144, 428)
    assert _digest(list(net.edges())) == (
        "9fa49f1d54f5bfebd35dc03e92011b641b08577576559c6a17d13cc1a2687e50"
    )


def test_small_seattle_edges():
    net = seattle_like_city(12, 12, seed=3)
    assert (net.node_count, net.edge_count) == (144, 488)
    assert _digest(list(net.edges())) == (
        "c1a425d15320633c07dd963d92b911b7c40d4827241b0fb3e3dffa862caeea05"
    )


def test_default_city_edges():
    assert _digest(list(dublin_like_city().edges())) == (
        "94cde7aea0adc3883ff36e7b77faf7777b3f3e1cb72e041ed7954cb4a3a70298"
    )
    assert _digest(list(seattle_like_city().edges())) == (
        "efe567b11213959feb83a097812fe87dabd43c9b860b7aceba5bab10daecf7c5"
    )


def test_dublin_route_paths():
    net = dublin_like_city(12, 12, seed=5)
    patterns = generate_patterns(net, 40, random.Random(17))
    assert _digest([p.path for p in patterns]) == (
        "a4c968f121702fe3043ac67ca25eb5d10eee7c324125adcb5a29e11475d56b30"
    )


def test_seattle_route_paths():
    net = seattle_like_city(12, 12, seed=3)
    patterns = generate_patterns(net, 40, random.Random(19))
    assert _digest([p.path for p in patterns]) == (
        "f5419ecf39abac409590d79f326367cde1f99d2a98ea4f94813aa81002c38251"
    )


def test_grid_route_paths_with_ties():
    # Equal block lengths make many shortest paths tie on a grid.
    net = manhattan_grid(8, 8, 100.0)
    patterns = generate_patterns(net, 40, random.Random(23))
    assert _digest([p.path for p in patterns]) == (
        "d4c1bd2944b02e6cdc7e617423f68e3c1e585921eedee8e30c39bc9d881d1014"
    )
