import math

import pytest
from hypothesis import given, settings, strategies as st

from deolog.models import World
from deolog.orders import (ComparisonAtom, bruteforce_weak_orders,
                           ordered_bell, solve_order_constraints)


def _w(name):
    return World(name, frozenset())


A, B, C = _w("a"), _w("b"), _w("c")


class TestSolveOrderConstraints:
    def test_strict_chain(self):
        ranks = solve_order_constraints([ComparisonAtom(A, B, True),
                                         ComparisonAtom(B, C, True)])
        assert ranks is not None
        assert ranks[A] > ranks[B] > ranks[C]

    def test_strict_two_cycle(self):
        assert solve_order_constraints([ComparisonAtom(A, B, True),
                                        ComparisonAtom(B, A, True)]) is None

    def test_strict_edge_in_weak_cycle(self):
        assert solve_order_constraints(
            [ComparisonAtom(A, B, False), ComparisonAtom(B, C, False),
             ComparisonAtom(C, A, True)]) is None

    def test_weak_cycle_collapses(self):
        ranks = solve_order_constraints(
            [ComparisonAtom(A, B, False), ComparisonAtom(B, C, False),
             ComparisonAtom(C, A, False)])
        assert ranks[A] == ranks[B] == ranks[C]

    def test_empty_constraint_set(self):
        assert solve_order_constraints([]) == {}

    def test_mixed(self):
        ranks = solve_order_constraints([ComparisonAtom(A, B, False),
                                         ComparisonAtom(B, C, True)])
        assert ranks[A] >= ranks[B] > ranks[C]


def _floyd_warshall_ranks(atoms):
    """The former solver, kept as the reference: longest-path closure by
    Floyd-Warshall, O(n^3)."""
    nodes = []
    index = {}
    for a in atoms:
        for w in (a.left, a.right):
            if w not in index:
                index[w] = len(nodes)
                nodes.append(w)
    n = len(nodes)
    neg = -math.inf
    dist = [[neg] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for a in atoms:
        i, j = index[a.left], index[a.right]
        weight = 1 if a.strict else 0
        if weight > dist[i][j]:
            dist[i][j] = weight
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == neg:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt > di[j]:
                    di[j] = alt
    if any(dist[i][i] > 0 for i in range(n)):
        return None
    return {nodes[i]: max(x for x in dist[i] if x != neg) for i in range(n)}


WORLDS = [_w(str(i)) for i in range(8)]


@settings(max_examples=300)
@given(st.lists(st.tuples(st.sampled_from(WORLDS), st.sampled_from(WORLDS),
                          st.booleans()), max_size=12))
def test_solver_matches_floyd_warshall(triples):
    atoms = [ComparisonAtom(l, r, s) for l, r, s in triples]
    got = solve_order_constraints(atoms)
    expected = _floyd_warshall_ranks(atoms)
    assert got == expected
    if got is not None:
        assert list(got) == list(expected)


class TestBruteforceWeakOrders:
    def test_counts(self):
        worlds = [_w(str(i)) for i in range(4)]
        assert sum(1 for _ in bruteforce_weak_orders(worlds[:1])) == 1
        assert sum(1 for _ in bruteforce_weak_orders(worlds[:2])) == 3
        assert sum(1 for _ in bruteforce_weak_orders(worlds[:3])) == 13
        assert sum(1 for _ in bruteforce_weak_orders(worlds)) == 75

    def test_canonical_surjective(self):
        worlds = [_w(str(i)) for i in range(3)]
        for order in bruteforce_weak_orders(worlds):
            values = set(order.values())
            assert values == set(range(max(values) + 1))

    def test_no_duplicates(self):
        worlds = [_w(str(i)) for i in range(4)]
        seen = set()
        for order in bruteforce_weak_orders(worlds):
            key = tuple(order[w] for w in worlds)
            assert key not in seen
            seen.add(key)


@pytest.mark.parametrize("n", range(5))
def test_weak_orders_of_indices_match_those_of_worlds_in_name_order(n):
    # the engine ranks world indices, whose order is the worlds' name order
    worlds = [_w(name) for name in ("00", "00#1", "01", "10")[:n]]
    assert [[order[j] for j in range(n)]
            for order in bruteforce_weak_orders(range(n))] == \
        [[order[w] for w in worlds]
         for order in bruteforce_weak_orders(worlds)]


class TestOrderedBell:
    def test_values(self):
        assert [ordered_bell(n) for n in range(6)] == [1, 1, 3, 13, 75, 541]
