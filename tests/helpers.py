"""Shared test utilities: deterministic random boards, cached
verification runs (the expensive strategy checks run once per session)
and a spy on the automorphism search's candidates."""

from __future__ import annotations

import random
from functools import lru_cache

from posgames.constructions import (
    gen_g3,
    gen_g4,
    gen_gamma,
    gen_gamma_prime,
    split_pendant,
)
from posgames.core import Hypergraph, _Search
from posgames.strategy import (
    VerificationReport,
    build_g3_strategy,
    build_gamma_strategy,
    lift_g4,
    lift_gamma_prime,
    lift_split,
    verify_maker_strategy,
)


@lru_cache(maxsize=None)
def gamma_report() -> VerificationReport:
    return verify_maker_strategy(gen_gamma(), build_gamma_strategy())


@lru_cache(maxsize=None)
def gamma_prime_report() -> VerificationReport:
    s = lift_gamma_prime(build_gamma_strategy())
    return verify_maker_strategy(gen_gamma_prime(), s)


@lru_cache(maxsize=None)
def g4_report() -> VerificationReport:
    s = lift_g4(lift_gamma_prime(build_gamma_strategy()))
    return verify_maker_strategy(gen_g4(), s)


@lru_cache(maxsize=None)
def g3_report() -> VerificationReport:
    return verify_maker_strategy(gen_g3(), build_g3_strategy())


@lru_cache(maxsize=None)
def g3_split_report() -> VerificationReport:
    h = gen_g3()
    s = lift_split(build_g3_strategy(), h)
    return verify_maker_strategy(split_pendant(h), s)


def random_hypergraph(
    rng: random.Random,
    max_vertices: int = 12,
    max_edges: int = 8,
    size_range: tuple[int, int] = (1, 4),
) -> Hypergraph:
    """A small random board: duplicate-free edges of bounded size."""
    n = rng.randint(3, max_vertices)
    target = rng.randint(1, max_edges)
    edges: set[tuple[int, ...]] = set()
    for _ in range(target * 20):
        if len(edges) == target:
            break
        k = rng.randint(*size_range)
        k = min(k, n)
        edges.add(tuple(sorted(rng.sample(range(n), k))))
    return Hypergraph(n, sorted(edges))


def random_uniform_low_degree(
    rng: random.Random, uniformity: int, vertices: int, max_edges: int
) -> Hypergraph:
    """A random ``uniformity``-uniform board whose maximum degree stays at
    most ``uniformity // 2`` (the regime where a pairing always exists)."""
    cap = uniformity // 2
    degree = [0] * vertices
    edges: set[tuple[int, ...]] = set()
    for _ in range(max_edges * 30):
        if len(edges) == max_edges:
            break
        pool = [v for v in range(vertices) if degree[v] < cap]
        if len(pool) < uniformity:
            break
        edge = tuple(sorted(rng.sample(pool, uniformity)))
        if edge in edges:
            continue
        edges.add(edge)
        for v in edge:
            degree[v] += 1
    return Hypergraph(vertices, sorted(edges))


def count_finds(monkeypatch) -> list:
    """Record the pairs of every candidate that
    ``core.automorphism_generators`` asks its search for."""
    calls = []
    candidate = _Search.candidate

    def spy(self, depth, pairs):
        calls.append(pairs)
        return candidate(self, depth, pairs)

    monkeypatch.setattr(_Search, "candidate", spy)
    return calls
