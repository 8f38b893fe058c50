"""Shared test utilities: deterministic random boards, cached
verification runs (the expensive strategy checks run once per session)
and seams that replace or spy on the automorphism search's candidates on
a cold generator cache."""

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
from posgames import core
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


def cold_searches(monkeypatch) -> list:
    """Give ``core.automorphism_generators`` an empty generator cache of
    its own for the rest of the test, and return the list of the boards
    its search is then built on, in order.  The process's cache comes back
    at teardown and holds nothing built under the test's patches."""
    builds = []
    cached = core._checked_generators
    fresh = lru_cache(maxsize=cached.cache_info().maxsize)(cached.__wrapped__)
    init = _Search.__init__

    def spy(self, h):
        builds.append(h)
        init(self, h)

    monkeypatch.setattr(core, "_checked_generators", fresh)
    monkeypatch.setattr(_Search, "__init__", spy)
    return builds


def patch_candidate(monkeypatch, candidate) -> None:
    """Put ``candidate`` in place of ``_Search.candidate`` on a cold
    generator cache (see ``cold_searches``), so every board is searched
    afresh under ``candidate``."""
    cold_searches(monkeypatch)
    monkeypatch.setattr(_Search, "candidate", candidate)


def count_finds(monkeypatch) -> list:
    """Record the pairs of every candidate that
    ``core.automorphism_generators`` asks its search for, on a cold
    generator cache."""
    calls = []
    candidate = _Search.candidate

    def spy(self, depth, pairs):
        calls.append(pairs)
        return candidate(self, depth, pairs)

    patch_candidate(monkeypatch, spy)
    return calls
