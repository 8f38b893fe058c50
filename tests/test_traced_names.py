"""The names that the benchmark's tracer wraps are still there.

``perfbench/tracing.py`` replaces public functions of ``posgames.cli``,
``posgames.mb`` and ``posgames.strategy.mutations`` with wrappers that
time each call.  A deleted or renamed one fails here, not in a benchmark
run.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "perfbench")]

import tracing  # noqa: E402

from posgames import mb  # noqa: E402

_CLI = "posgames.cli"
_MUTATIONS = "posgames.strategy.mutations"

TRACED = [
    (_CLI, "verify_maker_strategy"),
    (_CLI, "solve_mb"),
    (_CLI, "solve_cp"),
    (_CLI, "validate_case_table"),
    (_CLI, "load_hypergraph"),
    ("posgames.mb", "solve_mb"),
    ("posgames.mb", "find_pairing"),
    ("posgames.mb", "es_potential"),
    ("posgames.mb", "reduce_lemma21"),
    (_CLI, "build_g3_strategy"),
    (_CLI, "build_gamma_strategy"),
    (_CLI, "gen_complete_multipartite"),
    (_CLI, "gen_g3"),
    (_CLI, "gen_g4"),
    (_CLI, "gen_gamma"),
    (_CLI, "gen_gamma_prime"),
    (_CLI, "gen_gcp"),
    (_CLI, "lift_g4"),
    (_CLI, "lift_gamma_prime"),
    (_CLI, "lift_split"),
    (_CLI, "split_pendant"),
    (_MUTATIONS, "build_g3_strategy"),
    (_MUTATIONS, "build_gamma_strategy"),
    (_MUTATIONS, "gen_g3"),
    (_MUTATIONS, "lift_g4"),
    (_MUTATIONS, "lift_gamma_prime"),
    (_MUTATIONS, "lift_split"),
]


def test_the_tracer_wraps_every_name_it_expects():
    original = mb.solve_mb
    saved = tracing.install(tracing.Tracer())
    try:
        assert mb.solve_mb is not original
        assert [(mod.__name__, attr) for mod, attr, _ in saved] == TRACED
    finally:
        tracing.uninstall(saved)
    assert mb.solve_mb is original
