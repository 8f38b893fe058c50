"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads as W  # noqa: E402
import yardstick  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402


def span(id, name, start, end, parent=None, **attrs):
    s = Span(id, name, start, parent, "pass-0", attrs)
    s.end = end
    return s


# --- self time -------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, "cli", 0.0, 10.0),
        span(1, "mb.solve_mb", 1.0, 9.0, 0),
        span(2, "mb.find_pairing", 2.0, 3.0, 1),
        span(3, "mb.solve_mb", 4.0, 8.0, 1),
    ]
    assert self_times(spans) == pytest.approx({0: 2.0, 1: 3.0, 2: 1.0, 3: 4.0})


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        span(0, "cli", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, 0),
        span(2, "b", 3.0, 6.0, 0),  # overlaps a on [3, 4]
        span(3, "c", 9.0, 12.0, 0),  # runs past its parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_nests_spans_and_reads_counts_from_return_values():
    t = Tracer()
    inner = t.wrap("inner", lambda: 7, lambda r: {"nodes": r})
    outer = t.wrap("outer", lambda: inner() + 1)
    assert outer() == 8
    o, i = t.spans
    assert (o.name, o.parent, i.name, i.parent) == ("outer", None, "inner", o.id)
    assert i.attrs == {"fn": "<lambda>", "nodes": 7}
    assert o.start <= i.start <= i.end <= o.end


def test_segment_metrics_split_mb_search_from_shortcuts():
    spans = [
        span(0, "pass", 0.0, 20.0),
        span(1, "cli", 0.0, 10.0, 0, label="solve-mb-gcp-maker"),
        span(2, "mb.solve_mb", 1.0, 9.0, 1, nodes=169, certificate=None),
        span(3, "mb.find_pairing", 1.0, 2.0, 2),
        span(4, "constructions.reduce_lemma21", 2.0, 3.0, 2),
        span(5, "mb.solve_mb", 3.0, 6.0, 2, nodes=50, certificate="pairing"),
        span(6, "mb.find_pairing", 3.0, 3.5, 5),
        span(7, "mb.es_potential", 6.0, 6.5, 2),
    ]
    m = layers.segment_metrics(spans)
    assert m["cli.solve-mb-gcp-maker.s"] == pytest.approx(10.0)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["mb.solve_mb.s"] == pytest.approx(8.0)
    assert m["mb.shortcut_s"] == pytest.approx(1.0 + 1.0 + 0.5 + 0.5)
    assert m["mb.search_s"] == pytest.approx((8.0 - 5.5) + (3.0 - 0.5))
    assert m["mb.nodes_expanded"] == 169  # outermost solves only
    assert m["mb.certificate.none"] == 1 and m["mb.certificate.pairing"] == 0


def test_run_metrics_add_setup_to_the_median_pass_and_derive_rates():
    setup = [span(0, "core.save_hypergraph", 0.0, 0.5)]
    passes = [
        [
            span(0, "cli", 0.0, d, label="verify-g4"),
            span(1, "verifier.verify", 0.0, d, 0, verified=True,
                 lines_checked=1000, max_depth=35, cex_kind=None),
        ]
        for d in (1.0, 3.0, 2.0)
    ]
    m = layers.run_metrics(setup, passes)
    assert m["core.save_hypergraph.s"] == pytest.approx(0.5)
    assert m["verifier.g4.s"] == pytest.approx(2.0)
    assert m["verifier.g4.lines_checked"] == 1000
    assert m["verifier.g4.us_per_line"] == pytest.approx(2000.0)
    assert m["mb.nodes_per_s"] == 0.0  # no solve: no division by zero


# --- percentile rule -------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (39, None), (40, 75), (99, 75), (100, 90), (199, 90),
     (200, 95), (1000, 99), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert stats.beyond(n, expected) >= 10


def test_nearest_rank_percentile_and_spread():
    values = list(range(1, 101))
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.spread([1.0] * 10) == 0.0


# --- yardstick -------------------------------------------------------------


def test_yardstick_normalises_by_the_samples_inside_and_either_side():
    stick = yardstick.Yardstick()
    stick.samples = [
        (0.0, 0.1, 0.010), (1.0, 1.1, 0.020), (2.0, 2.1, 0.030), (5.0, 5.1, 0.040),
    ]
    # Samples 1 and 4 either side, 2 and 3 inside.
    assert stick.around(0.5, 3.0) == pytest.approx(0.025)
    assert stick.busy(0.5, 3.0) == pytest.approx(0.2)
    assert stick.around(0.1, 0.9) == pytest.approx(0.015)  # none inside
    assert stick.busy(0.1, 0.9) == 0.0
    assert stick.around(6.0, 7.0) == pytest.approx(0.040)  # none after
    # An operation at half the nominal speed takes twice its nominal time.
    half = 2 * yardstick.NOMINAL_S
    stick.samples = [(0.0, 0.1, half), (3.0, 3.1, half)]
    assert stick.normalise(2.0, 1.0, 3.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        yardstick.Yardstick().around(0.0, 1.0)


def test_yardstick_timer_samples_during_a_computation():
    stick = yardstick.Yardstick()
    stick.start()
    try:
        started = time.perf_counter()
        while time.perf_counter() - started < 3 * yardstick.EVERY_S:
            pass
    finally:
        stick.stop()
    ended = time.perf_counter()
    assert len(stick.samples) >= 2
    assert 0 < stick.busy(started, ended) < ended - started
    assert yardstick.reference_work([]) == yardstick._EXPECTED


def test_yardstick_keeps_only_the_last_runs_memos():
    kept: list = []
    yardstick.sample(3, kept)
    first = kept[0]
    assert len(kept) == len(yardstick._OPENINGS) and all(kept)
    yardstick.sample(1, kept)
    assert len(kept) == len(yardstick._OPENINGS)
    assert kept[0] is not first


# --- pinned verdicts -------------------------------------------------------


def test_verdict_mismatch_is_reported_and_counter_drift_is_a_diff():
    op = W.SOLVE_OPS[0]
    good = {"winner": "maker", "exhausted": False, "nodes": 59246,
            "certificate_kind": None}
    assert W.check_verdict(op.verdict, good) is None
    assert W.counter_drift(op.counters, good) == {}
    bad = dict(good, winner="breaker", nodes=100)
    assert "winner" in W.check_verdict(op.verdict, bad)
    assert W.counter_drift(op.counters, bad) == {"nodes": [59246, 100]}
    assert "<missing>" in W.check_verdict(op.verdict, {})


def test_payload_facts_flatten_the_certificate_kind():
    facts = W.payload_facts({"certificate": {"kind": "pairing", "payload": {}}})
    assert facts["certificate_kind"] == "pairing"
    assert W.payload_facts({"certificate": None})["certificate_kind"] is None


def test_payload_mismatches_compare_equal_inputs_only():
    def worker(digests, seeded=None):
        passes = [{"kind": "shipped", "ops": [{"label": "x", "digest": d}]}
                  for d in digests]
        return {"seeded": seeded, "passes": passes}

    seeded = {"kind": "seeded", "ops": [{"label": "x", "digest": "other"}]}
    assert run.payload_mismatches([worker(["a", "a"], seeded)]) == (0, 1)
    assert run.payload_mismatches([worker(["a"]), worker(["a", "b"])]) == (1, 2)


def test_seeded_permutations_are_reproducible_and_seed_zero_is_shipped():
    sizes = {"gamma": 35, "g3-split": 35, "gcp": 15}
    zero = W.seeded_permutations(0, sizes)
    assert all(p == list(range(sizes[n])) for n, p in zero.items())
    assert W.seeded_permutations(7, sizes) == W.seeded_permutations(7, sizes)
    assert W.seeded_permutations(7, sizes) != W.seeded_permutations(8, sizes)


def test_seeded_board_changes_the_work_but_not_the_verdict():
    from posgames.constructions import gen_g3, split_pendant
    from posgames.core import Side, permute_hypergraph
    from posgames.mb import solve_mb

    h = split_pendant(gen_g3())
    perms = W.seeded_permutations(1, {"gamma": 35, "g3-split": h.vertex_count,
                                      "gcp": 15})
    rep = solve_mb(permute_hypergraph(h, perms["g3-split"]), Side.A)
    assert rep.winner is Side.A
    assert rep.nodes_expanded == 4258  # 66,827 on the shipped labels


# --- the benchmark's declaration -------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == W.WHY
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.CATALOGUE
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
