"""The three benchmark workloads: their operations, inputs and pinned results.

An operation is one CLI command driven through ``posgames.cli.main`` or one
mutant verification.  Each carries two sets of pinned values:

* ``verdict`` - fields that must match on every run and at every seed; a
  mismatch fails the operation;
* ``counters`` - deterministic counts pinned on the shipped vertex labels;
  drift is reported as a diff, never as a failure, so a pruning change can
  say why a count moved.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CliOp:
    """One ``posgames`` command; ``{name}`` in ``argv`` is replaced by the
    path of the input board ``name``."""

    label: str
    argv: tuple
    verdict: dict
    counters: dict = field(default_factory=dict)

    def resolve(self, board_dir: str) -> list[str]:
        return [
            os.path.join(board_dir, a[1:-1] + ".hg") if a.startswith("{") else a
            for a in self.argv
        ]


def _verify(target: str, lines: int, depth: int) -> CliOp:
    return CliOp(
        f"verify-{target}",
        ("verify", target),
        {"verified": True, "counterexample": None},
        {"lines_checked": lines, "max_depth": depth},
    )


VERIFY_OPS = (
    _verify("gamma", 20806, 20),
    _verify("gamma-prime", 211872, 28),
    _verify("g4", 661671, 35),
    _verify("g3-split", 256247, 28),
)

SOLVE_OPS = (
    CliOp(
        "solve-mb-gamma-breaker",
        ("solve", "mb", "{gamma}", "--first", "breaker"),
        {"winner": "maker", "exhausted": False},
        {"nodes": 59246, "certificate_kind": None},
    ),
    CliOp(
        "solve-mb-g3-split-maker",
        ("solve", "mb", "{g3-split}", "--first", "maker"),
        {"winner": "maker", "exhausted": False},
        {"nodes": 66827, "certificate_kind": None},
    ),
    CliOp(
        "solve-cp-gcp-nolemma23",
        ("solve", "cp", "{gcp}", "--no-lemma23"),
        {"winner": "chooser", "exhausted": False},
        {"nodes": 13287},
    ),
    CliOp(
        "solve-mb-gcp-maker",
        ("solve", "mb", "{gcp}", "--first", "maker"),
        {"winner": "breaker", "exhausted": False},
        {"nodes": 169, "certificate_kind": None},
    ),
    CliOp(
        "solve-cp-gcp",
        ("solve", "cp", "{gcp}"),
        {"winner": "chooser", "exhausted": False},
        {"nodes": 267},
    ),
    CliOp(
        "validate-cases-gcp",
        ("validate-cases", "gcp"),
        {"passed": True},
        {"nodes": 253, "total_offers": 105},
    ),
)

# (counterexample kind, lines checked) of each named mutation, in the order
# ``named_mutations()`` returns them.  The kind is part of the verdict.
MUTANT_PINS = {
    "case-claims-wrong-hub": ("bounded_win_failure", 46),
    "forced-reply-swapped": ("bounded_win_failure", 117),
    "case-branch-dropped": ("occupied_claim", 195),
    "opening-class-gap": ("uncovered_reply", 15889),
    "wrong-win-assertion": ("leaf_without_win", 137),
    "default-claims-taken-vertex": ("occupied_claim", 3),
    "win-asserted-too-early": ("leaf_without_win", 136),
    "case-rotated-wrong": ("occupied_claim", 1066),
    "endgame-wrong-opening": ("bounded_win_failure", 10997),
    "endgame-branch-dropped": ("bounded_win_failure", 12100),
    "endgame-bound-zero": ("bounded_win_failure", 12408),
    "long-edge-mapped-wrong": ("leaf_without_win", 3892),
    "advance-claims-occupied": ("occupied_claim", 2),
    "missing-opening-claim": ("ill_formed", 0),
    "switch-claims-apex": ("occupied_claim", 4),
    "switch-claimed-twice": ("ill_formed", 5),
    "class-includes-own-claim": ("occupied_claim", 2),
    "insufficient-bound": ("bounded_win_failure", 688),
    "completion-leaves-dropped": ("bounded_win_failure", 266),
    "completion-leaves-shifted": ("bounded_win_failure", 336),
}

WHY = {
    "verify-targets": "the paper's verdicts: strategy.verifier does ~99% of "
    "the work, its memo drives peak RSS, and 0 to 3 stacked layer frames "
    "expose costs that grow with stack depth",
    "refute-mutants": "the verifier on its counterexample path: 20 mutants, "
    "6 stop within 5 lines, so per-call fixed costs and up-front "
    "precomputation weigh far more than traversal speed",
    "solve-games": "exact mb/cp search, certificate shortcuts, core parsing "
    "and the cli envelope on .hg boards; a non-zero seed relabels every "
    "board, so a claim can be rechecked on a fresh seed",
}

WORKLOADS = tuple(WHY)

# Boards of ``solve-games``, in the order their relabellings are drawn.
SOLVE_BOARDS = ("gamma", "g3-split", "gcp")


def seeded_permutations(seed: int, sizes: dict) -> dict:
    """One vertex permutation per board, drawn in ``SOLVE_BOARDS`` order from
    ``random.Random(seed)``; seed 0 keeps the shipped labels."""
    rng = random.Random(seed)
    perms = {}
    for name in SOLVE_BOARDS:
        perm = list(range(sizes[name]))
        if seed != 0:
            rng.shuffle(perm)
        perms[name] = perm
    return perms


def check_verdict(verdict: dict, got: dict) -> str | None:
    """The first pinned verdict field that ``got`` contradicts, as text."""
    for key, want in verdict.items():
        if got.get(key, "<missing>") != want:
            return f"{key}: expected {want!r}, got {got.get(key, '<missing>')!r}"
    return None


def counter_drift(counters: dict, got: dict) -> dict:
    """Pinned counters whose value moved, as ``{name: [pinned, got]}``."""
    return {
        key: [want, got.get(key)]
        for key, want in counters.items()
        if got.get(key) != want
    }


def payload_facts(payload: dict) -> dict:
    """The payload with the certificate flattened to its kind."""
    facts = dict(payload)
    cert = payload.get("certificate")
    facts["certificate_kind"] = cert["kind"] if isinstance(cert, dict) else None
    return facts
