"""Scripted strategies and exhaustive strategy verification.

The submodules split the work four ways: ``nodes`` defines the strategy
tree vocabulary, ``layers`` the board-to-board replay adapters, ``verifier``
the exhaustive check that a tree beats every opponent line, and
``builders``/``lifts`` the shipped strategies for the bundled boards.
"""

from __future__ import annotations

from .builders import build_g3_strategy, build_gamma_strategy
from .layers import Layer
from .lifts import lift_g4, lift_gamma_prime, lift_split
from .mutations import named_mutations
from .nodes import (
    BoundedWin,
    Claim,
    ClaimFirstFree,
    EnterLayer,
    Node,
    ReplyClass,
    Respond,
    StrategyTree,
    WinNow,
    conjugate,
    is_conjugate,
    iter_nodes,
    replace_first,
)
from .verifier import Counterexample, VerificationReport, verify_maker_strategy

__all__ = [
    "BoundedWin",
    "Claim",
    "ClaimFirstFree",
    "Counterexample",
    "EnterLayer",
    "Layer",
    "Node",
    "ReplyClass",
    "Respond",
    "StrategyTree",
    "VerificationReport",
    "WinNow",
    "build_g3_strategy",
    "build_gamma_strategy",
    "conjugate",
    "is_conjugate",
    "iter_nodes",
    "lift_g4",
    "lift_gamma_prime",
    "lift_split",
    "named_mutations",
    "replace_first",
    "verify_maker_strategy",
]
