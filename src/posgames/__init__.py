"""Exact solvers and strategy verification for positional games.

Subpackages and modules:
  * :mod:`posgames.core` - hypergraphs, positions, the `.hg` format;
  * :mod:`posgames.constructions` - the named boards studied by the toolkit;
  * :mod:`posgames.mb` - the exact Maker-Breaker solver and certificates;
  * :mod:`posgames.cp` - the exact Chooser-Picker solver and case tables;
  * :mod:`posgames.strategy` - scripted strategy trees and their verifier;
  * :mod:`posgames.cli` - the command-line interface.
"""

from __future__ import annotations

from .core import (
    ClaimError,
    HgParseError,
    Hypergraph,
    Position,
    Side,
    apply_claim,
    is_automorphism,
    is_uniform,
    load_hypergraph,
    max_degree,
    permute_hypergraph,
    save_hypergraph,
)

__version__ = "0.1.0"

__all__ = [
    "ClaimError",
    "HgParseError",
    "Hypergraph",
    "Position",
    "Side",
    "apply_claim",
    "is_automorphism",
    "is_uniform",
    "load_hypergraph",
    "max_degree",
    "permute_hypergraph",
    "save_hypergraph",
    "__version__",
]
