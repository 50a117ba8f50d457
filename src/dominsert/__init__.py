"""Exact domino Schensted insertion, growth rules, and identity checks."""

from .partitions import (
    DominoShape,
    as_partition,
    conjugate,
    domino_predecessors,
    domino_successors,
    enumerate_partitions,
    enumerate_with_core,
    staircase,
    two_core,
    two_quotient,
)
from .tableaux import (
    DominoTableau,
    enumerate_semistandard,
    enumerate_standard,
    spin_poly,
)
from .words import (
    Biletter,
    ColoredBiword,
    Letter,
    biword,
    colored_word,
    parse_biword,
    parse_word,
)
from .insertion import (
    GrowthDiagram,
    InsertionResult,
    biword_insert,
    biword_reverse,
    dual_insert_alpha,
    dual_insert_beta,
    growth,
    growth_reverse,
    growth_reverse_word,
    insert_word,
)

__all__ = [name for name in dir() if not name.startswith("_")]
