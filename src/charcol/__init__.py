"""charcol: exact character-table columns via induction-restriction operators.

Whole columns of symmetric-group and wreath-product character tables are
computed by applying falling-factorial polynomials of the Ind Res operator
to lifted character vectors, with independent oracles and an exact
constraint-verification suite alongside.
"""

from .chain import BranchingOperator, Chain, SymmetricChain, WreathChain, get_chain
from .engine import (
    CharacterColumn,
    FallingFactorialPoly,
    ReducedOperator,
    character_column,
    odd_column,
    reduced_operator,
)
from .hgroup import (
    GroupTable,
    SizeBoundError,
    TableValidationError,
    builtin_table,
    symmetric_group_table,
    wreath_char_table,
)
from .lifting import lift, lift_column_input
from .partitions import mn_character
from .verify import (
    ChainParams,
    IngestedChain,
    fit_chain_params,
    ingest_chain,
    jeongha_class_constraint,
    oracle_column,
    roots_vs_characters,
    run_suite,
)

__all__ = [
    "BranchingOperator",
    "Chain",
    "ChainParams",
    "CharacterColumn",
    "FallingFactorialPoly",
    "GroupTable",
    "IngestedChain",
    "ReducedOperator",
    "SizeBoundError",
    "SymmetricChain",
    "TableValidationError",
    "WreathChain",
    "builtin_table",
    "character_column",
    "fit_chain_params",
    "get_chain",
    "ingest_chain",
    "jeongha_class_constraint",
    "lift",
    "lift_column_input",
    "mn_character",
    "odd_column",
    "oracle_column",
    "reduced_operator",
    "roots_vs_characters",
    "run_suite",
    "symmetric_group_table",
    "wreath_char_table",
]

__version__ = "0.1.0"
