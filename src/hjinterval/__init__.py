"""Two-colourings of the three-letter cube and their interval lines.

The package turns one combinatorial construction into working code:
five seed patterns and nine bracket words that force a monochromatic
combinatorial line with a contiguous active set once a colouring is
homogeneous enough, plus the searches, SAT encodings and Ramsey bound
towers that probe where such lines become unavoidable.
"""

from .bounds import BoundExpr, plus_one, ramsey_upper, tower
from .cnf import (
    CnfInstance,
    EncoderBugError,
    SolveOutcome,
    decode_model,
    encode,
    parse_dimacs,
    run_solver,
    solve_builtin,
    write_dimacs,
)
from .cube import (
    Coloring,
    Line,
    Symmetry,
    Word,
    all_symmetries,
    apply_symmetry,
    first_mono_line,
    interval_line,
    is_monochromatic,
    load_coloring,
    rank,
    save_coloring,
    unrank,
)
from .gadgets import (
    SEED_LENGTHS,
    SEED_PATTERNS,
    LineCertificate,
    Quadruple,
    case_lemma_check,
    find_interval_line,
    first_singleton_index,
    gadget_lines,
    gadget_words,
    homogeneous_colors,
    nsets,
    pattern_coloring,
    render_certificate,
)
from .patterns import Pattern, breakpoints, contract, realize
from .search import (
    SearchReport,
    exhaustive_search,
    local_search,
    render_search_report,
    violation_count,
)

__version__ = "0.1.0"
