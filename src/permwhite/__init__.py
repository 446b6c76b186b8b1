"""Size-preserving whitening of random byte streams.

The input is cut into chunks of N = 2^n bits; each chunk is rewritten by
one permutation drawn at random from a pre-generated pool, which shuffles
bit positions without creating or destroying set bits. Recording which
permutation was drawn per chunk makes the transform exactly invertible.
Statistics batteries (the classic five byte-mode measures and four
bit-level tests) quantify the effect.
"""

from .baselines import von_neumann, xor_combine
from .entropy import (
    CounterSource,
    EntropySource,
    OsEntropy,
    SeedFileSource,
    make_source,
)
from .errors import (
    EntropyExhausted,
    FormatError,
    PermwhiteError,
    PreconditionError,
)
from .permutation import (
    DEFAULT_MAX_QUBITS,
    SHUFFLE_MODES,
    IndexPermutation,
    MatrixPool,
    generate_fullrange_shuffle,
    generate_pool,
    generate_unbiased_shuffle,
    pool_load,
    pool_save,
)
from .randtests import (
    IDEAL_VALUES,
    EntReport,
    NistLiteReport,
    analyze,
    compare_reports,
    ent_analyze,
    monte_carlo_pi,
    nist_lite,
    serial_correlation,
)
from .reports import (
    figure_csv,
    parse_report_csv,
    render_comparison,
    render_ent_text,
    render_nist_text,
    report_to_csv,
)
from .whitening import (
    SelectionTrace,
    WhitenConfig,
    frame,
    trace_load,
    trace_save,
    unwhiten_stream,
    whiten_stream,
)

__version__ = "0.1.0"

__all__ = [
    "CounterSource",
    "DEFAULT_MAX_QUBITS",
    "EntReport",
    "EntropyExhausted",
    "EntropySource",
    "FormatError",
    "IDEAL_VALUES",
    "IndexPermutation",
    "MatrixPool",
    "NistLiteReport",
    "OsEntropy",
    "PermwhiteError",
    "PreconditionError",
    "SHUFFLE_MODES",
    "SeedFileSource",
    "SelectionTrace",
    "WhitenConfig",
    "analyze",
    "compare_reports",
    "ent_analyze",
    "figure_csv",
    "frame",
    "generate_fullrange_shuffle",
    "generate_pool",
    "generate_unbiased_shuffle",
    "make_source",
    "monte_carlo_pi",
    "nist_lite",
    "parse_report_csv",
    "pool_load",
    "pool_save",
    "render_comparison",
    "render_ent_text",
    "render_nist_text",
    "report_to_csv",
    "serial_correlation",
    "trace_load",
    "trace_save",
    "unwhiten_stream",
    "von_neumann",
    "whiten_stream",
    "xor_combine",
]
