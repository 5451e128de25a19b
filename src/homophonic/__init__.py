"""Homophone-driven quotients of free groups on alphabets.

The package builds free groups on the letters of a script, imposes the
relations given by identically pronounced word pairs, simplifies the
resulting presentation by generator elimination, and certifies every
verdict with an exact abelianization check.  A Hangul codec flattens
Korean syllables to jamo and parses them back uniquely.
"""

from .abelianization import (
    AbelianInvariants,
    ExponentMatrix,
    abelian_invariants,
    certificate_line,
    consistent,
    exponent_matrix,
    smith_normal_form,
)
from .datasets import (
    LanguageDataset,
    builtin_dataset,
    load_dataset,
    parse_dataset,
    save_dataset,
    serialize_dataset,
    to_presentation,
)
from .hangul import (
    SyllableDecomposition,
    compose_syllable,
    decompose_syllable,
    decompose_text,
    parse_jamo,
)
from .presentation import (
    EliminationStep,
    EliminationTrace,
    FreeOfRank,
    NotEliminableError,
    Presentation,
    Provenance,
    Relation,
    TraceInvalidError,
    Trivial,
    Unresolved,
    Verdict,
    describe_verdict,
    eliminate,
    machine_trace,
    normalize,
    relator_from_relation,
    render_trace,
    replay,
    simplify,
)
from .words import (
    Alphabet,
    Generator,
    SignedLetter,
    Word,
    concat,
    cyclic_reduce,
    display,
    free_reduce,
    parse_word,
    split_graphemes,
    substitute,
)

__version__ = "0.1.0"
