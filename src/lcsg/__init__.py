"""A laboratory for reading next-token generation as grammar derivation.

The package has three layers.  The grammar layer (``symbols``, ``grammar``,
``grammar_io``, ``derivation``, ``stochastic``) covers classification,
bounded membership and enumeration, and weighted derivation sampling with
exact string probabilities.  The generation layer (``autoregressive``,
``predictors``) runs the next-token loop over pluggable predictors.  The
bridge (``bridge``, ``traces``) extracts a generation run's production
sequence, checks each production's form, replays it, and induces explicit
grammars from finite-state predictors.
"""

from .autoregressive import (
    END,
    Configuration,
    EndOfSequence,
    EndTokenError,
    GenerationRecord,
    GenerationStep,
    IntermediateConfiguration,
    Predictor,
    PredictorState,
    TokenDistribution,
    UnknownTokenError,
    generate,
    step_cwu,
    step_ntp,
)
from .bridge import (
    B_DYN,
    DynamicNonterminal,
    DynamicProduction,
    DynamicStart,
    EquivalenceVerdict,
    FormCheck,
    FormCheckStatus,
    NonconformingRecordError,
    ReplayMismatchError,
    StateBudgetExceededError,
    TraceReport,
    UnsupportedInfiniteStateError,
    build_trace_report,
    check_left_cs_form,
    check_weak_equivalence,
    extract_productions,
    induce_grammar,
    lambda_free_skeleton,
    replay,
)
from .derivation import (
    DEFAULT_FUEL,
    DerivationStep,
    DerivationTrace,
    FuelExhaustedError,
    NoMatchError,
    NotNoncontractingError,
    OutOfRangeError,
    apply_step,
    derives_bounded,
    enumerate_language,
    successors,
)
from .grammar import (
    GRAMMAR_CLASS_ORDER,
    Grammar,
    Production,
    ProductionClass,
    ValidationReport,
    classify_grammar,
    classify_production,
    is_right_linear,
    validate_grammar,
)
from .grammar_io import GrammarParseError, parse_grammar, render_grammar
from .predictors import (
    EmptyCorpusError,
    GrammarPredictor,
    ImpossibleContextError,
    NgramPredictor,
    NotLeftLinearizableError,
    ToyAttentionPredictor,
    grammar_predictor,
    ngram_train,
    read_corpus,
    read_vocab,
    toy_attention_predictor,
)
from .stochastic import (
    BoundMismatchError,
    DeadEndError,
    SampledDerivation,
    StringDistribution,
    WeightedGrammar,
    ZeroMassError,
    exact_distribution,
    normalize_weights,
    sample_derivation,
    string_probability,
    total_variation,
)
from .symbols import EMPTY, Symbol, SymbolKind, SymbolString, nonterminal, terminal
from .traces import TraceParseError, parse_trace, serialize_trace

__version__ = "0.1.0"
