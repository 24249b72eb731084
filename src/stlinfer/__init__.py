"""stlinfer: gradient-based inference of interpretable signal temporal
logic formulas for binary time-series classification.

The library trains a small differentiable network whose structure mirrors
a formula in disjunctive normal form over windowed temporal atoms.  All
pooling is done with sign-sound sparse softmax activations, so the
formula read out of the trained parameters classifies every sample
exactly like the network does.
"""

from .stl import (
    And,
    Formula,
    IntervalError,
    Or,
    ParseError,
    Predicate,
    Signal,
    TemporalAtom,
    TemporalOp,
    dnf,
    dnf_clauses,
    format_formula,
    mcr,
    parse_formula,
    robustness,
    satisfied,
)
from .network import (
    ActivationParams,
    EmptyFormulaError,
    EmptySelectionError,
    ModelParams,
    NetworkShape,
    SlotSpec,
    network_outputs,
    soundness_bound_check,
)
from .datasets import (
    DrivingBehavior,
    LabeledDataset,
    gen_driving,
    gen_driving_pair,
    gen_naval,
    load_csv,
    save_csv,
)
from .trainer import (
    DivergenceError,
    TrainConfig,
    TrainReport,
    UnsoundConfigError,
    extract_formula,
    formula_from_gates,
    project_params,
    simplify,
    train,
)
from .evaluate import emit_report, load_model, network_mcr, sign_agreement

__version__ = "0.1.0"
