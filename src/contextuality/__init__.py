"""Exact-arithmetic contextuality analysis of empirical models on
measurement covers.

The package decides whether a model's per-context behaviour pieces together
into global assignments, two ways: an exhaustive global-section oracle, and
a per-section obstruction computed by solving an exact linear system over
the integers or over GF(2).  A bundled corpus of standard models (Hardy,
PR box, GHZ, one-hot covers, the parity square) is exposed through the
`contextuality` command-line tool.
"""

from .analysis import (
    FalsePositiveReport,
    GcdReport,
    false_positives,
    gcd_condition,
    is_ks_shaped,
    ks_vanishing_implies_gcd_check,
    witness_context_sums,
)
from .cohomology import (
    Certificate,
    Cochain,
    LinearCombination,
    ObstructionResult,
    ObstructionSystem,
    Ring,
    SolveResult,
    VerificationError,
    all_obstructions,
    cochain,
    cochain_basis,
    cochain_from_vector,
    cochain_to_vector,
    coboundary,
    combination,
    embed,
    gf2_cohomology_dimensions,
    obstruction,
    support_at,
    verify_witness,
    zero_cochain,
)
from .corpus import EXAMPLE_NAMES, example_text, load_example
from .documents import (
    DocumentError,
    ScenarioDocument,
    parse_scenario,
)
from .extendability import (
    Classification,
    Verdict,
    classify,
    global_sections,
    is_extendable_at,
)
from .model import (
    EmpiricalModel,
    SignallingError,
    SignallingViolation,
    SupportModel,
    SupportViolation,
    assignment_count,
    check_no_signalling,
    empirical_model,
    ks_support,
    marginalize,
    parity_support,
    support_model,
    support_of,
    support_violations,
)
from .report import build_report, emit_report, render_text
from .scenario import (
    Context,
    CoverWarning,
    Scenario,
    Section,
    Simplex,
    build_scenario,
    canonical_subset,
    enumerate_sections,
    face,
    is_connected,
    nerve,
    restrict_section,
)

__version__ = "0.1.0"
