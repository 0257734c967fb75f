"""Reachability toolkit for (2,1) parametric timed automata.

Pipeline: PTA -> 0/1-PTA -> region automata -> arithmetic progressions ->
parametric one-counter automaton, with brute-force oracles validating every
stage and a run-surgery calculus (shift, glue, depump, bracket search) on
counter semiruns.
"""

from .automata import (
    POCA,
    PTA,
    AddConst,
    AddParam,
    CmpConst,
    CmpParam,
    DerivedConstants,
    Guard,
    ModTest,
    PocaRule,
    PtaRule,
    ZeroOnePTA,
    derive_constants,
    lcm_range,
    lcm_set,
)
from .semantics import (
    PocaConfiguration,
    PtaConfiguration,
    Run,
    apply_op,
    poca_reach_bounded,
    poca_step,
    pta_reach_bruteforce,
    pta_step,
    semitransition_step,
    validate_run,
    zero_one_reach_bruteforce,
)
from .zero_one import product_origin, to_zero_one_pta
from .regions import Region, region_automaton, region_oca, region_of, region_satisfies
from .semilinear import APSet, apset_member, reach_lengths
from .semiruns import (
    Embedding,
    Semirun,
    classify_hill_valley,
    depump,
    find_bracket_subrun,
    from_run,
    glue,
    in_lambda,
    in_psi,
    is_embedding,
    multi_glue,
    phi,
    shift,
)
from .poca_build import (
    BuildResult,
    GadgetSpec,
    build_poca,
    decode_witness,
    normalize_accepting_zero,
)
from .solver import CrossCheckReport, Verdict, cross_check, decide
from .fixtures import fixture_corpus, poca_mod6_fixture

__all__ = [name for name in dir() if not name.startswith("_")]
