"""Towers of finite permutation actions with holonomy and coset statistics."""

__version__ = "0.1.0"

from .chain import (
    ChainAction,
    Cylinder,
    LevelAction,
    PointApprox,
    ValidationReport,
    sample_uniform,
    schreier_generators,
    validate_chain,
)
from .builders import (
    chain_from_dict,
    chain_to_dict,
    dihedral,
    fat_cantor,
    fragmented,
    heisenberg,
    load_chain,
    mealy_chain,
    odometer,
    save_chain,
    toral,
)
from .errors import BudgetError, CantorActError, InvalidChainError, SchemaError
from .farber import (
    FarberReport,
    core_membership,
    farber_check,
    local_farber_check,
    stabilizer_count_oracle,
)
from .holonomy import (
    DensityProfile,
    FixedSetReport,
    LqaScaleEstimate,
    TrivialityWitness,
    density_profile,
    fixed_set_report,
    interior_scan_limit,
    lqa_scale_estimate,
    partial_triviality_witnesses,
)
from .lcs import LcsWitnessReport, gamma_candidates, witness_search
from .mealy import MealyMachine, is_trivial, load_machine
from .words import GeneratorAlphabet, Word, commutator, parse_word, reduced_words, render_word
