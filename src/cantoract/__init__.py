"""Towers of finite permutation actions with holonomy and coset statistics."""

__version__ = "0.1.0"

from .chain import (
    ChainAction,
    Cylinder,
    LevelAction,
    PointApprox,
    ValidationReport,
    schreier_generators,
    validate_chain,
)
from .builders import (
    chain_from_dict,
    chain_to_dict,
    dihedral,
    fragmented,
    heisenberg,
    load_chain,
    mealy_chain,
    odometer,
    save_chain,
    toral,
)
from .errors import BudgetError, CantorActError, InvalidChainError, SchemaError
from .farber import FarberReport, farber_check, local_farber_check
from .holonomy import FixedSetReport, fixed_set_report, interior_scan_limit
from .lcs import LcsWitnessReport, gamma_candidates, witness_search
from .words import GeneratorAlphabet, Word, commutator, reduced_words, render_word

# Names whose module no Farber or LCS analysis reaches: each module is
# imported (and so compiled) on the first read of one of its names.
_LAZY = {
    **dict.fromkeys(("DensityProfile", "LqaScaleEstimate", "TrivialityWitness", "density_profile",
                     "lqa_scale_estimate", "partial_triviality_witnesses", "sample_uniform"),
                    "scans"),
    **dict.fromkeys(("MealyMachine", "is_trivial", "load_machine"), "mealy"),
    "fat_cantor": "punctured",
    "parse_word": "parse",
    "stabilizer_count_oracle": "oracle",
}


def __getattr__(name):
    """A name of ``_LAZY``, read from its module and kept here for the next read."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value
