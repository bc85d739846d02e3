"""Result records are immutable tuples that keep the frozen-dataclass
surface: field order, ``Name(field=value, ...)`` repr, equality and
``hash(tuple of fields)``; and ``dataclasses`` stays off the import path."""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from cantoract.chain import Cylinder, PointApprox, ValidationReport, Violation
from cantoract.farber import EVIDENCE_NOTE, FarberReport, WordVerdict
from cantoract.holonomy import FixedSetReport
from cantoract.lcs import CandidateStream, ClassReport, LcsWitnessReport
from cantoract.oracle import StabilizerCountReport
from cantoract.punctured import Puncture
from cantoract.scans import DensityProfile, LqaScaleEstimate, TrivialityWitness
from cantoract.words import GeneratorAlphabet, Word

# Each record with its fields in declaration order.
RECORDS = [
    (Word, ("letters",)),
    (GeneratorAlphabet, ("names",)),
    (PointApprox, ("depth", "index")),
    (Cylinder, ("level", "vertex")),
    (Violation, ("invariant", "level", "generator", "point", "detail")),
    (ValidationReport, ("depth", "violations")),
    (WordVerdict, ("word", "verdict", "trajectory")),
    (FarberReport, ("kind", "base_level", "depth", "max_word_len", "tolerance", "words",
                    "overall", "note")),
    (StabilizerCountReport, ("level", "word", "group_order", "stabilizer_count",
                             "containing_count", "conjugacy_ratio", "fixed_ratio",
                             "identity_holds")),
    (FixedSetReport, ("word", "depth", "sizes", "fixed_counts", "max_fixed_cylinders",
                      "interior_bound", "hol_estimate", "interior_scan_max_level",
                      "indistinguishable")),
    (DensityProfile, ("word", "center", "entries")),
    (TrivialityWitness, ("word", "cylinder", "exact")),
    (LqaScaleEstimate, ("depth", "max_word_len", "scale_level")),
    (CandidateStream, ("words", "truncated")),
    (ClassReport, ("class_index", "examined", "truncated", "best_word", "best",
                   "nonvanishing", "all_indistinguishable")),
    (LcsWitnessReport, ("depth", "max_word_len", "conj_len", "max_candidates", "classes")),
    (Puncture, ("cylinder_level", "cylinder_vertex", "level", "vertex")),
]


def _values(cls, fields):
    if cls is GeneratorAlphabet:
        return (("a", "b"),)
    # distinct, hashable values of mixed types, one per field
    return tuple((Fraction(i + 1, 7), field) for i, field in enumerate(fields))


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_keeps_the_frozen_dataclass_surface(cls, fields):
    values = _values(cls, fields)
    record = cls(*values)
    reference = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)(*values)
    assert cls(**dict(zip(fields, values))) == record
    assert repr(record) == repr(reference)
    assert hash(record) == hash(reference) == hash(values)
    assert record == cls(*values)
    assert record != cls(*(values[1:] + values[:1] if len(values) > 1 else (("b", "a"),)))
    if cls is not GeneratorAlphabet:
        assert tuple(record) == values and record[0] == values[0]
    for field, value in zip(fields, values):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert getattr(record, field) == value


def test_farber_report_note_defaults_to_the_evidence_note():
    report = FarberReport("farber", 0, 3, 2, Fraction(1, 64), (), "pass-at-depth")
    assert report.note == EVIDENCE_NOTE
    assert report._replace(overall="fail-at-depth").note == EVIDENCE_NOTE


def test_alphabet_is_no_tuple():
    """Unlike the named tuples, an alphabet equals only another alphabet and
    keeps its field against ``del`` too (its ``__slots__`` would allow it)."""
    assert GeneratorAlphabet(("a",)) != (("a",),)
    with pytest.raises(AttributeError):
        del GeneratorAlphabet(("a",)).names


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """``import cantoract.cli`` in a fresh interpreter, with or without
    ``site``, loads neither ``dataclasses`` nor the ``inspect`` it pulls in."""
    code = ("import cantoract.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    for flags in ([], ["-S"]):
        proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
