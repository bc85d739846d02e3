"""Report payloads and deterministic JSON/CSV rendering.

Rationals stay exact: JSON renders them as {"num": ..., "den": ...} and CSV
carries exact numerator/denominator columns next to a 12-significant-digit
decimal column.  All rendering is byte-deterministic for a fixed payload.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .chain import ValidationReport
from .farber import FarberReport, StabilizerCountReport
from .holonomy import DensityProfile, FixedSetReport
from .lcs import LcsWitnessReport
from .words import GeneratorAlphabet, render_word

CSV_SCHEMA_VERSION = "v1"


def frac(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def dec(value: Fraction) -> str:
    return format(float(value), ".12g")


def render_json(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    The payload holds dicts with str keys, lists, str, int, bool and None,
    of exactly these types; anything else raises ``TypeError``.  The
    caches below live for one call.  Each dict renders through
    one ``%``-template per (key tuple, indent), and a container that
    occurs more than once in the payload renders once per indent, so
    reports whose rows are shared objects (see :func:`farber_payload`)
    cost one rendering per distinct row.
    """
    templates: dict = {}
    rendered: dict = {}

    def dict_text(d: dict, pad: str) -> str:
        inner = pad + "  "
        shape = (tuple(d), pad)
        compiled = templates.get(shape)
        if compiled is None:
            for k in shape[0]:
                if type(k) is not str:
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
            keys = sorted(shape[0])
            fields = (",\n" + inner).join(
                encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys)
            template = "{\n" + inner + fields + "\n" + pad + "}"
            compiled = templates[shape] = (template, keys)
        template, keys = compiled
        return template % tuple([value(d[k], inner) for k in keys])

    def list_text(items: list, pad: str) -> str:
        inner = pad + "  "
        return ("[\n" + inner + (",\n" + inner).join([value(v, inner) for v in items])
                + "\n" + pad + "]")

    def value(v, pad: str) -> str:
        t = type(v)
        if t is str:
            return encode_basestring_ascii(v)
        if t is int:
            return int.__repr__(v)
        if v is None:
            return "null"
        if t is bool:
            return "true" if v else "false"
        if t is dict:
            render = dict_text
        elif t is list:
            render = list_text
        else:
            raise TypeError(f"cannot render {t.__name__} as JSON")
        if not v:
            return "{}" if t is dict else "[]"
        memo = (id(v), pad)
        text = rendered.get(memo)
        if text is None:
            text = rendered[memo] = render(v, pad)
        return text

    return value(payload, "") + "\n"


def render_csv(command: str, header: list[str], rows: list[list], meta: dict) -> str:
    lines = [f"#schema cantoract/{command}/{CSV_SCHEMA_VERSION}"]
    for key in sorted(meta):
        lines.append(f"#{key} {meta[key]}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def validation_payload(report: ValidationReport) -> dict:
    return {
        "depth": report.depth,
        "ok": report.ok,
        "violations": [
            {
                "invariant": v.invariant,
                "level": v.level,
                "generator": v.generator,
                "point": v.point,
                "detail": v.detail,
            }
            for v in report.violations
        ],
    }


def validation_csv(report: ValidationReport) -> tuple[list[str], list[list]]:
    header = ["invariant", "level", "generator", "point", "detail"]
    rows = [
        [v.invariant, v.level, v.generator or "", "" if v.point is None else v.point,
         '"' + v.detail.replace('"', "'") + '"']
        for v in report.violations
    ]
    return header, rows


def farber_payload(report: FarberReport, alphabet: GeneratorAlphabet) -> dict:
    """The farber report; equal trajectory rows and equal trajectories are
    one shared object each, which :func:`render_json` renders once."""
    rows: dict = {}
    trajectories: dict = {}

    def trajectory(pairs: tuple) -> list:
        # keyed by ints: hashing a Fraction runs Python code
        key = tuple([(level, ratio.numerator, ratio.denominator) for level, ratio in pairs])
        shared = trajectories.get(key)
        if shared is None:
            shared = trajectories[key] = [
                rows.setdefault(row, {"level": level, "ratio": frac(ratio)})
                for row, (level, ratio) in zip(key, pairs)
            ]
        return shared

    return {
        "kind": report.kind,
        "base_level": report.base_level,
        "depth": report.depth,
        "max_word_len": report.max_word_len,
        "tolerance": frac(report.tolerance),
        "overall": report.overall,
        "note": report.note,
        "words": [
            {
                "word": render_word(w.word, alphabet),
                "verdict": w.verdict,
                "trajectory": trajectory(w.trajectory),
            }
            for w in report.words
        ],
    }


def farber_csv(report: FarberReport, alphabet: GeneratorAlphabet) -> tuple[list[str], list[list]]:
    header = ["word", "verdict", "level", "ratio_num", "ratio_den", "ratio_dec"]
    rows = []
    for w in report.words:
        name = render_word(w.word, alphabet)
        for level, ratio in w.trajectory:
            rows.append([name, w.verdict, level, ratio.numerator, ratio.denominator, dec(ratio)])
    return header, rows


def fixed_set_payload(report: FixedSetReport, alphabet: GeneratorAlphabet) -> dict:
    return {
        "word": render_word(report.word, alphabet),
        "depth": report.depth,
        "levels": [
            {
                "level": i + 1,
                "size": report.sizes[i],
                "fixed": report.fixed_counts[i],
                "ratio": frac(Fraction(report.fixed_counts[i], report.sizes[i])),
            }
            for i in range(report.depth)
        ],
        "max_fixed_cylinders": [
            {"level": c.level, "vertex": c.vertex} for c in report.max_fixed_cylinders
        ],
        "interior_bound": frac(report.interior_bound),
        "hol_estimate": frac(report.hol_estimate),
        "interior_scan_max_level": report.interior_scan_max_level,
        "indistinguishable_from_identity_at_depth": report.indistinguishable,
    }


def fixed_set_csv(report: FixedSetReport, alphabet: GeneratorAlphabet) -> tuple[list[str], list[list]]:
    header = ["record", "level", "vertex", "size", "fixed", "num", "den", "dec"]
    rows = []
    name = render_word(report.word, alphabet)
    for i in range(report.depth):
        ratio = Fraction(report.fixed_counts[i], report.sizes[i])
        rows.append(["fixed-ratio", i + 1, "", report.sizes[i], report.fixed_counts[i],
                     ratio.numerator, ratio.denominator, dec(ratio)])
    for c in report.max_fixed_cylinders:
        measure = Fraction(1, report.sizes[c.level - 1]) if c.level >= 1 else Fraction(1)
        rows.append(["max-fixed-cylinder", c.level, c.vertex, "", "",
                     measure.numerator, measure.denominator, dec(measure)])
    rows.append(["interior-bound", "", "", "", "",
                 report.interior_bound.numerator, report.interior_bound.denominator,
                 dec(report.interior_bound)])
    rows.append(["hol-estimate", "", "", "", "",
                 report.hol_estimate.numerator, report.hol_estimate.denominator,
                 dec(report.hol_estimate)])
    return header, rows


def density_payload(profile: DensityProfile, alphabet: GeneratorAlphabet) -> dict:
    return {
        "word": render_word(profile.word, alphabet),
        "point": {"depth": profile.center.depth, "index": profile.center.index},
        "entries": [
            {"level": level, "density": frac(value)}
            for level, value in enumerate(profile.entries)
        ],
    }


def density_csv(profile: DensityProfile, alphabet: GeneratorAlphabet) -> tuple[list[str], list[list]]:
    header = ["level", "num", "den", "dec"]
    rows = [
        [level, value.numerator, value.denominator, dec(value)]
        for level, value in enumerate(profile.entries)
    ]
    return header, rows


def lcs_payload(report: LcsWitnessReport, alphabet: GeneratorAlphabet) -> dict:
    classes = []
    for c in report.classes:
        entry = {
            "class": c.class_index,
            "examined": c.examined,
            "truncated": c.truncated,
            "nonvanishing": c.nonvanishing,
            "all_indistinguishable_at_depth": c.all_indistinguishable,
            "best_word": render_word(c.best_word, alphabet) if c.best_word else None,
            "hol_estimate": frac(c.best.hol_estimate) if c.best else None,
        }
        if not c.nonvanishing:
            entry["note"] = "no nonvanishing candidate"
        classes.append(entry)
    return {
        "depth": report.depth,
        "max_word_len": report.max_word_len,
        "conj_len": report.conj_len,
        "max_candidates": report.max_candidates,
        "classes": classes,
    }


def lcs_csv(report: LcsWitnessReport, alphabet: GeneratorAlphabet) -> tuple[list[str], list[list]]:
    header = ["class", "examined", "truncated", "best_word", "hol_num", "hol_den",
              "hol_dec", "nonvanishing"]
    rows = []
    for c in report.classes:
        hol = c.best.hol_estimate if c.best else None
        rows.append([
            c.class_index,
            c.examined,
            c.truncated,
            render_word(c.best_word, alphabet) if c.best_word else "",
            hol.numerator if hol is not None else "",
            hol.denominator if hol is not None else "",
            dec(hol) if hol is not None else "",
            c.nonvanishing,
        ])
    return header, rows


def stab_count_payload(report: StabilizerCountReport, alphabet: GeneratorAlphabet) -> dict:
    return {
        "level": report.level,
        "word": render_word(report.word, alphabet),
        "group_order": report.group_order,
        "stabilizer_count": report.stabilizer_count,
        "containing_count": report.containing_count,
        "conjugacy_ratio": frac(report.conjugacy_ratio),
        "fixed_ratio": frac(report.fixed_ratio),
        "identity_holds": report.identity_holds,
    }


def stab_count_csv(report: StabilizerCountReport, alphabet: GeneratorAlphabet) -> tuple[list[str], list[list]]:
    header = ["level", "word", "group_order", "stabilizers", "containing",
              "ratio_num", "ratio_den", "ratio_dec", "identity_holds"]
    rows = [[
        report.level,
        render_word(report.word, alphabet),
        report.group_order,
        report.stabilizer_count,
        report.containing_count,
        report.conjugacy_ratio.numerator,
        report.conjugacy_ratio.denominator,
        dec(report.conjugacy_ratio),
        report.identity_holds,
    ]]
    return header, rows
