"""Report payloads and deterministic JSON/CSV rendering.

Each report is one JSON payload; its CSV table is projected from that
payload by :func:`csv_table`.  Rationals stay exact: JSON renders them as
{"num": ..., "den": ...} and CSV carries exact numerator/denominator
columns next to a 12-significant-digit decimal column.  All rendering is
byte-deterministic for a fixed payload.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

from .words import GeneratorAlphabet, render_word

if TYPE_CHECKING:
    from .chain import ValidationReport
    from .farber import FarberReport
    from .holonomy import FixedSetReport
    from .lcs import LcsWitnessReport
    from .oracle import StabilizerCountReport
    from .scans import DensityProfile

CSV_SCHEMA_VERSION = "v1"


def frac(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def render_json(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    The payload holds dicts with str keys, lists, str, int, bool and None,
    of exactly these types; anything else raises ``TypeError``.  Every
    piece of text is appended to one list, joined once at the end, so no
    unshared container is built as a string of its own and the peak memory
    is about the size of the report.  The separators and quoted keys of a
    dict are built once per (key tuple, indent), a list's once per indent.
    A container met again at the same indent re-emits its first rendering:
    its first use records the ``(start, end)`` span of the pieces it
    appended, and its second joins that span once and keeps the text.  So
    reports whose rows are shared objects (see :func:`farber_payload`)
    cost one rendering per distinct row and indent.
    """
    out = []
    append = out.append
    layouts: dict = {}
    spans: dict = {}

    def container(v, pad: str) -> None:
        memo = (id(v), pad)
        span = spans.get(memo)
        if span is not None:
            if type(span) is tuple:
                span = spans[memo] = "".join(out[span[0]:span[1]])
            append(span)
            return
        start = len(out)
        inner = pad + "  "
        if type(v) is dict:
            shape = (tuple(v), pad)
            layout = layouts.get(shape)
            if layout is None:
                for k in shape[0]:
                    if type(k) is not str:
                        raise TypeError(f"keys must be str, not {type(k).__name__}")
                layout = layouts[shape] = (
                    [(("{\n" if n == 0 else ",\n") + inner + encode_basestring_ascii(k) + ": ", k)
                     for n, k in enumerate(sorted(shape[0]))],
                    "\n" + pad + "}")
            fields, close = layout
            for prefix, k in fields:
                value(v[k], inner, prefix)
        else:
            marks = layouts.get(pad)
            if marks is None:
                marks = layouts[pad] = ("[\n" + inner, ",\n" + inner, "\n" + pad + "]")
            prefix, sep, close = marks
            for item in v:
                value(item, inner, prefix)
                prefix = sep
        append(close)
        spans[memo] = (start, len(out))

    def value(v, pad: str, prefix: str) -> None:
        # a scalar is appended with the text before it as one piece
        t = type(v)
        if t is str:
            append(prefix + encode_basestring_ascii(v))
        elif t is int:
            append(prefix + int.__repr__(v))
        elif v is None:
            append(prefix + "null")
        elif t is bool:
            append(prefix + ("true" if v else "false"))
        elif t is dict or t is list:
            if v:
                append(prefix)
                container(v, pad)
            else:
                append(prefix + ("{}" if t is dict else "[]"))
        else:
            raise TypeError(f"cannot render {t.__name__} as JSON")

    value(payload, "", "")
    append("\n")
    return "".join(out)


def render_csv(command: str, header: list[str], rows: list[list], meta: dict) -> str:
    lines = [f"#schema cantoract/{command}/{CSV_SCHEMA_VERSION}"]
    for key in sorted(meta):
        lines.append(f"#{key} {meta[key]}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def _ratio(stem: str = "") -> tuple[str, str, str]:
    """The headers of an exact-ratio column: ``stem_num, stem_den, stem_dec``,
    or bare ``num, den, dec`` without a stem."""
    prefix = f"{stem}_" if stem else ""
    return (prefix + "num", prefix + "den", prefix + "dec")


def csv_table(rows: list[dict], columns: list) -> tuple[list[str], list[list]]:
    """The CSV header and rows projected from a report's JSON ``rows``.

    ``columns`` lists ``(json key, header)`` pairs in column order, or a
    bare name that is both.  Under a :func:`_ratio` header an exact
    ``{"num", "den"}`` value fills three cells, the last its
    12-significant-digit decimal.  A null or missing value gives empty
    cells.
    """
    columns = [(c, c) if type(c) is str else c for c in columns]
    header = []
    for _, head in columns:
        header += head if type(head) is tuple else [head]
    table = []
    for row in rows:
        cells = []
        for key, head in columns:
            value = row.get(key)
            if type(head) is not tuple:
                cells.append("" if value is None else value)
            elif value is None:
                cells += ("", "", "")
            else:
                num, den = value["num"], value["den"]
                cells += (num, den, format(num / den, ".12g"))
        table.append(cells)
    return header, table


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


def validation_csv(payload: dict) -> tuple[list[str], list[list]]:
    # a detail is free text, so its cell is quoted with inner quotes swapped
    rows = [{**v, "detail": '"' + v["detail"].replace('"', "'") + '"'}
            for v in payload["violations"]]
    return csv_table(rows, ["invariant", "level", "generator", "point", "detail"])


def farber_payload(report: FarberReport, alphabet: GeneratorAlphabet) -> dict:
    """The farber report; words whose ``WordVerdict.trajectory`` is one
    tuple share one trajectory list, which :func:`render_json` renders once
    per indent.  ``farber._score`` builds one tuple per distinct count
    list, and the report keeps it alive, so its identity is the key."""
    shared: dict = {}

    def trajectory(pairs: tuple) -> list:
        rows = shared.get(id(pairs))
        if rows is None:
            rows = shared[id(pairs)] = [{"level": level, "ratio": frac(ratio)}
                                        for level, ratio in pairs]
        return rows

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


def farber_csv(payload: dict) -> tuple[list[str], list[list]]:
    # one row per trajectory step, repeating its word's cells
    rows = [{**w, **step} for w in payload["words"] for step in w["trajectory"]]
    return csv_table(rows, ["word", "verdict", "level", ("ratio", _ratio("ratio"))])


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


def fixed_set_csv(payload: dict) -> tuple[list[str], list[list]]:
    levels = payload["levels"]
    rows = [{"record": "fixed-ratio", **lv} for lv in levels]
    # CSV alone gives a max-fixed cylinder a measure: 1/size of its level
    rows += [{"record": "max-fixed-cylinder", **c,
              "ratio": {"num": 1, "den": levels[c["level"] - 1]["size"] if c["level"] else 1}}
             for c in payload["max_fixed_cylinders"]]
    rows += [{"record": "interior-bound", "ratio": payload["interior_bound"]},
             {"record": "hol-estimate", "ratio": payload["hol_estimate"]}]
    return csv_table(rows, ["record", "level", "vertex", "size", "fixed", ("ratio", _ratio())])


def density_payload(profile: DensityProfile, alphabet: GeneratorAlphabet) -> dict:
    return {
        "word": render_word(profile.word, alphabet),
        "point": {"depth": profile.center.depth, "index": profile.center.index},
        "entries": [
            {"level": level, "density": frac(value)}
            for level, value in enumerate(profile.entries)
        ],
    }


def density_csv(payload: dict) -> tuple[list[str], list[list]]:
    return csv_table(payload["entries"], ["level", ("density", _ratio())])


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


def lcs_csv(payload: dict) -> tuple[list[str], list[list]]:
    return csv_table(payload["classes"], ["class", "examined", "truncated", "best_word",
                                          ("hol_estimate", _ratio("hol")), "nonvanishing"])


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


def stab_count_csv(payload: dict) -> tuple[list[str], list[list]]:
    return csv_table([payload], ["level", "word", "group_order",
                                 ("stabilizer_count", "stabilizers"),
                                 ("containing_count", "containing"),
                                 ("conjugacy_ratio", _ratio("ratio")), "identity_holds"])
