"""Span tracing of cantoract from outside: wrappers, span log, per-layer metrics.

The benchmark never edits ``src/``.  Instead a traced process replaces the
public functions at each layer boundary with wrappers that record a span
(name, parent, start, end) in memory; the spans are written out when the
process ends and turned into per-layer metrics by :func:`layer_metrics`.

Module functions are wrapped in the namespace of the module that *calls*
them, because ``from .x import y`` binds ``y`` in the caller: wrapping
``cantoract.chain.schreier_generators`` would miss the call made from
``cantoract.farber``.  Methods are wrapped on their class.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module or "module:Class", attribute, span name).  Every entry must fire on
# at least one workload; the wrapper self-test in test_bench.py checks it.
WRAPPERS = (
    ("cantoract.chain:ChainAction", "word_permutation", "chain.word_permutation"),
    ("cantoract.chain:ChainAction", "fiber", "chain.fiber"),
    ("cantoract.mealy:MealyMachine", "transduce", "mealy.transduce"),
    ("cantoract.farber", "schreier_generators", "chain.schreier"),
    ("cantoract.farber", "local_candidates", "farber.candidates"),
    ("cantoract.farber", "reduced_words", "words.enumerate"),
    ("cantoract.lcs", "reduced_words", "words.enumerate"),
    ("cantoract.farber", "farber_check", "farber.check"),
    ("cantoract.farber", "local_farber_check", "farber.check"),
    ("cantoract.cli", "farber_check", "farber.check"),
    ("cantoract.cli", "local_farber_check", "farber.check"),
    ("cantoract.lcs", "fixed_set_report", "holonomy.fixed_set_report"),
    ("cantoract.cli", "fixed_set_report", "holonomy.fixed_set_report"),
    ("cantoract.lcs", "gamma_candidates", "lcs.gamma_candidates"),
    ("cantoract.lcs", "witness_search", "lcs.witness_search"),
    ("cantoract.cli", "witness_search", "lcs.witness_search"),
    ("cantoract.cli", "load_chain", "builders.load"),
    ("cantoract.chain", "validate_chain", "chain.validate"),
    ("cantoract.builders", "validate_chain", "chain.validate"),
    ("cantoract.cli", "validate_chain", "chain.validate"),
    ("cantoract.cli", "main", "cli.main"),
) + tuple(
    ("cantoract.reports", f"{kind}_{form}", "reports.payload")
    for kind in ("validation", "farber", "fixed_set", "density", "lcs", "stab_count")
    for form in ("payload", "csv")
) + (
    ("cantoract.reports", "render_json", "reports.render"),
)

# The provider closure of every chain is wrapped when the chain is created.
MATERIALIZE = "builders.materialize"


class Tracer:
    """In-memory span log plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []
        self.counts: dict[str, float] = {}
        self.seen: dict[str, set] = {}
        self.fired: dict[str, int] = {}
        self._stack = [-1]

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def distinct(self, name: str, key) -> None:
        self.seen.setdefault(name, set()).add(key)

    def wrap(self, name: str, fn, note=None, key=None):
        """``fn`` recording a span per call; ``key`` names the wrapper in :attr:`fired`."""
        spans, stack, fired = self.spans, self._stack, self.fired
        clock = time.perf_counter
        key = key or name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            fired[key] = fired.get(key, 0) + 1
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, start, end)
            if note is not None:
                note(self, args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn, key):
        """One span per item pulled, so enumeration time is a child of its consumer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.fired[key] = self.fired.get(key, 0) + 1
            step = self.wrap(name, next, key=name)
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                self.count("words.enumerated")
                yield item

        return traced

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": self.counts,
            "distinct": {name: len(keys) for name, keys in self.seen.items()},
            "fired": self.fired,
        }


def _note_word_permutation(tracer, args, kwargs, result):
    _, word, level = args
    tracer.count("chain.perm_gathers", len(word) * len(result))
    tracer.distinct("chain.word_permutation", (word.letters, level))


def _note_fiber(tracer, args, kwargs, result):
    chain, base_level, level, vertex = args
    tracer.count("chain.fiber_points_scanned", chain.size(level))
    tracer.distinct("chain.fiber", (base_level, level, vertex))


def _note_transduce(tracer, args, kwargs, result):
    tracer.count("mealy.letters_transduced", len(args[2]))


def _note_local_candidates(tracer, args, kwargs, result):
    gens, words = result
    max_len = args[2]
    letters = 2 * len(gens)
    sequences = sum(letters * (letters - 1) ** (k - 1) for k in range(1, max_len + 1))
    tracer.count("farber.candidate_sequences", sequences)
    tracer.count("farber.candidate_words", len(words))


def _note_farber(tracer, args, kwargs, result):
    tracer.count("farber.core_words",
                 sum(1 for w in result.words if w.verdict == "indistinguishable-from-identity"))


def _note_witness_search(tracer, args, kwargs, result):
    tracer.count("lcs.examined", sum(c.examined for c in result.classes))


def _note_render(tracer, args, kwargs, result):
    tracer.count("reports.bytes", len(result.encode("utf-8")))


NOTES = {
    "chain.word_permutation": _note_word_permutation,
    "chain.fiber": _note_fiber,
    "mealy.transduce": _note_transduce,
    "farber.candidates": _note_local_candidates,
    "farber.check": _note_farber,
    "lcs.witness_search": _note_witness_search,
    "reports.render": _note_render,
}


def wrapper_key(target: str, attr: str) -> str:
    return f"{target}.{attr}"


PROVIDER_KEY = wrapper_key("cantoract.chain:ChainAction", "_provider")


def all_wrapper_keys() -> set[str]:
    return {wrapper_key(target, attr) for target, attr, _ in WRAPPERS} | {PROVIDER_KEY}


def install(tracer: Tracer) -> None:
    """Wrap every entry of :data:`WRAPPERS` and the chain providers."""
    for target, attr, name in WRAPPERS:
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        fn = getattr(owner, attr)
        key = wrapper_key(target, attr)
        if name == "words.enumerate":
            wrapped = tracer.wrap_generator(name, fn, key)
        else:
            wrapped = tracer.wrap(name, fn, NOTES.get(name), key)
        setattr(owner, attr, wrapped)

    chain_cls = importlib.import_module("cantoract.chain").ChainAction
    init = chain_cls.__init__

    def note_level(tracer, args, kwargs, result):
        tracer.count("builders.points", result.size)

    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._provider = tracer.wrap(MATERIALIZE, self._provider, note_level, PROVIDER_KEY)

    chain_cls.__init__ = traced_init


def _covered(spans):
    """Per span: the time its direct children cover."""
    covered = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    return covered


def span_totals(spans) -> tuple[dict, dict, dict]:
    """Inclusive time (outermost spans of a name only), self time and calls per name."""
    covered = _covered(spans)
    inclusive: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, parent, start, end) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + dur - covered[i]
        if not _inside_same(spans, parent, name):
            inclusive[name] = inclusive.get(name, 0.0) + dur
    return inclusive, own, calls


def _inside_same(spans, parent, name) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][1]
    return False


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one workload run, summed over its traced processes.

    ``dumps`` holds :meth:`Tracer.dump` of each process plus its
    ``import_s`` and ``interp_s`` (interpreter start-up before the first
    line of the traced script).
    """
    inclusive: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, float] = {}
    counts: dict[str, float] = {"cli.import_s": 0.0, "cli.interp_s": 0.0}
    distinct: dict[str, float] = {}
    for dump in dumps:
        inc, slf, num = span_totals(dump["spans"])
        parts = ((inclusive, inc), (own, slf), (calls, num), (counts, dump["counts"]),
                 (distinct, dump["distinct"]),
                 (counts, {"cli.import_s": dump["import_s"], "cli.interp_s": dump["interp_s"]}))
        for table, part in parts:
            for key, value in part.items():
                table[key] = table.get(key, 0) + value
    c = counts.get
    perm_calls = calls.get("chain.word_permutation", 0)
    fiber_calls = calls.get("chain.fiber", 0)
    return {
        "chain.word_permutation_s": inclusive.get("chain.word_permutation", 0.0),
        "chain.word_permutation_calls": perm_calls,
        "chain.perm_gathers": c("chain.perm_gathers", 0),
        "chain.word_permutation_unique_ratio": _ratio(distinct.get("chain.word_permutation", 0),
                                                      perm_calls),
        "chain.fiber_s": inclusive.get("chain.fiber", 0.0),
        "chain.fiber_calls": fiber_calls,
        "chain.fiber_points_scanned": c("chain.fiber_points_scanned", 0),
        "chain.fiber_unique_ratio": _ratio(distinct.get("chain.fiber", 0), fiber_calls),
        "chain.schreier_s": inclusive.get("chain.schreier", 0.0),
        "farber.candidates_s": inclusive.get("farber.candidates", 0.0),
        "farber.candidate_unique_ratio": _ratio(
            c("farber.candidate_words", 0), c("farber.candidate_sequences", 0)),
        "words.enumerate_s": inclusive.get("words.enumerate", 0.0),
        "words.enumerated": c("words.enumerated", 0),
        "farber.self_s": own.get("farber.check", 0.0),
        "farber.core_words": c("farber.core_words", 0),
        "builders.materialize_s": inclusive.get(MATERIALIZE, 0.0),
        "builders.points": c("builders.points", 0),
        "mealy.transduce_s": inclusive.get("mealy.transduce", 0.0),
        "mealy.transduce_calls": calls.get("mealy.transduce", 0),
        "mealy.letters_transduced": c("mealy.letters_transduced", 0),
        "holonomy.fixed_set_report_calls": calls.get("holonomy.fixed_set_report", 0),
        "holonomy.self_s": own.get("holonomy.fixed_set_report", 0.0),
        "lcs.gamma_candidates_s": inclusive.get("lcs.gamma_candidates", 0.0),
        "lcs.examined": c("lcs.examined", 0),
        "lcs.self_s": own.get("lcs.witness_search", 0.0),
        "cli.interp_s": c("cli.interp_s"),
        "cli.import_s": c("cli.import_s"),
        "cli.main_self_s": own.get("cli.main", 0.0),
        "builders.load_s": inclusive.get("builders.load", 0.0),
        "chain.validate_s": inclusive.get("chain.validate", 0.0),
        "reports.payload_s": inclusive.get("reports.payload", 0.0),
        "reports.render_s": inclusive.get("reports.render", 0.0),
        "reports.bytes": c("reports.bytes", 0),
    }
