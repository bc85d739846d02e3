"""Command-line surface.

Exit codes: 0 completed (verdicts live in the report, never in the exit
code), 1 invalid input or an unreadable file, 2 resource budget exceeded,
3 an internal error (a fault of the program, reported as one line
``error: internal: <type>: <message>``).  Reports go to stdout
or the -o file; diagnostics and wall-time go to stderr so repeated runs
with identical (config, seed, input) produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from fractions import Fraction

import cantoract as ca  # its cold names (``cantoract._LAZY``) import their module on first read

from . import __version__, builders
from .builders import load_chain, save_chain
from .chain import (
    DEFAULT_DEPTH_LIMIT,
    DEFAULT_MEMORY_BUDGET,
    PRNG_ALGORITHM,
    PointApprox,
    validate_chain,
)
from .errors import BudgetError, InvalidChainError, SchemaError, expect, read_json
from .farber import DEFAULT_MAX_SCHREIER, DEFAULT_TOLERANCE, farber_check, local_farber_check
from .holonomy import fixed_set_report
from .lcs import DEFAULT_MAX_CANDIDATES, witness_search
from .words import DEFAULT_WORD_BUDGET, MAX_WORD_LETTERS

THREADS_ENV = "CANTORACT_THREADS"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SchemaError(message)


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


_count = _at_least(0)  # lengths, counts and budgets


def _add_common(sp, *, depth_default=10, depth_type=int, report=True):
    """The flags every command takes, and ``--seed`` and ``--format`` if it writes a report."""
    sp.add_argument("--depth", type=depth_type, default=depth_default, help="report depth N")
    if report:
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--threads", type=int, default=None,
                    help=f"accepted and validated, but analyses run on one thread "
                         f"(flag wins over ${THREADS_ENV})")
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("--depth-limit", type=_count, default=DEFAULT_DEPTH_LIMIT)
    sp.add_argument("--memory-budget", type=_count, default=DEFAULT_MEMORY_BUDGET)


def _build_parser(argv: list[str]) -> _Parser:
    """The parser for ``argv``: every subcommand, but flags only on the one
    argparse will run, the first argument not starting with ``-`` (the top
    level takes no option with a value)."""
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    p = _Parser(prog="cantoract", description="tower actions: build, validate, analyze")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a family chain and write a chain file")
    if command == "build":
        b.add_argument("family", choices=_FAMILIES)
        b.add_argument("--base", type=int, default=2)
        b.add_argument("--dim", type=int, default=2)
        b.add_argument("--machine", default=None, help="machine file for the mealy family")
        b.add_argument("--schedule", default=None,
                       help="JSON map of cylinder level to puncture level (fat_cantor)")
        _add_common(b, report=False)

    v = sub.add_parser("validate", help="check every tower invariant to a depth")
    if command == "validate":
        v.add_argument("chain")
        _add_common(v, depth_default=0, depth_type=_count)  # 0 means: all levels in the file

    f = sub.add_parser("farber", help="fixed-coset ratio check per word")
    if command == "farber":
        f.add_argument("chain")
        f.add_argument("--max-word-len", type=_count, default=4)
        f.add_argument("--words", dest="words_file", default=None,
                       help="file with one word per line")
        f.add_argument("--tol", dest="tolerance", type=_tolerance, default=DEFAULT_TOLERANCE)
        _add_common(f)

    lf = sub.add_parser("local-farber", help="fixed-coset check localized to a base level")
    if command == "local-farber":
        lf.add_argument("chain")
        lf.add_argument("--base-level", type=_count, default=1)
        lf.add_argument("--max-word-len", type=_count, default=4)
        lf.add_argument("--tol", dest="tolerance", type=_tolerance, default=DEFAULT_TOLERANCE)
        lf.add_argument("--max-schreier", type=_count, default=DEFAULT_MAX_SCHREIER)
        _add_common(lf)

    h = sub.add_parser("holonomy", help="fixed set, interior bound, holonomy estimate")
    if command == "holonomy":
        h.add_argument("chain")
        h.add_argument("--word", required=True)
        _add_common(h)

    d = sub.add_parser("density", help="fixed-set density profile around a point")
    if command == "density":
        d.add_argument("chain")
        d.add_argument("--word", required=True)
        d.add_argument("--point", required=True, help="point index at --depth, or 'sample'")
        _add_common(d)

    lw = sub.add_parser("lcs-witness", help="holonomy witness search per commutator class")
    if command == "lcs-witness":
        lw.add_argument("chain")
        lw.add_argument("--class", dest="max_class", type=_at_least(1), default=2)
        lw.add_argument("--max-word-len", type=_count, default=4)
        lw.add_argument("--conj-len", type=_count, default=2)
        lw.add_argument("--max-candidates", type=_count, default=DEFAULT_MAX_CANDIDATES)
        _add_common(lw)

    oracle = sub.add_parser("oracle", help="small-group oracles")
    if command == "oracle":
        osub = oracle.add_subparsers(dest="oracle_command", required=True)
        sc = osub.add_parser("stab-count", help="count point stabilizers in the finite image")
        sc.add_argument("chain")
        sc.add_argument("--level", type=_at_least(1), required=True)
        sc.add_argument("--word", required=True)
        sc.add_argument("--max-order", type=_count, default=100_000)
        _add_common(sc)

    return p


def _check_threads(args) -> None:
    """Validate ``--threads`` / ``$CANTORACT_THREADS``; the value itself is unused."""
    if args.threads is None:
        env = os.environ.get(THREADS_ENV)
        if env:
            try:
                int(env)
            except ValueError:
                raise SchemaError(f"${THREADS_ENV} must be an integer, got {env!r}")


def _tolerance(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad tolerance {text!r}: {exc}") from exc
    if not 0 < value < 1:
        raise SchemaError(f"tolerance must lie strictly in (0, 1), got {text!r}")
    return value


# Parsed flags the config echo leaves out: the subcommand names, the chain
# path (echoed as chain.source), and the output file and thread count,
# which change no report byte.
_NOT_ECHOED = frozenset({"command", "oracle_command", "chain", "threads", "output"})


def _emit(args, command: str, chain, kind: str, *analysis) -> None:
    """Write the report of ``command``: its config (every parsed flag but
    :data:`_NOT_ECHOED`), the chain, and the ``<kind>_payload`` of
    ``analysis``; CSV renders the table ``<kind>_csv`` projects from it.
    :mod:`cantoract.reports` is imported here, so ``build``, which writes
    no report, never compiles it."""
    from . import reports

    result = getattr(reports, f"{kind}_payload")(*analysis)
    cfg = {key: reports.frac(value) if isinstance(value, Fraction) else value
           for key, value in vars(args).items() if key not in _NOT_ECHOED}
    if args.format == "csv":
        meta = {"tool": f"cantoract {__version__}", "command": command,
                "prng": PRNG_ALGORITHM, "chain": chain.name}
        for key, value in cfg.items():
            meta[f"config.{key}"] = json.dumps(value, sort_keys=True)
        text = reports.render_csv(command, *getattr(reports, f"{kind}_csv")(result), meta)
    else:
        text = reports.render_json({
            "tool": {"name": "cantoract", "version": __version__},
            "command": command,
            "prng": PRNG_ALGORITHM,
            "config": cfg,
            "chain": {"name": chain.name, "generators": list(chain.alphabet.names),
                      "source": args.chain},
            "result": result,
        })
    if args.output:
        data = text.encode("utf-8")  # fails before the file is created
        with open(args.output, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(text)


def _schedule(text):
    """The fat_cantor ``--schedule`` map, or None for the default plan: an
    object from levels in decimal digits to integers."""
    if text is None:
        return None
    schedule = {}
    for key, value in expect(read_json(text, "bad --schedule value"), dict, "--schedule").items():
        if not (key.isascii() and key.isdigit()):
            raise SchemaError(f"--schedule key {key!r} must be written in decimal digits")
        schedule[int(key)] = expect(value, int, f"--schedule[{key!r}]")
    return schedule


def _machine(path):
    if not path:
        raise SchemaError("the mealy family needs --machine FILE")
    return ca.load_machine(path)


# Each build family's constructor, called with the parsed flags and budgets.
_FAMILIES = {
    "odometer": lambda args, **budgets: builders.odometer(args.base, **budgets),
    "toral": lambda args, **budgets: builders.toral(args.dim, args.base, **budgets),
    "dihedral": lambda args, **budgets: builders.dihedral(**budgets),
    "heisenberg": lambda args, **budgets: builders.heisenberg(args.base, **budgets),
    "fragmented": lambda args, **budgets: builders.fragmented(**budgets),
    "fat_cantor": lambda args, **budgets: ca.fat_cantor(_schedule(args.schedule), **budgets),
    "mealy": lambda args, **budgets: builders.mealy_chain(_machine(args.machine), **budgets),
}


def _run_build(args) -> int:
    if not args.output:
        raise SchemaError("build needs -o FILE for the chain file")
    chain = _FAMILIES[args.family](args, depth_limit=args.depth_limit,
                                   memory_budget=args.memory_budget)
    report = validate_chain(chain, args.depth)
    if not report.ok:
        v = report.violations[0]
        raise InvalidChainError(
            f"built chain failed validation: {v.invariant} at (level={v.level}, "
            f"generator={v.generator}, point={v.point})",
            report=report,
        )
    save_chain(chain, args.depth, args.output)
    return 0


def _run_validate(args) -> int:
    chain = load_chain(args.chain, validate=False, depth_limit=args.depth_limit,
                       memory_budget=args.memory_budget)
    if args.depth == 0:
        args.depth = chain.depth_limit
    report = validate_chain(chain, args.depth)
    _emit(args, "validate", chain, "validation", report)
    if not report.ok:
        for v in report.violations:
            print(
                f"violation: {v.invariant} at (level={v.level}, generator={v.generator}, "
                f"point={v.point}): {v.detail}",
                file=sys.stderr,
            )
        return 1
    return 0


def _read_words(path: str, alphabet) -> list:
    """The words of a ``--words`` file, one per non-blank line.  The file
    may hold at most :data:`~cantoract.words.MAX_WORD_LETTERS` bytes; a
    longer one is a ``word_letters`` budget error, read no further, and more
    words than the word budget are counted before any is parsed."""
    with open(path, "rb") as fh:
        data = fh.read(MAX_WORD_LETTERS + 1)
    if len(data) > MAX_WORD_LETTERS:
        raise BudgetError("word_letters", f"words file {path} is longer than "
                                          f"the limit of {MAX_WORD_LETTERS} bytes")
    lines = [text for text in (line.decode("utf-8").strip() for line in data.splitlines()) if text]
    if len(lines) > DEFAULT_WORD_BUDGET:
        raise BudgetError("word_budget", f"words file {path} holds {len(lines)} words, "
                                         f"more than the budget of {DEFAULT_WORD_BUDGET}")
    return [ca.parse_word(line, alphabet) for line in lines]


def _point(args, chain) -> PointApprox:
    """The ``density --point``: a point index at ``--depth``, or ``sample``."""
    if args.point == "sample":
        return ca.sample_uniform(chain, args.depth, args.seed)
    try:
        index = int(args.point)
    except ValueError:
        raise SchemaError(f"--point must be an integer or 'sample', got {args.point!r}")
    point = PointApprox(args.depth, index)
    if not 0 <= index < chain.size(args.depth):
        raise SchemaError(f"point {index} out of range at depth {args.depth}")
    return point


# Each report command's report name, its ``reports`` kind (the
# ``<kind>_payload`` and ``<kind>_csv`` it is written with) and its analysis
# of the loaded chain.
_ANALYSES = {
    "farber": ("farber", "farber", lambda args, chain: farber_check(
        chain, words=_read_words(args.words_file, chain.alphabet) if args.words_file else None,
        max_word_len=args.max_word_len, depth=args.depth, tolerance=args.tolerance)),
    "local-farber": ("local-farber", "farber", lambda args, chain: local_farber_check(
        chain, args.base_level, max_word_len=args.max_word_len, depth=args.depth,
        tolerance=args.tolerance, max_generators=args.max_schreier)),
    "holonomy": ("holonomy", "fixed_set", lambda args, chain: fixed_set_report(
        chain, ca.parse_word(args.word, chain.alphabet), args.depth)),
    "density": ("density", "density", lambda args, chain: ca.density_profile(
        chain, ca.parse_word(args.word, chain.alphabet), _point(args, chain))),
    "lcs-witness": ("lcs-witness", "lcs", lambda args, chain: witness_search(
        chain, args.max_class, max_word_len=args.max_word_len, conj_len=args.conj_len,
        depth=args.depth, max_candidates=args.max_candidates)),
    "oracle": ("oracle-stab-count", "stab_count", lambda args, chain: ca.stabilizer_count_oracle(
        chain, ca.parse_word(args.word, chain.alphabet), args.level, args.max_order)),
}


def _run_report(args) -> int:
    command, kind, analyse = _ANALYSES[args.command]
    chain = load_chain(args.chain, depth_limit=args.depth_limit, memory_budget=args.memory_budget)
    result = analyse(args, chain)
    _emit(args, command, chain, kind, result, chain.alphabet)
    return 0


_RUNNERS = {"build": _run_build, "validate": _run_validate,
            **dict.fromkeys(_ANALYSES, _run_report)}


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _build_parser(argv).parse_args(argv)
        _check_threads(args)
        return _RUNNERS[args.command](args)
    except BudgetError as exc:
        print(f"error: budget {exc.budget} exceeded: {exc}", file=sys.stderr)
        return 2
    except (SchemaError, InvalidChainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3
    finally:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        print(f"wall-time: {elapsed_ms:.1f} ms", file=sys.stderr)


def run() -> int:
    """The process entry point of ``python -m cantoract`` and the installed
    ``cantoract`` script: :func:`main`'s exit code, with the heap frozen
    (``gc.freeze()``) once it returns.  The collections of interpreter
    teardown then skip every object the command made, whose memory the OS
    takes back anyway; atexit handlers, the stdio flush and the exit
    status run as before.  Tests, library callers and in-process drivers
    call :func:`main`, which never freezes."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
