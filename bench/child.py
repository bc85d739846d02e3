"""One measured process of the benchmark; run.py spawns it.

    child.py run WORKLOAD VARIANT TRACE SPAWNED DUMP
        one in-process workload: set up, analyze, render; prints a JSON line
    child.py cli SPAWNED DUMP ARGS...
        ``cantoract ARGS...`` under the tracer (untraced calls use
        ``python -m cantoract`` directly)

SPAWNED is the parent's ``time.perf_counter()`` just before the spawn (the
same monotonic clock on Linux), so interpreter start-up can be measured.
With tracing on, the span log is written to DUMP as JSON at exit.
"""

import time

STARTED = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _check_import_path(module) -> None:
    path = os.path.abspath(module.__file__)
    if not path.startswith(SRC + os.sep):
        sys.exit(f"cantoract imported from {path}, not from {SRC}")


def _tracer():
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    return tracer


def _write_dump(tracer, dump_path, import_s, interp_s) -> None:
    data = tracer.dump()
    data["import_s"] = import_s
    data["interp_s"] = interp_s
    with open(dump_path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def run_workload(name, v, traced, spawned, dump_path) -> None:
    begun = time.perf_counter()
    import cantoract

    imported = time.perf_counter()
    _check_import_path(cantoract)
    import workloads

    tracer = _tracer() if traced else None
    ch = workloads.setup(name, v)
    t_setup = time.perf_counter()
    report, candidates = workloads.analyze(name, v, ch)
    t_analysis = time.perf_counter()
    text = workloads.render(name, ch, report)
    if tracer is not None:
        _write_dump(tracer, dump_path, imported - begun, STARTED - spawned)
    print(json.dumps({
        "setup_s": t_setup - begun,
        "analysis_s": t_analysis - t_setup,
        "candidates": candidates,
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }))


def run_cli(spawned, dump_path, argv) -> int:
    begun = time.perf_counter()
    import cantoract.cli

    imported = time.perf_counter()
    _check_import_path(cantoract)
    tracer = _tracer()
    try:
        return cantoract.cli.main(argv)
    finally:
        _write_dump(tracer, dump_path, imported - begun, STARTED - spawned)


def main(argv) -> int:
    mode = argv[0]
    if mode == "run":
        name, v, traced, spawned, dump_path = argv[1:6]
        run_workload(name, int(v), traced == "1", float(spawned), dump_path)
        return 0
    if mode == "cli":
        return run_cli(float(argv[1]), argv[2], argv[3:])
    sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
