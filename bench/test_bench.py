"""The benchmark's own tests:  python3 -m pytest bench

They check that the workloads measure what BENCHMARK.json says they do:
the Grigorchuk fixture is not a free action, every wrapper intercepts
calls where predicted, a wrong report counts as a failure, and the
benchmark refuses to run without this checkout's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

from cantoract import builders, holonomy  # noqa: E402
from cantoract.chain import validate_chain  # noqa: E402
from cantoract.words import Word  # noqa: E402


def test_imports_this_checkout():
    import cantoract

    assert os.path.abspath(cantoract.__file__).startswith(run.SRC + os.sep)


# -- Grigorchuk fixture -----------------------------------------------------


@pytest.mark.parametrize("v", [0, 1])
def test_grigorchuk_fixed_counts_match_transducer(v):
    machine = workloads.grigorchuk_machine(v)
    chain = builders.mealy_chain(machine, name="grigorchuk")
    d = chain.alphabet.names[3]
    word = Word.generator(chain.alphabet.index(d))
    state_word = machine.state_word(d)
    for level in range(1, 9):
        strings = [tuple((x >> i) & 1 for i in range(level)) for x in range(2**level)]
        brute = sum(1 for s in strings if machine.transduce(state_word, s) == s)
        assert chain.fixed_count(word, level) == brute
    assert 0 < brute < 2**8


def test_grigorchuk_validates_to_depth_13_and_has_exact_witnesses():
    chain = builders.mealy_chain(workloads.grigorchuk_machine(0), name="grigorchuk")
    assert validate_chain(chain, workloads.GRIGORCHUK_DEPTH).ok
    witnesses = holonomy.partial_triviality_witnesses(chain, 1, 6)
    d = Word.generator(chain.alphabet.index("d"))
    exact = [w for w in witnesses if w.word == d and w.exact]
    assert exact, "d must fix a whole cylinder exactly while moving other points"


def test_letter_swap_variant_gives_the_same_report():
    golden = run.load_golden()
    for v in range(0, workloads.VARIANTS, 2):
        assert golden[f"lcs-grigorchuk/{v}"] == golden[f"lcs-grigorchuk/{v + 1}"]


# -- wrappers ---------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One traced process of each in-process workload and one traced cli batch."""
    workdir = str(tmp_path_factory.mktemp("bench"))
    runner = run.Runner(run.load_golden(), workdir, run.child_env())
    out = {}
    for name in workloads.IN_PROCESS:
        proc, result, dump = runner.workload_process(name, 0, True)
        assert result is not None, runner.errors
        out[name] = (result, [dump])
    batch = runner.cli_batch(list(workloads.CLI_COMMANDS), 0, True)
    assert all(ok for _, _, ok, _, _ in batch), runner.errors
    out[workloads.CLI_SUITE] = ({"wall_s": [p.wall_s for _, p, _, _, _ in batch]},
                                [dump for _, _, _, _, dump in batch])
    assert runner.failed == 0
    return out


def test_every_wrapper_fires_somewhere(traced_runs):
    fired = set()
    for _, dumps in traced_runs.values():
        for dump in dumps:
            fired |= set(dump["fired"])
    assert spans.all_wrapper_keys() - fired == set()


def test_interception_predictions(traced_runs):
    layers = {name: spans.layer_metrics(dumps) for name, (_, dumps) in traced_runs.items()}
    assert layers["farber-classic"]["chain.fiber_calls"] == 0
    assert layers["local-farber"]["chain.fiber_calls"] > 0
    for name, m in layers.items():
        assert (m["mealy.transduce_calls"] > 0) == (name == "lcs-grigorchuk"), name
    assert layers["farber-classic"]["words.enumerated"] == 1456
    assert layers["farber-classic"]["chain.word_permutation_calls"] == 1456 * 13
    assert layers["lcs-grigorchuk"]["lcs.examined"] == 8 + 2 * workloads.LCS_MAX_CANDIDATES


def test_layer_shares(traced_runs):
    """The shares BENCHMARK.json's workload rationale rests on."""
    local_result, local = traced_runs["local-farber"]
    assert spans.layer_metrics(local)["chain.fiber_s"] > 0.5 * local_result["analysis_s"]
    assert spans.layer_metrics(traced_runs["farber-classic"][1])["chain.fiber_s"] == 0
    lcs_result, lcs = traced_runs["lcs-grigorchuk"]
    assert spans.layer_metrics(lcs)["mealy.transduce_s"] > 0.5 * lcs_result["setup_s"]
    cli_walls, cli = traced_runs["cli-suite"]
    startup = sum(d["interp_s"] + d["import_s"] for d in cli)
    assert startup > 0.5 * sum(cli_walls["wall_s"])


def test_self_time_subtracts_children():
    spans_log = [("a", -1, 0.0, 10.0), ("b", 0, 1.0, 4.0), ("a", 1, 2.0, 3.0), ("b", 0, 5.0, 6.0)]
    inclusive, own, calls = spans.span_totals(spans_log)
    assert inclusive == {"a": 10.0, "b": 4.0}
    assert own == {"a": 6.0 + 1.0, "b": 2.0 + 1.0}
    assert calls == {"a": 2, "b": 2}


# -- golden outputs and guards ----------------------------------------------


def test_golden_covers_every_variant():
    golden = run.load_golden()
    labels = {f"{name}/{v}" for name in workloads.IN_PROCESS for v in range(workloads.VARIANTS)}
    labels |= {workloads.cli_label(c, v) for c in workloads.CLI_COMMANDS
               for v in range(workloads.VARIANTS)}
    assert labels == set(golden)


def test_corrupted_golden_counts_as_failure(tmp_path):
    golden = dict(run.load_golden())
    label = workloads.cli_label("farber", 0)
    golden[label] = "0" * 64
    runner = run.Runner(golden, str(tmp_path), run.child_env())
    assert runner.cli_suite(seed=0, seconds=0, traced=False) == {}
    assert runner.failed == 1 and runner.attempted == len(workloads.CLI_COMMANDS)
    assert runner.errors[0].startswith(label)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-suite",
                           "--seconds", "1"], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_mapping_names_every_metric():
    bench = run.load_benchmark()
    with open(os.path.join(run.HERE, "mapping.json"), encoding="utf-8") as fh:
        mapping = json.load(fh)
    mapped = {name for row in mapping["interactions"] for name in row["per_layer"]}
    assert mapped == {m["name"] for m in bench["per_layer"]}
    workload_names = {w["name"] for w in bench["workloads"]}
    assert workload_names == set(workloads.ALL)
    e2e = {m["name"] for m in bench["end_to_end"]}
    for row in mapping["roadmap_rows"]:
        assert row["workload"] in workload_names | {"all", "none"}
        assert all(m.strip() in e2e | {"none"} for m in row["metric"].split(","))
