import json
import os
import subprocess
import sys

import pytest

import cantoract as ca
from cantoract import cli
from cantoract.cli import main
from cantoract.mealy import machine_from_dict
from cantoract.words import MAX_WORD_LETTERS

from conftest import GRIGORCHUK


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "cantoract", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


@pytest.fixture(scope="module")
def chains(tmp_path_factory):
    root = tmp_path_factory.mktemp("chains")
    paths = {}
    for family, extra in (
        ("odometer", ["--base", "2", "--depth", "10"]),
        ("fragmented", ["--depth", "10"]),
        ("dihedral", ["--depth", "10"]),
        ("heisenberg", ["--base", "2", "--depth", "5"]),
    ):
        out = root / f"{family}.json"
        proc = run_cli(["build", family, *extra, "-o", str(out)])
        assert proc.returncode == 0, proc.stderr
        paths[family] = str(out)
    return paths


def test_build_then_validate(chains):
    proc = run_cli(["validate", chains["odometer"]])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["result"]["ok"] is True
    assert payload["tool"]["name"] == "cantoract"
    assert payload["config"]["seed"] == 0
    assert "wall-time" in proc.stderr


def test_farber_command(chains):
    proc = run_cli(
        ["farber", chains["fragmented"], "--max-word-len", "1", "--depth", "10", "--tol", "0.01"]
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert result["overall"] == "fail-at-depth"
    g = next(w for w in result["words"] if w["word"] == "g")
    assert g["verdict"] == "fail-at-depth"
    assert g["trajectory"][-1]["ratio"] == {"num": 1, "den": 2}


def test_farber_scores_a_long_word_file_line(chains, tmp_path):
    """A 200,000-letter word, within the letter budget, is keyed and scored
    in time linear in its length."""
    words = tmp_path / "words.txt"
    words.write_text("(g*h)^100000\nh\n")
    proc = run_cli(["farber", chains["fragmented"], "--words", str(words), "--depth", "3"],
                   timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert [w["word"] == "h" for w in result["words"]] == [False, True]


def test_local_farber_command(chains):
    proc = run_cli(
        ["local-farber", chains["fragmented"], "--base-level", "1", "--max-word-len", "2",
         "--depth", "8", "--tol", "1/64"]
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["overall"] == "pass-at-depth"


def test_holonomy_command(chains):
    proc = run_cli(["holonomy", chains["fragmented"], "--word", "g", "--depth", "6"])
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert result["hol_estimate"] == {"num": 0, "den": 1}
    assert result["max_fixed_cylinders"] == [{"level": 1, "vertex": 0}]


def test_density_command_with_sample(chains):
    proc = run_cli(
        ["density", chains["odometer"], "--word", "a", "--point", "sample", "--depth", "6",
         "--seed", "7"]
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert all(e["density"] == {"num": 0, "den": 1} for e in result["entries"])
    again = run_cli(
        ["density", chains["odometer"], "--word", "a", "--point", "sample", "--depth", "6",
         "--seed", "7"]
    )
    assert json.loads(again.stdout)["result"]["point"] == result["point"]


def test_lcs_witness_command(chains):
    proc = run_cli(
        ["lcs-witness", chains["heisenberg"], "--class", "2", "--max-word-len", "2",
         "--conj-len", "1", "--depth", "4", "--max-candidates", "48"]
    )
    assert proc.returncode == 0
    classes = json.loads(proc.stdout)["result"]["classes"]
    assert [c["class"] for c in classes] == [1, 2]


def test_oracle_command(chains):
    proc = run_cli(
        ["oracle", "stab-count", chains["dihedral"], "--level", "3", "--word", "r",
         "--max-order", "1000"]
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert result["group_order"] == 16
    assert result["identity_holds"] is True
    assert result["conjugacy_ratio"] == result["fixed_ratio"] == {"num": 1, "den": 4}


def test_word_syntax_round_trip(chains):
    proc = run_cli(
        ["holonomy", chains["heisenberg"], "--word", "[A,B]*C", "--depth", "3"]
    )
    assert proc.returncode == 0
    rendered = json.loads(proc.stdout)["result"]["word"]
    second = run_cli(["holonomy", chains["heisenberg"], "--word", rendered, "--depth", "3"])
    assert json.loads(second.stdout)["result"] == json.loads(proc.stdout)["result"]


def test_csv_format(chains):
    proc = run_cli(
        ["farber", chains["dihedral"], "--max-word-len", "1", "--depth", "4", "--format", "csv"]
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "#schema cantoract/farber/v1"
    header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_at] == "word,verdict,level,ratio_num,ratio_den,ratio_dec"
    assert any(line.startswith("r,") for line in lines[header_at + 1:])


def test_invalid_chain_exits_1(tmp_path, chains):
    broken = tmp_path / "broken.json"
    data = json.loads(open(chains["fragmented"]).read())
    data["levels"][1]["perms"]["g"] = [0, 0, 1, 2]
    broken.write_text(json.dumps(data))
    proc = run_cli(["validate", str(broken)])
    assert proc.returncode == 1
    assert "level=2" in proc.stderr and "generator=g" in proc.stderr
    proc = run_cli(["farber", str(broken)])
    assert proc.returncode == 1


def test_schema_error_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert run_cli(["validate", str(bad)]).returncode == 1
    assert run_cli(["farber", str(bad)]).returncode == 1
    assert run_cli(["nonsense"]).returncode == 1


def test_budget_exits_2(chains):
    proc = run_cli(["farber", chains["fragmented"], "--depth", "40"])
    assert proc.returncode == 2
    assert "depth_limit" in proc.stderr
    proc = run_cli(
        ["oracle", "stab-count", chains["fragmented"], "--level", "8", "--word", "g",
         "--max-order", "10"]
    )
    assert proc.returncode == 2


def test_verdicts_do_not_drive_exit_codes(chains):
    # a mathematical "fail" verdict still exits 0
    proc = run_cli(["farber", chains["fragmented"], "--max-word-len", "1"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["overall"] == "fail-at-depth"


def test_main_in_process(tmp_path, capsys):
    out = tmp_path / "odo.json"
    assert main(["build", "odometer", "--base", "2", "--depth", "6", "-o", str(out)]) == 0
    assert main(["validate", str(out)]) == 0
    captured = capsys.readouterr()
    assert '"ok": true' in captured.out


def test_build_without_output_is_refused_before_building(monkeypatch, capsys):
    def family(*args, **budgets):
        raise AssertionError("the family was built")

    monkeypatch.setitem(cli._FAMILIES, "fragmented", family)
    assert main(["build", "fragmented", "--depth", "18"]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == ["error: build needs -o FILE for the chain file"]


def test_build_mealy_from_machine_file(tmp_path):
    from oracles import adding_machine, machine_to_dict

    machine_path = tmp_path / "adder.json"
    machine_path.write_text(json.dumps(machine_to_dict(adding_machine(2))))
    out = tmp_path / "adder-chain.json"
    proc = run_cli(["build", "mealy", "--machine", str(machine_path), "--depth", "6",
                    "-o", str(out)])
    assert proc.returncode == 0, proc.stderr
    chain = ca.load_chain(out)
    odo = ca.odometer(2)
    for level in range(1, 7):
        assert chain.level(level).perms["a"] == odo.level(level).perms["a"]
    assert run_cli(["build", "mealy", "--depth", "4", "-o", str(out)]).returncode == 1


def test_env_thread_variable(chains, tmp_path):
    import os

    env = dict(os.environ)
    env["CANTORACT_THREADS"] = "3"
    proc = run_cli(["farber", chains["odometer"], "--max-word-len", "2", "--depth", "6"], env=env)
    assert proc.returncode == 0
    env["CANTORACT_THREADS"] = "abc"
    odometer = chains["odometer"]
    for argv in (
        ["build", "odometer", "--depth", "3", "-o", str(tmp_path / "odo.json")],
        ["validate", odometer],
        ["farber", odometer, "--max-word-len", "1", "--depth", "3"],
        ["local-farber", odometer, "--max-word-len", "1", "--depth", "3"],
        ["holonomy", odometer, "--word", "a", "--depth", "3"],
        ["density", odometer, "--word", "a", "--point", "0", "--depth", "3"],
        ["lcs-witness", odometer, "--class", "1", "--max-word-len", "1", "--depth", "3"],
        ["oracle", "stab-count", odometer, "--level", "2", "--word", "a"],
    ):
        proc = run_cli(argv, env=env)
        assert proc.returncode == 1, argv
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert errors == ["error: $CANTORACT_THREADS must be an integer, got 'abc'"], argv
        assert proc.stdout == ""
    assert not (tmp_path / "odo.json").exists()


def test_out_of_range_perm_entry_is_one_violation(tmp_path):
    broken = tmp_path / "range.json"
    broken.write_text(json.dumps({
        "name": "range", "generators": ["a"],
        "levels": [{"size": 4, "parent": None, "perms": {"a": [1, 2, 3, 9]}}],
    }))
    proc = run_cli(["validate", str(broken)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    violations = [line for line in proc.stderr.splitlines() if line.startswith("violation:")]
    assert len(violations) == 1 and "bijectivity" in violations[0]
    proc = run_cli(["holonomy", str(broken), "--word", "a", "--depth", "1"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["holonomy", "--word", "g"],
    ["farber"],
    ["local-farber", "--base-level", "0"],
    ["lcs-witness"],
])
def test_depth_below_one_is_a_one_line_error(chains, argv):
    proc = run_cli([argv[0], chains["fragmented"], *argv[1:], "--depth", "0"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == ["error: depth must be at least 1, got 0"]


NESTED_WORD = "(" * 3000 + "g" + ")" * 3000
# JSON nested past the parser's recursion limit; an argument holds at most 128 KiB
NESTED_JSON = "[" * 100_000 + "]" * 100_000
NESTED_SCHEDULE = "[" * 50_000 + "]" * 50_000


@pytest.mark.parametrize("argv, message", [
    (["farber", "{tmp}/missing.json"], "No such file or directory"),
    (["farber", "{fragmented}", "--words", "{tmp}/missing.txt", "--depth", "3"],
     "No such file or directory"),
    (["farber", "{fragmented}", "--max-word-len", "1", "--depth", "3",
      "-o", "{tmp}/missing/report.json"], "No such file or directory"),
    (["build", "mealy", "--machine", "{tmp}/missing.json", "-o", "{tmp}/chain.json"],
     "No such file or directory"),
    (["holonomy", "{fragmented}", "--word", NESTED_WORD, "--depth", "3"], "nest deeper"),
    (["validate", "{nested}"],
     "chain file {nested} is not valid JSON: arrays or objects nest too deep"),
    (["lcs-witness", "{nested}", "--depth", "3"],
     "chain file {nested} is not valid JSON: arrays or objects nest too deep"),
    (["build", "mealy", "--machine", "{nested}", "-o", "{tmp}/chain.json"],
     "machine file {nested} is not valid JSON: arrays or objects nest too deep"),
    (["build", "fat_cantor", "--schedule", NESTED_SCHEDULE, "-o", "{tmp}/chain.json"],
     "bad --schedule value: arrays or objects nest too deep"),
    (["build", "fat_cantor", "--schedule", '{"1": 16000000}', "-o", "{tmp}/chain.json"],
     "schedule level 16000000 is deeper than the cap of 40"),
    (["build", "fat_cantor", "--schedule", '{"300000": 300000}', "-o", "{tmp}/chain.json"],
     "schedule level 300000 is deeper than the cap of 40"),
    (["build", "fat_cantor", "--schedule", '{"40": 40}', "-o", "{tmp}/chain.json"],
     "schedule rejected: punctured measure bound 0.679012 is not smaller than the "
     "fixed-set measure 0.320988"),
    (["build", "fat_cantor", "--schedule", '{"1": 1e400}', "-o", "{tmp}/chain.json"],
     "--schedule['1'] must be an integer, got a number"),
    (["build", "odometer", "--seed", "1", "-o", "{tmp}/chain.json"],
     "unrecognized arguments: --seed 1"),
    (["build", "odometer", "--format", "csv", "-o", "{tmp}/chain.json"],
     "unrecognized arguments: --format csv"),
    (["lcs-witness", "{fragmented}", "--max-candidates", "-1", "--depth", "3"],
     "argument --max-candidates: must be at least 0, got -1"),
    (["lcs-witness", "{fragmented}", "--class", "0", "--depth", "3"],
     "argument --class: must be at least 1, got 0"),
    (["lcs-witness", "{fragmented}", "--class", "-3", "--depth", "3"],
     "argument --class: must be at least 1, got -3"),
    (["farber", "{fragmented}", "--max-word-len", "-1", "--depth", "3"],
     "argument --max-word-len: must be at least 0, got -1"),
    (["local-farber", "{fragmented}", "--max-word-len", "-1", "--depth", "3"],
     "argument --max-word-len: must be at least 0, got -1"),
    (["lcs-witness", "{fragmented}", "--max-word-len", "-1", "--depth", "3"],
     "argument --max-word-len: must be at least 0, got -1"),
    (["lcs-witness", "{fragmented}", "--conj-len", "-1", "--depth", "3"],
     "argument --conj-len: must be at least 0, got -1"),
    (["local-farber", "{fragmented}", "--max-schreier", "-1", "--depth", "3"],
     "argument --max-schreier: must be at least 0, got -1"),
    (["oracle", "stab-count", "{fragmented}", "--level", "2", "--word", "g",
      "--max-order", "-1"], "argument --max-order: must be at least 0, got -1"),
    (["validate", "{fragmented}", "--depth", "-3"], "argument --depth: must be at least 0, got -3"),
    (["farber", "{fragmented}", "--memory-budget", "-1", "--depth", "3"],
     "argument --memory-budget: must be at least 0, got -1"),
    (["farber", "{fragmented}", "--depth-limit", "-1", "--depth", "3"],
     "argument --depth-limit: must be at least 0, got -1"),
    (["lcs-witness", "{fragmented}", "--max-candidates", "many"],
     "argument --max-candidates: invalid int value: 'many'"),
    (["local-farber", "{fragmented}", "--base-level", "-1", "--depth", "3"],
     "argument --base-level: must be at least 0, got -1"),
    (["oracle", "stab-count", "{fragmented}", "--level", "-2", "--word", "g"],
     "argument --level: must be at least 1, got -2"),
    (["build", "fat_cantor", "--schedule", '{"1": 9.9}', "-o", "{tmp}/chain.json"],
     "--schedule['1'] must be an integer, got a number"),
    (["build", "fat_cantor", "--schedule", '{"1": "12"}', "-o", "{tmp}/chain.json"],
     "--schedule['1'] must be an integer, got a string"),
    (["build", "fat_cantor", "--schedule", "[1]", "-o", "{tmp}/chain.json"],
     "--schedule must be an object, got an array"),
    (["build", "fat_cantor", "--schedule", '{"1": true}', "-o", "{tmp}/chain.json"],
     "--schedule['1'] must be an integer, got a boolean"),
    (["build", "fat_cantor", "--schedule", '{"1_0": 12}', "-o", "{tmp}/chain.json"],
     "--schedule key '1_0' must be written in decimal digits"),
])
def test_bad_input_is_a_one_line_error(chains, tmp_path, argv, message):
    nested = tmp_path / "nested.json"
    if "{nested}" in argv:
        nested.write_text(NESTED_JSON)
    argv = [arg.replace("{tmp}", str(tmp_path)).replace("{fragmented}", chains["fragmented"])
            .replace("{nested}", str(nested)) for arg in argv]
    proc = run_cli(argv)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and message.replace("{nested}", str(nested)) in errors[0]
    assert not (tmp_path / "chain.json").exists()


@pytest.mark.parametrize("word, letters", [
    ("g^999999999999999999999", 999999999999999999999),
    ("g^1000001", 1000001),
    ("g^600000*g^600000", 1200000),
])
def test_word_over_the_letter_limit_is_a_budget_error(chains, word, letters):
    proc = run_cli(["holonomy", chains["fragmented"], "--word", word, "--depth", "3"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == [f"error: budget word_letters exceeded: word expands to {letters} "
                      "letters, more than the limit of 1000000"]


def _address_space_cap(limit=1 << 30):
    def preexec():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    return preexec


@pytest.mark.parametrize("source", ["/dev/zero", "file"])
def test_words_file_past_the_byte_cap_is_a_budget_error(chains, tmp_path, source):
    """A ``--words`` file is read only up to MAX_WORD_LETTERS bytes, so an
    endless or oversized one is refused at once under a 1 GB address cap."""
    if source == "file":
        source = str(tmp_path / "words.txt")
        with open(source, "w") as fh:
            fh.write("h\n" * (MAX_WORD_LETTERS // 2 + 1))
    elif not os.path.exists(source):
        pytest.skip(f"no {source} on this platform")
    proc = run_cli(["farber", chains["fragmented"], "--words", source, "--depth", "4"],
                   timeout=30, preexec_fn=_address_space_cap())
    assert proc.returncode == 2, proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == [f"error: budget word_letters exceeded: words file {source} is longer "
                      f"than the limit of {MAX_WORD_LETTERS} bytes"]


WORD_BUDGET = "error: budget word_budget exceeded: word enumeration exceeded budget of 50000 words"


@pytest.mark.parametrize("argv, message", [
    (["farber", "{fragmented}", "--max-word-len", "25", "--depth", "5"], WORD_BUDGET),
    (["farber", "{fragmented}", "--max-word-len", str(10**9), "--depth", "5"], WORD_BUDGET),
    (["local-farber", "{toral}", "--base-level", "3", "--max-word-len", "3", "--depth", "4"],
     WORD_BUDGET),
    (["local-farber", "{fragmented}", "--base-level", "6", "--depth", "8"], WORD_BUDGET),
    (["farber", "{fragmented}", "--words", "{words}", "--depth", "4"],
     "error: budget word_budget exceeded: words file {words} holds 499999 words, "
     "more than the budget of 50000"),
])
def test_word_enumeration_past_the_budget_is_refused_at_once(chains, tmp_path, argv, message):
    """Each run would enumerate 10^5 to 10^12 words; the closed-form count
    refuses it before any word is built, so it ends fast under a 1 GB cap."""
    toral, words = tmp_path / "toral.json", tmp_path / "words.txt"
    ca.save_chain(ca.toral(2, 2), 4, toral)
    words.write_text("h\n" * 499_999)
    fill = {"{fragmented}": chains["fragmented"], "{toral}": str(toral), "{words}": str(words)}
    for key, value in fill.items():
        argv = [arg.replace(key, value) for arg in argv]
        message = message.replace(key, value)
    proc = run_cli(argv, timeout=30, preexec_fn=_address_space_cap())
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == [message]
    wall = [line for line in proc.stderr.splitlines() if line.startswith("wall-time:")]
    assert float(wall[0].split()[1]) < 1000


@pytest.mark.parametrize("argv", [
    ["--class", "1", "--max-candidates", "4", "--max-word-len", "25"],
    ["--class", "2", "--max-candidates", "4", "--max-word-len", "2", "--conj-len", "25"],
])
def test_lcs_builds_no_more_words_than_it_reports(chains, argv):
    """Generator words and conjugators up to length 25 number ~10^12, so
    only a class built lazily up to ``--max-candidates`` fits under a 1 GB
    address cap."""
    proc = run_cli(["lcs-witness", chains["fragmented"], *argv, "--depth", "5"],
                   timeout=30, preexec_fn=_address_space_cap())
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    classes = json.loads(proc.stdout)["result"]["classes"]
    assert [(c["examined"], c["truncated"]) for c in classes] == [(4, True)] * int(argv[1])
    assert classes[0]["best_word"] in ("h", "h^-1", "g", "g^-1")


def test_stab_count_past_the_memory_budget_is_refused_at_once(tmp_path):
    """The level-14 image of ``fragmented`` has more elements than
    ``--max-order`` allows, each of 16,384 points; the closure charges them
    against ``--memory-budget`` as it grows, so the run ends in a budget
    error within a second, far under a 1 GB address cap."""
    chain = tmp_path / "f14.json"
    ca.save_chain(ca.fragmented(), 14, chain)
    proc = run_cli(["oracle", "stab-count", str(chain), "--level", "14", "--word", "g"],
                   timeout=30, preexec_fn=_address_space_cap())
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == ["error: budget memory_budget exceeded: image group at level 14 holds "
                      "245 elements of 16384 points, more than memory_budget=4000000"]
    wall = [line for line in proc.stderr.splitlines() if line.startswith("wall-time:")]
    assert float(wall[0].split()[1]) < 1000


def test_malformed_long_word_error_is_short(chains):
    long_word = "g*" * 50000 + "+"
    proc = run_cli(["holonomy", chains["fragmented"], "--word", long_word, "--depth", "3"])
    assert proc.returncode == 1
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and f"column {len(long_word) - 1}" in errors[0]
    assert len(proc.stderr) < 300


def test_build_over_budget_is_refused_before_any_level(tmp_path):
    # the depth-8 level alone holds 2^24 points; levels 1-7 fit but take
    # seconds to build, so a refusal after them would be slow
    proc = run_cli(["build", "toral", "--dim", "3", "--depth", "8",
                    "-o", str(tmp_path / "toral.json")], timeout=60)
    assert proc.returncode == 2
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == ["error: budget memory_budget exceeded: materializing level 8 "
                      "(16777216 points) exceeds memory_budget=4000000 for chain 'toral(3,2)'"]
    wall = [line for line in proc.stderr.splitlines() if line.startswith("wall-time:")]
    assert float(wall[0].split()[1]) < 2000
    assert not (tmp_path / "toral.json").exists()


UNPRINTABLE_NAME = "chain file: name must be printable, no control or surrogate characters"


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["farber"],
    ["local-farber"],
    ["holonomy", "--word", "a"],
    ["density", "--word", "a", "--point", "0"],
    ["lcs-witness"],
])
def test_empty_level_is_a_one_line_error(tmp_path, argv):
    # the same one-line refusal for an empty level, perms given as a list,
    # a size no array could hold that the perm lengths contradict, perm
    # entries that are not JSON integers, top-level fields of the wrong
    # JSON type, and a name that could forge a CSV row or fail to encode
    good = [{"size": 2, "parent": None, "perms": {"a": [1, 0]}}]
    cases = {
        "zero": ({"levels": [{"size": 0, "parent": None, "perms": {"a": []}}]},
                 "level 1: size must be at least 1, got 0"),
        "listed": ({"levels": [{"size": 2, "parent": None, "perms": [[1, 0]]}]},
                   "level 1: perms must be an object, got an array"),
        "huge": ({"levels": [{"size": 10**30, "parent": None, "perms": {"a": [1, 0]}}]},
                 f"level 1: size {10**30} disagrees with the 2 entries of permutation 'a'"),
        "floats": ({"levels": [{"size": 2, "parent": None, "perms": {"a": [1.9, "0"]}}]},
                   "level 1: perms['a'] entries must be integers, got a number"),
        "name": ({"name": 7}, "chain file: name must be a string, got an integer"),
        "forged": ({"name": "x\nword,verdict,...\ninjected,1,2,3,4,5"}, UNPRINTABLE_NAME),
        "surrogate": ({"name": "x\ud800"}, UNPRINTABLE_NAME),
        "generators": ({"generators": "a"},
                       "chain file: generators must be an array, got a string"),
        "generator": ({"generators": [1]},
                      "chain file: generators[0] must be a string, got an integer"),
        "levels": ({"levels": {"0": 1}}, "chain file: levels must be an array, got an object"),
    }
    for name, (fields, message) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"name": name, "generators": ["a"], "levels": good, **fields}))
        proc = run_cli([argv[0], str(path), *argv[1:]])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert errors == [f"error: {message}"]


@pytest.mark.parametrize("change, message", [
    ({"transitions": {"add": [0, 1], "id": {"0": "id", "1": "id"}}},
     "machine file: transitions['add'] must be an object, got an array"),
    ({"states": [["add"], "id"]}, "machine file: states[0] must be a string, got an array"),
    ({"outputs": {"add": {"0": 1, "1": "0"}, "id": {"0": 0, "1": 1}}},
     "machine file: outputs['add']['1'] must be an integer, got a string"),
    ({"alphabet": 2.0}, "machine file: alphabet must be an integer, got a number"),
])
def test_machine_file_types_are_one_line_errors(tmp_path, change, message):
    from oracles import adding_machine, machine_to_dict

    machine_path = tmp_path / "machine.json"
    machine_path.write_text(json.dumps({**machine_to_dict(adding_machine(2)), **change}))
    proc = run_cli(["build", "mealy", "--machine", str(machine_path), "--depth", "3",
                    "-o", str(tmp_path / "chain.json")])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {message}"]


def test_unknown_family_is_a_one_line_error(tmp_path):
    proc = run_cli(["build", "nonsense", "-o", str(tmp_path / "chain.json")])
    assert proc.returncode == 1
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "invalid choice: 'nonsense'" in errors[0]


def test_json_reports_build_no_csv_table(chains, tmp_path, monkeypatch):
    from cantoract import reports

    def refuse(payload):
        raise AssertionError("a JSON run built a CSV table")

    for kind in ("validation", "farber", "fixed_set", "density", "lcs", "stab_count"):
        monkeypatch.setattr(reports, f"{kind}_csv", refuse)
    odometer = chains["odometer"]
    for argv in (
        ["validate", odometer],
        ["farber", odometer, "--max-word-len", "1", "--depth", "3"],
        ["local-farber", odometer, "--max-word-len", "1", "--depth", "3"],
        ["holonomy", odometer, "--word", "a", "--depth", "3"],
        ["density", odometer, "--word", "a", "--point", "0", "--depth", "3"],
        ["lcs-witness", odometer, "--class", "1", "--max-word-len", "1", "--depth", "3"],
        ["oracle", "stab-count", odometer, "--level", "2", "--word", "a"],
    ):
        assert main([*argv, "-o", str(tmp_path / "report.json")]) == 0, argv


def test_report_that_fails_to_encode_leaves_no_output_file(chains, tmp_path, monkeypatch):
    from cantoract import reports

    monkeypatch.setattr(reports, "render_json", lambda payload: "x\ud800\n")
    out = tmp_path / "report.json"
    assert main(["validate", chains["odometer"], "-o", str(out)]) == 1
    assert not out.exists()


def test_deep_lcs_class_is_a_budget_error(chains):
    # class-n words about double in length per class, so class 40 passes the
    # letter limit near class 20; the refusal comes before that word is built
    proc = run_cli(["lcs-witness", chains["fragmented"], "--depth", "3", "--max-word-len", "1",
                    "--conj-len", "1", "--max-candidates", "2", "--class", "40"], timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: budget word_letters exceeded:")



def test_lcs_class_past_the_memory_budget_is_refused_as_it_is_built(chains):
    """With the CLI defaults, class-n candidates about double their letters
    per class, and class 14's pass the default memory budget of 4,000,000.
    So ``--class 18``, whose candidates hold 67 million letters, is refused
    while class 14 is built, in a few seconds under a 1 GB address cap."""
    proc = run_cli(["lcs-witness", chains["fragmented"], "--class", "18", "--depth", "4"],
                   timeout=30, preexec_fn=_address_space_cap())
    assert proc.returncode == 2, proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == ["error: budget memory_budget exceeded: class 14 candidates hold more "
                      "than 4000000 letters; raise --memory-budget"]
    wall = [line for line in proc.stderr.splitlines() if line.startswith("wall-time:")]
    assert float(wall[0].split()[1]) < 15_000


def test_lcs_on_one_generator_builds_no_commutators(chains):
    """Over one generator every commutator reduces to the identity, so
    classes past the first are empty however long the generator words."""
    proc = run_cli(["lcs-witness", chains["odometer"], "--class", "3", "--max-word-len", "1000",
                    "--depth", "3"], timeout=30)
    assert proc.returncode == 0, proc.stderr
    wall = [line for line in proc.stderr.splitlines() if line.startswith("wall-time:")]
    assert float(wall[0].split()[1]) < 5_000
    classes = json.loads(proc.stdout)["result"]["classes"]
    assert [c["examined"] for c in classes] == [256, 0, 0]


def test_internal_error_is_one_line_exit_3(chains, monkeypatch, capsys):
    from cantoract import cli

    def broken(args):
        raise RuntimeError("kernel fault\nat level 3")

    monkeypatch.setitem(cli._RUNNERS, "validate", broken)
    assert main(["validate", chains["odometer"]]) == 3
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == ["error: internal: RuntimeError: kernel fault at level 3"]


def test_schreier_generators_past_the_cap_are_refused_at_once(tmp_path):
    """Grigorchuk's level 13 has 8,192 points over four generators, so
    8,192 * 3 + 1 Schreier generators.  They are counted in closed form
    and refused before the orbit is walked, within a second and far under
    a 1 GB address cap."""
    chain = tmp_path / "g14.json"
    ca.save_chain(ca.mealy_chain(machine_from_dict(GRIGORCHUK), name="grigorchuk"), 14, chain)
    proc = run_cli(["local-farber", str(chain), "--base-level", "13", "--depth", "14"],
                   timeout=30, preexec_fn=_address_space_cap())
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == ["error: budget schreier_generators exceeded: 24577 Schreier generators "
                      "at level 13 exceed the cap of 128"]
    wall = [line for line in proc.stderr.splitlines() if line.startswith("wall-time:")]
    assert float(wall[0].split()[1]) < 1000
