"""What a process compiles.  ``import cantoract`` loads only the modules
the Farber and LCS analyses run; the scans, the stabilizer-count oracle,
the fat-Cantor family, the word parser and the transducer module load on
the first read of one of their names; and no analysis imports a module,
so none compiles one inside its own timing.  Each check runs in a fresh
interpreter, as a command does."""

import json
import os
import subprocess
import sys
from pathlib import Path

import cantoract

HOT = ["cantoract", "cantoract.builders", "cantoract.chain", "cantoract.errors",
       "cantoract.farber", "cantoract.holonomy", "cantoract.lcs", "cantoract.words"]
GRIGORCHUK = Path(__file__).resolve().parents[1] / "bench" / "grigorchuk.json"

# prints the package's modules loaded so far, as a sorted JSON list
LOADED = ("import json, sys; "
          "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'cantoract')))")


def _run(code: str) -> list:
    """The JSON lines ``code`` prints in a fresh interpreter that compiles from source."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_package_and_cli_load_only_the_hot_modules(tmp_path):
    """The report module loads when a command writes a report, and
    ``build``, which writes none, never loads it."""
    out = str(tmp_path / "frag.json")
    loaded = _run(f"import cantoract\n{LOADED}\nimport cantoract.cli\n{LOADED}\n"
                  f"cantoract.cli.main(['build', 'fragmented', '--depth', '2', '-o', {out!r}])\n"
                  f"{LOADED}\n"
                  f"cantoract.cli.main(['validate', {out!r}, '--depth', '2', '-o', {out!r} + '.v'])\n"
                  f"{LOADED}")
    cli = sorted(HOT + ["cantoract.cli"])
    assert loaded == [HOT, cli, cli, sorted(cli + ["cantoract.reports"])]


def test_every_lazy_name_is_its_module_attribute():
    """And the witness scan still reads from ``holonomy``, where the
    benchmark's own tests look for it."""
    names, forwarded = _run(
        "import importlib, json, cantoract as ca, cantoract.holonomy as holonomy\n"
        "print(json.dumps(sorted(name for name, module in ca._LAZY.items()\n"
        "    if getattr(ca, name) is getattr(\n"
        "        importlib.import_module(f'cantoract.{module}'), name))))\n"
        "print(json.dumps(holonomy.partial_triviality_witnesses\n"
        "                 is ca.partial_triviality_witnesses))")
    assert names == sorted(cantoract._LAZY)
    assert forwarded
    assert set(cantoract._LAZY.values()) == {"mealy", "oracle", "parse", "punctured", "scans"}


def test_fat_cantor_stays_the_function_after_its_module_loads():
    (kinds,) = _run(
        "import json, types, cantoract as ca, cantoract.punctured as punctured\n"
        "print(json.dumps([isinstance(ca.fat_cantor, types.FunctionType),\n"
        "                  ca.fat_cantor is punctured.fat_cantor]))")
    assert kinds == [True, True]


def test_no_analysis_imports_a_module():
    """The bench workloads' analysis calls, at small depths, after the
    chains are built and validated as the workloads' set-up does."""
    added = _run(
        "import json, sys\n"
        "import cantoract as ca\n"
        "from cantoract.mealy import load_machine\n"
        "frag = ca.fragmented()\n"
        f"grig = ca.mealy_chain(load_machine({str(GRIGORCHUK)!r}), name='grigorchuk')\n"
        "for chain in (frag, grig):\n"
        "    chain.level(8)\n"
        "    assert ca.validate_chain(chain, 8).ok\n"
        "before = set(sys.modules)\n"
        "reports = [\n"
        "    ca.farber_check(frag, max_word_len=3, depth=8),\n"
        "    ca.local_farber_check(frag, 1, max_word_len=2, depth=8),\n"
        "    ca.witness_search(grig, 3, max_word_len=1, conj_len=1, depth=8,\n"
        "                      max_candidates=16),\n"
        "]\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
        "print(json.dumps([len(reports[0].words), len(reports[1].words),\n"
        "                  sum(c.examined for c in reports[2].classes)]))")
    assert added[0] == []
    assert all(added[1])  # every analysis scored candidates
