"""Golden reports: sha256 digests of JSON and CSV reports on small chains.

The digests were recorded before the permutation kernel replaced the
per-level word walks, the ``validate`` digests before the commands
shared one report writer, and the Grigorchuk digests before the Mealy
builder carried sections from one level to the next, so any change in
what a report says fails here.  The family digests are of the chain files
``save_chain`` writes, recorded before the string families and the tori
shared their level constructors, so any change in a family's arrays fails
here too.
Chain files are written to a temporary directory and passed by relative
name, because reports echo the chain path.  Re-record only after checking
that a report change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import sys
import tempfile

import pytest

import cantoract as ca
from cantoract.cli import main
from cantoract.mealy import machine_from_dict

from conftest import GRIGORCHUK
from oracles import adding_machine_chain

CHAINS = {
    "frag.json": (ca.fragmented, 8),
    "adding.json": (lambda: adding_machine_chain(2), 8),
    "heis.json": (lambda: ca.heisenberg(2), 6),
    "grig.json": (lambda: ca.mealy_chain(machine_from_dict(GRIGORCHUK), name="grigorchuk"), 9),
}

# Chain files written verbatim; "range.json" has an out-of-range perm entry.
RAW_CHAINS = {
    "range.json": {
        "name": "range", "generators": ["a"],
        "levels": [{"size": 4, "parent": None, "perms": {"a": [1, 2, 3, 9]}}],
    },
}

# Exit code of every CLI case on a chain file, where it is not 0.
EXIT_CODES = {"range.json": 1}

COMMANDS = {
    "frag.json": [
        ["validate"],
        ["farber", "--max-word-len", "3", "--depth", "8"],
        ["farber", "--max-word-len", "4", "--depth", "8"],
        ["local-farber", "--base-level", "1", "--max-word-len", "2", "--depth", "8"],
        ["holonomy", "--word", "g*h^2", "--depth", "8"],
        ["density", "--word", "g", "--point", "sample", "--depth", "8", "--seed", "3"],
        ["lcs-witness", "--class", "2", "--max-word-len", "2", "--depth", "6"],
        ["oracle", "stab-count", "--level", "3", "--word", "g", "--max-order", "5000"],
    ],
    "adding.json": [
        ["validate"],
        ["farber", "--max-word-len", "3", "--depth", "8"],
        ["local-farber", "--base-level", "1", "--max-word-len", "2", "--depth", "8"],
        ["holonomy", "--word", "a^4", "--depth", "8"],
        ["density", "--word", "a^4", "--point", "5", "--depth", "8"],
        ["lcs-witness", "--class", "2", "--max-word-len", "2", "--depth", "6"],
        ["oracle", "stab-count", "--level", "3", "--word", "a^2", "--max-order", "5000"],
    ],
    "heis.json": [
        ["validate"],
        ["farber", "--max-word-len", "2", "--depth", "6"],
        ["local-farber", "--base-level", "1", "--max-word-len", "2", "--depth", "6"],
        ["holonomy", "--word", "[A,B]", "--depth", "6"],
        ["density", "--word", "B", "--point", "sample", "--depth", "6", "--seed", "1"],
        ["lcs-witness", "--class", "2", "--max-word-len", "1", "--depth", "5"],
        ["oracle", "stab-count", "--level", "2", "--word", "B", "--max-order", "5000"],
    ],
    "grig.json": [
        ["validate"],
        ["lcs-witness", "--class", "2", "--max-word-len", "1", "--conj-len", "1", "--depth", "9"],
    ],
    "range.json": [
        ["validate"],
    ],
}

# The chain file of each bundled family, keyed by configuration and depth.
FAMILIES = {
    "odometer(3):6": (lambda: ca.odometer(3), 6),
    "toral(3,2):4": (lambda: ca.toral(3, 2), 4),
    "toral(1,5):4": (lambda: ca.toral(1, 5), 4),
    "dihedral:10": (ca.dihedral, 10),
    "heisenberg(3):3": (lambda: ca.heisenberg(3), 3),
    "fragmented:10": (ca.fragmented, 10),
    "fat_cantor:8": (ca.fat_cantor, 8),
    "fat_cantor({1:5,2:7,3:9}):8": (lambda: ca.fat_cantor({1: 5, 2: 7, 3: 9}), 8),
}

LIBRARY = {"frag.json": (2, 8), "adding.json": (2, 8), "heis.json": (1, 6)}


def _cases() -> dict[str, tuple]:
    """Case id -> (chain file, CLI arguments or None for the library case, format)."""
    cases = {}
    for path, commands in COMMANDS.items():
        for argv in commands:
            for fmt in ("json", "csv"):
                cases[f"{path}:{' '.join(argv)}:{fmt}"] = (path, argv, fmt)
        if path in LIBRARY:
            cases[f"{path}:library"] = (path, None, "json")
    return cases


CASES = _cases()


def _cli_report(path: str, argv: list[str], fmt: str) -> bytes:
    command = argv[:2] if argv[0] == "oracle" else argv[:1]
    args = [*command, path, *argv[len(command):], "--format", fmt, "-o", "report.out"]
    assert main(args) == EXIT_CODES.get(path, 0)
    with open("report.out", "rb") as fh:
        return fh.read()


def _library_report(path: str) -> bytes:
    build, _ = CHAINS[path]
    chain = build()
    max_word_len, depth = LIBRARY[path]
    witnesses = ca.partial_triviality_witnesses(chain, max_word_len, depth)
    lqa = ca.lqa_scale_estimate(chain, max_word_len, depth)
    rows = [[ca.render_word(w.word, chain.alphabet), w.cylinder.level, w.cylinder.vertex,
             w.exact] for w in witnesses]
    return json.dumps({"witnesses": rows, "lqa": lqa.scale_level}).encode("utf-8")


def report_digest(case: str) -> str:
    """Digest of one case's report; the working directory holds the chain files."""
    path, argv, fmt = CASES[case]
    data = _library_report(path) if argv is None else _cli_report(path, argv, fmt)
    return hashlib.sha256(data).hexdigest()


def family_digest(case: str, directory: str) -> str:
    """Digest of the chain file ``save_chain`` writes for one family case."""
    build, depth = FAMILIES[case]
    path = os.path.join(directory, "family.json")
    ca.save_chain(build(), depth, path)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_chains(directory: str) -> None:
    for path, (build, depth) in CHAINS.items():
        ca.save_chain(build(), depth, os.path.join(directory, path))
    for path, data in RAW_CHAINS.items():
        with open(os.path.join(directory, path), "w", encoding="utf-8") as fh:
            json.dump(data, fh)


GOLDEN = {
    "frag.json:validate:json":
        "9677931f87f592359da72ec8efd21411f1a411dada1b287ce947945670a5795a",
    "frag.json:validate:csv":
        "9f32b5df1f17e4501cc392b348e3df1b58ff20995e81d901fee8a68165770aed",
    "frag.json:farber --max-word-len 3 --depth 8:json":
        "8360fa5cb42b7265f4ee7b01caa7d2b077d8c3cb5bfc0a1c0964b960fa93e651",
    "frag.json:farber --max-word-len 3 --depth 8:csv":
        "ca0ad8ed056ad32fe53c0baf0b3f7596152eb517f798154622de63efab6c8ba2",
    "frag.json:farber --max-word-len 4 --depth 8:json":
        "a8c49593fb75103ac25a5626278463d48151da7f1e7d6416d17b5bb89fdfc700",
    "frag.json:farber --max-word-len 4 --depth 8:csv":
        "e2124925366b495c684385818ec7d5adf15cbc78fde672938527c002190f6b5b",
    "frag.json:local-farber --base-level 1 --max-word-len 2 --depth 8:json":
        "ac79150d5721b09dee0ba5ff1b430b4f1b122e5830fc9244d4a82aa71c2d0e29",
    "frag.json:local-farber --base-level 1 --max-word-len 2 --depth 8:csv":
        "37edbb1c69992771b48f51dcc32a73d28a05affe73d5eb8f664fa058d1ff3f15",
    "frag.json:holonomy --word g*h^2 --depth 8:json":
        "5950448865662f537baf7016642921e7e4e881294fa797765b5332a31367140c",
    "frag.json:holonomy --word g*h^2 --depth 8:csv":
        "177e9e1c8b8633197de7c10ad528699b76de2ac8dd31e621d98e8a73995745ab",
    "frag.json:density --word g --point sample --depth 8 --seed 3:json":
        "aade3e931c352bc017d9fc9f3caa6759a9339537fc43436a46b7573585a0bcaf",
    "frag.json:density --word g --point sample --depth 8 --seed 3:csv":
        "b08dffdd6fe9b9fefb7bd9a8618d76c29dbdeaf9dd11a62d7785e6d372623571",
    "frag.json:lcs-witness --class 2 --max-word-len 2 --depth 6:json":
        "e1a761e8b821dfcaedc91a9fc281df670bc04bb38efa3f6ddddd8262c3521521",
    "frag.json:lcs-witness --class 2 --max-word-len 2 --depth 6:csv":
        "7a33e67f9e7355161163dd112bcdc61d60149646d1c7cf49e971c3b1ca143892",
    "frag.json:oracle stab-count --level 3 --word g --max-order 5000:json":
        "d52afd06ded8fedd3be2c7d95e2c60081a0c0121e9b20efeeafb62e4cc6b467a",
    "frag.json:oracle stab-count --level 3 --word g --max-order 5000:csv":
        "81e3044f0712921220e3ba44501a0e5b223355d9d7c86138aaaf14c78293ebe2",
    "frag.json:library":
        "caec1968ce5e9011173cecd06a8505bcdce64cce418c3f1882b31d6c77b40b01",
    "adding.json:validate:json":
        "9bb91d6590f2e8ee46b6be52ac0ea74a86738c76055c8e8ece7b81dd8549764c",
    "adding.json:validate:csv":
        "ebedc60faa69c2258bcd411db0837df9774455e5f14e0629b6a9f7620600a4f9",
    "adding.json:farber --max-word-len 3 --depth 8:json":
        "aead6ca2159da01cc8d81621b2ed35d3d29d81da0e681b2ae3907bf58d54ffc2",
    "adding.json:farber --max-word-len 3 --depth 8:csv":
        "ab5791d0260403cb21a39b1422dd0c6e755c17f405680ee39d991694800b61ef",
    "adding.json:local-farber --base-level 1 --max-word-len 2 --depth 8:json":
        "e0b1b7eb6ae94a35be908376b116e4a78c35bcd3b89cbbdccd607fda511ff205",
    "adding.json:local-farber --base-level 1 --max-word-len 2 --depth 8:csv":
        "eb4e3fe73aea6684be09f84658d8deba353f6b5456b585ce274ae29c40ba6732",
    "adding.json:holonomy --word a^4 --depth 8:json":
        "4d8f1dd48a36c79f19ec285b08bcf5fc4598a7f65edc85c505e3ab4b3de8bb5e",
    "adding.json:holonomy --word a^4 --depth 8:csv":
        "b8aa0277b48de6bf5ef7854aa4635e1cc5344e7d36912b9ab2f0457d7d482e31",
    "adding.json:density --word a^4 --point 5 --depth 8:json":
        "f439f698222ea3a3694643f521109f3d05568723376f90526a5539079dcf197b",
    "adding.json:density --word a^4 --point 5 --depth 8:csv":
        "34fc7324c5dc4adce7d9e53648bee14c667e861ac2a8cee358d22d5927f6369d",
    "adding.json:lcs-witness --class 2 --max-word-len 2 --depth 6:json":
        "e5922afef3fd740933dc2a7ef841540539839b1e13629211122a6ad74ab118ce",
    "adding.json:lcs-witness --class 2 --max-word-len 2 --depth 6:csv":
        "e8832e1fa735a3bc992a8a1c184a46fc71a860bcb10326631c933f40237e3c85",
    "adding.json:oracle stab-count --level 3 --word a^2 --max-order 5000:json":
        "3e836b2b0880415894cdaa2b5ae8c372bb110570cffeddd863448502b72a55c8",
    "adding.json:oracle stab-count --level 3 --word a^2 --max-order 5000:csv":
        "aa6492ca65cdddc6f987043592f236bf675ada67a24952a1c0d0d64f89b482b0",
    "adding.json:library":
        "81619ed9f00812aa77eb0166857a48ce0990344cd47e40782136b8ce65aad1bd",
    "heis.json:validate:json":
        "c90118cad563df1d461653123a0c6d231023e5486c942ee5c86e94943f911c67",
    "heis.json:validate:csv":
        "f3ff42763b13dad3f8e8a32307c10539c71224cddab223fabed3c9f934863ac7",
    "heis.json:farber --max-word-len 2 --depth 6:json":
        "991d0fe8566a355fde1caa911c281e19166f2227c4f2c19d05794caef06d1822",
    "heis.json:farber --max-word-len 2 --depth 6:csv":
        "6d41fbffc5f5e4833eb7aa249b20bfc6f6b22b3cfbaf9eb41ca9ffbdbd14d2fe",
    "heis.json:local-farber --base-level 1 --max-word-len 2 --depth 6:json":
        "80da6a859832d65ed62aeb16515a65de81bc49fedae5b681ed4bd2194a24f69c",
    "heis.json:local-farber --base-level 1 --max-word-len 2 --depth 6:csv":
        "3be391286be3803e33473c99407af4a4717f7760ff7d56343d17f8404fd52c06",
    "heis.json:holonomy --word [A,B] --depth 6:json":
        "985a82819ba7eab20024b37910f00311ff8b64caac69425a71ba17481ac7e3a6",
    "heis.json:holonomy --word [A,B] --depth 6:csv":
        "63a47faba53dff5551820be9be89d372a5a376ccdcc1c14d62ed53e9457a1cd2",
    "heis.json:density --word B --point sample --depth 6 --seed 1:json":
        "00b2e593ea1bcdc0b1f9b4704fdc6d9b744777bc6ddf8daae6cc74e11d2593cf",
    "heis.json:density --word B --point sample --depth 6 --seed 1:csv":
        "b8b0be4b6e496c10ad2ddfe5c3e894b3784da8cf5837a357f58a14bcbc7f206e",
    "heis.json:lcs-witness --class 2 --max-word-len 1 --depth 5:json":
        "67ddf3699d8793f4174a6b1b20ae5449aa957be8d3cc83bb081dac16cbe50ec8",
    "heis.json:lcs-witness --class 2 --max-word-len 1 --depth 5:csv":
        "e9d9f822fd24f28d05edc3bdd64807fc4445c3abd5d4995930dd0181269db424",
    "heis.json:oracle stab-count --level 2 --word B --max-order 5000:json":
        "6272962bd82271b7e4beb04ff410aad1a7fb8fd576cf111005a881c5009567b4",
    "heis.json:oracle stab-count --level 2 --word B --max-order 5000:csv":
        "e2d07664ac79cfae24521193590daf520f51556ea5df8523b4bcc0af8cea47a0",
    "heis.json:library":
        "81619ed9f00812aa77eb0166857a48ce0990344cd47e40782136b8ce65aad1bd",
    "grig.json:validate:json":
        "748f62af82d36f32494bf42b46f1d15a0b01d08ac5ccc58dd82c97dc3c8fd2bd",
    "grig.json:validate:csv":
        "df1e2149e363ad7966a5d844dcf13b8f093a13ab58260728f9e045375f406da2",
    "grig.json:lcs-witness --class 2 --max-word-len 1 --conj-len 1 --depth 9:json":
        "0525eea715b07954192806daeb71a8f6f9c8186f2a3c39a7ad1e57fd23acc8a5",
    "grig.json:lcs-witness --class 2 --max-word-len 1 --conj-len 1 --depth 9:csv":
        "c8e436bd8b3527e4273faa5c8da14c7f52bc4ce430187351ec04f0e17f79bceb",
    "range.json:validate:json":
        "b9f2b2d564bc56c3552ea4b40ad06b751d0e25b5e3584110c69f5b35a34b2439",
    "range.json:validate:csv":
        "08b1dd13904bb9373f38417002e26aab3b6630b924afc2dd935253b1a28f9385",
}


FAMILY_GOLDEN = {
    "odometer(3):6":
        "1efe9fec59ccd58539373c994f723a774289d32666a20d276623fbf7c87d7a14",
    "toral(3,2):4":
        "2e6d7749bedb5b8397a619790f71534462dfab10fde4a8127fdf7da8c4e330f9",
    "toral(1,5):4":
        "534ff753ac0df1b9f3a63a97c3efc71a006879ee6bc4e4d77e45b1ad6cf9d6cb",
    "dihedral:10":
        "c5a63919942f02fb7f49976f073c90c3ca5e12e581562b57a0dd0731e9396550",
    "heisenberg(3):3":
        "48a050375e6cdae4b803ba7de48b09dd0580b7db76dc60d9f130a43a82d1b553",
    "fragmented:10":
        "3c32e18fd0e38a8a89fcc8f241f2daee563153f29b53c3b4611553a52f62c8ef",
    "fat_cantor:8":
        "98b7de803b01d43d02b245097338c6cd6dd2b6b23670fa5bc7bbb2d8727a130e",
    "fat_cantor({1:5,2:7,3:9}):8":
        "3195ddae5d50446d0cde3a74062d5f93b3042526209e025beb9d47dc70caf0b6",
}


@pytest.fixture(scope="module")
def chain_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_chains(str(directory))
    return directory


@pytest.mark.parametrize("case", list(CASES))
def test_report_matches_golden(case, chain_dir, monkeypatch):
    monkeypatch.chdir(chain_dir)
    assert report_digest(case) == GOLDEN[case]


@pytest.mark.parametrize("case", list(FAMILIES))
def test_family_chain_file_matches_golden(case, tmp_path):
    assert family_digest(case, str(tmp_path)) == FAMILY_GOLDEN[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        write_chains(directory)
        os.chdir(directory)
        digests = {case: report_digest(case) for case in CASES}
        digests.update((case, family_digest(case, directory)) for case in FAMILIES)
    json.dump(digests, sys.stdout, indent=4)
    sys.stdout.write("\n")
