"""Command-line behavior: output formats, golden bytes, exit codes, and the
fan round-trip."""

import functools
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from math import gcd

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from cluster_forge import (
    cli,
    corpus,
    degeneration,
    exact_algebra,
    gfan,
    invariants,
)
from cluster_forge.cli import main
from cluster_forge.corpus import (
    a2_principal_table_text,
    a2_table_text,
    dp5_table_text,
    gr25_table_text,
    read_golden,
)
from cluster_forge.exact_algebra import LaurentPoly, PosRatFunc
from cluster_forge.gfan import enumerate_gfan
from cluster_forge.seeds import ExchangeData, seed_from_json
from cluster_forge.semifields import TropMonomial

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
FIXTURES = os.path.join(SRC, "cluster_forge", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run(*args, **kw):
    return CliRunner().invoke(main, list(args), **kw)


def run_process(*args):
    """Run the CLI in a fresh interpreter, so an uncaught exception shows as
    a traceback on stderr instead of being kept by the test runner."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "cluster_forge.cli", *args],
                          capture_output=True, text=True, env=env, timeout=60)


# -- table ---------------------------------------------------------------------

def test_table_a2_matches_golden_bytes():
    res = run("table", "a2")
    assert res.exit_code == 0
    assert res.output == read_golden("a2.txt") == a2_table_text()


def test_table_a2_principal_matches_golden_bytes():
    res = run("table", "a2-principal")
    assert res.exit_code == 0
    assert res.output == a2_principal_table_text()


def test_table_gr25_and_dp5_text():
    assert run("table", "gr25").output == gr25_table_text()
    assert run("table", "dp5").output == dp5_table_text()


def test_table_csv_has_six_vertices():
    res = run("table", "a2-principal", "--format", "csv")
    assert res.exit_code == 0
    lines = res.output.strip().split("\n")
    assert lines[0].startswith("vertex,path,C,G")
    assert len(lines) == 7


def test_table_json_rows():
    res = run("table", "a2", "--format", "json")
    rows = json.loads(res.output)
    assert len(rows) == 6
    assert rows[0]["C"] == [[1, 0], [0, 1]]
    assert all(row["sign_coherent"] for row in rows)


def test_table_gr25_csv_is_input_error():
    res = run("table", "gr25", "--format", "csv")
    assert res.exit_code == 2


@pytest.mark.parametrize("which, name, fault, message", [
    ("gr25", "GR25_DICT", lambda d: {**d, "u33": (0, 0, -1, 0, 0, 0, 1)},
     "flow of p13 does not match the engine"),
    ("dp5", "DP5_RELATIONS",
     lambda rels: ((1, 3, (0, 0), 2, (0, 0)),) + rels[1:],
     "relation 1,3 fails"),
], ids=["gr25", "dp5"])
def test_table_json_exits_1_on_a_failed_check(monkeypatch, which, name,
                                              fault, message):
    monkeypatch.setattr(corpus, name, fault(getattr(corpus, name)))
    res = run("table", which, "--format", "json")
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert res.stderr == f"error: table {which}: {message}\n"


# -- pinned output --------------------------------------------------------------

#: The sha256 of stdout and the exit code of fixed commands: every table
#: format, three verify suites on each fixture, the fibres over zero and
#: over one rational point, a mutation path on each fully mutable fixture
#: in every coefficient mode, as text and as JSON, and the family suites
#: degree, limit and glue run to success on a2, b2 and a3, as text and as
#: JSON.  A fixture name stands for its path.  A change meant to keep every
#: output byte-identical must leave these as they are.
PINNED = {
    "table a2 --format text":
        ("03890024c3ec13397336875f24b685708318d91326f44b743811ffb1b20b2f6c", 0),
    "table a2 --format csv":
        ("b3f397f628f66cec3181c4ed9787d4a56b20e1994c0051c069e3686ae75f7024", 0),
    "table a2 --format json":
        ("842c8f00895b469594368023ae756a1a03a05cdc3b4e19139938e6d5d286b2c6", 0),
    "table a2-principal --format text":
        ("9259e379fb6d91777e9f54035fcc5344c17d9f4e2fd40f724c34dfd5d6e9bd72", 0),
    "table a2-principal --format csv":
        ("b3f397f628f66cec3181c4ed9787d4a56b20e1994c0051c069e3686ae75f7024", 0),
    "table a2-principal --format json":
        ("842c8f00895b469594368023ae756a1a03a05cdc3b4e19139938e6d5d286b2c6", 0),
    "table gr25 --format text":
        ("f5f736f8c51a7d70d5e960040f9ff8c867a5ceadf592bf375dc83d251a834251", 0),
    "table gr25 --format csv":
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "table gr25 --format json":
        ("c380fdd81accbb8f802820daab04c30fb7ba270309992ba37eadd34d47185a78", 0),
    "table dp5 --format text":
        ("3b420a52418683bb0c5019cc85bdcf9587bf8e0618413489951750cf1e0ea3aa", 0),
    "table dp5 --format csv":
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "table dp5 --format json":
        ("623ed2d300c4be80a906bc7d0c2ab130d74f9a9557057e80f624adf99094eafa", 0),
    "verify duality --seed a2.json":
        ("0bc1d6359d8d3517db6b281a32568aab060f33c4b6be0d4cb4aac0f87dca695b", 0),
    "verify signcoherence --seed a2.json":
        ("05f401150252090f800df7f3da488dfbca4bade2f9398fd7868028b47976cd25", 0),
    "verify separation --seed a2.json --json":
        ("eb4d6af87825b2469a20e934959ad30cab51d8145183d7fe7481755956d4d0a5", 0),
    "degenerate --seed a2.json --at 0,0":
        ("cff8163f663ce03ded976a48b7de7ecf1c7cdb017377e8a53cf352d8e06c5b4c", 0),
    "degenerate --seed a2.json --at 1/2,-3":
        ("b0629fc07bfb770b5ad6576a5b7c2485b57424b8a7190ade0da0606056d6fe7d", 0),
    "verify duality --seed a3.json":
        ("77f0b2227931d76612af35767f4f9fd20be96d059a861d60d02bda01e832b2f4", 0),
    "verify signcoherence --seed a3.json":
        ("a46331978a3a734eeef299f7240bdea38bc42a7e5e306196ec2737ff82b44bee", 0),
    "verify separation --seed a3.json --json":
        ("f1f108bd028b07ac80f661892eb5bd76e93941c57c091aa17a4dff01d5a2162e", 0),
    "degenerate --seed a3.json --at 0,0,0":
        ("667bbc4512ddae3231bffd0b1c46dd6df07acb22d34d05fa3cd49b6f58140c53", 0),
    "degenerate --seed a3.json --at 1/2,-3,5/7":
        ("0ef8e7a3b45a1b260c1e9295317f6d8b55f1b38b1b8b2ecc09e9d45ba8bad3f0", 0),
    "verify duality --seed a3_rev.json":
        ("77f0b2227931d76612af35767f4f9fd20be96d059a861d60d02bda01e832b2f4", 0),
    "verify signcoherence --seed a3_rev.json":
        ("a46331978a3a734eeef299f7240bdea38bc42a7e5e306196ec2737ff82b44bee", 0),
    "verify separation --seed a3_rev.json --json":
        ("f1f108bd028b07ac80f661892eb5bd76e93941c57c091aa17a4dff01d5a2162e", 0),
    "degenerate --seed a3_rev.json --at 0,0,0":
        ("bce7a8e144352d61099854d87725edbcc800fa43bc2ed51459684866cfe20bbb", 0),
    "degenerate --seed a3_rev.json --at 1/2,-3,5/7":
        ("c51e0982cc2ab007a7b596473e9169902df0e97b6595f658099354216f2f9c82", 0),
    "verify duality --seed b2.json":
        ("15d102988358f6a20c74d30621a192842b5ff1382b01abcf716862d8386b07bb", 0),
    "verify signcoherence --seed b2.json":
        ("a3d59547973cae70997bd09dce493fa98de5e9ecf3eecbca03a7c47947e74cae", 0),
    "verify separation --seed b2.json --json":
        ("eb4d6af87825b2469a20e934959ad30cab51d8145183d7fe7481755956d4d0a5", 0),
    "degenerate --seed b2.json --at 0,0":
        ("118badd83ee51d2219c918e4ff1a12db0aa2a0242238ed6ecc0004830162f8b1", 0),
    "degenerate --seed b2.json --at 1/2,-3":
        ("065ec163b071302b88230a05f7a10e4eed429498d4840fe6fca906dd36ba1923", 0),
    "verify duality --seed dp5.json":
        ("0bc1d6359d8d3517db6b281a32568aab060f33c4b6be0d4cb4aac0f87dca695b", 0),
    "verify signcoherence --seed dp5.json":
        ("05f401150252090f800df7f3da488dfbca4bade2f9398fd7868028b47976cd25", 0),
    "verify separation --seed dp5.json --json":
        ("eb4d6af87825b2469a20e934959ad30cab51d8145183d7fe7481755956d4d0a5", 0),
    "degenerate --seed dp5.json --at 0,0":
        ("79b760b2a54e95b9f117353af61497cb106a4349288d81894cc403b121dbd2d9", 0),
    "degenerate --seed dp5.json --at 1/2,-3":
        ("0e13c4a477261ea4a96e775dec3f3328441db3600b1e883afaabbd5e356a7090", 0),
    "verify duality --seed gr25.json":
        ("0bc1d6359d8d3517db6b281a32568aab060f33c4b6be0d4cb4aac0f87dca695b", 0),
    "verify signcoherence --seed gr25.json":
        ("05f401150252090f800df7f3da488dfbca4bade2f9398fd7868028b47976cd25", 0),
    "verify separation --seed gr25.json --json":
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "degenerate --seed gr25.json --at 0,0":
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "degenerate --seed gr25.json --at 1/2,-3":
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "mutate --seed a2.json --path 2,1,2,1,2":
        ("ad3c002df0af4eeaec59e6af9180b6a2c45e383e3a2e13dd0ceaec9999fbf855", 0),
    "mutate --seed a2.json --path 2,1,2,1,2 --json":
        ("3edb04e2259d3d63b4ec6978e6099c3926ee53d5177ce41210cd4415b3d23f77", 0),
    "mutate --seed a2.json --path 2,1,2,1,2 --with-coeffs principal":
        ("ad3c002df0af4eeaec59e6af9180b6a2c45e383e3a2e13dd0ceaec9999fbf855", 0),
    "mutate --seed a2.json --path 2,1,2,1,2 --with-coeffs principal --json":
        ("3edb04e2259d3d63b4ec6978e6099c3926ee53d5177ce41210cd4415b3d23f77", 0),
    "mutate --seed a2.json --path 2,1,2,1,2 --with-coeffs none":
        ("69089edcd4b57f8c904495231c7bd9cb9c0f6a44b143ac77576908b0fff6c2ff", 0),
    "mutate --seed a2.json --path 2,1,2,1,2 --with-coeffs none --json":
        ("5396c901b7994490d2a1b242516887a984b5e67cec47e1b93902ea16507e715b", 0),
    "mutate --seed a2.json --path 2,1,2,1,2 --with-coeffs trop:2":
        ("ad3c002df0af4eeaec59e6af9180b6a2c45e383e3a2e13dd0ceaec9999fbf855", 0),
    "mutate --seed a2.json --path 2,1,2,1,2 --with-coeffs trop:2 --json":
        ("3edb04e2259d3d63b4ec6978e6099c3926ee53d5177ce41210cd4415b3d23f77", 0),
    "mutate --seed b2.json --path 1,2,1,2,1,2":
        ("03e7fc186ccea99537f18480439b2f760d8a175304337ed60b5ede8712d8256b", 0),
    "mutate --seed b2.json --path 1,2,1,2,1,2 --json":
        ("541d1dd2e099bd8458ada9b7a0f86be4cf4fba8d0aad3e41291d220898b53015", 0),
    "mutate --seed b2.json --path 1,2,1,2,1,2 --with-coeffs principal":
        ("03e7fc186ccea99537f18480439b2f760d8a175304337ed60b5ede8712d8256b", 0),
    "mutate --seed b2.json --path 1,2,1,2,1,2 --with-coeffs principal --json":
        ("541d1dd2e099bd8458ada9b7a0f86be4cf4fba8d0aad3e41291d220898b53015", 0),
    "mutate --seed b2.json --path 1,2,1,2,1,2 --with-coeffs none":
        ("9c019c44d793e901ce124dbb52619749e6c6c85e0ef9cd844ac015b7a22b90f5", 0),
    "mutate --seed b2.json --path 1,2,1,2,1,2 --with-coeffs none --json":
        ("cf0cb259f24bbe707a64c7ae0331df4a8c97a089aed03fc09f5a99321b264ed2", 0),
    "mutate --seed b2.json --path 1,2,1,2,1,2 --with-coeffs trop:2":
        ("03e7fc186ccea99537f18480439b2f760d8a175304337ed60b5ede8712d8256b", 0),
    "mutate --seed b2.json --path 1,2,1,2,1,2 --with-coeffs trop:2 --json":
        ("541d1dd2e099bd8458ada9b7a0f86be4cf4fba8d0aad3e41291d220898b53015", 0),
    "mutate --seed a3.json --path 1,2,3,2,1":
        ("79d181fb69632c38642070b8af078e0f73ce4640ce062b34c13bf7c5d114a4a8", 0),
    "mutate --seed a3.json --path 1,2,3,2,1 --json":
        ("79e7701250366886cd445472b954a780feb86235b310765fd4d229f2f0f348aa", 0),
    "mutate --seed a3.json --path 1,2,3,2,1 --with-coeffs principal":
        ("79d181fb69632c38642070b8af078e0f73ce4640ce062b34c13bf7c5d114a4a8", 0),
    "mutate --seed a3.json --path 1,2,3,2,1 --with-coeffs principal --json":
        ("79e7701250366886cd445472b954a780feb86235b310765fd4d229f2f0f348aa", 0),
    "mutate --seed a3.json --path 1,2,3,2,1 --with-coeffs none":
        ("221364a8c3a1aa53da85a1f0374cecdd77f4498a26a873a40a3949b4f74bd548", 0),
    "mutate --seed a3.json --path 1,2,3,2,1 --with-coeffs none --json":
        ("d8ab9787583d7e4455ddf9012c32658b92164cbb3e217ef23fea878c7119396b", 0),
    "mutate --seed a3.json --path 1,2,3,2,1 --with-coeffs trop:3":
        ("79d181fb69632c38642070b8af078e0f73ce4640ce062b34c13bf7c5d114a4a8", 0),
    "mutate --seed a3.json --path 1,2,3,2,1 --with-coeffs trop:3 --json":
        ("79e7701250366886cd445472b954a780feb86235b310765fd4d229f2f0f348aa", 0),
    "mutate --seed a3_rev.json --path 3,2,1,2":
        ("394a79f92e0c0bbc651362ad11f4111977e431c096ada5ff3daddbf0534fcd9f", 0),
    "mutate --seed a3_rev.json --path 3,2,1,2 --json":
        ("5d80a35a1331573177bc8866bfcba2cd3cef14ac5e90620d04d5495eeaac989a", 0),
    "mutate --seed a3_rev.json --path 3,2,1,2 --with-coeffs principal":
        ("124f59825e830a41e9ecf24de485ef778c0c0f744df57e39f7d4fbf6e066b614", 0),
    "mutate --seed a3_rev.json --path 3,2,1,2 --with-coeffs principal --json":
        ("92754a14b5db89dc8490fb7ab85602c79ff1ee3f0530876d74b4cd5ed4ec6814", 0),
    "mutate --seed a3_rev.json --path 3,2,1,2 --with-coeffs none":
        ("394a79f92e0c0bbc651362ad11f4111977e431c096ada5ff3daddbf0534fcd9f", 0),
    "mutate --seed a3_rev.json --path 3,2,1,2 --with-coeffs none --json":
        ("5d80a35a1331573177bc8866bfcba2cd3cef14ac5e90620d04d5495eeaac989a", 0),
    "mutate --seed dp5.json --path 1,2,1":
        ("8e923db55c727515f9119ac3a2f886782155cffe6d44272cc94420ae8d1c83dd", 0),
    "mutate --seed dp5.json --path 1,2,1 --json":
        ("df368444756b21543218b8546925b15b61c1c9c3f028e5d0a4095d63f350525a", 0),
    "mutate --seed dp5.json --path 1,2,1 --with-coeffs principal":
        ("8c4b0a5fbe1aa9075659340eb92ff8921163c0aae2b01a3fb8ac2af6c21292a3", 0),
    "mutate --seed dp5.json --path 1,2,1 --with-coeffs principal --json":
        ("bc8311f0a57a2eeeadb51288e05cda60f9ae9410d5cb96ad2e24286f3045c0c5", 0),
    "mutate --seed dp5.json --path 1,2,1 --with-coeffs none":
        ("8e923db55c727515f9119ac3a2f886782155cffe6d44272cc94420ae8d1c83dd", 0),
    "mutate --seed dp5.json --path 1,2,1 --with-coeffs none --json":
        ("df368444756b21543218b8546925b15b61c1c9c3f028e5d0a4095d63f350525a", 0),
    "verify degree --seed a2.json":
        ("c51039f7185cb42ae18206ee1f7e725f523bf0e96c19070c17c5c3025a6072a6", 0),
    "verify degree --seed a2.json --json":
        ("87df6308f409eac552c2a89feff88d67405f92aed884d104925d1903d9da8c59", 0),
    "verify degree --seed b2.json":
        ("c51039f7185cb42ae18206ee1f7e725f523bf0e96c19070c17c5c3025a6072a6", 0),
    "verify degree --seed b2.json --json":
        ("87df6308f409eac552c2a89feff88d67405f92aed884d104925d1903d9da8c59", 0),
    "verify degree --seed a3.json":
        ("c51039f7185cb42ae18206ee1f7e725f523bf0e96c19070c17c5c3025a6072a6", 0),
    "verify degree --seed a3.json --json":
        ("87df6308f409eac552c2a89feff88d67405f92aed884d104925d1903d9da8c59", 0),
    "verify limit --seed a2.json":
        ("aab6f1a5d4d81bc8c15305f0009dcb7a68ed48d78eeedc06eaa1b6100ff08ef1", 0),
    "verify limit --seed a2.json --json":
        ("9c64699dab22e689b5218d3401e446053e07f871353b9ea39326270c59999729", 0),
    "verify limit --seed b2.json":
        ("aab6f1a5d4d81bc8c15305f0009dcb7a68ed48d78eeedc06eaa1b6100ff08ef1", 0),
    "verify limit --seed b2.json --json":
        ("9c64699dab22e689b5218d3401e446053e07f871353b9ea39326270c59999729", 0),
    "verify limit --seed a3.json":
        ("aab6f1a5d4d81bc8c15305f0009dcb7a68ed48d78eeedc06eaa1b6100ff08ef1", 0),
    "verify limit --seed a3.json --json":
        ("9c64699dab22e689b5218d3401e446053e07f871353b9ea39326270c59999729", 0),
    "verify glue --seed a2.json":
        ("ed8896840f76fb0d34e47b2715f1824513fc0350e454252b2d7fab83b7736041", 0),
    "verify glue --seed a2.json --json":
        ("93b3a2fdb0958d132dd79d473e48d6d8a42591896576a6fa170cc07a1a6626f9", 0),
    "verify glue --seed b2.json":
        ("ed8896840f76fb0d34e47b2715f1824513fc0350e454252b2d7fab83b7736041", 0),
    "verify glue --seed b2.json --json":
        ("93b3a2fdb0958d132dd79d473e48d6d8a42591896576a6fa170cc07a1a6626f9", 0),
    "verify glue --seed a3.json":
        ("ed8896840f76fb0d34e47b2715f1824513fc0350e454252b2d7fab83b7736041", 0),
    "verify glue --seed a3.json --json":
        ("93b3a2fdb0958d132dd79d473e48d6d8a42591896576a6fa170cc07a1a6626f9", 0),
}


@pytest.mark.parametrize("command", list(PINNED))
def test_pinned_command_output(command):
    args = [fixture(a) if a.endswith(".json") else a for a in command.split()]
    res = run(*args)
    digest = hashlib.sha256(res.stdout.encode("utf-8")).hexdigest()
    assert (digest, res.exit_code) == PINNED[command]


# -- mutate ---------------------------------------------------------------------

def test_mutate_empty_path_echoes_seed():
    res = run("mutate", "--seed", fixture("a2.json"), "--path", "")
    assert res.exit_code == 0
    assert "p1: p1" in res.output and "Y1: y1" in res.output
    assert "matrix: [[0, 1], [-1, 0]]" in res.output


def test_mutate_path_json():
    res = run("mutate", "--seed", fixture("a2.json"), "--path", "2,1",
              "--json")
    out = json.loads(res.output)
    assert out["B"] == [[0, 1], [-1, 0]]
    assert out["p"] == ["p1^-1", "p2^-1"]


def test_mutate_with_coeffs_none():
    res = run("mutate", "--seed", fixture("a2.json"), "--path", "1",
              "--with-coeffs", "none", "--json")
    out = json.loads(res.output)
    assert out["p"] == ["1", "1"]
    assert out["y"] == ["1 / y1", "y1*y2 / (y1 + 1)"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["a2.json", "b2.json", "a3.json", "a3_rev.json",
                        "dp5.json"]),
       st.sampled_from(["principal", "none"]), st.data())
def test_mutate_prints_y_variables_in_lowest_terms(name, coeffs, data):
    """On the finite-type fixtures, every Y-variable that mutate prints
    after at most six steps has a numerator and a denominator that sympy
    finds coprime.  Reduction divides factor keys only by each other, so
    it does not promise lowest terms in general; the Markov seed is left
    out."""
    sympy = pytest.importorskip("sympy")
    with open(fixture(name)) as fh:
        n = json.load(fh)["n"]
    path = data.draw(st.lists(st.integers(1, n), max_size=6))
    res = run("mutate", "--seed", fixture(name), "--with-coeffs", coeffs,
              "--path", ",".join(map(str, path)), "--json")
    assert res.exit_code == 0
    for text in json.loads(res.output)["y"]:
        # each side parsed alone, so sympy cancels nothing between them
        num, _, den = text.partition(" / ")
        num, den = (sympy.sympify(s.replace("^", "**")) for s in
                    (num, den or "1"))
        assert sympy.gcd(num, den) == 1, text


def test_mutate_with_coeffs_trop_rank_mismatch():
    res = run("mutate", "--seed", fixture("a2.json"), "--path", "1",
              "--with-coeffs", "trop:3")
    assert res.exit_code == 2
    assert "rank" in res.stderr


def test_mutate_malformed_seed_exit_2():
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("bad.json", "w") as fh:
            fh.write("{not json")
        res = runner.invoke(main, ["mutate", "--seed", "bad.json",
                                   "--path", "1"])
        assert res.exit_code == 2
        assert "bad.json" in res.stderr


@pytest.mark.parametrize("seed, field", [
    ({"B": [[0, 1.5], [-1.5, 0]], "n": 2}, "B[0][1]"),
    ({"B": [[0, 1], [-1, 0]], "n": 2, "coeff_rank": 1, "p": [[1.7], [2]]},
     "p[0][0]"),
    ({"B": [[0, 1], [-1, 0]], "n": 2, "coeff_rank": 1, "p": [[1]]}, "p has"),
    ({"B": [[0, 1], [-1, 0]], "n": 2, "coeff_rank": 2, "p": [[1], [2]]},
     "coeff_rank"),
    ({"B": [[0, 1], [-1, 0]], "n": True}, "n must"),
    ({"B": [[0, 1], [-1, 0]], "n": 2, "coeff_rank": -1}, "coeff_rank"),
], ids=["float-B", "float-p", "p-count", "p-tuple-length", "bool-n",
        "negative-coeff-rank"])
def test_mutate_non_integer_or_misshaped_seed_exit_2(seed, field):
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("bad.json", "w") as fh:
            json.dump(seed, fh)
        res = runner.invoke(main, ["mutate", "--seed", "bad.json",
                                   "--path", "1"])
        assert res.exit_code == 2
        assert "bad.json" in res.stderr and field in res.stderr


def test_mutate_gr25_needs_mutable_seed():
    res = run_process("mutate", "--seed", fixture("gr25.json"), "--path", "1")
    assert res.returncode == 2
    assert "Traceback" not in res.stdout + res.stderr
    assert "gr25.json" in res.stderr and "fully mutable" in res.stderr


def test_mutate_frozen_direction_exit_3():
    res = run("mutate", "--seed", fixture("gr25.json"), "--path", "3")
    assert res.exit_code == 3
    assert "frozen" in res.stderr


def test_mutate_out_of_range_direction_exit_2():
    res = run("mutate", "--seed", fixture("a2.json"), "--path", "9")
    assert res.exit_code == 2
    assert "out of range" in res.stderr


# -- fan / star -------------------------------------------------------------------

def test_fan_round_trip_star():
    runner = CliRunner()
    with runner.isolated_filesystem():
        res = runner.invoke(main, ["fan", "--seed", fixture("a2.json"),
                                   "--out", "fan.json"])
        assert res.exit_code == 0
        with open("fan.json") as fh:
            obj = json.load(fh)
        assert len(obj["maximal_cones"]) == 5
        assert obj["complete"] is True
        res2 = runner.invoke(main, ["star", "--fan", "fan.json",
                                    "--tau", "ray:1", "--json"])
        assert res2.exit_code == 0
        st = json.loads(res2.output)
        assert len(st["projected_cones"]) == 2
        assert st["restricted_matrix"] == [[0]]


def test_fan_truncated_then_star_refuses():
    runner = CliRunner()
    with runner.isolated_filesystem():
        res = runner.invoke(main, ["fan", "--seed", fixture("a2.json"),
                                   "--depth", "0", "--out", "fan.json"])
        assert res.exit_code == 4
        assert "truncated" in res.stderr
        res2 = runner.invoke(main, ["star", "--fan", "fan.json",
                                    "--tau", "ray:1"])
        assert res2.exit_code == 4
        assert "incomplete" in res2.stderr


def test_fan_freeze_restricts_directions():
    res = run("fan", "--seed", fixture("a3_rev.json"), "--freeze", "1",
              "--json")
    obj = json.loads(res.output)
    assert obj["allowed"] == [2, 3]
    assert len(obj["maximal_cones"]) == 5


def test_fan_tampered_file_is_input_error():
    def stale_ray(obj):
        obj["rays"][0] = [7, 7]

    def non_integer_seed(obj):
        obj["seed"]["B"] = [[0, 1.5], [-1.5, 0]]

    def float_rays(obj):
        obj["rays"] = [[float(x) for x in r] for r in obj["rays"]]

    def setter(field, value):
        return lambda obj: obj.__setitem__(field, value)

    runner = CliRunner()
    for tamper, named in ((stale_ray, "fan.json"),
                          (non_integer_seed, "B[0][1]"),
                          (float_rays, "rays[0][0]"),
                          (setter("allowed", [3]), "allowed[0]"),
                          (setter("allowed", [0, 2]), "allowed[0]"),
                          (setter("allowed", [True, 2]), "allowed[0]"),
                          (setter("complete", "yes"), "complete"),
                          (setter("maximal_cones", [[0, 5]]),
                           "maximal_cones[0][1]"),
                          (setter("paths", [[], [1], [2], [1, 2.0], [2, 1]]),
                           "paths[3][1]"),
                          (setter("paths", [[], [1], [2], [1, 3], [2, 1]]),
                           "paths[3][1]"),
                          (setter("paths", [[], [1], [2], [0], [2, 1]]),
                           "paths[3][0]"),
                          (setter("paths", [[], [True], [2], [1, 2], [2, 1]]),
                           "paths[1][0]"),
                          (setter("paths", [[], [1], 2, [1, 2], [2, 1]]),
                           "paths[2]"),
                          (setter("paths", [[], [1], [2], [1, 2]]), "paths"),
                          (setter("paths", {}), "paths"),
                          (lambda obj: obj.pop("paths"), "paths"),
                          (setter("allowed", [2]), "paths[1][0]"),
                          (lambda obj: obj["rays"].append([3, 5]),
                           "rays[5] lies in no maximal cone"),
                          (lambda obj: (obj["maximal_cones"].append([1, 4]),
                                        obj["paths"].append([1])),
                           "lies in 3 maximal cones")):
        with runner.isolated_filesystem():
            runner.invoke(main, ["fan", "--seed", fixture("a2.json"),
                                 "--out", "fan.json"])
            with open("fan.json") as fh:
                obj = json.load(fh)
            tamper(obj)
            with open("fan.json", "w") as fh:
                json.dump(obj, fh)
            res = runner.invoke(main, ["star", "--fan", "fan.json",
                                       "--tau", "ray:1"])
            assert res.exit_code == 2
            assert "fan.json" in res.stderr and named in res.stderr


@functools.cache
def _fan_text(seed_name):
    with CliRunner().isolated_filesystem():
        run("fan", "--seed", fixture(seed_name), "--out", "fan.json")
        with open("fan.json") as fh:
            return fh.read()


def _fan_file(seed_name):
    """A fresh copy of the JSON object that ``fan --out`` writes for a
    fixture seed."""
    return json.loads(_fan_text(seed_name))


@pytest.mark.parametrize("what, value", [
    ("fan", []), ("fan", "x"), ("fan", 3), ("seed", []), ("seed", None)])
def test_json_file_that_is_not_an_object_is_input_error(tmp_path, what,
                                                         value):
    path = tmp_path / "file.json"
    path.write_text(json.dumps(value))
    args = (("star", "--fan", str(path), "--tau", "ray:1") if what == "fan"
            else ("fan", "--seed", str(path)))
    res = run(*args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert f"{what} file {path} must hold a JSON object" in res.stderr


def test_fan_file_nested_seed_must_be_an_object(tmp_path):
    obj = _fan_file("a2.json")
    obj["seed"] = [[0, 1], [-1, 0]]
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(obj))
    res = run("star", "--fan", str(path), "--tau", "ray:1")
    assert res.exit_code == 2
    assert "a seed must be a JSON object" in res.stderr


def test_star_on_a_complete_file_whose_seed_never_closes(tmp_path):
    """A Kronecker seed stored in a file marked complete: exit 4, and the
    message names the seed as of infinite type, not a truncated file."""
    obj = _fan_file("a2.json")
    obj["seed"]["B"] = [[0, 2], [-2, 0]]
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(obj))
    res = run("star", "--fan", str(path), "--tau", "ray:1")
    assert res.exit_code == 4
    assert "marked complete" in res.stderr
    assert "of infinite type" in res.stderr
    assert "incomplete" not in res.stderr


# the Markov seed and the acyclic triangle, and the pair and path the walk
# names for each
INFINITE_TYPE_SEEDS = [
    ([[0, 2, -2], [-2, 0, 2], [2, -2, 0]],
     "its exchange matrix has b_1,2 * b_2,1 = 2 * -2"),
    ([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]],
     "its exchange matrix, mutated along 2, has b_1,3 * b_3,1 = 2 * -2"),
]
MAX_STEPS = 100


@pytest.fixture
def bounded_steps(monkeypatch):
    """Make ``gfan.g_cone_step`` raise after MAX_STEPS calls, so a walk
    without end fails the test instead of hanging it."""
    step = gfan.g_cone_step
    calls = []

    def bounded(cone, k):
        calls.append(k)
        if len(calls) > MAX_STEPS:
            raise AssertionError(f"more than {MAX_STEPS} g-fan steps")
        return step(cone, k)

    monkeypatch.setattr(gfan, "g_cone_step", bounded)


@pytest.mark.parametrize("B, named", INFINITE_TYPE_SEEDS)
def test_star_names_an_infinite_type_seed_without_walking(tmp_path,
                                                          bounded_steps, B,
                                                          named):
    """A rank-3 seed of infinite type in a file marked complete: exit 4
    naming the matrix pair and the mutation path to it, within a bounded
    number of steps of the seed's g-fan."""
    obj = _fan_file("a3.json")
    obj["seed"]["B"] = B
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(obj))
    res = run("star", "--fan", str(path), "--tau", "ray:1")
    assert res.exit_code == 4
    assert (f"fan file {path} is marked complete, but its stored seed is of "
            f"infinite type: {named}") in res.stderr


WALKING_COMMANDS = [("fan",), ("fan", "--depth", "1"),
                    *(("verify", suite) for suite in (
                        "duality", "signcoherence", "cocycle", "degree",
                        "limit", "strata", "glue")),
                    ("degenerate", "--at", "1,1,1")]


@pytest.mark.parametrize("command", WALKING_COMMANDS, ids="-".join)
@pytest.mark.parametrize("B, named", INFINITE_TYPE_SEEDS,
                         ids=["markov", "acyclic-triangle"])
def test_walking_commands_refuse_an_infinite_type_seed(tmp_path,
                                                       bounded_steps,
                                                       command, B, named):
    """Every command that walks the g-fan exits 4 on a seed of infinite
    type, naming the matrix pair and the mutation path to it, within a
    bounded number of steps."""
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps({"B": B, "n": 3}))
    res = run(*command, "--seed", str(seed))
    assert res.exit_code == 4
    assert res.stdout == ""
    assert res.stderr == (
        f"error: seed file {seed} is of infinite type: {named}, and finite "
        "type needs |b_ij * b_ji| <= 3 in every matrix of the mutation "
        "class\n")


MARKOV = {"B": [[0, 2, -2], [-2, 0, 2], [2, -2, 0]], "n": 3}
OVER_BUDGET = (r" cannot finish: a product of \d+ by \d+ terms is over the "
               r"budget of 1000000 term products\n")


@pytest.mark.parametrize("args, stage", [
    (("mutate", "--path", "1,2,3,1,2,3,1"), "mutate: printing the result"),
    (("mutate", "--path", "1,2,3,1,2,3,1,2"),
     "mutate: mutation step 8 (path 1,2,3,1,2,3,1,2)"),
    (("verify", "separation", "--paths", "1,2,3,1,2,3,1,2"),
     "verify separation: path 1,2,3,1,2,3,1,2"),
], ids=["mutate-printing", "mutate-step", "verify-separation"])
def test_exploding_terms_exit_4(tmp_path, args, stage):
    """The Y-variables of the Markov seed, of infinite type, grow without
    bound along these paths: each command exits 4 naming its stage, with
    nothing on stdout, in a fresh process whose timeout fails the test
    instead of letting it hang."""
    seed = tmp_path / "markov.json"
    seed.write_text(json.dumps(MARKOV))
    res = run_process(*args, "--seed", str(seed))
    assert res.returncode == 4
    assert res.stdout == ""
    assert re.fullmatch(f"error: {re.escape(stage)}{OVER_BUDGET}", res.stderr)


A2_SEED = ("--seed", fixture("a2.json"))

#: The first part of each A2 suite to multiply polynomials, with the
#: default options; its label names the stage of the budget's exit 4.
FIRST_PART_TO_MULTIPLY = {
    "separation": "path 2,1,2,2,2,2,2", "duality": "cone 1,2",
    "cocycle": "cocycle", "degree": "degree", "limit": "limit",
    "glue": "coefficient-free",
}


@pytest.mark.parametrize("args", [
    ("mutate", "--path", "1,2", *A2_SEED),
    *(("verify", suite, *A2_SEED) for suite in (
        "separation", "duality", "cocycle", "degree", "limit", "glue")),
    ("degenerate", "--at", "1,1/2", *A2_SEED),
    ("table", "a2"), ("table", "dp5", "--format", "json"),
], ids=lambda args: "-".join(a for a in args if a not in A2_SEED))
def test_every_command_maps_the_term_budget_to_exit_4(monkeypatch, args):
    """Under a budget of one term product, commands that multiply
    polynomials exit 4 naming themselves, verify also its suite and the
    part that went over, and no verify suite reports the budget as a
    failed check."""
    monkeypatch.setattr(exact_algebra, "TERM_BUDGET", 1)
    res = run(*args)
    assert res.exit_code == 4
    assert res.stdout == ""
    if args[0] == "verify":
        named = re.escape(
            f"verify {args[1]}: {FIRST_PART_TO_MULTIPLY[args[1]]}")
    else:
        named = args[0] + ".*"
    assert re.fullmatch(f"error: {named} cannot finish: a product of .* "
                        "term products\n", res.stderr)


@pytest.mark.parametrize("args, named", [
    (("fan", "--seed", "{dir}"), "seed file {dir} cannot be read"),
    (("fan", "--seed", "{utf16}"), "seed file {utf16} is not UTF-8 text"),
    (("star", "--fan", "{dir}", "--tau", "ray:1"),
     "fan file {dir} cannot be read"),
    (("fan", "--seed", fixture("a2.json"), "--out", "{dir}/no-dir/fan.json"),
     "--out {dir}/no-dir/fan.json cannot be written"),
], ids=["seed-directory", "seed-utf16", "fan-directory", "out-missing-dir"])
def test_unreadable_or_unwritable_file_is_input_error(tmp_path, args, named):
    """A directory or a file that is not UTF-8 given to read, or an --out
    path in a missing directory: exit 2 naming it, not a traceback."""
    paths = {"dir": str(tmp_path), "utf16": str(tmp_path / "seed.json")}
    (tmp_path / "seed.json").write_bytes('{"n": 1}'.encode("utf-16"))
    res = run_process(*(a.format(**paths) for a in args))
    assert res.returncode == 2
    assert "Traceback" not in res.stdout + res.stderr
    assert named.format(**paths) in res.stderr


# exchange matrices and multipliers of the finite types the two routes of
# star are compared on
STAR_TYPES = {
    "a1": ([[0]], [1]),
    "a2": ([[0, 1], [-1, 0]], [1, 1]),
    "b2": ([[0, -1], [2, 0]], [2, 1]),
    "g2": ([[0, -1], [3, 0]], [3, 1]),
    "a3": ([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], [1, 1, 1]),
    "b3": ([[0, 1, 0], [-1, 0, 1], [0, -2, 0]], [2, 2, 1]),
    "c3": ([[0, 1, 0], [-1, 0, 2], [0, -1, 0]], [1, 1, 2]),
    "a4": ([[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]],
           [1, 1, 1, 1]),
    "d4": ([[0, 1, 0, 0], [-1, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]],
           [1, 1, 1, 1]),
}


def _rewalk(obj, tau):
    """The full re-walk of a fan file's stored seed: the reference route
    for the cones ``star`` prints."""
    ed, _ = seed_from_json(obj["seed"])
    return enumerate_gfan(ed, allowed=[k - 1 for k in obj["allowed"]])


@pytest.mark.parametrize("name", [*STAR_TYPES, "a3_rev-freeze-1"])
def test_star_matches_the_full_rewalk(tmp_path, monkeypatch, name):
    """star certified from the file prints, on every ray and in text and
    --json, the bytes that star on the re-walked fan prints."""
    if name in STAR_TYPES:
        B, d = STAR_TYPES[name]
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps({"B": B, "n": len(B), "d": d}))
        args = ["--seed", str(seed)]
    else:
        args = ["--seed", fixture("a3_rev.json"), "--freeze", "1"]
    fan = tmp_path / "fan.json"
    assert run("fan", *args, "--out", str(fan)).exit_code == 0
    calls = [["star", "--fan", str(fan), "--tau", f"ray:{i}", *js]
             for i in range(1, len(json.loads(fan.read_text())["rays"]) + 1)
             for js in ([], ["--json"])]
    got = [run(*c) for c in calls]
    monkeypatch.setattr(cli, "fan_from_json", _rewalk)
    for res, c in zip(got, calls):
        want = run(*c)
        assert res.exit_code == want.exit_code == 0
        assert res.stdout == want.stdout


def _holding(obj, index):
    """Positions of the stored cones that hold ray ``index``."""
    return [i for i, c in enumerate(obj["maximal_cones"]) if index in c]


def _swap_a_path(obj):
    i, j = _holding(obj, 0)[1:3]
    obj["paths"][i] = obj["paths"][j]
    return f"paths[{i}]"


def _delete_a_cone(obj):
    i = _holding(obj, 0)[1]
    for field in ("maximal_cones", "paths", "dual_rays"):
        del obj[field][i]
    return "maximal_cones["


@pytest.mark.parametrize("tamper", [_swap_a_path, _delete_a_cone])
def test_star_tampered_cone_of_the_star_is_input_error(tmp_path, tamper):
    """A path changed, or a cone deleted, among the cones holding the
    starred ray of the A3 fan: exit 2, naming the field."""
    obj = _fan_file("a3.json")
    named = tamper(obj)
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(obj))
    res = run("star", "--fan", str(path), "--tau", "ray:1")
    assert res.exit_code == 2
    assert "fan.json is malformed or stale" in res.stderr
    assert named in res.stderr


def test_star_needs_every_transverse_neighbour(tmp_path):
    """In the fan of a3_rev.json with direction 1 frozen, every cone holds
    the frozen ray e1.  One cone of its star is swapped for three forged
    cones through a new ray, which keep every facet count of the file:
    exit 2, naming the missing cone across a wall of a stored one."""
    path = tmp_path / "fan.json"
    assert run("fan", "--seed", fixture("a3_rev.json"), "--freeze", "1",
               "--out", str(path)).exit_code == 0
    obj = json.loads(path.read_text())
    tau = obj["rays"].index([1, 0, 0])
    cones = [set(c) for c in obj["maximal_cones"]]
    gone = cones[-1]
    a0, a1 = sorted(gone - {tau})
    far = {}
    for c in cones[:-1]:
        for r in (a0, a1):
            if {tau, r} <= c:
                far[r] = (c - {tau, r}).pop()
    x = len(obj["rays"])
    obj["rays"].append([-1, 0, 0])
    forged = [[a0, a1, x], [a1, far[a1], x], [a0, far[a0], x]]
    obj["maximal_cones"] = obj["maximal_cones"][:-1] + forged
    obj["paths"] = obj["paths"][:-1] + [[2]] * 3
    path.write_text(json.dumps(obj))
    res = run("star", "--fan", str(path), "--tau", f"ray:{tau + 1}")
    assert res.exit_code == 2
    assert f"holds rays[{tau}], but the cone across its wall" in res.stderr


@pytest.mark.parametrize("seed_name", ["b2.json", "a3.json"])
def test_star_on_a_truncated_file_marked_complete(tmp_path, seed_name):
    """fan --depth 1 with complete flipped to true: exit 4, naming the
    truncation, on every ray."""
    path = tmp_path / "fan.json"
    assert run("fan", "--seed", fixture(seed_name), "--depth", "1",
               "--out", str(path)).exit_code == 4
    obj = json.loads(path.read_text())
    obj["complete"] = True
    path.write_text(json.dumps(obj))
    for i in range(1, len(obj["rays"]) + 1):
        res = run("star", "--fan", str(path), "--tau", f"ray:{i}")
        assert res.exit_code == 4
        assert "is marked complete, but holds only the first" in res.stderr


def test_star_refuses_a_long_path_before_any_replay(tmp_path, monkeypatch):
    """A stored path with as many steps as there are cones is no
    breadth-first path: exit 2 naming it, before any seed step."""
    obj = _fan_file("a2.json")
    obj["paths"][3] = [1, 2, 1, 2, 1]
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(obj))

    def no_step(cone, k):
        raise AssertionError("a path was replayed")

    monkeypatch.setattr(gfan, "g_cone_step", no_step)
    res = run("star", "--fan", str(path), "--tau", "ray:1")
    assert res.exit_code == 2
    assert "paths[3] has 5 steps" in res.stderr


@pytest.mark.parametrize("tamper, named", [
    (lambda o: o["rays"].append(o["rays"][2]), "rays[5]"),
    (lambda o: o["rays"].insert(1, o["rays"][0]), "rays[1]"),
    (lambda o: o["maximal_cones"].append(o["maximal_cones"][0]),
     "maximal_cones[5]"),
    (lambda o: o["maximal_cones"].append(o["maximal_cones"][3][::-1]),
     "maximal_cones[5]"),
    (lambda o: o["maximal_cones"][1].insert(0, o["maximal_cones"][1][0]),
     "maximal_cones[1]"),
    (lambda o: o["maximal_cones"][1].pop(), "maximal_cones[1]"),
    (lambda o: o.__setitem__("allowed", [1, 2, 1]), "allowed[2]"),
], ids=["ray-appended", "ray-inserted", "cone-appended", "cone-reversed",
        "cone-repeats-a-ray", "cone-too-short", "allowed-repeated"])
def test_fan_file_listing_an_entry_twice_is_input_error(tmp_path, tamper,
                                                        named):
    obj = _fan_file("a2.json")
    tamper(obj)
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(obj))
    res = run("star", "--fan", str(path), "--tau", "ray:1")
    assert res.exit_code == 2
    assert "fan.json" in res.stderr and named in res.stderr


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6)
    | st.floats(-2, 2, allow_nan=False) | st.text("ab01", max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text("ab", max_size=2), inner, max_size=3),
    max_leaves=8)


_LEFT_OUT = object()


def _fan_field(valid, entry=None):
    """A fan-file field: as written, left out, any JSON value, and for a
    list field also entries of the right kind in any number, or the
    written entries reordered, repeated or dropped."""
    out = st.just(valid) | st.just(_LEFT_OUT) | _JSON
    if entry is None:
        return out
    return (out | st.lists(entry, max_size=8)
            | st.lists(st.sampled_from(valid), max_size=len(valid) + 2)
            | st.permutations(valid))


@st.composite
def _fan_files(draw):
    base = _fan_file(draw(st.sampled_from(["a2.json", "b2.json"])))
    if not draw(st.booleans()):
        return draw(_JSON.filter(lambda v: not isinstance(v, dict)))
    ints = st.integers(-2, 6)
    entries = {
        "rays": st.lists(ints, min_size=1, max_size=3),
        "maximal_cones": st.lists(ints, max_size=3),
        "paths": st.lists(ints, max_size=4)
        | st.lists(st.integers(1, 2), min_size=5, max_size=7),
        "allowed": ints,
        "complete": None,
    }
    for field, entry in entries.items():
        value = draw(_fan_field(base[field], entry))
        if value is _LEFT_OUT:
            del base[field]
        else:
            base[field] = value
    return base


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_fan_files(),
       st.sampled_from(["ray:1", "ray:4", "ray:6", "ray:0", "ray:x", "1"]))
def test_star_fuzzed_fan_files_exit_cleanly(tmp_path, obj, tau):
    """Fan files with their fields replaced, dropped, repeated or reordered
    around a fixed finite-type seed: star ends with exit 0-4 and no
    exception other than SystemExit."""
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(obj))
    res = run("star", "--fan", str(path), "--tau", tau)
    assert res.exit_code in range(5)
    assert res.exception is None or isinstance(res.exception, SystemExit)


FINITE_SEEDS = ["a2.json", "a3.json", "a3_rev.json", "b2.json", "dp5.json",
                "gr25.json"]
# strings that int() or Fraction() read in a way one might not expect
_ODD_PIECES = ["", " ", "0", "-0", "-1", "+1", " 2 ", "1/0", "1//2", "2/3",
               "-1/2", "1/-2", "1.5", ".5", "1e3", "1_0", "_1", "0x1", "½",
               "٣", "x", "inf", "nan", "9" * 40, "1e5000", "1e99999999",
               "1e-99999999", "1e٣٣٣٣", "9" * 5000]


def _pieces(max_count):
    """Comma-joined text of at most ``max_count`` pieces: all in 1..3, or
    each a small integer, an odd numeral or free text without commas."""
    piece = (st.integers(-2, 9).map(str) | st.sampled_from(_ODD_PIECES)
             | st.text(alphabet="0123456789-+/._ e½٣x", max_size=12))
    return (st.lists(st.integers(1, 3).map(str), max_size=max_count)
            | st.lists(piece, max_size=max_count)).map(",".join)


def _exits_cleanly(res):
    return (res.exit_code in range(5)
            and (res.exception is None
                 or isinstance(res.exception, SystemExit)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FINITE_SEEDS), _pieces(6),
       st.none() | st.sampled_from(["principal", "none", "trop:1", "trop:2",
                                    "trop:", "trop:x", "trop:-1", "trop:٣",
                                    "Principal", ""])
       | st.text(max_size=8))
def test_mutate_fuzzed_path_and_coeffs_exit_cleanly(name, path, coeffs):
    """mutate --path and --with-coeffs text on the finite-type fixtures,
    paths of at most six steps: exit 0-4 and no exception other than
    SystemExit."""
    args = ["mutate", "--seed", fixture(name), f"--path={path}"]
    if coeffs is not None:
        args.append(f"--with-coeffs={coeffs}")
    assert _exits_cleanly(run(*args))


@st.composite
def _skew_symmetrizable(draw):
    """B, n and d of a seed of rank at most 3 with up to three indices in
    all and every entry at most 3 in absolute value: the mutable block is
    skew-symmetrizable by d, of finite or infinite type."""
    n = draw(st.integers(1, 3))
    size = draw(st.integers(n, 3))
    d = draw(st.lists(st.integers(1, 3), min_size=size, max_size=size))
    entry = st.integers(-3, 3)
    B = [[draw(entry) if i >= n else 0 for _ in range(size)]
         for i in range(size)]
    for i in range(n):
        for j in range(i + 1, n):
            g = gcd(d[i], d[j])
            t = draw(entry)
            if abs(t * d[j]) > 3 * g or abs(t * d[i]) > 3 * g:
                t = 0
            B[i][j], B[j][i] = t * d[j] // g, -t * d[i] // g
        for j in range(n, size):
            B[i][j] = draw(entry)
    return B, n, d


@st.composite
def _seed_objects(draw):
    """Seed JSON: a valid seed with each field as drawn, left out, or
    replaced by any JSON value, or a JSON value that is not an object."""
    if not draw(st.integers(0, 5)):
        return draw(_JSON.filter(lambda v: not isinstance(v, dict)))
    B, n, d = draw(_skew_symmetrizable())
    r = draw(st.integers(0, 3))
    p = draw(st.just([]) | st.lists(
        st.lists(st.integers(-3, 3), min_size=r, max_size=r),
        min_size=n, max_size=n))
    small = st.integers(-3, 3)
    fields = {"B": (B, st.lists(st.lists(small, max_size=3), max_size=3)),
              "n": (n, small), "d": (d, st.lists(small, max_size=3)),
              "coeff_rank": (r, small),
              "p": (p, st.lists(st.lists(small, max_size=3), max_size=3))}
    obj = {}
    for field, (valid, other) in fields.items():
        value = (draw(st.just(_LEFT_OUT) | other | _JSON)
                 if not draw(st.integers(0, 3)) else valid)
        if value is not _LEFT_OUT:
            obj[field] = value
    return obj


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_seed_objects())
def test_fuzzed_seed_json_exits_cleanly(tmp_path, obj):
    """Seed objects of rank at most 3 with entries at most 3 in absolute
    value, valid or with fields dropped or replaced, through fan --depth 3
    and mutate --path 1,2: exit 0-4 and no exception other than
    SystemExit."""
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps(obj))
    assert _exits_cleanly(run("fan", "--seed", str(seed), "--depth", "3"))
    assert _exits_cleanly(run("mutate", "--seed", str(seed),
                              "--path", "1,2"))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FINITE_SEEDS), _pieces(4), st.booleans())
def test_degenerate_fuzzed_point_exits_cleanly(name, at, as_json):
    """degenerate --at text on the finite-type fixtures: exit 0-4 and no
    exception other than SystemExit."""
    args = ["degenerate", "--seed", fixture(name), f"--at={at}"]
    assert _exits_cleanly(run(*args, *(["--json"] if as_json else [])))


@pytest.mark.parametrize("at", ["1e5000,1", "1e99999999,1", "1,1e-1001"])
def test_degenerate_refuses_large_decimal_exponents(at):
    """A decimal exponent beyond AT_MAX_EXPONENT is refused before Fraction
    expands it."""
    res = run("degenerate", "--seed", fixture("a2.json"), f"--at={at}")
    assert res.exit_code == 2
    assert "decimal exponents beyond +-1000" in res.output


def test_degenerate_refuses_maps_too_long_to_print():
    """Within the exponent bound, a base point whose maps hold an integer
    past Python's digit limit for text ends in exit 2, not a traceback."""
    big = "9" * 3000
    res = run("degenerate", "--seed", fixture("a2.json"), f"--at={big},{big}")
    assert res.exit_code == 2
    assert "too long to print" in res.output
    assert run("degenerate", "--seed", fixture("a2.json"),
               "--at=1e1000,1").exit_code == 0


def test_in_process_calls_free_their_streams():
    """Repeated in-process calls, on stdout and on stderr, leave no text
    stream alive behind them."""
    def live_streams():
        gc.collect()
        return sum(isinstance(o, io.TextIOWrapper) for o in gc.get_objects())

    runner = CliRunner()
    ok = ["mutate", "--seed", fixture("a2.json"), "--path", "1"]
    bad = ["mutate", "--seed", "no-such-seed.json"]
    runner.invoke(main, ok)
    runner.invoke(main, bad)
    before = live_streams()
    for _ in range(10):
        assert runner.invoke(main, ok).exit_code == 0
        assert runner.invoke(main, bad).exit_code == 2
    assert live_streams() <= before


# -- verify -----------------------------------------------------------------------

def test_verify_duality_a3_all_cones():
    for name, summary in (("a3.json", "14/14 ok"), ("gr25.json", "5/5 ok")):
        res = run("verify", "duality", "--seed", fixture(name))
        assert res.exit_code == 0
        assert summary in res.output


def test_verify_duality_mutates_once_per_new_cone(monkeypatch):
    """The degree route shares path prefixes across one atlas: A3 has 14
    cones, so 13 mutations past the initial seed."""
    calls = []
    mutate = invariants.mutate_cluster_seed

    def counted(seed, k):
        calls.append(k)
        return mutate(seed, k)

    monkeypatch.setattr(invariants, "mutate_cluster_seed", counted)
    res = run("verify", "duality", "--seed", fixture("a3.json"))
    assert res.exit_code == 0
    assert "14/14 ok" in res.output
    assert len(calls) == 13


def test_verify_separation_reproducible_with_rng_seed():
    args = ("verify", "separation", "--seed", fixture("a2.json"),
            "--paths", "random:6", "--rng-seed", "11")
    out1 = run(*args).output
    out2 = run(*args).output
    assert out1 == out2
    assert "6/6 ok" in out1


def test_verify_separation_explicit_paths():
    res = run("verify", "separation", "--seed", fixture("b2.json"),
              "--paths", "1,2,1;2", "--json")
    data = json.loads(res.output)
    assert data["ok"] is True
    assert len(data["results"]) == 2


@pytest.mark.parametrize("args, option", [
    (("verify", "separation", "--paths", "random:0"), "--paths"),
    (("verify", "separation", "--paths", "random:-3"), "--paths"),
    (("verify", "separation", "--paths", "random:3", "--max-len", "0"),
     "--max-len"),
    (("verify", "cocycle", "--max-len", "-1"), "--max-len"),
    (("fan", "--depth", "-1"), "--depth"),
], ids=["no-paths", "negative-paths", "zero-max-len", "cocycle-negative",
        "fan-negative-depth"])
def test_verify_empty_work_is_input_error(args, option):
    """A path count or walk length below 1, or a negative depth cap, is
    refused, not reported as 0/0 ok, a truncated atlas, a traceback, or
    (for the cocycle walk) a walk without end."""
    res = run_process(*args, "--seed", fixture("a2.json"))
    assert res.returncode == 2
    assert "Traceback" not in res.stdout + res.stderr
    assert option in res.stderr


def test_verify_cocycle_names_the_faces_it_skips():
    """B2's one 2-face is a hexagon: at --max-len 5 it is not walked, and
    stderr says so; stdout and the exit code are those of a full check."""
    res = run("verify", "cocycle", "--seed", fixture("b2.json"),
              "--max-len", "5")
    full = run("verify", "cocycle", "--seed", fixture("b2.json"))
    assert res.exit_code == full.exit_code == 0
    assert res.stdout == full.stdout == ("cocycle cocycle: ok\n"
                                         "verify cocycle: 1/1 ok\n")
    assert res.stderr == ("verify cocycle: 1 of 1 faces longer than "
                          "--max-len 5 were not checked\n")


@pytest.mark.parametrize("name", ["a2.json", "a3.json", "a3_rev.json",
                                  "b2.json", "dp5.json"])
def test_verify_cocycle_default_skips_no_face(name):
    res = run("verify", "cocycle", "--seed", fixture(name))
    assert res.exit_code == 0
    assert res.stderr == ""


def test_verify_glue_needs_mutable_seed():
    res = run("verify", "glue", "--seed", fixture("gr25.json"))
    assert res.exit_code == 2
    assert "frozen" in res.stderr


def test_verify_strata_b2():
    res = run("verify", "strata", "--seed", fixture("b2.json"))
    assert res.exit_code == 0


def test_rank_one_star_and_strata(tmp_path):
    """In rank 1 a ray is a whole maximal cone: its star is zero-dimensional,
    with no quotient rows, the empty restricted matrix and one projected
    cone without generators."""
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps({"B": [[0]], "n": 1}))
    fan = tmp_path / "fan.json"
    assert run("fan", "--seed", str(seed), "--out", str(fan)).exit_code == 0
    for i in (1, 2):
        res = run("star", "--fan", str(fan), "--tau", f"ray:{i}", "--json")
        assert res.exit_code == 0
        st = json.loads(res.output)
        assert st["quotient_rows"] == [] and st["restricted_matrix"] == []
        assert [c["generators"] for c in st["projected_cones"]] == [[]]
    res = run("verify", "strata", "--seed", str(seed))
    assert res.exit_code == 0
    assert res.output.endswith("verify strata: 2/2 ok\n")


def test_verify_separation_gr25_needs_mutable_seed():
    res = run_process("verify", "separation", "--seed", fixture("gr25.json"))
    assert res.returncode == 2
    assert "Traceback" not in res.stdout + res.stderr
    assert "gr25.json" in res.stderr and "fully mutable" in res.stderr


def _planted(real, hit):
    """``real``, except that it raises ``CheckFailed("planted failure")``
    when ``hit`` holds for its arguments."""
    def check(*args, **kw):
        if hit(*args, **kw):
            raise invariants.CheckFailed("planted failure")
        return real(*args, **kw)
    return check


def _negated_g_at(path):
    """``g_matrix_degrees`` with a wrong G, its negative, at ``path``."""
    real = invariants.g_matrix_degrees

    def g_matrix(ed, at, memo):
        G = real(ed, at, memo)
        return tuple(tuple(-x for x in row) for row in G) if at == path else G
    return g_matrix


@pytest.mark.parametrize("args, name, planted, label, detail, total", [
    (("separation", "--paths", "1;2,1;1,2,1"), "separation_check",
     _planted(invariants.separation_check, lambda ed, p0, path: path == (1, 0)),
     "path 2,1", "planted failure", 3),
    (("duality",), "g_matrix_degrees", _negated_g_at((0,)),
     "cone 1", "duality identity failed", 5),
    (("strata",), "strata_consistency_check",
     _planted(degeneration.strata_consistency_check,
              lambda fam, rays: rays == [(-1, 1)]),
     "ray (-1, 1)", "planted failure", 5),
    (("glue",), "glue_ring_check_all",
     _planted(degeneration.glue_ring_check_all,
              lambda fam, coefficient_free=False: not coefficient_free),
     "with coefficients", "planted failure", 2),
], ids=["separation", "duality", "strata", "glue"])
def test_a_failing_part_does_not_stop_its_suite(monkeypatch, args, name,
                                                planted, label, detail,
                                                total):
    """A failure planted in one part of an A2 suite is reported under that
    part's label, every other part still runs and holds, the count covers
    every part, and the suite exits 1, in text and in JSON."""
    monkeypatch.setattr(cli, name, planted)
    check = args[0]
    res = run("verify", *args, *A2_SEED)
    assert res.exit_code == 1
    lines = res.stdout.splitlines()
    assert lines[-1] == f"verify {check}: {total - 1}/{total} ok"
    assert len(lines) == total + 1
    assert f"{check} {label}: FAIL  [{detail}]" in lines
    assert all(line.endswith(": ok") for line in lines[:-1]
               if not line.startswith(f"{check} {label}:"))
    res = run("verify", *args, *A2_SEED, "--json")
    assert res.exit_code == 1
    data = json.loads(res.stdout)
    assert data["ok"] is False
    assert len(data["results"]) == total
    assert [r for r in data["results"] if not r["ok"]] == [
        {"label": label, "ok": False, "detail": detail}]


# -- degenerate ---------------------------------------------------------------------

def test_degenerate_central_fiber_is_monomial():
    res = run("degenerate", "--seed", fixture("a2.json"), "--at", "0,0",
              "--json")
    data = json.loads(res.output)
    assert data["at"] == ["0", "0"]
    first = data["walls"][0]
    assert first["images"][0] == "X1^-1"
    for wall in data["walls"]:
        for img in wall["images"]:
            assert "+" not in img


def test_degenerate_fiber_at_one():
    res = run("degenerate", "--seed", fixture("a2.json"), "--at", "1,1")
    assert res.exit_code == 0
    assert "X1*X2 / (X1 + 1)" in res.output


def test_degenerate_rational_point():
    res = run("degenerate", "--seed", fixture("a2.json"), "--at", "2/3,5")
    assert res.exit_code == 0
    res = run("degenerate", "--seed", fixture("a2.json"), "--at", "1/2,-3")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "fiber transition maps at (1/2, -3)"
    # numerators keep the lowest-terms integer form over a constant
    # denominator, which the printed text shows
    assert lines[-8:] == [
        "  X1 -> (2*X1*X2 - 3*X1) / 2",
        "  X2 -> 1 / X2",
        "wall cone 4 --1--> cone 2",
        "  X1 -> 1 / X1",
        "  X2 -> 2*X1*X2 / (2*X1 + 1)",
        "wall cone 4 --2--> cone 3",
        "  X1 -> X1*X2 - 3*X1",
        "  X2 -> 1 / X2",
    ]


def test_degenerate_mixed_zero_is_input_error():
    res = run("degenerate", "--seed", fixture("a2.json"), "--at", "0,1")
    assert res.exit_code == 2


@pytest.mark.parametrize("command, want", [
    ("degenerate --seed a3.json --at 1/2,-3,5/3",
     {"products": 60, "expand": 126, "divisions": 0, "substitutions": 252}),
    ("table a2 --format json",
     {"products": 15, "expand": 0, "divisions": 15, "substitutions": 0}),
    ("verify separation --seed a2.json --paths random:5 --rng-seed 3",
     {"products": 18, "expand": 0, "divisions": 14, "substitutions": 0}),
    ("verify duality --seed a3.json",
     {"products": 10, "expand": 0, "divisions": 0, "substitutions": 0}),
    ("verify strata --seed a3.json",
     {"products": 0, "expand": 0, "divisions": 0, "substitutions": 0}),
    ("verify cocycle --seed a3.json",
     {"products": 18, "expand": 0, "divisions": 11, "substitutions": 0}),
    ("mutate --seed a3.json --path 1,2,3,2,1",
     {"products": 14, "expand": 3, "divisions": 10, "substitutions": 0}),
], ids=["degenerate", "table", "verify-separation", "verify-duality",
        "verify-strata", "verify-cocycle", "mutate"])
def test_fixed_commands_make_pinned_counts(monkeypatch, command, want):
    """Exact work counts of fixed commands: polynomial products,
    expansions, exact divisions and base-point substitutions, counted
    through wrappers; each count is the same for every hash seed.  A
    change that moves a count re-records it here on purpose."""
    counts = dict.fromkeys(want, 0)

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(LaurentPoly, "__mul__",
                        counted("products", LaurentPoly.__mul__))
    monkeypatch.setattr(PosRatFunc, "expand",
                        counted("expand", PosRatFunc.expand))
    divide = counted("divisions", exact_algebra.poly_exact_div)
    for module in (exact_algebra, degeneration, invariants, corpus):
        monkeypatch.setattr(module, "poly_exact_div", divide)
    monkeypatch.setattr(degeneration, "substitute_values",
                        counted("substitutions",
                                degeneration.substitute_values))
    args = [fixture(a) if a.endswith(".json") else a for a in command.split()]
    assert run(*args).exit_code == 0
    assert counts == want


@pytest.mark.parametrize("command, want", [
    ("mutate --seed a3.json --path 1,2,3,2,1",
     {"LaurentPoly": 0, "PosRatFunc": 3, "TropMonomial": 3,
      "ExchangeData": 1}),
    ("verify separation --seed a2.json --paths random:5 --rng-seed 3",
     {"LaurentPoly": 0, "PosRatFunc": 20, "TropMonomial": 12,
      "ExchangeData": 1}),
], ids=["mutate", "verify-separation"])
def test_fixed_commands_make_pinned_validating_constructions(monkeypatch,
                                                             command, want):
    """Values the engine builds for itself go through the trusted
    constructors; what is left on the validating ones is input, the
    initial Y-variables (one ``PosRatFunc`` each) and tropicalized
    polynomials.  A change that puts a hot path back on a validating constructor
    moves a count here."""
    counts = dict.fromkeys(want, 0)
    for cls in (LaurentPoly, PosRatFunc, TropMonomial, ExchangeData):
        def init(self, *args, _init=cls.__init__, _name=cls.__name__):
            counts[_name] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", init)
    args = [fixture(a) if a.endswith(".json") else a for a in command.split()]
    assert run(*args).exit_code == 0
    assert counts == want


def test_verify_cocycle_walks_the_faces_once(monkeypatch):
    """The suite walks the 2-faces to count the ones it skips, and the
    check runs on the faces that walk found."""
    calls = []

    def counted(atlas, max_len):
        calls.append(max_len)
        return gfan.two_faces(atlas, max_len)

    monkeypatch.setattr(cli, "two_faces", counted)
    monkeypatch.setattr(degeneration, "two_faces", counted)
    res = run("verify", "cocycle", "--seed", fixture("a3.json"))
    assert res.exit_code == 0
    assert res.stdout == "cocycle cocycle: ok\nverify cocycle: 1/1 ok\n"
    assert calls == [8]


def _steps_counted(monkeypatch):
    counts = {"g_cone_step": 0, "g_vector_step": 0}
    for name in counts:
        def counted(*args, _fn=getattr(gfan, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(gfan, name, counted)
    return counts


def test_fan_and_star_make_pinned_step_counts(monkeypatch, tmp_path):
    """The g-fan walk of A3 takes one step per new cone (13), each computing
    one g-vector, and computes one more per cone and direction (42).  The
    star of ray 1 replays the stored paths of the 5 cones holding the ray,
    prefixes shared (13 steps), and one g-vector across each of their 2
    other walls (10).  The counts are the same for every hash seed."""
    fan = tmp_path / "a3.json"
    counts = _steps_counted(monkeypatch)
    assert run("fan", "--seed", fixture("a3.json"),
               "--out", str(fan)).exit_code == 0
    assert counts == {"g_cone_step": 13, "g_vector_step": 55}
    counts = _steps_counted(monkeypatch)
    assert run("star", "--fan", str(fan), "--tau", "ray:1").exit_code == 0
    assert counts == {"g_cone_step": 13, "g_vector_step": 23}


@pytest.mark.parametrize("small, huge", [
    (("verify", "cocycle", "--max-len", "8"),
     ("verify", "cocycle", "--max-len", "1000000000")),
    (("fan",), ("fan", "--depth", "1000000000")),
], ids=["cocycle-max-len", "fan-depth"])
def test_a_huge_walk_cap_makes_the_same_work_on_a_complete_atlas(
        monkeypatch, small, huge):
    """On A3 every 2-face closes within 8 steps, and the g-fan walk stops
    when its frontier is empty, so a cap of 10^9 makes the same steps and
    stdout as --max-len 8 or no --depth: neither value sets the work."""
    runs = []
    for args in (small, huge):
        counts = _steps_counted(monkeypatch)
        res = run(*args, "--seed", fixture("a3.json"))
        assert res.exit_code == 0
        runs.append((res.stdout, dict(counts)))
    assert runs[0][1]["g_cone_step"] > 0
    assert runs[1] == runs[0]


def test_verify_separation_refuses_work_past_its_bound(monkeypatch):
    """N random paths of up to --max-len steps each are refused, exit 2
    naming both options, when N times --max-len is one past
    ``SEPARATION_MAX_STEPS``, before a path is drawn; at the bound the
    paths are drawn."""
    class Drawn(Exception):
        pass

    def draw(seed):
        raise Drawn

    monkeypatch.setattr(cli.random, "Random", draw)
    bound = cli.SEPARATION_MAX_STEPS
    for count, max_len in ((bound + 1, 1), (1, bound + 1)):
        res = run("verify", "separation", "--seed", fixture("a2.json"),
                  "--paths", f"random:{count}", "--max-len", str(max_len))
        assert res.exit_code == 2
        assert "--paths" in res.stderr and "--max-len" in res.stderr
        assert str(bound) in res.stderr
    res = run("verify", "separation", "--seed", fixture("a2.json"),
              "--paths", f"random:{bound // 4}", "--max-len", "4")
    assert isinstance(res.exception, Drawn)


def test_verify_separation_draws_each_random_path_as_its_part_runs(
        monkeypatch):
    """random:N paths are drawn one at a time, each just before its check
    runs, with the labels of the same paths drawn as one list first;
    explicit paths are all parsed first, so a bad one exits 2 before any
    check runs."""
    events = []
    Random = cli.random.Random

    class Recording(Random):
        def randint(self, a, b):
            events.append("draw")
            return super().randint(a, b)

    def check(ed, p0, path):
        events.append("check")
        return invariants.separation_check(ed, p0, path)

    monkeypatch.setattr(cli.random, "Random", Recording)
    monkeypatch.setattr(cli, "separation_check", check)
    res = run("verify", "separation", "--seed", fixture("a2.json"),
              "--paths", "random:4", "--rng-seed", "3")
    assert res.exit_code == 0
    assert events == ["draw", "check"] * 4
    rng = Random(3)
    paths = [[rng.randrange(2) + 1 for _ in range(rng.randint(1, 8))]
             for _ in range(4)]
    labels = sorted("path " + ",".join(map(str, p)) for p in paths)
    assert res.stdout.splitlines()[:-1] == [
        f"separation {label}: ok" for label in labels]
    events.clear()
    res = run("verify", "separation", "--seed", fixture("a2.json"),
              "--paths", "1;2,1;3")
    assert res.exit_code == 2 and "direction 3 out of range" in res.stderr
    assert events == []
