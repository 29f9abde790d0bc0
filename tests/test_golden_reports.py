"""Byte-identity guard for CLI reports.

Each command below runs in-process through click's test runner inside a
fresh working directory, in the order listed, so later commands read the
files earlier ones wrote.  The SHA-256 of every report (stdout, or the file
named by ``--out``) must match the recorded digest.  The first block is the
README quickstart (with ``experiment negative`` shortened to m=27,64,125 and
the reduced profile extracted from ``r.json`` for ``project``); the second
evaluates the pairwise and top-q schemes on a grid profile with value ties
and runs two more property checks.  The full ``experiment negative`` sweep
the benchmark runs (m up to 343) has its own digest, and so do a repeated
sweep with more than 255 voters and the seeded stream of acceptance
criterion 8.

A mismatch means a report changed by at least one byte: regenerate the
digests only for a change that is meant to alter report contents.
"""

import hashlib
import json

from click.testing import CliRunner

from cardvote.cli import main
from cardvote.generators import DkParams, gen_Dk
from cardvote.mechanisms import j_star, sample_stream

GOLDEN = [
    ("gen negative --m 27 --out u.json", "u.json",
     "180429c5096b85236ee01fc23838c5fb49aaaa891e8ecafda0ad5c6ef3218083"),
    ("eval --mech jstar --profile u.json", None,
     "91938f7e1783856abc9ccf9beeb4419dd65a15c41350c0ac6f73f888bff974d3"),
    ("ratio --mech mix:1/2*j1:1+1/2*j1:3 --profile u.json", None,
     "89443c1e3a3230d108eb08d65e7dcbaf7b033da5e5a87e16130ac6a8dbedd6c1"),
    ("verify truthful --mech j1:1 --m 2 --n 2 --k 2", None,
     "44816b7b6ef1f14907611612545a682e4d41196e5d685ac58dea31bf7f289646"),
    ("verify truthful --mech rv --m 3 --n 2 --k 10", None,
     "ab34279f574f62b074e1b99bb4762b857659ed6f2c657dfe1896ae0a69991f02"),
    ("experiment negative --m 27,64,125 --out negative.csv", "negative.csv",
     "c68931e437d93de11a9d4b650bd9552a589eb61aa2501d597406347ffca6806f"),
    ("fit --data negative.csv --aggregate max", None,
     "85a8e27ee2a3c4794d267e7315273a56516b5f62544fe9d15866387e2b3e6113"),
    ("experiment lower --m 27 --n 27 --k 1728 --grid-step 3", None,
     "eaa12db4522d3aac8809c141695edfd865dcbe4e8485f054103eb4767913e572"),
    ("experiment cyclic --m 5,10,20", None,
     "cf615ce0c1952d5f4680c7f15ddaeeada04b70c3875ecc1d869c6585d2f06c7c"),
    ("experiment minratio --mech jstar --m 2 --n 2 --k 2", None,
     "684519fafa778c275eddfa9d9f520105bcc415f90110f918c47beb5bc130dada"),
    ("gen grid --m 8 --n 6 --k 64 --seed 1 --out g.json", "g.json",
     "002068cd96fe07d9233ad6f8c42cc67cb941f2cdc69aaa19647123aaffbe0740"),
    ("reduce --profile g.json --k 64 --out r.json", "r.json",
     "d45bc3b5434a88d38db87e8827047fc506d28405744b83dfd82b7d3d31e44604"),
    ("project --profile proj_input.json --k 64", None,
     "6368eb1b6f25fe1b0caee5ebc996d84cad140e7e5ef21f992a7b396c0341fe37"),
    # Beyond the quickstart: value ties, pairwise quotas, relabel averaging.
    ("gen grid --m 4 --n 5 --k 3 --seed 2 --ties --out t.json", "t.json",
     "84473ebfc9287a75a9910e9a8ca4c07710ac24b462d40dda2cd9eea75eb41c0e"),
    ("eval --mech j2:3 --profile t.json", None,
     "5e47b9bb0edf955cb60d20b1ac95aed634fdb4be3c65d1d1de5f73c7f6d6d553"),
    ("eval --mech j1:2 --profile t.json", None,
     "e49dcf8313c6867bc5c7c25f8ab6bfd4c4af1c3500752a8c50ce15ccb623df4e"),
    ("eval --mech sym:j2:2 --profile t.json", None,
     "3dba75118569dcea76dcb156686d06f7d376bb82fdd38c5d3cafa101a1fdb082"),
    ("verify truthful --mech jstar --m 3 --n 2 --k 3", None,
     "fb9d31c47f248cf8998323d4b79753343e7acd4fd2777940a5ead74de05e1dfd"),
    ("verify ordinal --mech j2:2 --m 3 --n 2 --k 2", None,
     "5bfdbce4b9b4e465ac8ca4286bde0f9d13a4d1d75c628e70caef15dc6a2742e7"),
    # Distribution equality scans: a neutral violation with its expected and
    # actual lotteries, an ordinal violation of a mix, an anonymous pass.
    ("verify neutral --mech jstar --m 3 --n 2 --k 2", None,
     "f3b8c593d9758987d1b186a3cc676ef90add66903d8a0607102491d2964c6c04"),
    ("verify ordinal --mech mix:1/2*rv+1/2*j1:1 --m 3 --n 2 --k 4", None,
     "986e2507da47428cc9c136682849d6d489fe4eed350374916bf59d8050b9be81"),
    ("verify anonymous --mech mix:1/3*j1:1+2/3*j2:2 --m 3 --n 2 --k 2", None,
     "cba74d114a3e91f45fbc871c50c8a4387f0db06d2ed7de1c19045cbcdb25391b"),
]


def test_reports_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    mismatches = []
    for command, out, digest in GOLDEN:
        if command.startswith("project"):
            reduced = json.loads((tmp_path / "r.json").read_text())["result"]
            (tmp_path / "proj_input.json").write_text(json.dumps(reduced))
        result = runner.invoke(main, command.split(), catch_exceptions=False)
        assert result.exit_code in (0, 2), (command, result.output)
        data = (tmp_path / out).read_bytes() if out else result.output.encode()
        if hashlib.sha256(data).hexdigest() != digest:
            mismatches.append(command)
    assert mismatches == []


def test_full_negative_sweep_is_byte_identical():
    command = "experiment negative --m 27,64,125,216,343"
    result = CliRunner().invoke(main, command.split(), catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == (
        "f897cb8cf798579555c76bc3f38dd08f4b0f5f0f8a6320d3d52336281f049b9e"
    )


def test_repeated_negative_sweep_is_byte_identical():
    # n = 440 and 1400 voters: the pairwise table is counted in 2 and 6
    # chunks of at most 255 voters.
    command = "experiment negative --m 8,27 --repeat 40"
    result = CliRunner().invoke(main, command.split(), catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == (
        "fed3691e1e5280d3213040e645fe403f7c060868b129712fafeb76565ca09e7f"
    )


def test_seeded_sample_stream_is_pinned():
    # Pins the exact sampler: one randrange(den) per draw over the
    # probabilities as integers on their least common denominator.  Any change
    # to the seeded stream fails here, as a report change fails above.
    profile = gen_Dk(DkParams(8, 512, 3, 3, 2), 1)
    draws = sample_stream(j_star(8), profile, 100_000, 2025)
    assert hashlib.sha256(bytes(draws)).hexdigest() == (
        "60f6572d701f819be646ff2b1b0ac4b5507f75989d450451032e6dbba341e00e"
    )
