"""Today's outputs, pinned: the SHA-256 of every byte-stable file that five
small seeded commands write.

Compressed sizes decide which clusters are accepted, so the outputs depend on
the compressor build as well as on the program.  The pins were taken on the
build named in ``BUILD``; a failure names it next to this build, so that a
different build is told apart from a changed program.
"""

import hashlib
import json
import random
import sys
import zlib
from pathlib import Path

import numpy
import pytest

from metacluster import rundir
from metacluster.cli import main
from metacluster.records import Record, write_records
from metacluster.synthetic import (
    duplicate_pairs_corpus,
    ga_provider_corpus,
    hierarchical_corpus,
)

BUILD = {"python": "3.11.7", "numpy": "2.4.6", "zlib": "1.2.13"}

THIS_BUILD = {
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "zlib": zlib.ZLIB_RUNTIME_VERSION,
}

#: Files that carry wall-clock data.
CLOCK_FILES = {rundir.MANIFEST_FILE, rundir.TIMINGS_FILE}


def write_corpus(path: Path, records, extra_lines: str = "") -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        write_records(records, fh)
        fh.write(extra_lines)
    return path


def number_families(n_families: int, per_family: int, seed: int) -> list[Record]:
    # Purely numeric tokens are dropped, so every record tokenizes to the same
    # two words and all share one candidate group, while the compressor sees
    # mostly unrelated digits: a group with many mutually dissimilar heads.
    rng = random.Random(seed)
    records = []
    for f in range(n_families):
        digits = " ".join(str(rng.randrange(10**6)) for _ in range(25))
        for m in range(per_family):
            records.append(Record(f"num{f:02d}m{m}", {"dc:title": (f"catalogue entry {digits} {m}",)}))
    return records


def dedup(tmp: Path) -> list[str]:
    # A malformed line and a repeated id give rejects.ndjson two lines.
    records, _ = duplicate_pairs_corpus(20, 300, seed=7)
    repeat = json.dumps({"id": records[0].id, "fields": {"dc:title": ["again"]}})
    corpus = write_corpus(tmp / "c.ndjson", records, "{not json\n" + repeat + "\n")
    return ["--input", str(corpus), "--levels", "100", "--seed", "5"]


def hierarchy(tmp: Path) -> list[str]:
    records = hierarchical_corpus(n_works=20, seed=11, noise_records=10)
    records += number_families(14, 3, seed=14)
    corpus = write_corpus(tmp / "c.ndjson", records)
    masks = tmp / "masks.ndjson"
    # The number families carry no provider field, so they fall to provider
    # "" and its default mask; the file still names "num", which no record has.
    providers = sorted({r.provider for r in records if r.provider} | {"num"})
    masks.write_text(
        "".join(json.dumps({"provider": p, "mask": ["dc:title"]}) + "\n" for p in providers),
        encoding="utf-8",
    )
    return ["--input", str(corpus), "--masks", str(masks), "--seed", "12"]


def ga(tmp: Path) -> list[str]:
    # Criterion 8's GA run.
    records = hierarchical_corpus(n_works=10, seed=81, noise_records=20)
    records += ga_provider_corpus(n_records=120, n_families=6, seed=82, extra_fields=1)
    corpus = write_corpus(tmp / "c.ndjson", records)
    return ["--input", str(corpus), "--seed", "88", "--ga-pop", "8", "--ga-gens", "3"]


def band_match_all(tmp: Path) -> list[str]:
    records = hierarchical_corpus(n_works=20, seed=31, noise_records=10)
    corpus = write_corpus(tmp / "c.ndjson", records + number_families(12, 3, seed=34))
    return ["--input", str(corpus), "--levels", "80,40", "--band-match", "all", "--seed", "32"]


def bz2(tmp: Path) -> list[str]:
    records = hierarchical_corpus(n_works=12, seed=41, noise_records=8)
    corpus = write_corpus(tmp / "c.ndjson", records + number_families(12, 3, seed=44))
    return ["--input", str(corpus), "--levels", "100,80,60", "--compressor", "bz2", "--seed", "42"]


COMMANDS = {f.__name__: f for f in (dedup, hierarchy, ga, band_match_all, bz2)}


def run_digests(name: str, tmp: Path) -> dict[str, str]:
    out = tmp / "out"
    assert main(["cluster", *COMMANDS[name](tmp), "--out", str(out)]) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name not in CLOCK_FILES
    }


#: Taken on the build in ``BUILD``.
PINS = {
    "band_match_all": {
        "artificial_records.ndjson": "5aaf6baff2be0779a8fc3ea9b141e54f388ae2db5cef6553242b4aeb889c43bd",
        "clusters_level_40.ndjson": "38a77329fa26c382f2a55e51f735e84b0f78f0b33e8cffbef99492d8c9f74e0a",
        "clusters_level_80.ndjson": "be6573547d4fac60e7f1bbd81b1624f5a023c26f75b6684a94cbaf82453f3e62",
        "field_selection_report.json": "4b262e0f3d963ee6ed35e22b91ff500aa27c19ee71940cad3eb8495723c060af",
        "forest.ndjson": "90c90191bb96989b12c03d25ac6e64d193ed0f175d160998e3f61652ac1b24f7",
        "masks.ndjson": "9e73c3db7bf855ab15e8cd4fd220850736f5e860a333674e07f4d1362f305287",
        "rejects.ndjson": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "summary.json": "c28a88c03f0e05211567a0d51ec3dc486bcb2b30c2c50f81024d612876098fdf",
        "unclustered_level_40.txt": "864e8a4d5a96f743b621333937daecc249261842195d42996856e3bb707096b1",
        "unclustered_level_80.txt": "807c0ea575047dccc29db2689be2f6d9f946e697c23ae57078459bad65627590",
    },
    "bz2": {
        "artificial_records.ndjson": "7420962beec410d8691b0442ba09c4709dcc019c5af042085421e56f6aabe634",
        "clusters_level_100.ndjson": "f50879df07e3471b2f2c3b57fbab0ef466144dc8e2c97b42953f973834908227",
        "clusters_level_60.ndjson": "9c00009af268a19e03712cb025fdb5c5ef1a57c20f05be734b00a6ed1eb76102",
        "clusters_level_80.ndjson": "3744279cf44cad50ff87ad5da2932fe6251865840591333836d8155f78d4abe9",
        "duplicate_report.ndjson": "2dfcdf7343951d2c40b88972e7e0d816813ac2301807ff22a4ce0d44c4080b32",
        "field_selection_report.json": "4b262e0f3d963ee6ed35e22b91ff500aa27c19ee71940cad3eb8495723c060af",
        "forest.ndjson": "ef93c420fe3b374439cbba9176c1cd9064740beb4c4e3520eebcb7d5372a4691",
        "masks.ndjson": "9e73c3db7bf855ab15e8cd4fd220850736f5e860a333674e07f4d1362f305287",
        "rejects.ndjson": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "summary.json": "a543bdf485fa34036edfebfd61db72f9ed7960ba93a3a1a1af68b44e27ef92fe",
        "unclustered_level_100.txt": "4c379919dfbfe684e314307f2409e601fcfc7cb202829c35649723cc2b9c98da",
        "unclustered_level_60.txt": "4e1c373fefad7509db8e0e27ac3f0e53f6b38e71c6b6b2e6395aed01eaf8cfad",
        "unclustered_level_80.txt": "4c379919dfbfe684e314307f2409e601fcfc7cb202829c35649723cc2b9c98da",
    },
    "dedup": {
        "artificial_records.ndjson": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "clusters_level_100.ndjson": "fea8b3be95248f8a2f401446b295f710e6d9a68de9e28aa2c161a2fbb90939af",
        "duplicate_report.ndjson": "c1e8b96e59d95ab1b1530514a80cf70717f0a6ceb464ba4f2a5de2d920036570",
        "forest.ndjson": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "rejects.ndjson": "c3acc5530daf14d24b037b7589015ba59a5e5e43872044673fdae43ccdd1f86f",
        "summary.json": "4d8a3406fb2e1d625267324d66588af0cc51a89ced2f707abab882578ff826ba",
        "unclustered_level_100.txt": "a925f661238242a8a03706a6fa0d3bd820f8312a07913ca111f13966a33b7c47",
    },
    "ga": {
        "artificial_records.ndjson": "098412d616c6d25e9a0c0359c8cb806370b66c09e9d73e3fc35a06aba1990869",
        "clusters_level_100.ndjson": "87b4c89298367078124cfbc987db7d8af6a7226e226dbe9ec2bb7e716bf831cc",
        "clusters_level_20.ndjson": "0fe297734c813e2114c14c1c1d2c4773d5efc17299869d920dfc98e47b08611f",
        "clusters_level_40.ndjson": "3add783cded871a2735e730e1e91aba2197de897c8a5b794cef33bf9151e7df2",
        "clusters_level_60.ndjson": "8c9e0d35514df3f42bd79f46f310f750b8ba3d8e56454f9be7e15448460af03e",
        "clusters_level_80.ndjson": "dd66554d0f3071d7a1cb6b787bd10d70baabfda1d01d7444991631d07e90b353",
        "duplicate_report.ndjson": "2a65f4bc200b8dd133cdf5f4d6e88d1e5c2bb1c0b9ada3549d7da82cefc63121",
        "field_selection_report.json": "74b9400f9d01ddcf03db610a22145086ad92091073f17678df6b9191dabaf09c",
        "forest.ndjson": "a26d8142329667f79f4dabdb6890fee83f5a162bdfba90e7ac85ccbcec837266",
        "masks.ndjson": "1e2c3cd8e9923e9865046e874d247d92495c9171704a0476d57109b386b5e7f0",
        "rejects.ndjson": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "summary.json": "db3a7819c63b6fd5041e145462b2e35a76ed3229118a1cebe590f259b405e528",
        "unclustered_level_100.txt": "9e1d0a465b62dbc469361f2020707dd302b4afd3a4ece8c5caae751f9f124b12",
        "unclustered_level_20.txt": "d9bfdb6d3e8aa3162d7f57e96ebc3df1d2ab4ae912040dc4745ae6a73f165339",
        "unclustered_level_40.txt": "2b434c3cdc484128f9e458307779d87962cfd6383fa3544ed56830566b42f804",
        "unclustered_level_60.txt": "4b2118aeba7537a638cebccebfecf460f31b471bf3fc35fe65c6fbbaed7e8db5",
        "unclustered_level_80.txt": "2ec3bfcd22c785a94be7b56c70c85b24e3f1def2fc11f62e9f5d3025b7a7d3e3",
    },
    "hierarchy": {
        "artificial_records.ndjson": "45405b7821974bc040da84806299b7eff5c5b87cc0adda554a6d15927a2400f8",
        "clusters_level_100.ndjson": "a763e189005331f428669f68039224c6fc91282a235a94c336d38afb8149fb05",
        "clusters_level_20.ndjson": "31ad90c58fdcdfbee52b06805b85e0e132b12748aa4d407524905d2e53d5ecab",
        "clusters_level_40.ndjson": "3a0df5321a8ee9dea60718fdb1a5ef3ad00b53932e7e666dbd1b31604a8cdd77",
        "clusters_level_60.ndjson": "30a85a42a9d016eb6479d0e2f321e5007429508b32ebe50323a86094b8bf2671",
        "clusters_level_80.ndjson": "3b3b49f2682d45839980dac0d6314f0240d3c825017e17af90531633176a0d03",
        "duplicate_report.ndjson": "31f51ebd8a200172085fb4cb90ccd873810dbbd5e87762b1a6946d6413cb1a6e",
        "forest.ndjson": "12b9e18874ef97f86c90c7dae02ce7ac7ec6afb722c3cee9e2b0a40cde242e6c",
        "rejects.ndjson": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "summary.json": "d5c87c6a5490caf7830f126bac5a54ee42da79f55c7166b9dc7117ebfa3db49f",
        "unclustered_level_100.txt": "e0e0482c65dee82393d9bf707f61632eb330ed4cd3b8bfd46a746672b44016f5",
        "unclustered_level_20.txt": "e31a0713a34fac5c1b8f07da4481ed6c63dc9f1167978786a8828bcfd5459e04",
        "unclustered_level_40.txt": "6028a75220a354365a7c2e1826e802e5b4695052001b052419a3d198f3daa87d",
        "unclustered_level_60.txt": "ef683411f257eb8680a1c08d3f6482786438ebfa52363793b612b8b7a0a0de67",
        "unclustered_level_80.txt": "0d3ce6012fc1b4c9a1ee07e795904db09602c6f46c25da87c5e9a3e602f40988",
    },
}


@pytest.mark.parametrize("name", COMMANDS)
def test_outputs_pinned(name, tmp_path):
    digests = run_digests(name, tmp_path)
    differing = sorted(n for n in digests.keys() | PINS[name].keys() if digests.get(n) != PINS[name].get(n))
    assert not differing, (
        f"{name}: {differing} differ from the pins, which were taken on {BUILD}; this build is {THIS_BUILD}"
    )
