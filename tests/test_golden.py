"""Golden sha256 digests of CLI output bytes and of library draws.

Each digest was taken from the tree before the change that added it. A
digest may change only in a change that says it moves output bytes and
names the digest and the reason; a numpy or scipy upgrade that moves one is
a finding to report, not a digest to update.

The digests were taken on x86-64 with AVX-512, and many depend on numpy's
SIMD dispatch. Run with ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
AVX512_SPR"`` (as a machine without AVX-512 would dispatch), 15 of these 45
tests fail, 28 hold and the two cross-dispatch tests skip. The failures are
the sample/verify digests of the four c != 0 centers (8), ``repro`` and
``repro-seed7``, and the five library draws at c != 0. Every c = 0 digest
(both sample/verify cases, both draws, all three radius cases), both
``ra_flatten_stack`` digests and the other 19 certify digests hold. Where
numpy dispatches AVX-512, the cross-dispatch tests check the c = 0 bytes and
those 19 certify digests under the lowered dispatch in every run. A
portable rearrangement bank on an exact lattice is the planned mend for the
rest.
"""
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import mixcenter
from mixcenter import cauchy_mix
from mixcenter.cauchy_mix import ConvexCombinationSampler, MixerConfig, build_mixer
from mixcenter.distributions import Cauchy
from mixcenter.rearrangement import ra_flatten_stack
from mixcenter.cli import main
from mixcenter.seeding import substream

ROWS = 300
SEEDS = (7, 11)
CENTERS = ((3, 0.15), (10, math.log(9) / math.pi), (3, -0.15), (4, 0.0), (5, 0.3))

# (n, repr(c), seed) -> digests of the sample CSV, its sidecar and its verify JSON
SAMPLE_DIGESTS = {
    (3, "0.15", 7): {
        "csv": "23c7c09f2fa285f3cb2f417c5b17d389a09650b92d6cd33105632c68419e51b3",
        "meta": "f5f9c7a10468bd7f42b7764ce9b4d129f0e16aecff74f84d626b165291b2f53a",
        "verify": "f72bbbf65c1f78ce8fb7bafecd66b76e2247f0cb5d31e382f76ba4303eb9f1d6",
    },
    (3, "0.15", 11): {
        "csv": "a1bd688e1208655835e5887ebd5d4fbd70893eff6ac8850a218df33534987fb8",
        "meta": "648efad25816ab9caa1193a9f504e71c58d67056cf34f45f4df2a0778d23b236",
        "verify": "a2a52bd8f8c39668ee8d376ef9760c921016244c2166e1535422a82aa930abbc",
    },
    (10, "0.6993983051321196", 7): {
        "csv": "c074869d11effe1ec67b76986f948026ce7e43041e529bb1a08e369ebe594653",
        "meta": "52f4d0b7bbf730e0dae777e9c30c23e7a564b257476fafb2f3dcfe6143082b39",
        "verify": "d39d51c1e5713a782234c60b36a614bf0a71d1ea780aceffff71f1ea52e30ea9",
    },
    (10, "0.6993983051321196", 11): {
        "csv": "692b7dd46411b6022cd66c0b1d79af5dfc400361bf5dbeb58af1a3caa1ad57fd",
        "meta": "95163566235c8c2b0101171cc74da9633149117a4523db0e239a6779e38cf067",
        "verify": "0095f190f2b534e1ba1099a07e0e0d81ff7dfac3a9d01fd9bd6006f2d075af27",
    },
    (3, "-0.15", 7): {
        "csv": "18e61325be71060116c04102e4020a12f90aa0773a60e37951fff829499458d0",
        "meta": "dfa6315640f8f23d2e68ad2c13fe8c40decea97f8a832225cd8d3e3257348bfd",
        "verify": "ec31bae41fccb23f0b4061e3d36c1414538580b8704c3ce91533709ff339bd35",
    },
    (3, "-0.15", 11): {
        "csv": "888d5877c997529944457e9d12136ea4b72049fc8edac5a31169e0835259176d",
        "meta": "252d04bd1740f03e793db17089131e7961d5c50c8d6990bcfbef9ece4b63bb6e",
        "verify": "242373e9fb881578fc3ba0ca6aa19cdf9c65329a957e90d66a1606e52554688f",
    },
    (4, "0.0", 7): {
        "csv": "f51fd70099f94c81623f299a836b48582e8cba0b4a2d09bdbf63277c203b3cbb",
        "meta": "cb5f91f9a7945e32779a108e017f937d37ecc64db4d888a72a325197e69c2faa",
        "verify": "ba5b4a44d7031747827e26a46356e5c0bfafeb52e856cffd1d450e069650914b",
    },
    (4, "0.0", 11): {
        "csv": "7d76bf8cb0836185aab0b0a1a2df67d16000b64a6cf39a775867eb444b53074b",
        "meta": "ec59496978b9c4b8df9b9a7c62ba44be008546f3aeb530f53d4b7918fe26be30",
        "verify": "c6febbf639b7456653d4daee998e300ddbfe03a9263c9463a98e439f86745c66",
    },
    (5, "0.3", 7): {
        "csv": "c45d76b2b2da8ca2b369eef9876c91f8b3abd79aa91722af5214ca23a4469a94",
        "meta": "766d6204c9550671f0027936ee1a573baef34fd17cf5df9123fed78e6719b3d2",
        "verify": "07683762b126789939f7f0426a2e2ae8a3c35a51a6e3ccfdb207a160ccbeb33d",
    },
    (5, "0.3", 11): {
        "csv": "6d03e63c9ecd5d582a4e522cd6fbfbb4ab30f4adb53aa89aabf70faae1029a85",
        "meta": "782c13668ee83cc255f77eca7434a53d9d8abdd2e07732967c193434876c3cc5",
        "verify": "3b113604abbf731975d7bfd961263e0f574c15a61a13ceaf23249613bf91a1dd",
    },
}

# output name -> digest of a certify-side command's JSON
CERTIFY_DIGESTS = {
    "bounds-cauchy-n10": "556ec16ae8f52984b5a122c1787e4a8a3d3ede3d8d672003aa589b26844bdf05",
    "bounds-cauchy-n3": "49034de9c322048705bc81eaab354011d57ea7ae73d7b6974ba527ebbd76b015",
    "bounds-finite-n3": "31f7052abe60e64eb3062b40a2f64693574b783026c925c8280a1017f19f2756",
    "bounds-pair-jm": "3a0667af779cc937796f414730b4243fa9dc820cb4cbcd2aec9ca9ee79d8273b",
    "bounds-uniform-n3": "8042a6499ee819beef551b45a481789897729436654f8d68ebf5d5afa3b99e51",
    "centers-triple15": "fcb552e90e11635c43e67474005015e7ce870de59ec1c7db29d69e7154d511a9",
    "dual-cauchy-inside": "66a7b12de6fc64ab5e63070bd02170899790fdda92463b1dd0318f6719a65cc7",
    "dual-cauchy-outside": "9fb5ae2a39b9cc58862aa4e53bc20b4a49e1d71e3f1da9991e2ab6a342c76cc5",
    "dual-finite": "e4671c268d5b2f313b3d752ad732f428d6e95648411708256fac30b68a0cbfe2",
    "dual-uniform": "d733584fd65f6613a8a06dfd4441f5857e16a5d61ab1ff92c50a72ba6460112a",
    "feasible-exact-triple15-c4": "b5a29f504226e79e42d89e0b3ee750ef55fab201afea4726ceb748343758a5ed",
    "feasible-exact-uniform9-c12": "2765f2547750e55513537092823d3aa94641a08eb2b83b11626623ed5439105f",
    "feasible-exact-uniform9-c13": "ea72a4b8e1c3f89120e02cafb4b8f64108ad5831f9703f8f8a5cf00a44e5702d",
    "feasible-triple15-c4": "255a7ef8a83feb0ed78d6124f6da8e760486e628687b9c73fd3425e3c591133d",
    "feasible-triple15-c5": "95222e35f41dbf8242b334279e38844f9ae7b55f0ea605e4590580c7256fdbbc",
    "feasible-uniform9-c12": "2765f2547750e55513537092823d3aa94641a08eb2b83b11626623ed5439105f",
    "feasible-uniform9-c13": "9e626dc714171c56d8310ce43dbee904b29e4921bda1fd67923fcc5a488d7150",
    "interval-n10": "7bceb303c7ea287bc252343c4fdeb60ecfb8741e57c9927290d62cb3a1a05781",
    "interval-n3": "deb02da21d44444595aa5f72ccf61b2eabdefd0e3ee77aaadb27ade02d11b47e",
    "repro": "60f5d0709f56d192db0d55ebe4a1e94a363e675e0257c62525115b364d052ead",
    "repro-seed7": "c079f0a899fa8a6b959a2617ce57a7ff672d2a4a8ae0e159a037dba45de8adf4",
}

# library draws of 200,001 rows: more than three 65,536-row draw chunks, so
# each draw crosses chunk boundaries; t_grid=512 keeps the cold builds cheap
DRAW_ROWS = 200_001
DRAW_FIELDS = ("values", "t", "branch", "row_bound")
DRAW_CENTERS = {
    "n3-c0.15": (3, 0.15),
    "n10-endpoint": (10, math.log(9) / math.pi),
    "n3-c-0.15": (3, -0.15),
    "n4-c0": (4, 0.0),
}

# the same draws at the default config (t_grid 2048), as the library-warm
# benchmark builds its mixers
DEFAULT_DRAW_CENTERS = {
    "n3-c0.15-default": (3, 0.15),
    "n4-c0-default": (4, 0.0),
}

# case -> digests of each field of its first (cold) and its second (warm) draw
DRAW_DIGESTS = {
    "n3-c0.15-default": {
        "cold": {
            "values": "9086a2d9ab4fd1f95a4065b51eb9dc9d4edf6bb9f1927e37216e6e863380a4d3",
            "t": "a22fb36e53b3185ced473dbf27d4eeaeda8088c37d80f879584d7023b55fd3ac",
            "branch": "aa3a84eef134b5069f1ca41b71327dcad92c835dfc1842ada8959a44ab614d5b",
            "row_bound": "b696bd33af3845a11c5a4a4886a505e3caf673e427ea75cbda96f5185f19a7d2",
        },
        "warm": {
            "values": "12bc769baa200d90cff006f3d935d6cf3bbb40166b10fbe58bf7c26c1c538f04",
            "t": "07ba81851533cdeafa3fb540a1b26df7e871cd3496b8a28d9fc4b3cebf26b7af",
            "branch": "79e708c021259498004616f842f1bf7fedf832fe80588cdfe79f4172628752dc",
            "row_bound": "e0c9928e7637a210052473bde18ba7b6293f0e38cc4f3490ad30efaf61a1a01e",
        },
    },
    "n4-c0-default": {
        "cold": {
            "values": "d7676d7969a837ae886a89fa8e495abb97a3d2665871f602183fad910985bb24",
            "t": "0190fac29f5648c92ec9309c4fcceb962e17001dad6b590a743fd2db1b592853",
            "branch": "9e0cec517573ad60217de0e8225360fdfa550b7c03719a42950e90f2e1fbcd2f",
            "row_bound": "d77f8494a385a665b6a89f4b1cda96fba949615657eb5fa5ed15c3a209350f3d",
        },
        "warm": {
            "values": "b040fdbe4c36e57eeed1570539a33e7ce97f76d4c64aa5abe5c76ed5f8aaf448",
            "t": "e3f655cda35f8a39982665af7d0aac555d3b965b741b2c47aad080c78597f37b",
            "branch": "9e0cec517573ad60217de0e8225360fdfa550b7c03719a42950e90f2e1fbcd2f",
            "row_bound": "260f9709af8936e948f10e657128ffae560a79ecc36753fead84b2ee32b77f33",
        },
    },
    "convex": {
        "cold": {
            "values": "a6f0da6f4eedcd8d359baa342965e83f219b57358b89814d408c0b47574fd32c",
            "t": "33c6ee35224871d24d8dc8916fa94924e66193a8103acf9eb56ff29c89f239d2",
            "branch": "cd28df2811dba9a4fa275bbecced744b05a4e25033ac01bc9c07e1895a338ab4",
            "row_bound": "1d5f281cba7e7a3e01b82c71a3246133fc9571376fbfd7daddd0b90b4d927ca5",
        },
        "warm": {
            "values": "1bedd5231df39aca8bfda325447b400ef005929448dc9d970ddf2e53b6acaecc",
            "t": "33c6ee35224871d24d8dc8916fa94924e66193a8103acf9eb56ff29c89f239d2",
            "branch": "cd28df2811dba9a4fa275bbecced744b05a4e25033ac01bc9c07e1895a338ab4",
            "row_bound": "7807236180540620006d536c25b39cdf06520b2df1a72fec947840afa85d2d09",
        },
    },
    "n10-endpoint": {
        "cold": {
            "values": "5866051111b2df30b71ef0c32dd056f9ca35b44dca5b9a3666824eda53f4447e",
            "t": "33da35b1451f9581e32182a953b2de807c3ba1e3be8eea57388b36bc67e5f2bf",
            "branch": "2e4e2cc4cd096cb2c2455abb193217186d0737224b010a88b561e4f5d89ac145",
            "row_bound": "c7b65a0b650ccab61343e71bd5c9d4a787592386a4ce0d7b341e6e0426b39de2",
        },
        "warm": {
            "values": "f86c26dc407746c4753e332ace083b7bbc712fedc97484673f97af1ff664252b",
            "t": "055f4cb2915f5c7970fb36eff7ac2a42e203d13cfe10c523780bbfe4f4f258fb",
            "branch": "ff52f2f3741322756f90e5854e182ce128913848c55f2f8324a76851422148ad",
            "row_bound": "9fddff5c269d73817137ae6b9e5307d87496a24414f59a50e9f69938650f1647",
        },
    },
    "n3-c-0.15": {
        "cold": {
            "values": "6cebea008fc25b0a456306ca986a201f360d63db39e3b05d7f5b428a937b4b34",
            "t": "ad218eb5c6115d5ddd29772787f5da738ec053e151619afaa2a8a87ac7f82517",
            "branch": "e8123d1299e3087750d3ea08654ab99e8c4cc0f01d64d3aa26c08a0007cebca8",
            "row_bound": "36e0b630e6ca21cf1fe0943a4114c1a533ef7a20c9a44f8bb2765e6a1080a718",
        },
        "warm": {
            "values": "6584778fe6e2c348bb41916f11afc6462882e7aacabf2d21aaf6673d0ad3c3db",
            "t": "bc19a18a5bbb211f237701e133f442c34c60ec04b02b5568ab65ca143b441c1e",
            "branch": "4989257404db083b1658262be73298bbd0c64e5e9e0323fa52b84c0f3492d18f",
            "row_bound": "e92a19aa3d1e9d4ff8b69854c1849bb20df47db7e1b0e03f8136599c29f3d022",
        },
    },
    "n3-c0.15": {
        "cold": {
            "values": "5537d0219e4a42906bc6fc80f91bd99e727bc9cafa1f4c9b7a6280a7ae713bfb",
            "t": "031b301f78a361bc41171cf8a8f786424958dd19115eaec6611353b99443e118",
            "branch": "4b1e9e890ec7c2498f873bb137c433e1407753cccf8a9441a160ef5924c4f42b",
            "row_bound": "ec504067cae5d4cafea906b11145719595b81f5b7e3aecdabe56cbdd83b3f363",
        },
        "warm": {
            "values": "f39625465cfbf0a7d53749f6e7933465b256f32587783115f76833b954ef65ea",
            "t": "57113bb6a5ffbd619e5ca81f398307360e47d0244e21a86687cfec157df8b332",
            "branch": "59115b6465f287d38103b871e385dbc6614b1f26dba62877dc6c8f660caffcb1",
            "row_bound": "5fd7086198f322ad7fd555420143739dba7acbe7212291f73c05460e8dec5921",
        },
    },
    "n4-c0": {
        "cold": {
            "values": "9a4148bebfe4ffa8db4b27a2824123492e991266fe80c60f3033f265d7799c90",
            "t": "eac885eff21fff9a2b92c8f073352949e6b10393ee6651afad5f8a2180527f56",
            "branch": "9e0cec517573ad60217de0e8225360fdfa550b7c03719a42950e90f2e1fbcd2f",
            "row_bound": "e5dafda87171001fa9bb9ce50004c1f12d38e12778016af108ce75628558760f",
        },
        "warm": {
            "values": "e0ea5f19185121d0ecf4d3be6ce4163d326b6516e28b6e6ddfa1cf0196691362",
            "t": "c84d86739c620513b4de91edf9a3e54b43a74d7da3757bb5fc5a62a9af790d3d",
            "branch": "9e0cec517573ad60217de0e8225360fdfa550b7c03719a42950e90f2e1fbcd2f",
            "row_bound": "8fa5150c48c711603e33791e2dd5035905d336ab2ab5548b010e097198da1c6f",
        },
    },
}

MARGINALS = {
    "cauchy": {"kind": "cauchy"},
    "finite": {"kind": "finite", "atoms": [[-1.0, 0.25], [0.0, 0.25], [2.0, 0.5]]},
    "pair": [{"kind": "cauchy"}, {"kind": "cauchy", "scale": 2.0}],
    "uniform": {"kind": "uniform", "a": -1.0, "b": 2.0},
    # uniform on {0, ..., 8}, three times: the forced center 12 and 13 beside it
    "uniform9": [{"kind": "finite", "atoms": [[float(v), 1 / 9] for v in range(9)]}] * 3,
    # the projections of a coupling on the slice v1 + v2 + v3 = 4 with integer
    # weights 3, 2, 4, 1, 5 out of 15
    "triple15": [
        {"kind": "finite", "atoms": [[0.0, 3 / 15], [1.0, 7 / 15], [2.0, 4 / 15], [3.0, 1 / 15]]},
        {"kind": "finite", "atoms": [[0.0, 4 / 15], [1.0, 9 / 15], [2.0, 2 / 15]]},
        {"kind": "finite", "atoms": [[0.0, 1 / 15], [1.0, 2 / 15], [2.0, 9 / 15], [3.0, 3 / 15]]},
    ],
}

CERTIFY_RUNS = {
    "interval-n3": ["interval", "--n", "3"],
    "interval-n10": ["interval", "--n", "10"],
    "bounds-cauchy-n3": ["bounds", "--marginals", "{cauchy}", "--n", "3"],
    "bounds-cauchy-n10": ["bounds", "--marginals", "{cauchy}", "--n", "10"],
    "bounds-finite-n3": ["bounds", "--marginals", "{finite}", "--n", "3"],
    "bounds-pair-jm": ["bounds", "--marginals", "{pair}", "--betas", "0.1,0.2"],
    "bounds-uniform-n3": ["bounds", "--marginals", "{uniform}", "--n", "3"],
    "dual-cauchy-inside": ["dual", "--n", "3", "--c", "0.15"],
    "dual-cauchy-outside": ["dual", "--n", "3", "--c", "0.5"],
    "dual-uniform": ["dual", "--n", "3", "--c", "0.9", "--marginal", "{uniform}"],
    "dual-finite": ["dual", "--n", "3", "--c", "1.5", "--marginal", "{finite}"],
    "repro": ["repro", "--out", "{out}"],
    "repro-seed7": ["repro", "--seed", "7", "--out", "{out}"],
    "feasible-exact-uniform9-c12": ["feasible", "--marginals", "{uniform9}", "--center", "12",
                                    "--exact"],
    "feasible-exact-uniform9-c13": ["feasible", "--marginals", "{uniform9}", "--center", "13",
                                    "--exact"],
    # the float coupling (12) and the float Farkas dual (13)
    "feasible-uniform9-c12": ["feasible", "--marginals", "{uniform9}", "--center", "12"],
    "feasible-uniform9-c13": ["feasible", "--marginals", "{uniform9}", "--center", "13"],
    "feasible-exact-triple15-c4": ["feasible", "--marginals", "{triple15}", "--center", "4",
                                   "--exact"],
    # distinct marginals: the float coupling (4) and Farkas dual (5) of the full slice LP
    "feasible-triple15-c4": ["feasible", "--marginals", "{triple15}", "--center", "4"],
    "feasible-triple15-c5": ["feasible", "--marginals", "{triple15}", "--center", "5"],
    "centers-triple15": ["centers", "--marginals", "{triple15}"],
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sample_digests(tmp_path, n, c, seed):
    """Digests of ``sample`` (CSV and sidecar) and of ``verify`` on its rows."""
    csv = tmp_path / f"rows_{n}_{seed}.csv"
    assert main(["sample", "--n", str(n), "--c", repr(c), "--count", str(ROWS),
                 "--seed", str(seed), "--out", str(csv)]) == 0
    report = tmp_path / f"rows_{n}_{seed}.json"
    main(["verify", str(csv), "--out", str(report)])
    return {
        "csv": _sha256(csv),
        "meta": _sha256(tmp_path / (csv.name + ".meta.json")),
        "verify": _sha256(report),
    }


def certify_digest(tmp_path, name):
    """Digest of the JSON one certify-side command writes."""
    specs = {}
    for key, spec in MARGINALS.items():
        specs[key] = tmp_path / f"{key}.json"
        specs[key].write_text(json.dumps(spec))
    out = tmp_path / f"{name}.json"
    argv = [a.format(out=out, **specs) for a in CERTIFY_RUNS[name]]
    if "--out" not in argv:
        argv += ["--out", str(out)]
    main(argv)
    return _sha256(out)


def _draw_mixer(case):
    """A freshly built mixer for ``case``: one of ``DRAW_CENTERS`` (t_grid
    512), one of ``DEFAULT_DRAW_CENTERS`` (the default config), or "convex",
    0.25 of (3, 0.2) and 0.75 of the reflected (3, -0.1)."""
    def build(n, c):
        return build_mixer(MixerConfig(n=n, c=c, t_grid=512, seed=7))

    if case == "convex":
        return ConvexCombinationSampler(build(3, 0.2), build(3, -0.1), 0.25)
    if case in DEFAULT_DRAW_CENTERS:
        n, c = DEFAULT_DRAW_CENTERS[case]
        return build_mixer(MixerConfig(n=n, c=c, seed=7))
    return build(*DRAW_CENTERS[case])


def draw_digests(case):
    """Digests of the fields of a cold draw and a warm draw from one mixer."""
    mixer = _draw_mixer(case)
    got = {}
    for draw in ("cold", "warm"):
        batch = mixer.sample(DRAW_ROWS, substream(7, "golden-draw", case, draw))
        got[draw] = {name: hashlib.sha256(getattr(batch, name).tobytes()).hexdigest()
                     for name in DRAW_FIELDS}
    return got


def _check(name, got, want):
    assert got == want, f"{name}: digest {got} at this tree, golden {want}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,c", CENTERS, ids=lambda v: repr(v))
def test_sample_and_verify_bytes(tmp_path, capsys, n, c, seed):
    want = SAMPLE_DIGESTS[(n, repr(c), seed)]
    got = sample_digests(tmp_path, n, c, seed)
    for part in ("csv", "meta", "verify"):
        _check(f"{part} of sample n={n} c={c!r} seed={seed}", got[part], want[part])


@pytest.mark.parametrize("name", sorted(CERTIFY_RUNS))
def test_certify_bytes(tmp_path, capsys, name):
    _check(name, certify_digest(tmp_path, name), CERTIFY_DIGESTS[name])


@pytest.mark.parametrize("case", sorted([*DRAW_CENTERS, *DEFAULT_DRAW_CENTERS, "convex"]))
def test_library_draw_bytes(case):
    got = draw_digests(case)
    for draw in ("cold", "warm"):
        for name in DRAW_FIELDS:
            _check(f"{name} of the {draw} draw {case}", got[draw][name],
                   DRAW_DIGESTS[case][draw][name])


# rows -> digest of ``Cauchy().radius_quantile`` on seeded uniforms;
# 65,537 rows are one more than a c = 0 draw solves in one chunk
RADIUS_ROWS = (1_000_000, 65_537, 7)
RADIUS_DIGESTS = {
    1_000_000: "47af3c092550b0f1f4f0a5536c845ca70a206b0d33bdebe03f8299ef48278334",
    65_537: "c229a74dff12fbdd2849aec3cf8484f5455ab52e73009d237c385554c862625f",
    7: "fa4613998d7fe11153e27435a3095c8ca413e872af711c850bbe0aba970257bd",
}


@pytest.mark.parametrize("rows", RADIUS_ROWS)
def test_radius_quantile_bytes(rows):
    u = substream(7, "golden-radius", str(rows)).random(rows)
    got = hashlib.sha256(Cauchy().radius_quantile(u).tobytes()).hexdigest()
    _check(f"radius_quantile of {rows} uniforms", got, RADIUS_DIGESTS[rows])


# numpy's AVX-512 dispatch targets that this machine runs; disabling them
# dispatches as a machine without AVX-512 would
LOWERED = [name for name in ("X86_V4", "AVX512_ICL", "AVX512_SPR")
           if name in __cpu_dispatch__ and __cpu_features__.get(name)]


# the certify outputs whose bytes hold under either dispatch: both repro
# runs draw from mixers at c != 0
PORTABLE_CERTIFY = sorted(set(CERTIFY_RUNS) - {"repro", "repro-seed7"})


def c0_digests():
    """Digests of the radius of 65,537 seeded uniforms and of the n4-c0 draws."""
    u = substream(7, "golden-radius", "65537").random(65_537)
    return {"radius": hashlib.sha256(Cauchy().radius_quantile(u).tobytes()).hexdigest(),
            "draw": draw_digests("n4-c0")}


def portable_certify_digests(tmp_path):
    """Digests of the ``PORTABLE_CERTIFY`` outputs, written under ``tmp_path``."""
    return {name: certify_digest(tmp_path, name) for name in PORTABLE_CERTIFY}


def lowered_dispatch(call, *args):
    """``call``, an expression over ``test_golden`` and ``sys.argv`` (``args``
    from index 1), evaluated and JSON-decoded in a child process whose numpy
    dispatches without AVX-512."""
    tests = pathlib.Path(__file__).resolve().parent
    src = pathlib.Path(mixcenter.__file__).resolve().parent.parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(LOWERED),
               PYTHONPATH=os.pathsep.join([str(tests), str(src)]))
    code = f"import json, pathlib, sys, test_golden; print(json.dumps({call}))"
    child = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                           capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


@pytest.mark.skipif(not LOWERED, reason="numpy dispatches no AVX-512 target here")
def test_c0_bytes_across_dispatch():
    # the c = 0 bytes at this dispatch against those of the lowered one
    assert lowered_dispatch("test_golden.c0_digests()") == c0_digests()


@pytest.mark.skipif(not LOWERED, reason="numpy dispatches no AVX-512 target here")
def test_certify_bytes_across_dispatch(tmp_path):
    # the portable certify outputs of the lowered dispatch against the golden
    # digests, which this dispatch's own test checks
    got = lowered_dispatch("test_golden.portable_certify_digests(pathlib.Path(sys.argv[1]))",
                           tmp_path)
    assert got == {name: CERTIFY_DIGESTS[name] for name in PORTABLE_CERTIFY}


# case -> digest of ``ra_flatten_stack`` on the first block of coupling
# cells of a default-config mixer (m = 512): 170 cells that take 10 to 25
# sweeps at n = 3, 51 cells that take one or two at n = 10
RA_CENTERS = {"n3-c0.15": (3, 0.15), "n10-endpoint": (10, math.log(9) / math.pi)}
RA_DIGESTS = {
    "n10-endpoint": "79daa001c0f980bbf197841199e65368fb245364714f3d60d3d95cd635bc9c90",
    "n3-c0.15": "e1b70f80f067e1debfa1ae3bf9f022542fb802bc5aa336fe54694367529a14af",
}


class _Captured(Exception):
    pass


def _first_cell_block(n, c):
    """The shuffled (cells, m, n) stack the cell builder hands to its first
    ``ra_flatten_stack`` call."""
    mixer = build_mixer(MixerConfig(n=n, c=c, seed=7))

    def capture(stack, max_sweeps):
        raise _Captured(stack.copy())

    with mock.patch.object(cauchy_mix, "ra_flatten_stack", capture), \
            pytest.raises(_Captured) as caught:
        next(cauchy_mix._cell_blocks(mixer, np.arange(len(mixer.knots) - 1)))
    return caught.value.args[0]


def ra_digest(case):
    """Digest of every cell's matrix, spread, sweep spreads and verdict."""
    digest = hashlib.sha256()
    for res in ra_flatten_stack(_first_cell_block(*RA_CENTERS[case]), max_sweeps=64):
        digest.update(res.matrix.tobytes())
        digest.update(json.dumps([res.spread, res.sweep_spreads, res.converged]).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(RA_CENTERS))
def test_ra_flatten_stack_bytes(case):
    _check(f"ra_flatten_stack of the first cell block {case}", ra_digest(case), RA_DIGESTS[case])
