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
        "csv": "787519a9cefaea2371062e539688cceede814ed178777a1a1c228dedfddf6e60",
        "meta": "70643b66e2b0e0e8cdbc2ece20b8faca7c307fde0eca3e8dac4fa9525a717ca3",
        "verify": "3dde912a97eb25706cc9f5e2a249afc7e55b4f551baf7dbd2711d79b26e2ed8f",
    },
    (3, "0.15", 11): {
        "csv": "b6ea10c843a1a2b6e0fe05d3c9772e222ad5039fac49296bb5be0a164cd6c656",
        "meta": "57491f2b082236fd909cd2ca85b1840fbeafcdb8446a00494c94f21a6bfda310",
        "verify": "5028b4d70eadb9d68e566889bdb9d6bdb44dad855da6b2687b9ad8708854e381",
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
        "csv": "e75df0d468debf5592cd98a97ce775e8d29081ab770369f654358109620cb22e",
        "meta": "661653da7bbb25bb7650c2a40295a8f55482c53f5f645522138fd20dc9e1b0ea",
        "verify": "c7572ae21dbb67e2e5f3ee819ba3f988154c4425b356132ab4d430a4de078b30",
    },
    (3, "-0.15", 11): {
        "csv": "92454d6b4c9cb9f0928ffab950b089a9f99c96c2a4c5843496600af812002d27",
        "meta": "64ec44698d3ae0db8e6bff86b16aa92357f3c3054e245439b2acf176db355b53",
        "verify": "9752eec54c4ca39ab9f14f802300b82b9b5ecb21a5d4a8a33475ee1e25ad2ead",
    },
    (4, "0.0", 7): {
        "csv": "520035161c0d495696ae709cca9e6165f34623e85f97a8b933289d6086281617",
        "meta": "a2514ec1027b9f2ef21ccfaf32032be814c69a4c01c5268a81e011a7aa7a876e",
        "verify": "98335839cb8e6f21e0c10d72add2c57aa4d753f65a8da340158b0d392aaea7b3",
    },
    (4, "0.0", 11): {
        "csv": "cc454aef9f438a328bf72b801ae33c4227091a3fc916e3833948a719d39809c8",
        "meta": "fe7a90dd9b7ec6ffec385038b5198d77e5ea17b0eae413d45e8a173d73ed24b8",
        "verify": "311fc909a3a39f8fd1fe5901d2629fcefae767fac24a44d4817542827195af5d",
    },
    (5, "0.3", 7): {
        "csv": "729c95f7bb2853b6eb095a808078d7e5acd7a18f60bc6494961fb515a1591bee",
        "meta": "6aa7723275931b6e33f5a9f80890eb9c8f5d88791b8aac21a628bca8cec00745",
        "verify": "35a67416fdceba18362bf87ec0f4050513426cd571236b03b88128ee5a400778",
    },
    (5, "0.3", 11): {
        "csv": "4bc2e84b65cd012e42d82ef80e4b5058da5452a85577c086c7a6d39d17dc5083",
        "meta": "b0ea83335a66d731dc86bd6f2275dc46e6caad12ae5cd83423e77f8c3574eb01",
        "verify": "6f781c5cc05d5f8f3912e4b3a7983beacefad4d5e9fab47545f520681fe4dec4",
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
    "repro": "5e2472739353073240e3e53fe055a9a2150786387e8d6d80c629e4482a4ed6b9",
    "repro-seed7": "98e319e8c025566ad2bc07ce1eb4c58bae14286f91ac9bb99029c024b226c64e",
}

# library draws of 200,001 rows: more than three 65,536-row draw chunks, so
# each draw crosses chunk boundaries; a 512-knot slice grid keeps the cold
# builds cheap
DRAW_ROWS = 200_001
DRAW_FIELDS = ("values", "t", "branch", "row_bound")
DRAW_CENTERS = {
    "n3-c0.15": (3, 0.15),
    "n10-endpoint": (10, math.log(9) / math.pi),
    "n3-c-0.15": (3, -0.15),
    "n4-c0": (4, 0.0),
}

# the same draws at the default config and the fixed grid, as the library-warm
# benchmark builds its mixers
DEFAULT_DRAW_CENTERS = {
    "n3-c0.15-default": (3, 0.15),
    "n4-c0-default": (4, 0.0),
}

# case -> digests of each field of its first (cold) and its second (warm) draw
DRAW_DIGESTS = {
    "n3-c0.15-default": {
        "cold": {
            "values": "0455e62380da6e741fee9985e1ddec8afe99b0b610b5260b99e8647dc015f7a4",
            "t": "33ae63fb0dbbf6607a86a89ba72f7c0765038832542a4c63bacdf05550d2d9aa",
            "branch": "a026eb370627e502d931c101cd69bf211edfbfc4814bb35df56b0c5480a4ab8f",
            "row_bound": "f2dea297d97ac50617ffad9915e6da01cf33ef502dcb72581476c57468e059e7",
        },
        "warm": {
            "values": "19f01bd0b5a61c907d62d3ddc8665bff8b9b4fc5b197d352eebb0a46b9a1e209",
            "t": "bde4cf8ac9a55ab86845f568d8061b025404fea3e0161ef27e8078e9d37b88a4",
            "branch": "2d37a8bdf230ec2e5d8fd47599f88c51b8ad8ac89fea488272730931a79480af",
            "row_bound": "119111bb3d10da3dccca7add6641fc122e321ff82588101724a51e235bc56228",
        },
    },
    "n4-c0-default": {
        "cold": {
            "values": "d7676d7969a837ae886a89fa8e495abb97a3d2665871f602183fad910985bb24",
            "t": "0190fac29f5648c92ec9309c4fcceb962e17001dad6b590a743fd2db1b592853",
            "branch": "19a46fabf5ddea22dada35718373c9a6641ca4f7589cb76e306232b3b8d65ef7",
            "row_bound": "d77f8494a385a665b6a89f4b1cda96fba949615657eb5fa5ed15c3a209350f3d",
        },
        "warm": {
            "values": "b040fdbe4c36e57eeed1570539a33e7ce97f76d4c64aa5abe5c76ed5f8aaf448",
            "t": "e3f655cda35f8a39982665af7d0aac555d3b965b741b2c47aad080c78597f37b",
            "branch": "19a46fabf5ddea22dada35718373c9a6641ca4f7589cb76e306232b3b8d65ef7",
            "row_bound": "260f9709af8936e948f10e657128ffae560a79ecc36753fead84b2ee32b77f33",
        },
    },
    "convex": {
        "cold": {
            "values": "ae4a99f50c4ec548d41de7483c48182cc0c5831e5ec52a988e3fce1b41a0c3af",
            "t": "33c6ee35224871d24d8dc8916fa94924e66193a8103acf9eb56ff29c89f239d2",
            "branch": "cd28df2811dba9a4fa275bbecced744b05a4e25033ac01bc9c07e1895a338ab4",
            "row_bound": "fe9efb5abecc581426decc91e94d25a614d66bef874150ec6690dacee170c2f7",
        },
        "warm": {
            "values": "555ab0b80af03b79a36a6b340fd84e4a0363223775db2f16149b40c16664935f",
            "t": "33c6ee35224871d24d8dc8916fa94924e66193a8103acf9eb56ff29c89f239d2",
            "branch": "cd28df2811dba9a4fa275bbecced744b05a4e25033ac01bc9c07e1895a338ab4",
            "row_bound": "e67416c04c8b3fcacf407534b8cb32469438eb894388d2419af184aa477db44a",
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
            "values": "ad40baa09cc778373f49bb3140ac56d86cf3d129f1270f2052cc34b1b1dbc02b",
            "t": "102ea8668ad1914d7dd81b4cbf3af1a1bd5872c496ee840a7911e64728687e44",
            "branch": "3a26383884dfa2ffeb9deecc7ebadb4ef2172b7b17fa1f9e51f66518e28a359f",
            "row_bound": "2f68fecb0d4973c9ee33f1b90b7074ea14fbd832e20a479f741f66833c303049",
        },
        "warm": {
            "values": "d3605ed03017aab608cde047ecd82b9f0ad0658e53fd87e63069a5856dfeb9fa",
            "t": "2020fb55c4bebc93f32d592ed0853d7731645f165def00b1684d0bff730df728",
            "branch": "991ba5391aa7e38c611b65fc912848db00340f4e9963e07ac1e76753cbdb2205",
            "row_bound": "d70687ef17122c8a8e781fea875caee0229192152c8b606405eaf49bc310ce0b",
        },
    },
    "n3-c0.15": {
        "cold": {
            "values": "100c7f7b5a755a5b49afa56cca6e7156fa7e5f8fd22ca6481ec0b4cc7422c7e2",
            "t": "f3aac48f529c1dd55c8a9bdc1c0d1ddda3d0629d8af6490169b89d2830c40499",
            "branch": "8c6e435fd4a8e7538f86ce35ef9ece641b853f8c247500b9d676b3f6908151b5",
            "row_bound": "e0f95525382bd905692f56fb16a97079656148079e7bdcaf7db3b8a9b57cf1fc",
        },
        "warm": {
            "values": "2072b55eba8f8cb969ca4e55a6473cba2e46fef4b76745d0cd079c74e55c9b14",
            "t": "828a3b5655e2c1db877861ff8bc8fbdd3ef056910c47fba621e0d316e3cf0a95",
            "branch": "6b340ba50ac4a5e07400d995b724989e24a61d9e19e3e04aa768e00f60d9d7c1",
            "row_bound": "efaa19784f48f65452da29cf3d2657f122bde34a2772ed6dd747d112a2a38cb7",
        },
    },
    "n4-c0": {
        "cold": {
            "values": "9a4148bebfe4ffa8db4b27a2824123492e991266fe80c60f3033f265d7799c90",
            "t": "eac885eff21fff9a2b92c8f073352949e6b10393ee6651afad5f8a2180527f56",
            "branch": "19a46fabf5ddea22dada35718373c9a6641ca4f7589cb76e306232b3b8d65ef7",
            "row_bound": "e5dafda87171001fa9bb9ce50004c1f12d38e12778016af108ce75628558760f",
        },
        "warm": {
            "values": "e0ea5f19185121d0ecf4d3be6ce4163d326b6516e28b6e6ddfa1cf0196691362",
            "t": "c84d86739c620513b4de91edf9a3e54b43a74d7da3757bb5fc5a62a9af790d3d",
            "branch": "19a46fabf5ddea22dada35718373c9a6641ca4f7589cb76e306232b3b8d65ef7",
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
    """A freshly built mixer for ``case``: one of ``DRAW_CENTERS`` (on 512
    slice knots), one of ``DEFAULT_DRAW_CENTERS`` (the default config), or
    "convex", 0.25 of (3, 0.2) and 0.75 of the reflected (3, -0.1)."""
    def build(n, c):
        with mock.patch.object(cauchy_mix, "T_GRID", 512):
            return build_mixer(MixerConfig(n=n, c=c, seed=7))

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
    ``ra_flatten_stack`` call; (3, 0.15) is drawn explicitly by
    ``build_mixer``, so the slice mixer is built directly."""
    mixer = cauchy_mix.ConstructiveMixer(MixerConfig(n=n, c=c, seed=7))

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
