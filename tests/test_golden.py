"""Golden sha256 digests of CLI output bytes.

Each digest was taken from the tree before the change that added it. A
digest may change only in a change that says it moves output bytes and
names the digest and the reason; a numpy or scipy upgrade that moves one is
a finding to report, not a digest to update.
"""
import hashlib
import json
import math

import pytest

from mixcenter.cli import main

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
        "csv": "734c66570211e61186095b5816d2e8f4052d71c8d2930f1056d1d5f9f947e408",
        "meta": "cb5f91f9a7945e32779a108e017f937d37ecc64db4d888a72a325197e69c2faa",
        "verify": "5fd2649461bd4edc0b214b36cb9fb71c91cc8da9be2eeecb8c3f0814ddb27181",
    },
    (4, "0.0", 11): {
        "csv": "6856ca2e49f4aaff14037a3556a3b8be0ac29c0b78ebf8abf8d8d2f14c640a4e",
        "meta": "ec59496978b9c4b8df9b9a7c62ba44be008546f3aeb530f53d4b7918fe26be30",
        "verify": "ffb31285e71f391b7a747aad7424b8e42b06733d1c90094541bce1cc4f2a60d9",
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
    "feasible-exact-uniform9-c12": "11879b0fd33bef6eef23b26fdb0bc50506e3a43db2267e4348502983fff973c1",
    "feasible-exact-uniform9-c13": "ea72a4b8e1c3f89120e02cafb4b8f64108ad5831f9703f8f8a5cf00a44e5702d",
    "feasible-uniform9-c12": "983ad01bb0e6db30c3163547ece159302b1f398602963373eaaf499600a05536",
    "feasible-uniform9-c13": "7edf63beb0357247391c1cc76338aa7add0e665e233927cd2366e96a9aaeec9c",
    "interval-n10": "7bceb303c7ea287bc252343c4fdeb60ecfb8741e57c9927290d62cb3a1a05781",
    "interval-n3": "deb02da21d44444595aa5f72ccf61b2eabdefd0e3ee77aaadb27ade02d11b47e",
    "repro": "0f319aaae651ad68da425e053d8bfe1c2e91235941ecebf82345b205f7f48102",
    "repro-seed7": "a651c496f0a78bca14b452b54778d325c5246e88110aafa1bf65b5a8b9d28fc3",
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
