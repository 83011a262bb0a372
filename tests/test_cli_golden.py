"""CLI output stays byte-identical to digests recorded when each case was added.

Each case runs ``cli.main`` in this process, in a fresh directory with
relative file names (``generate`` prints the paths it was given), and
compares the sha256 of every file the command writes. A change to the
library that alters one of these bytes changes what users see; such a
change re-records the digest and says why. ``certify`` is left out: its
eigenpair comes from BLAS dot products and LAPACK's ``eigh``, whose rounding
can differ by machine.
"""

import hashlib

import pytest

from sparsecut import cli

GRAPHS = {
    "ring.txt": ["ring-of-cliques", "--r", "4", "--s", "5"],
    "barbell.txt": ["barbell", "--s", "7"],
    "path.txt": ["path", "--n", "1500"],
    "er.txt": ["erdos-renyi", "--n", "25", "--p", "0.3", "--rng-seed", "3"],
}

# case name -> (argv, {file the command writes: sha256})
COMMANDS = {
    "global": (
        ["global", "ring.txt", "--k", "22", "--epsilon", "0.01", "--members-out", "members"],
        {
            "out": "a1941f022c74d8a2d7768af52a7c0c023c9d9534b87963981c879ce233b72be9",
            "members": "026d8ad3dfa1f2aa9da7964947ddedd4e83c6fc008206ebf898699dea80f9804",
        },
    ),
    "global-er": (
        ["global", "er.txt", "--k", "30", "--epsilon", "0.01"],
        {"out": "1ae1663e41b006f1894011938092bbd67c923bed2b6fe13a74adb6c6f762111e"},
    ),
    "global-tight": (
        ["global-tight", "barbell.txt", "--k", "44", "--epsilon", "0.5",
         "--members-out", "members"],
        {
            "out": "ef26ebebd45f74193ea082be5b0e89dca30e5c283e94e42d33bb0e974bad8910",
            "members": "d28a59f6173184f7ca72607394ee0595bd89786b2df86f7495aa7408c87aa872",
        },
    ),
    "local-found": (
        ["local", "ring.txt", "--seed", "0", "--k", "22", "--phi", "0.0909", "--epsilon", "0.2",
         "--members-out", "members"],
        {
            "out": "c855e7c828953f0bbacb7c3b9984c2567a0b5c8df18de9f47c45c356576010bb",
            "members": "a6d69027a4225f01f94d3ce29280ababc243470275412356ff551004151a0748",
        },
    ),
    "local-not-found": (
        ["local", "er.txt", "--seed", "4", "--k", "5", "--phi", "0.001", "--epsilon", "0.5",
         "--members-out", "members"],
        {
            "out": "01e9fa936296cb48db49702abcb0003cd152ddf93005197ae58c8d17fef62524",
            "members": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
    ),
    "curve-exact": (
        ["curve", "ring.txt", "--seed", "0", "--steps", "10"],
        {"out": "1d952fd3ef6d11c97014c9dbb06936988243647491617176d71ead19f9ff4554"},
    ),
    "curve-truncated": (
        ["curve", "ring.txt", "--seed", "0", "--steps", "10", "--truncation", "0.001"],
        {"out": "a25a34d6c098158327f046d9f29538d06d087ec60ed6d740d216f8881d5d65a3"},
    ),
    "curve-path-exact": (
        ["curve", "path.txt", "--seed", "0", "--steps", "700"],
        {"out": "334fa08305e15578fa2703ec45c07659aa95c77073c84bf5fefa95e236ad3097"},
    ),
    "curve-path-truncated": (
        ["curve", "path.txt", "--seed", "0", "--steps", "700", "--truncation", "1e-6"],
        {"out": "391819d7f0d9f6e368aea495acb485d4c801f1676535983413c1df75e07a9f2e"},
    ),
    "load-ring": (
        ["load", "ring.txt"],
        {"out": "64ab413ae1bf4c3287054a6fd2c766952ab401436cd75f2ad53037345c9af570"},
    ),
    "load-barbell": (
        ["load", "barbell.txt"],
        {"out": "5da1775cf8e99455678bdc7fc75d0768063ad2c6d5ca14f8674c62654b1f7a73"},
    ),
    "load-path": (
        ["load", "path.txt"],
        {"out": "572c5b2a5dcf574913a2bdc4976095763b33dc253e67a6e8b96cf5dc2884fc95"},
    ),
    "load-er": (
        ["load", "er.txt"],
        {"out": "a3dd46e1ed9124cd1fd5250fdcd95c5703d38b47dea5ac6fb8db97f32714b61a"},
    ),
    "load-empty": (
        ["load", "empty.txt"],
        {"out": "33451a08945fec7dff4945f3c3f23d90098905299a479568a666cf3fba73f125"},
    ),
    # er.txt has 25 vertices, past the 22 that exhaustive enumeration allows
    "oracle": (
        ["oracle", "ring.txt", "--k", "30", "--members-out", "members"],
        {
            "out": "052ca06babd1ae4d1fb26ae62c04027817738d5438c35b1416ba7cb203714815",
            "members": "026d8ad3dfa1f2aa9da7964947ddedd4e83c6fc008206ebf898699dea80f9804",
        },
    ),
}

GENERATED = {
    "ring.txt": "e4faa6b8e5a7e7d5e297044c551a934d4ffbb512009d8c1c6353de6f5acfb129",
    "ring.txt.meta": "4750be0bfbd11b251c3f12be47da43f7866b09087c4335865f61dbc1c5b8bfe6",
    "ring.txt.out": "0487259718d2ff47504ce42945b92ddabe50754bb580695b9086568784b8321d",
    "barbell.txt": "6eac60687ab41f07967cfe4babd937db4ec65b14389cb76a02d5a77d685e6991",
    "barbell.txt.meta": "8ffa2e136cd99127a09d8519ac8dbf55c2890412bae7628f1ee8cca782e5a691",
    "barbell.txt.out": "0bfb29d5f05c3e02caef1aab5dd34781ebcbee5dd5b8a1699ce249e7772e2b2c",
    "path.txt": "abbd8548f25bf88ccdc04c72af925a358f674d73078a8b83e08425e87916cb18",
    "path.txt.meta": "a5e59280e53de8ab185d9616ebf2d4c465ffc43ea004f7148ef8e67b0fb16e5d",
    "path.txt.out": "ea10120e85cb56e795c8fca8afd18d6853da6c11492d5f05f980e0ddad0b0925",
    "er.txt": "b071a75b72fa278bf2f108316ecca61222de7762bf01abfc383b702c2120745d",
    "er.txt.meta": "211b6d259fee8b6e85e80a4389f7d2f68fb05236eb2311f3bf20a93eb452c1ab",
    "er.txt.out": "785e9ab5815a5db3e00663f8baa773a0e150ad0c9ec80211a087daf9602bde7b",
}


def digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, family in GRAPHS.items():
        assert cli.main(["--output", name + ".out", "generate", *family, "--out", name]) == 0
    (tmp_path / "empty.txt").write_bytes(b"")
    return tmp_path


def test_generate_bytes(workdir):
    assert digests(workdir, GENERATED) == GENERATED


@pytest.mark.parametrize("case", sorted(COMMANDS))
def test_command_bytes(workdir, case):
    argv, expected = COMMANDS[case]
    assert cli.main(["--output", "out", *argv]) == 0
    assert digests(workdir, expected) == expected
