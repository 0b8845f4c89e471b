"""Same outputs, as one checked table.

For each catalog group, ``cli.main`` runs in process on fixed inputs, and
the sha256 of each output is compared with one entry of ``GOLDEN``, keyed
by (command, group) or, for the verifier, (command, group, K):

- ``verify-group``;
- ``average`` of a form that no nontrivial holonomy fixes;
- ``approximate -d 1000`` of a decimal target;
- ``embed --integralize --report`` at that average;
- ``selberg --verify-words K`` for K = 3 and 6, with the embedding's
  images as ambient generators and the images of the group's translation
  generators as the unipotent ones (at K = 6 several balls have a bound
  above ``MAX_WORD_BALL``, so both searches of the verifier are pinned);
- ``density --torus-manifold --json`` on two seeded targets: its stdout,
  CSV and JSON.

Every command exits 0. A change that moves an output updates only the
entries it names; ``python tests/test_golden.py`` prints the current table.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from flatcusps.bieberbach import catalog, catalog_names
from flatcusps.cli import main

GOLDEN = {
    ('verify-group', 'torus-1'): '9aa904f4e7e4c978cda1c837d1393e41dfae7d9415f258385b91668f8aa5ec2a',
    ('average', 'torus-1'): '1e253c566839100cbcfee611a76c264b5d6e8fa6c98a5946b8e27fd0fa861617',
    ('approximate', 'torus-1'): '73357280ee68e03e882c6600f81897f7d005eb34e7d97bfa91567eed9fb0529d',
    ('embed', 'torus-1'): 'cfa6685c95d9612f581444002841fe706973a7315abbc4f17d31be1421928a91',
    ('selberg', 'torus-1', 3): '2bd967f9b52d07bfeb914643ee7dd89e42b8ec1d83ce4ad31747b5ebf432c956',
    ('selberg', 'torus-1', 6): '2bd967f9b52d07bfeb914643ee7dd89e42b8ec1d83ce4ad31747b5ebf432c956',
    ('density', 'torus-1'): '6a1eeb698bfae34a6dade38783959eb8148176f182fe9305ade7e83402327414',
    ('verify-group', 'torus-2'): '9a64679a9f9709a2c1afbd833b95d2090bd3d06cdd2d507667db7e552de1aae8',
    ('average', 'torus-2'): 'd77d89599ba85ec8a4617f38578973828d557868305c0eb3cdaecfbd072c3bbd',
    ('approximate', 'torus-2'): 'a9531fe4d514d5e830d5836cc61607f59372f890bcc4f5d0d122bea493620ad6',
    ('embed', 'torus-2'): '5fe1467c822e96b51b49720ba3467fac8346db07a795de3503ac388898ffd22a',
    ('selberg', 'torus-2', 3): '0b456e9b040264c824296c3bfe5748da684a52fb7dbfece6acecb58c7f1b14ff',
    ('selberg', 'torus-2', 6): '0b456e9b040264c824296c3bfe5748da684a52fb7dbfece6acecb58c7f1b14ff',
    ('density', 'torus-2'): 'b08584a60a02d6c255a34eb973234790cb92d5bf7fc76eb5f3dc93cb32ac3607',
    ('verify-group', 'torus-3'): 'bfe8ecbb647ab8d2725f3e7f9246e5e7132387fc4cbad691d2f74af58ba9b86a',
    ('average', 'torus-3'): '49f8e5570308bffb2b4fefe950e855c5c6c6162d807cdd3ae3053f8f35d784a9',
    ('approximate', 'torus-3'): '9fa230d872b188473ab1a5a26c495f271aa35652eac9e3914cb9981dd89581b0',
    ('embed', 'torus-3'): '8e0b8ca00c73d38dfb9f9383d577320c14a387d81cdbfd3fed9f52ad534e5e74',
    ('selberg', 'torus-3', 3): 'b4609dcb11bae3a7d7a3316f22e9edb66f2ee4861ea8c499dee31ca425f263d5',
    ('selberg', 'torus-3', 6): 'b4609dcb11bae3a7d7a3316f22e9edb66f2ee4861ea8c499dee31ca425f263d5',
    ('density', 'torus-3'): '225c2b29194d38eaac426edb14cb9e97d4e7e2a67745637e7a14163f0f847340',
    ('verify-group', 'torus-4'): 'e00d22da8d4e90c4d9524e07421efec6ee687ce2cd13c6d9ddf52100d2e46eee',
    ('average', 'torus-4'): '7152ea1ffa793a31aba85f8d80949fa4ecfcdbece168e70facbf128a50f1f327',
    ('approximate', 'torus-4'): '022ecf07ae7b053a02d75b57610249332356cc883b986870266ccb75beb0deec',
    ('embed', 'torus-4'): 'bf6c8a9d67f0b84bb825340d10c5baa53a4e7e340292f9028dfe0b213627c504',
    ('selberg', 'torus-4', 3): '8d4aed4d076a086d101f613c15d1741e0f3be14937e7f903e9cd4e5bee1f4be5',
    ('selberg', 'torus-4', 6): '8d4aed4d076a086d101f613c15d1741e0f3be14937e7f903e9cd4e5bee1f4be5',
    ('density', 'torus-4'): 'd1354d882206459fda22eaea35d038f6afb535059c48a97c2ccfae39f63251ed',
    ('verify-group', 'torus-5'): 'a9e15e7b94bdb927bdeea334683c808c6136c69c6390102cd9aeb40647aa818d',
    ('average', 'torus-5'): 'd14a5ae252dc56d057068388a73cb1ef4a379ebf91f551f4537974ba154a4040',
    ('approximate', 'torus-5'): '2d80cb9e353ca21648a89af9f4c3b6cd46a20542a5b493bb2573fcd343beba1d',
    ('embed', 'torus-5'): 'd2a96c343176285b54bedd0661f17d5182e4d4e8ff338e6005cc73e9b3a19135',
    ('selberg', 'torus-5', 3): '80f95453e3735c4ad637ac2e406f68d0443a3bbf2fdf435e7442d45761212b71',
    ('selberg', 'torus-5', 6): '80f95453e3735c4ad637ac2e406f68d0443a3bbf2fdf435e7442d45761212b71',
    ('density', 'torus-5'): '9ba07f047feb08836541282e79a2450101a9dba12e9f421f29849973f1f77a77',
    ('verify-group', 'torus-6'): 'b92f14d01c501d7dd57756fd698e8a1cbcb3350f10683e310564157a520b60e0',
    ('average', 'torus-6'): '1c2582519af5d21cfbe89be585b911130ce70f001b55b05fcee037896e8f80e0',
    ('approximate', 'torus-6'): 'eef141e42d0faf9f0a2825dd5ed77cea72818e20362f55e3a6ceb477a453b2ca',
    ('embed', 'torus-6'): '12e3a019eff826cee41c7d6a03b4b4b3981076475d9f4b28681813ac745e1559',
    ('selberg', 'torus-6', 3): 'a2027ba30047e3686338b3eeb212edf1c02b020c16d3efc7241bab2797c869cd',
    ('selberg', 'torus-6', 6): 'a2027ba30047e3686338b3eeb212edf1c02b020c16d3efc7241bab2797c869cd',
    ('density', 'torus-6'): '2d11e2e5a2bf282dd467e6808dfc887bffa470082bd8a198ff42eb96d2deda48',
    ('verify-group', 'klein'): '0d5076813caa44552343c42099d9e46f64f23bacb8e1303b9a43891eebb77d0d',
    ('average', 'klein'): '59bdfdb3f6756c5be7727dbe9d66434efdc6806a1908be152fba379fc6db86a3',
    ('approximate', 'klein'): '24729248becb10d45cae9c00e7e4096db70ef0c18cece93e4ce814e15c04422e',
    ('embed', 'klein'): '9f1a23d75caad98cd7850667cad2363d8319e5132585180939537a8b020219c9',
    ('selberg', 'klein', 3): '0b456e9b040264c824296c3bfe5748da684a52fb7dbfece6acecb58c7f1b14ff',
    ('selberg', 'klein', 6): '0b456e9b040264c824296c3bfe5748da684a52fb7dbfece6acecb58c7f1b14ff',
    ('density', 'klein'): '192a3c88b55a685b2741e03470c6ec8fec0ec6f6b105f085b4586f0aa4f2d6c9',
    ('verify-group', 'half-turn'): '497d8d294bea9d6ddcc96a564840b4e9a0e5e25dd4526523dea0c084179fb312',
    ('average', 'half-turn'): '1331f6b72381e2a3e91d07aadb0ba3774f0a160b274a24ae017bf807519f6ae3',
    ('approximate', 'half-turn'): 'ae406b8db2564d8530f878eee84c97c5d6bada32204a492f3ce1a4880663e230',
    ('embed', 'half-turn'): '9e45dad33834e6a612746be9a8515e915b5dd51cb6ef852ae3f6a1d806e29653',
    ('selberg', 'half-turn', 3): 'b4609dcb11bae3a7d7a3316f22e9edb66f2ee4861ea8c499dee31ca425f263d5',
    ('selberg', 'half-turn', 6): 'b4609dcb11bae3a7d7a3316f22e9edb66f2ee4861ea8c499dee31ca425f263d5',
    ('density', 'half-turn'): '6858dbaea2ffaacc177b2d054d1a501f6d1cfc7aa6fe7a0d5fedfbfc63436c73',
    ('verify-group', 'third-turn'): 'a7b9c55cb69d2d70ebb3f2fb2c3ca267c3fea62e3e562f74ee5b61702fb80d28',
    ('average', 'third-turn'): '128052df2e0043a48792ce6b20142f0211f6ef35cb8a3678d3db1aa528f282e4',
    ('approximate', 'third-turn'): '2fc0359aed9c259597b598242e9d4bee96622ede2d348bd08d5df7116c0c0640',
    ('embed', 'third-turn'): '495ee54555cce1bc35204e140e12dbb097fecb2cbb7d7edc5c4f8b29983bd8ce',
    ('selberg', 'third-turn', 3): 'b4609dcb11bae3a7d7a3316f22e9edb66f2ee4861ea8c499dee31ca425f263d5',
    ('selberg', 'third-turn', 6): 'b4609dcb11bae3a7d7a3316f22e9edb66f2ee4861ea8c499dee31ca425f263d5',
    ('density', 'third-turn'): 'a6dbf199a69b223dbd7bbe88245da3e404e19653f2aab49cb231eb807cb8fb28',
    ('verify-group', 'quarter-turn'): '8b5509febf7865b7f41aaa705369869ca320cd67385f5d05c29b11087054243c',
    ('average', 'quarter-turn'): '1c7041d056169c278c2e5c7ac11512de20107ef78f31bd880f174fed5192ee47',
    ('approximate', 'quarter-turn'): '4a418c5191a1e61269e49e7bf394417ed12fc6f3145ef8427d7388ed7abcf0a7',
    ('embed', 'quarter-turn'): 'bcb5d7d86f0c5178eaf47c27c2e02a5b959ff9315f5b34fc4de22d287e4796ad',
    ('selberg', 'quarter-turn', 3): 'b4609dcb11bae3a7d7a3316f22e9edb66f2ee4861ea8c499dee31ca425f263d5',
    ('selberg', 'quarter-turn', 6): 'b4609dcb11bae3a7d7a3316f22e9edb66f2ee4861ea8c499dee31ca425f263d5',
    ('density', 'quarter-turn'): '1284de0e4bc151a46df795f976fbec6d708d5da743a2f3a2de3402111915db4e',
    ('verify-group', 'sixth-turn'): '006c4695ef842da79c9b97b75a29aacb5d9abab04e91b55909774eef6f70404d',
    ('average', 'sixth-turn'): '76d4c7f727fe256c058903aa8de7875393268264693e9358bd20bdae77f0e365',
    ('approximate', 'sixth-turn'): '19685168e263b74bf2180197520434eca06dde6f7e0903798e663db2230eef6e',
    ('embed', 'sixth-turn'): '32524199890f5a587cdaddd99a90ff157ce0e95b41c01d04cd70c289c0dd4b06',
    ('selberg', 'sixth-turn', 3): 'b4609dcb11bae3a7d7a3316f22e9edb66f2ee4861ea8c499dee31ca425f263d5',
    ('selberg', 'sixth-turn', 6): 'b4609dcb11bae3a7d7a3316f22e9edb66f2ee4861ea8c499dee31ca425f263d5',
    ('density', 'sixth-turn'): 'cf67c3cb5a8bf4cc3c18584e5739c8d3356f98f3d5ba09c0f4924cc229aaf5e1',
    ('verify-group', 'hantzsche-wendt'): '1edef36f06137714fb93b0e7682ab8240348a68605b1b750811b7202204759f7',
    ('average', 'hantzsche-wendt'): '102d17ba92e9d17ddf4562099d4ad39d4c909b58f44a3b4858f4b459a26ea0dd',
    ('approximate', 'hantzsche-wendt'): 'dbdb2dd62eccd04cb6f6a4771d5f5deeeee7d9c669f37654929c45ad09dcfa53',
    ('embed', 'hantzsche-wendt'): '457ca919526a1a1e43b926298369c7dcd620f20e2dcdda8c525572f4bd12d04c',
    ('selberg', 'hantzsche-wendt', 3): 'b4609dcb11bae3a7d7a3316f22e9edb66f2ee4861ea8c499dee31ca425f263d5',
    ('selberg', 'hantzsche-wendt', 6): 'b4609dcb11bae3a7d7a3316f22e9edb66f2ee4861ea8c499dee31ca425f263d5',
    ('density', 'hantzsche-wendt'): '6b1894e6c66ca837f231b8318464031f3f482d5040084cca83a9408e5a4a6d0f',
    ('verify-group', 'first-amphicosm'): 'b3ba28a932c02c47c64a986d6a70ff6edcf36b2b3844290284acaf90da2041c5',
    ('average', 'first-amphicosm'): 'b62be464f013f38c50172fbd8273852778b2ed83c0acbcefe2cf1ea58e217f96',
    ('approximate', 'first-amphicosm'): '8bd0b8fa7faf758a6c304838f8b808e07c4db69b2111fca799736c5193f5fbd9',
    ('embed', 'first-amphicosm'): '1f1ed59978a18e1fb9190b9cb8d50c72be900de70c294f7d44c15935039f5e8a',
    ('selberg', 'first-amphicosm', 3): 'b4609dcb11bae3a7d7a3316f22e9edb66f2ee4861ea8c499dee31ca425f263d5',
    ('selberg', 'first-amphicosm', 6): 'b4609dcb11bae3a7d7a3316f22e9edb66f2ee4861ea8c499dee31ca425f263d5',
    ('density', 'first-amphicosm'): 'af710934f5943cffc024b3e99261a3381785ef0e9522ee4549d699bda39664cb',
    ('verify-group', 'second-amphicosm'): 'a22da0685e860c30f5575cbbb0dabeab8b0621c792de7ed81f72f0ca9ee05c5b',
    ('average', 'second-amphicosm'): 'b62be464f013f38c50172fbd8273852778b2ed83c0acbcefe2cf1ea58e217f96',
    ('approximate', 'second-amphicosm'): 'a9e283b2f2ded56d8ffc3d9f819e09c94941c914b316277021f4a870f1539a72',
    ('embed', 'second-amphicosm'): 'cafe7fa66971d74479257b998d52b83fca4d29a60625357320317615735ba90b',
    ('selberg', 'second-amphicosm', 3): 'b4609dcb11bae3a7d7a3316f22e9edb66f2ee4861ea8c499dee31ca425f263d5',
    ('selberg', 'second-amphicosm', 6): 'b4609dcb11bae3a7d7a3316f22e9edb66f2ee4861ea8c499dee31ca425f263d5',
    ('density', 'second-amphicosm'): 'af710934f5943cffc024b3e99261a3381785ef0e9522ee4549d699bda39664cb',
}


def _write(path: Path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _run(*args: str) -> str:
    """The stdout of ``cli.main`` on ``args``, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(args))
    assert code == 0, (args, out.getvalue())
    return out.getvalue()


def _outputs(name: str, folder: Path) -> dict:
    """Each output of the group's commands, keyed as in ``GOLDEN``."""
    n = catalog(name).dim
    raw = [[str(i + 2 if i == j else Fraction(1, i + j + 2)) for j in range(n)] for i in range(n)]
    target = [[1.5 + i if i == j else 0.1 for j in range(n)] for i in range(n)]
    out = {
        ("verify-group", name): _run("verify-group", "-g", name),
        ("average", name): _run("average", "-g", name, "-f", _write(folder / "raw.json", {"matrix": raw})),
    }
    (folder / "avg.json").write_text(out["average", name], encoding="utf-8")
    out["approximate", name] = _run(
        "approximate", "-g", name, "-t", _write(folder / "target.json", {"matrix": target}), "-d", "1000"
    )
    out["embed", name] = _run("embed", "-g", name, "-f", str(folder / "avg.json"), "--integralize", "--report")
    embedding = json.loads(out["embed", name])["embedding"]
    images = embedding["images"]
    size = len(images[0])
    translations = [
        image for image, g in zip(images, embedding["group"]["generators"])
        if all(x == str(int(i == j)) for i, row in enumerate(g["linear"]) for j, x in enumerate(row))
    ]
    lam = _write(folder / "lam.json", {"n": size, "generators": images})
    gam = _write(folder / "gam.json", {"n": size, "generators": translations})
    for k in (3, 6):
        out["selberg", name, k] = _run("selberg", "-l", lam, "-u", gam, "--verify-words", str(k))
    with _chdir(folder):
        stdout = _run(
            "density", "-g", name, "--samples", "2", "--denoms", "10,1000", "--seed", "8",
            "--torus-manifold", "-o", "rows.csv", "--json", "rows.json",
        )
    out["density", name] = stdout + (folder / "rows.csv").read_text() + (folder / "rows.json").read_text()
    return out


@contextlib.contextmanager
def _chdir(folder: Path):
    """``contextlib.chdir``, which Python 3.10 lacks: the density command
    prints the path it wrote, so it writes into the working directory."""
    saved = os.getcwd()
    os.chdir(folder)
    try:
        yield
    finally:
        os.chdir(saved)


def _digests(name: str, folder: Path) -> dict:
    return {key: hashlib.sha256(text.encode()).hexdigest() for key, text in _outputs(name, folder).items()}


@pytest.mark.parametrize("name", catalog_names())
def test_outputs_match_the_table(name, tmp_path):
    digests = _digests(name, tmp_path)
    assert digests == {key: value for key, value in GOLDEN.items() if key[1] == name}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for name in catalog_names():
            for key, digest in _digests(name, Path(scratch)).items():
                print(f"    {key!r}: {digest!r},")
