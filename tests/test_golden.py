"""Output bytes pinned as sha256 digests of stdout and of the --svg file.

The digests were taken from the per-row formatting code that the array
writers replaced; any change to a CSV, JSON or SVG byte fails here.  The
printed digits depend on floating-point results, so a platform whose
numpy rounds a quadrature sum differently may need new digests.  The SVG
digests are of plots that draw each sweep curve as its one segment.
"""

import csv
import hashlib
import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seec import cli

GOLDEN = [
    ('sweep --modes 1:1 --steps 41',
     '645d40040514b69ab82bdae37218bfdca7e6c9747d1b173cfc1780a18bc62370',
     None),
    ('sweep --modes 1:1 --steps 41 --format json',
     'b2d1bf1dd180c35e49521e2b4e456e7a9cb3bbb9d388ea381d419afd5e580585',
     None),
    ('sweep --modes 0:0,1:1,2:3,5:0,7:7,32:32 --eta-min 0 --eta-max 3 --steps 257',
     '9991838f7057fb029889a5f75f6c97b4517127a4922cd205dbcc99817c1b8135',
     None),
    ('sweep --modes 0:0,1:1,2:3,5:0,7:7,32:32 --eta-min 0 --eta-max 3 --steps 257 --format json',
     'fdbc0dab6a89db06d66ba094611114b54410080e1ac90064b3c528096bfba8fc',
     None),
    ('sweep --modes 2:2 --steps 101 --svg',
     '63fc5081598492ba30e10ecdba14692c725a506b8683e4a14f4f1f8a101e973c',
     'cf947261b7cb7b0239f66de9e7367b826c45231f34d1fea8defeda08754a425f'),
    ('sweep --modes 0:0,1:1,2:3,5:0,7:7,32:32 --steps 201 --svg',
     'f223be725b1e15e47c9a40f017d67a1a750cc3b99c9252121def6d97af0a72aa',
     'dada22857523eb2e04325fc18426be9ce1dbdbdb62dbb4c65f300c0f9f1e7a67'),
    ('sweep --modes 0:0,1:1,2:3,5:0,7:7,32:32 --steps 201 --format json --svg',
     'f980fa0ee22fc1535e0fc8c62de20e8fb96c38cfaa5d9e6f4e0ff85f712a562d',
     'dada22857523eb2e04325fc18426be9ce1dbdbdb62dbb4c65f300c0f9f1e7a67'),
    ('sweep --modes 0:0,3:1 --eta-min -2.5 --eta-max -0.25 --steps 99',
     '80f780c6e12b96a64252800a6a6e0c46e46ce390531461c7cde6f428f3e0b253',
     None),
    ('sweep --modes 0:0,3:1 --eta-min -2.5 --eta-max -0.25 --steps 99 --format json --svg',
     'a4610463d1b13570713e54c9461f9ce992834f9e3309a03d2a030101af4502b4',
     'ac91e55c397b19a5601a59a42fbcdebf8ea4a9601877beb292069119724ddb56'),
    ('threshold',
     '92d2266a6b2f022b6f533a1056ff8c64a988e6fe57a3ef7edf7875e60a41aa16',
     None),
    ('threshold --format json',
     '00ffe095cba744a8127542d4d113b3f8006b2afe208111d9a2cd399efd49d56c',
     None),
    ('threshold --n-max 32 --m-max 32',
     '03a6827d68ae6572d9073adabaea6ee4a2becdddb74be394ed564688bce3132e',
     None),
    ('threshold --n-max 32 --m-max 32 --format json',
     '97506d3c6bfc4289a764146a91fed813b300caa21a800ddedb96e15f578904e4',
     None),
    ('threshold --n-max 64 --m-max 64',
     '79dd2a8dcb645ffed11a60311280ba0e0e307b77a74cd743cf74cc50ec86fdec',
     None),
    ('criterion --n 3 --m 2 --eta 0.4',
     'a15108bb58205d3e2a0d9dceeb9db801c84784d28dbf0ba5c2b8d96a24c447a5',
     None),
    ('criterion --n 32 --m 7 --eta -1.3',
     '454e7088f0fe794b76ae94183bd057c6aa1b298ce3e27194b943c6c5295a3c37',
     None),
    ('diagonalize --m1 2 --m2 0.5 --A 3 --B 1 --C -0.4',
     '9da2fd4ebfd7448cb785d234d63b6ee262fc6184df13c5413220c21bd731034f',
     None),
    ('wavefunction',
     'dfe4beb814d77c220a2e59c4a85e7008374c44f4b6959a8e4b67cffe292a4640',
     None),
    ('wavefunction --n 2 --m 1 --eta 0.7 --space momentum',
     '6c78277171d6012666e5c6acb18d96a1d1db0cc8509c37ff8c425f2712316f66',
     None),
    ('wavefunction --n 3 --m 2 --eta -0.4 --steps 203',
     '86e8fd59a821b5f80eaa7cd3572f445403999ec764c408fb20637983876b040e',
     None),
    ('wavefunction --n 1 --m 4 --eta 1.3 --space momentum --u-min -6 --u-max 5 --steps 203',
     'b45deb1bf2b8b4348fd75d89a58db9d198a9575953a0db7942b2db60e3aad8ca',
     None),
]


@pytest.mark.parametrize("command,stdout_sha,svg_sha", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_output_bytes(command, stdout_sha, svg_sha, tmp_path, capsys):
    argv = command.split()
    svg = tmp_path / "plot.svg"
    if "--svg" in argv:
        argv.insert(argv.index("--svg") + 1, str(svg))
    assert cli.main(argv) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == stdout_sha
    if svg_sha is not None:
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == svg_sha


_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 1e-300])
_INTS = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_TEXT = {
    "json": lambda value: cli._BOOL_TEXT[value] if type(value) is bool else repr(value),
    "csv": lambda value: (cli._BOOL_TEXT[value] if type(value) is bool
                          else "%.12g" % value if type(value) is float else str(value)),
}


@st.composite
def _blocks(draw):
    """Keys, the positions of the cells and the values among them, and 1 to
    4 blocks of 1 to 6 rows: (shared fields, cells, values) each."""
    keys = draw(st.lists(st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True),
                         min_size=2, max_size=6, unique=True))
    cell, value = draw(st.permutations(range(len(keys))))[:2]
    cell_kind = draw(st.sampled_from([_FLOATS, _INTS]))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        rows = draw(st.integers(1, 6))
        blocks.append((draw(st.lists(_FLOATS | _INTS | st.booleans(), min_size=len(keys),
                                     max_size=len(keys))),
                       draw(st.lists(cell_kind, min_size=rows, max_size=rows)),
                       draw(st.lists(_FLOATS, min_size=rows, max_size=rows))))
    return keys, cell, value, blocks


@given(_blocks())
def test_writers_match_json_dumps_and_csv_writer(case):
    keys, cell, value, blocks = case
    records = []
    for shared, cells, values in blocks:
        for c, v in zip(cells, values):
            row = list(shared)
            row[cell], row[value] = c, v
            records.append(row)

    def text(fmt):
        field, writer = cli._RECORDS[fmt]
        blocks_in = []
        for shared, cells, values in blocks:
            texts = list(map(_TEXT[fmt], shared))
            texts[cell], texts[value] = cli._CELLS, field
            blocks_in.append((texts, cli._CELLS.join(map(_TEXT[fmt], cells)), values))
        return "".join(writer(keys, iter(blocks_in)))

    assert text("json") == json.dumps([dict(zip(keys, r)) for r in records], indent=2) + "\n"
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [keys] + [list(map(_TEXT["csv"], r)) for r in records])
    assert text("csv") == out.getvalue()
