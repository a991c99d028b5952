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
     'dec75eaa0add9d46773caca9bca540b94815aaad7c8863e9724b6626ac5014ad',
     None),
    ('sweep --modes 0:0,1:1,2:3,5:0,7:7,32:32 --eta-min 0 --eta-max 3 --steps 257',
     '9991838f7057fb029889a5f75f6c97b4517127a4922cd205dbcc99817c1b8135',
     None),
    ('sweep --modes 0:0,1:1,2:3,5:0,7:7,32:32 --eta-min 0 --eta-max 3 --steps 257 --format json',
     '6584528d90cf7108508cb22de55122f9ad1ec571258f29c75abe86f7bac56471',
     None),
    ('sweep --modes 2:2 --steps 101 --svg',
     'e7dafaa64f61d9b1fe215c6c44570e2493948366e740b504315434f3654e3e96',
     'cf947261b7cb7b0239f66de9e7367b826c45231f34d1fea8defeda08754a425f'),
    ('sweep --modes 0:0,1:1,2:3,5:0,7:7,32:32 --steps 201 --svg',
     'fe05f7eab8713d13a3cbf3a078c38944887150d7322b062e332e5997950d0e11',
     'dada22857523eb2e04325fc18426be9ce1dbdbdb62dbb4c65f300c0f9f1e7a67'),
    ('sweep --modes 0:0,1:1,2:3,5:0,7:7,32:32 --steps 201 --format json --svg',
     '95d2b02310a208911062616314b95613f005af2b398910aa4c4f73d6e61e4c5a',
     'dada22857523eb2e04325fc18426be9ce1dbdbdb62dbb4c65f300c0f9f1e7a67'),
    ('sweep --modes 0:0,3:1 --eta-min -2.5 --eta-max -0.25 --steps 99',
     '80f780c6e12b96a64252800a6a6e0c46e46ce390531461c7cde6f428f3e0b253',
     None),
    ('sweep --modes 0:0,3:1 --eta-min -2.5 --eta-max -0.25 --steps 99 --format json --svg',
     'bba8ad3f8cb551788b56f314d9e14a69d534e6e9d87036f6fe02e336a9c88895',
     'ac91e55c397b19a5601a59a42fbcdebf8ea4a9601877beb292069119724ddb56'),
    ('threshold',
     '92d2266a6b2f022b6f533a1056ff8c64a988e6fe57a3ef7edf7875e60a41aa16',
     None),
    ('threshold --format json',
     '3d4f45a0367bf64ec14a33c8007483c38a1ffbb49e0a06eb14361fee0edd0c9a',
     None),
    ('threshold --n-max 32 --m-max 32',
     '03a6827d68ae6572d9073adabaea6ee4a2becdddb74be394ed564688bce3132e',
     None),
    ('threshold --n-max 32 --m-max 32 --format json',
     'ed7a75e9b5334cfa482129dbbba0f8fbf6d92c94e9bdad465feca5ce202f504e',
     None),
    ('threshold --n-max 64 --m-max 64',
     '980088001c5c9d8bcb4531ee837e82fa3ee63e92c9ceff695d0cd74a1b2cc855',
     None),
    ('criterion --n 3 --m 2 --eta 0.4',
     '4505958c44a82a129bb4a0557906ce69dac72dab10857eeacffdfded8e2edb84',
     None),
    ('criterion --n 32 --m 7 --eta -1.3',
     '122caf8678e49eb792c002dac0d4db1e87326f80f5953e5da1696c89c7ddf3ab',
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
     '36c67a5ec2959ea487e7317676849d68c63a3ed367b32c6aea467e58bf842826',
     None),
    ('wavefunction --n 1 --m 4 --eta 1.3 --space momentum --u-min -6 --u-max 5 --steps 203',
     'aaae9d537034c31c73e3ff65288c65784d26adf2d4f290438ba7f15c1b264c28',
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
