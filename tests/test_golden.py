"""Output bytes pinned as sha256 digests of stdout and of the --svg file.

The digests were taken from the per-row formatting code that the array
writers replaced; any change to a CSV, JSON or SVG byte fails here.  The
printed digits depend on floating-point results, so a platform whose
numpy rounds a quadrature sum differently may need new digests.
"""

import hashlib
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
     '9052e1f01dd7a4aa7de6d1464217b3b118899b3b51595f364e1fcc42d5864f6f',
     None),
    ('sweep --modes 0:0,1:1,2:3,5:0,7:7,32:32 --eta-min 0 --eta-max 3 --steps 257',
     'bb81fc3da5b687abd3f87daae39f4174d877de70e8b17f0f43e761c94d75bfe4',
     None),
    ('sweep --modes 0:0,1:1,2:3,5:0,7:7,32:32 --eta-min 0 --eta-max 3 --steps 257 --format json',
     'd303b36ec90ae0045b7548f04fb550384a08bbe58a007370a7bacedfe1c2635a',
     None),
    ('sweep --modes 2:2 --steps 101 --svg',
     '17e6708df556df3b0693594c68804edd34d6a0a4d15e71c476e9a93cbd3f94a0',
     'dbaacb522b7d11e2241ddb3219919611f1e119264671e0cb22b05ce8af7efa7d'),
    ('sweep --modes 0:0,1:1,2:3,5:0,7:7,32:32 --steps 201 --svg',
     '4036b3dca762681503674fc85e513270018ad37fb38264e1b901efc1f80a8d7f',
     '708cde80d5bcb9361d96c8c19baff524dbeb82f4cf4090a44490526b0c67f760'),
    ('sweep --modes 0:0,1:1,2:3,5:0,7:7,32:32 --steps 201 --format json --svg',
     'ee116726ff307987b30f66fbfd30f470ce529fdc8470675717a23c78a6c0d4ca',
     '708cde80d5bcb9361d96c8c19baff524dbeb82f4cf4090a44490526b0c67f760'),
    ('sweep --modes 0:0,3:1 --eta-min -2.5 --eta-max -0.25 --steps 99',
     '80f780c6e12b96a64252800a6a6e0c46e46ce390531461c7cde6f428f3e0b253',
     None),
    ('sweep --modes 0:0,3:1 --eta-min -2.5 --eta-max -0.25 --steps 99 --format json --svg',
     '1cbac1d4a1f74ac0712ac4aa49c8d87f49c74cf478b003ad78fc21764320a6a6',
     'a8b6e345eebd2ec7f1d244204e767290c8328e7492423f70b7a7e43294c6d0a7'),
    ('threshold',
     '92d2266a6b2f022b6f533a1056ff8c64a988e6fe57a3ef7edf7875e60a41aa16',
     None),
    ('threshold --format json',
     'a7e9b606c0473979e238c5d88950d30106c62f6657c22c554fa207814f62937c',
     None),
    ('threshold --n-max 32 --m-max 32',
     'd813e2a965a31e6dbc4f774652fec9df9c0906ac083247a4608875765fe64330',
     None),
    ('threshold --n-max 32 --m-max 32 --format json',
     'c63ee6fb635de66f3cb032b8ffcc19146ef43d24339fc13186ca922d8d4a257c',
     None),
    ('criterion --n 3 --m 2 --eta 0.4',
     '7da5aba071fb8fb6aa7bb2004a94db5e73500c54fc103c7347ff932c28805b1e',
     None),
    ('criterion --n 32 --m 7 --eta -1.3',
     '0ca82d268e74fddd1e6ca8d568de9b9af9efc9e9c433fa63c8c4ddb9eae9d154',
     None),
    ('diagonalize --m1 2 --m2 0.5 --A 3 --B 1 --C -0.4',
     '98126aaa26584f035e8fc9f7a53aece23ec426e4e2c3d33494fe599872ff2cc6',
     None),
    ('wavefunction',
     'dfe4beb814d77c220a2e59c4a85e7008374c44f4b6959a8e4b67cffe292a4640',
     None),
    ('wavefunction --n 2 --m 1 --eta 0.7 --space momentum',
     '6c78277171d6012666e5c6acb18d96a1d1db0cc8509c37ff8c425f2712316f66',
     None),
    ('wavefunction --n 3 --m 2 --eta -0.4 --steps 203',
     'f0f36c06c5a6624fb96868958fb438d78934d747116ce6c66cb4e4f465e88bc8',
     None),
    ('wavefunction --n 1 --m 4 --eta 1.3 --space momentum --u-min -6 --u-max 5 --steps 203',
     '2d3ec3ced958a50c51b0c3dd98a0611455acdb14632b1e9d554b3a1636be37a5',
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
_VALUES = {
    "float": _FLOATS,
    "int": st.integers(min_value=-(2**63), max_value=2**63 - 1),
    "bool": st.booleans(),
}


@st.composite
def _records(draw):
    keys = draw(st.lists(st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True),
                         min_size=1, max_size=6, unique=True))
    kinds = [draw(st.sampled_from(sorted(_VALUES))) for _ in keys]
    rows = draw(st.lists(st.tuples(*(_VALUES[k] for k in kinds)), max_size=8))
    return [dict(zip(keys, row)) for row in rows]


@given(_records())
def test_json_records_matches_json_dumps(records):
    keys = list(records[0]) if records else ["eta"]
    columns = [(key, [r[key] for r in records]) for key in keys]
    assert cli._json_records(columns) == json.dumps(records, indent=2) + "\n"
