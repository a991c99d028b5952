"""The package imports lazily, no command but verify imports numpy or
inspect, and none imports dataclasses.  Where numpy cannot be imported, as
in an install without it, those commands write the same bytes and verify
exits 1 with one line.

Each case runs in a fresh interpreter, since this test process has numpy
loaded already.
"""

import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import seec
from test_golden import GOLDEN

SRC = os.path.dirname(os.path.dirname(os.path.abspath(seec.__file__)))

# runs seec's CLI on argv, then reports on stderr's last line which of
# numpy, dataclasses and inspect were imported
CLI_SCRIPT = """
import sys
from seec import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
loaded = [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules]
sys.stderr.write("imported: %s\\n" % " ".join(loaded))
sys.exit(code)
"""


# seec's CLI on argv where `import numpy` raises ModuleNotFoundError, as it
# does where numpy is not installed
NO_NUMPY_SCRIPT = """
import sys
sys.modules["numpy"] = None
from seec import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def run_python(code, *args, cwd=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, cwd=cwd
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_cli(*args, cwd=None):
    code, out, err = run_python(CLI_SCRIPT, *args, cwd=cwd)
    *lines, last = err.splitlines()
    return code, out, lines, last.split()[1:]


def test_bare_import_loads_no_submodule():
    code, out, _ = run_python(
        "import sys, seec; print(sorted(m for m in sys.modules if m.startswith(('seec', 'numpy'))))"
    )
    assert code == 0
    assert out.strip() == "['seec']"


def test_version_skips_numpy():
    code, out, lines, loaded = run_cli("--version")
    assert code == 0 and out == f"seec {seec.__version__}\n" and lines == []
    assert loaded == []


# (argv, records in the output: None for a single JSON object)
NUMPY_FREE_COMMANDS = [
    (("diagonalize",), None),
    (("diagonalize", "--m1", "2", "--A", "3", "--B", "1.5", "--C", "0.4"), None),
    (("criterion",), None),
    (("criterion", "--n", "32", "--m", "7", "--eta", "-1e-3"), None),
    (("criterion", "--n", "64", "--m", "64"), None),
    (("threshold",), 36),
    (("threshold", "--format", "json"), 36),
    (("threshold", "--n-max", "32", "--m-max", "32"), 33 * 33),
    (("threshold", "--n-max", "32", "--m-max", "32", "--format", "json"), 33 * 33),
    (("threshold", "--n-max", "64", "--m-max", "64"), 65 * 65),
    (("sweep",), 4 * 201),
    (("sweep", "--format", "json"), 4 * 201),
    (("sweep", "--modes", "0:0,1:1,2:3", "--steps", "2001", "--svg", "plot.svg"), 3 * 2001),
    (("sweep", "--modes", "0:0,32:32", "--eta-min", "-1e-3", "--format", "json", "--svg",
      "plot.svg"), 2 * 201),
    (("sweep", "--modes", "64:64"), 201),
    (("wavefunction",), 41 * 41),
    (("wavefunction", "--n", "2", "--m", "1", "--eta", "0.7", "--space", "momentum"), 41 * 41),
    (("wavefunction", "--n", "12", "--m", "11", "--space", "momentum", "--steps", "401"),
     401 * 401),
]


@pytest.mark.parametrize("dest", ["stdout", "file"])
@pytest.mark.parametrize(
    "args,records", NUMPY_FREE_COMMANDS, ids=[" ".join(args) for args, _ in NUMPY_FREE_COMMANDS]
)
def test_scalar_commands_skip_numpy(args, records, dest, tmp_path):
    out_path = tmp_path / "out.txt"
    extra = ("--out", str(out_path)) if dest == "file" else ()
    code, out, lines, loaded = run_cli(*args, *extra, cwd=tmp_path)
    assert code == 0 and lines == []
    assert loaded == []  # neither numpy nor dataclasses nor inspect
    if dest == "file":
        assert out == ""
        text = out_path.read_text()
    else:
        assert not out_path.exists()
        text = out
    if records is None:
        assert isinstance(json.loads(text), dict)
    elif "json" in args:
        assert len(json.loads(text)) == records
    else:
        assert text.count("\n") == records + 1
    if "--svg" in args:
        assert (tmp_path / "plot.svg").read_text().count("<polyline") == args[2].count(":")


def test_scalar_errors_skip_numpy():
    for command, flag in (("threshold", "n-max"), ("criterion", "n")):
        code, out, lines, loaded = run_cli(command, f"--{flag}", "65")
        assert code == 1 and out == ""
        assert lines == [f"seec: error: {flag} must be in [0, 64], got 65"]
        assert "numpy" not in loaded


@pytest.mark.parametrize(
    "args",
    [
        ("--eta-min=-1e308", "--eta-max=1e308", "--out", "out.txt"),  # the span overflows
        ("--eta-max", "inf", "--svg", "plot.svg"),
    ],
    ids=" ".join,
)
def test_sweep_errors_skip_numpy(args, tmp_path):
    code, out, lines, loaded = run_cli("sweep", *args, cwd=tmp_path)
    assert code == 1 and out == "" and len(lines) == 1
    assert lines[0].startswith("seec: error: ") and "finite grid" in lines[0]
    assert "numpy" not in loaded
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ("--u-min=-1.7e308", "--u-max=1.7e308", "--out", "out.txt"),  # the span overflows
        ("--u-min=-inf", "--n", "64", "--m", "64"),
    ],
    ids=" ".join,
)
def test_wavefunction_errors_skip_numpy(args, tmp_path):
    code, out, lines, loaded = run_cli("wavefunction", *args, cwd=tmp_path)
    assert code == 1 and out == "" and len(lines) == 1
    assert lines[0].startswith("seec: error: u-min and u-max must span a finite grid, got [")
    assert "numpy" not in loaded
    assert list(tmp_path.iterdir()) == []


def test_array_command_imports_numpy():
    # the control for the cases above: run_cli does see each module when it
    # loads (numpy imports inspect); seec itself defines no dataclass
    code, _, lines, loaded = run_cli("verify", "--n-max", "0")
    assert code == 0 and lines == []
    assert loaded == ["numpy", "inspect"]


LAZY_SCRIPT = """
import json, sys
import seec
# before any name resolves and is cached in the module's globals
listed = set(seec.__all__) | {"criterion", "quadrature"} <= set(dir(seec))
try:
    import seec.specfun
    folded = False
except ModuleNotFoundError:
    folded = "specfun" not in dir(seec)
resolved = [name for name in seec.__all__ if getattr(seec, name) is not None]
checks = {
    "all": resolved == seec.__all__,
    "dir": listed,
    "same_object": seec.criterion_f is seec.criterion.criterion_f
    and seec.hermite_roots is seec.quadrature.hermite_roots
    and seec.RootSet is seec.quadrature.RootSet,
    "folded": folded,
    "oscillator": seec.oscillator.ModePair(1, 2).n == 1,
    "verification": callable(seec.verification.collect_checks),
    "unknown": not hasattr(seec, "hyp1f1_gauss"),
}
print(json.dumps(checks))
"""


def test_public_names_and_submodules_resolve_lazily():
    code, out, err = run_python(LAZY_SCRIPT)
    assert code == 0, err
    assert json.loads(out) == dict.fromkeys(
        ("all", "dir", "same_object", "folded", "oscillator", "verification", "unknown"),
        True,
    )


def test_scalar_library_calls_skip_numpy():
    code, out, err = run_python(
        "import sys, seec\n"
        "seec.threshold_eta0(3, 2)\n"
        "seec.standard_entropy(7)\n"
        "seec.criterion_f(32, 5, -0.4)\n"
        "seec.criterion_f(1, 1, 0.7).entangled\n"
        "seec.critical_coupling(5, 3)\n"
        "d = seec.diagonalize(seec.CoupledHamiltonian(1.0, 2.0, 3.0, 1.0, 0.5))\n"
        "seec.reconstruct(d)\n"
        "seec.energy(seec.ModePair(2, 1), d.eta)\n"
        "print('numpy' in sys.modules)\n"
    )
    assert code == 0, err
    assert out == "False\n"


def test_variance_threshold_skips_numpy():
    code, out, err = run_python(
        "import sys, seec\n"
        "print(seec.variance_threshold(3, 2), 'numpy' in sys.modules)\n"
    )
    assert code == 0, err
    assert out == f"{0.5 * math.log(35)} False\n"


def test_verification_skips_numpy_polynomial():
    # no route in seec imports numpy.polynomial: every base rule, of the
    # panel orders 32, 48 and 96 alone, is a frozen table, so verify and
    # the entropy quadrature at each panel order run without it
    code, out, err = run_python(
        "import sys\n"
        "from seec import quadrature, verification\n"
        "checks = verification.collect_checks(12)\n"
        "for q in (32, 48, 96):\n"
        "    quadrature.entropy_integral_numeric(32, q)\n"
        "print(all(c.status == 'ok' for c in checks), 'numpy' in sys.modules,\n"
        "      'numpy.polynomial' in sys.modules)\n"
    )
    assert code == 0, err
    assert out == "True True False\n"


def test_default_paths_call_no_lapack():
    # no route in seec calls LAPACK: every root set is unfolded from its
    # frozen table, and every base rule, of the panel orders 32, 48 and 96
    # alone, too.  So with numpy's eigensolvers made to raise, verify's
    # checks, every root set and Gauss-Hermite rule, and the entropy
    # quadrature at every panel order of every order still run; a direct
    # eigvalsh call shows the patch is live
    code, out, err = run_python(
        "import numpy.linalg\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('LAPACK eigensolver called')\n"
        "for name in ('eigvalsh', 'eigh', 'eigvals', 'eig'):\n"
        "    setattr(numpy.linalg, name, refuse)\n"
        "from seec import quadrature, scalars, verification\n"
        "checks = verification.collect_checks(12)\n"
        "for k in range(scalars.N_MAX + 1):\n"
        "    quadrature.hermite_roots(k)\n"
        "    for q in (32, 48, 96):\n"
        "        quadrature.entropy_integral_numeric(k, q)\n"
        "    if k:\n"
        "        quadrature.gauss_hermite_rule(k)\n"
        "print(all(c.status == 'ok' for c in checks))\n"
        "try:\n"
        "    numpy.linalg.eigvalsh([[1.0]])\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    assert code == 0, err
    assert out == "True\nLAPACK eigensolver called\n"


@pytest.mark.parametrize("command,stdout_sha,svg_sha", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_scalar_commands_run_without_numpy(command, stdout_sha, svg_sha, tmp_path):
    # the golden digests, which test_golden.py holds the run with numpy to
    argv = command.split()
    if "--svg" in argv:
        argv.insert(argv.index("--svg") + 1, "plot.svg")
    code, out, err = run_python(NO_NUMPY_SCRIPT, *argv, cwd=tmp_path)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == stdout_sha
    if svg_sha is not None:
        assert hashlib.sha256((tmp_path / "plot.svg").read_bytes()).hexdigest() == svg_sha


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_verify_without_numpy_exits_one_with_one_line(fmt, tmp_path):
    out_path = tmp_path / "out.txt"
    out_path.write_bytes(b"old bytes\n")
    for out in ((), ("--out", str(out_path))):
        code, stdout, err = run_python(
            NO_NUMPY_SCRIPT, "verify", "--n-max", "2", "--format", fmt, *out, cwd=tmp_path
        )
        assert (code, stdout) == (1, "")
        assert err == "seec: error: seec verify needs numpy: pip install numpy\n"
    assert out_path.read_bytes() == b"old bytes\n"
    assert list(tmp_path.iterdir()) == [out_path]


def test_array_library_calls_without_numpy_raise_module_not_found():
    # Python's own error, naming numpy: a missing package is no domain error
    code, out, err = run_python(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import seec\n"
        "calls = [lambda: seec.marginal('w_minus', 1, 1, 0.3, 0.5),\n"
        "         lambda: seec.wavefunction(seec.ModePair(1, 1), 0.3, 'position', 0.5, 0.5),\n"
        "         lambda: seec.hermite_roots(3), lambda: seec.gauss_hermite_rule(3),\n"
        "         lambda: seec.entropy_integral_numeric(1),\n"
        "         lambda: seec.verification.collect_checks(2)]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except ModuleNotFoundError as exc:\n"
        "        print(exc.name)\n"
    )
    assert code == 0, err
    assert out == "numpy\n" * 6
