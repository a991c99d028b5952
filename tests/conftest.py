import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=80,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")

# test_reference.py's ledger, then its checks on it, where numpy cannot load
LEDGER_CHILD = """
import json, sys
sys.modules["numpy"] = None
sys.path.insert(0, sys.argv[1])
import test_reference
ledger = test_reference.ledger()
print(json.dumps(ledger), flush=True)
test_reference.check(ledger)
"""


@pytest.fixture(scope="session")
def stdlib_ledger():
    """The ledger of test_reference.py, from a child interpreter in which
    importing numpy fails, with the package on its path; under "child",
    the exit status and stderr of the child's own run of the checks."""
    import seec

    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(seec.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", LEDGER_CHILD, here], capture_output=True, text=True, env=env
    )
    assert proc.stdout, proc.stderr
    ledger = json.loads(proc.stdout)
    ledger["child"] = [proc.returncode, proc.stderr]
    return ledger
