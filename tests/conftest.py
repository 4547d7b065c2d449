import random
import shutil
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(Path(__file__).parent))

from trisemi import AtomTable

SQRT2 = 1.4142135623730951
SQRT3 = 1.7320508075688772

# Property tests are hermetic: the same examples on every run and no
# example database.
settings.register_profile("hermetic", derandomize=True, database=None, deadline=None)
settings.load_profile("hermetic")
_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # Hypothesis still caches files (constants/) under its home directory,
    # by default .hypothesis/ in the working directory: keep them in a
    # directory of their own, removed when the session ends
    home = config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="trisemi-hypothesis-")
    set_hypothesis_home_dir(home)


def pytest_unconfigure(config):
    home = config.stash.get(_HYPOTHESIS_HOME, None)
    if home is not None:
        shutil.rmtree(home, ignore_errors=True)


@pytest.fixture(scope="session")
def table() -> AtomTable:
    return AtomTable({"s2": SQRT2, "s3": SQRT3}, {"h": 0.5})


@pytest.fixture()
def rng(request) -> random.Random:
    # stable per-test stream, independent of execution order
    return random.Random(request.node.name)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line per acceptance criterion at the end of the run."""
    rows = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::" in nodeid and getattr(rep, "when", "call") == "call":
                rows[nodeid.split("::")[-1]] = status
    if not rows:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(rows):
        verdict = "PASS" if rows[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict}  {name}")
