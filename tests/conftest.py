import io
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import anycond as ac
from anycond import cli

sys.path.insert(0, str(Path(__file__).parent))

# Every property test draws the same examples on every run, so tier-1 cannot
# pass or fail by chance; a test's own @settings inherit this profile.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

CATALOG_IDS = [e.id for e in ac.catalog()]


@pytest.fixture(params=CATALOG_IDS)
def catalog_entry(request):
    return ac.entry(request.param)


@pytest.fixture
def toric_1y():
    return ac.entry("toric-1Y").branching


@pytest.fixture
def toric_1z():
    return ac.entry("toric-1Z").branching


@pytest.fixture
def rep_s3_1x():
    return ac.entry("repS3-1X").branching


@pytest.fixture
def rep_s3_1y():
    return ac.entry("repS3-1Y").branching


@pytest.fixture
def rep_s3_lagrangian():
    return ac.entry("repS3-lagrangian").branching


def random_states(system, count, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.random((count, len(system))) + 1e-12
    return [ac.SectorState(system, row / row.sum()) for row in raw]


def restrict_lift_matrix(b):
    """Gamma = D_t (n.T @ n) D_t^{-1} / lam with D_t = diag(d_t): the matrix
    of restrict(lift(.)) on condensed states, built from the branching data
    alone rather than through the channels."""
    d_t = b.condensed_dims
    return d_t[:, None] * (b.n.T @ b.n) / d_t[None, :] / ac.jones_index(b)


def fixes_restricted_states(b):
    """Whether Gamma fixes the image of restrict, i.e. (Gamma - I) @ R = 0
    for the restriction matrix R = D_t n.T D_a^{-1}.  Exactly then do the
    idempotence and restrict-after-lift residuals vanish on every state."""
    r = b.condensed_dims[:, None] * b.n.T / b.source_dims[None, :]
    gamma = restrict_lift_matrix(b)
    return float(np.max(np.abs((gamma - np.eye(len(gamma))) @ r))) <= 1e-12


def run_clean(*argv):
    """Run one CLI command in-process and return (code, stdout, stderr).

    The command must end in an exit code of 0, 1 or 2: an exception out of
    ``main`` would be a traceback.  It must issue no RuntimeWarning (numpy
    reports overflow and invalid casts that way) and print none to stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(list(argv))
    assert code in (0, 1, 2)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()
