"""Run code in a fresh Python interpreter that finds qmamp, for tests whose
subject is what an import does: which modules it loads, and which BLAS
thread count and environment it leaves behind."""

import json
import os
import subprocess
import sys
from pathlib import Path

import qmamp

SRC = Path(qmamp.__file__).resolve().parents[1]
REPO = SRC.parent

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"
)


def run_fresh(code, **env_vars):
    """stdout of `code` as JSON, run in a fresh interpreter that finds qmamp.

    The environment is this one without the BLAS thread-count variables, plus
    env_vars.
    """
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**env, **env_vars}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)
