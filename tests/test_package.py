import os
import subprocess
import sys
from pathlib import Path

import qosorch

# Exits non-zero, naming the fault, if the modules below load the checker.
IMPORT_CHECK = (
    "import sys, qosorch, qosorch.engine, qosorch.formats, qosorch.registry; "
    "sys.exit('qosorch.conformance was loaded' if 'qosorch.conformance' in sys.modules else 0)"
)


def test_the_engine_reader_and_registry_load_without_the_checker():
    """A fresh interpreter that imports the package, the engine, the trace
    reader and the registry has not loaded the conformance checker."""
    src = str(Path(qosorch.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_CHECK], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
