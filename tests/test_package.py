import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qosorch
from qosorch import engine

# Exits non-zero, naming the fault, if the modules below load the checker.
IMPORT_CHECK = (
    "import sys, qosorch, qosorch.engine, qosorch.formats, qosorch.registry; "
    "sys.exit('qosorch.conformance was loaded' if 'qosorch.conformance' in sys.modules else 0)"
)

# Runs, checks and explores through the CLI on the fixtures in sys.argv[1],
# then exits non-zero, naming the fault, if OpenSSL's hash module was loaded.
CLI_CHECK = """
import sys
from qosorch import cli
fixtures, golden = sys.argv[1:]
bookstore = [f"--{part}={fixtures}/bookstore_{part}.jsonl" for part in ("workflow", "registry")]
minimal = [f"--{part}={fixtures}/minimal_{part}.jsonl" for part in ("workflow", "registry")]
for argv in (
    ["run", *bookstore, f"--requests={fixtures}/bookstore_requests_feasible.jsonl"],
    ["check", golden],
    ["explore", *minimal, f"--requests={fixtures}/minimal_requests_one.jsonl"],
):
    if cli.main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
sys.exit("_hashlib was loaded" if "_hashlib" in sys.modules else 0)
"""

# Imports the model where CPython's built-in SHA-256 modules are missing and
# prints the stub results of the inputs given as JSON in sys.argv[1].
FALLBACK_DIGESTS = """
import hashlib, json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from qosorch import engine, model
assert model.sha256 is hashlib.sha256, model.sha256
print(json.dumps([engine._ws_output_digest(tuple(p)) for p in json.loads(sys.argv[1])]))
"""

DIGEST_INPUTS = [(), (("text", "hello"),), (("b", "x y"), ("a", "1")), (("text", "café ☕ 書"),)]


def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports qosorch from this tree."""
    src = str(Path(qosorch.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )


def test_the_engine_reader_and_registry_load_without_the_checker():
    """A fresh interpreter that imports the package, the engine, the trace
    reader and the registry has not loaded the conformance checker."""
    result = fresh_python(IMPORT_CHECK)
    assert result.returncode == 0, result.stderr


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="this interpreter has no built-in SHA-256 module",
)
def test_run_check_and_explore_load_no_openssl(fixtures_dir, golden_dir):
    """The stub result's SHA-256 comes from CPython's built-in module, so a
    fresh interpreter that runs, checks and explores through the CLI has not
    loaded OpenSSL's hash module."""
    result = fresh_python(CLI_CHECK, str(fixtures_dir), str(golden_dir / "bookstore_seed0.jsonl"))
    assert result.returncode == 0, result.stderr


def reference_digest(inputs) -> str:
    text = json.dumps(dict(inputs), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def test_stub_result_digest_is_sha256_of_sorted_json():
    """The stub result's digest is that of hashlib's SHA-256, for empty,
    ASCII and non-ASCII inputs, with the built-in module and without it."""
    expected = [reference_digest(inputs) for inputs in DIGEST_INPUTS]
    assert [engine._ws_output_digest(inputs) for inputs in DIGEST_INPUTS] == expected
    assert engine._ws_output_digest(None) == reference_digest(())
    result = fresh_python(FALLBACK_DIGESTS, json.dumps(DIGEST_INPUTS))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == expected
