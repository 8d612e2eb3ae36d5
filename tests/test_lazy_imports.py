"""numpy stays out of the closed-form path; the dense layers and the oracle load on use.

Each case runs in a fresh interpreter, because pytest and hypothesis have
already loaded numpy into this one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# runs main(argv) with stdout captured, then reports its exit code and whether numpy loaded
MAIN = """
import contextlib, io, json, sys
from ri_entropy.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}))
"""


def fresh(script: str, *argv: str) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("argv,code", [
    (("ree", "--j1", "1", "--j2", "2", "--normalized", "0.5,0.3"), 0),
    (("ree", "--j1", "1/2", "--j2", "3/2", "--p", "0.9"), 0),
    (("ree", "--j1", "1", "--j2", "2", "--alpha", "0.5,0.9,0.37588444481314626"), 0),
    # an unsupported family is refused before the oracle is imported
    (("ree", "--j1", "3/2", "--j2", "3/2", "--alpha", "4,0,0,0", "--force-oracle"), 3),
], ids=["normalized", "p", "alpha", "force-oracle-refused"])
def test_ree_loads_no_numpy(argv, code):
    assert fresh(MAIN, *argv) == {"code": code, "numpy": False}


def test_curve_loads_no_numpy(tmp_path):
    out = tmp_path / "curve.csv"
    assert fresh(MAIN, "curve", "--j-list", "1/2,1", "--points", "11",
                 "--out", str(out)) == {"code": 0, "numpy": False}
    assert len(out.read_text().splitlines()) == 23


def test_package_import_loads_no_numpy():
    assert fresh("import json, sys, ri_entropy; "
                 "print(json.dumps({'numpy': 'numpy' in sys.modules}))") == {"numpy": False}


@pytest.mark.parametrize("argv", [
    ("ree", "--j1", "1", "--j2", "2", "--normalized", "0.5,0.3", "--oracle"),
    ("ree", "--j1", "1/2", "--j2", "1", "--p", "0.9", "--force-oracle"),
    ("verify", "--family", "3xN-odd", "--param", "5", "--samples", "20"),
], ids=["oracle", "force-oracle", "verify"])
def test_oracle_commands_still_work(argv):
    assert fresh(MAIN, *argv) == {"code": 0, "numpy": True}


def test_dense_and_oracle_names_resolve_on_first_use():
    report = fresh("""
import json, sys
import ri_entropy
out = {"before": "numpy" in sys.modules, "oracle": ri_entropy.oracle.__name__}
from ri_entropy import to_density, verify_closed_form
from ri_entropy import *
out["same"] = verify_closed_form is ri_entropy.oracle.verify_closed_form is ri_entropy.verify_closed_form
out["star"] = all(name in globals() for name in ri_entropy.__all__)
rho = to_density(ri_entropy.maximally_mixed(ri_entropy.Spin(1), ri_entropy.Spin(1)))
out["trace"] = float(rho.mat.trace())
out["passed"] = verify_closed_form("2xN", 0.5, samples=10, seed=0, tol=1e-6).passed
try:
    ri_entropy.no_such_name
except AttributeError as exc:
    out["missing"] = str(exc)
print(json.dumps(out))
""")
    assert report == {"before": False, "oracle": "ri_entropy.oracle", "same": True,
                      "star": True, "trace": 1.0, "passed": True,
                      "missing": "module 'ri_entropy' has no attribute 'no_such_name'"}
