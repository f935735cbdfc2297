"""numpy stays off the run and verify path; the analysis names load it lazily."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import notouch
from notouch import cli

ROOT = Path(__file__).resolve().parents[1]

NUMPY_FREE_STEPS = """
import contextlib, io, sys
import notouch
from notouch import (
    BOSON, FERMION, anyon, bell_circuit, cli, computational_distribution, extract_dual_rail,
    ghz_circuit, hom_circuit, load_circuit, run, run_distinguishable, save_circuit,
    verify_no_touching, w_circuit,
)
from notouch.circuit import _ghz_ring

save_circuit(hom_circuit(), "hom.json")
for c in (bell_circuit(), ghz_circuit(), w_circuit(), _ghz_ring(10)):
    for stat in (BOSON, FERMION, anyon(0.7)):
        extract_dual_rail(run(c, stat).accepted, c.target_pairs)
        verify_no_touching(c, stat)
    computational_distribution(run_distinguishable(c), c.target_pairs)
hom = load_circuit("hom.json")
run(hom, BOSON)
verify_no_touching(hom, BOSON, post_select=False)
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for protocol in ("bell", "ghz", "w"):
        codes.append(cli.main(["run", "--protocol", protocol, "--statistics", "anyon:0.7"]))
        codes.append(cli.main(["verify", "--protocol", protocol, "--statistics", "fermion"]))
    codes.append(cli.main(["verify", "--file", "hom.json", "--statistics", "boson"]))
print(codes, "numpy" in sys.modules)
bell = bell_circuit()
table = notouch.correlation_table(run(bell, BOSON), [0.0], [0.0], bell.target_pairs)
print(table, "numpy" in sys.modules)
"""

TRACER_WITHOUT_ANALYSIS = """
import importlib.util, sys
import notouch
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
c = notouch.bell_circuit()
notouch.verify_no_touching(c, notouch.BOSON)
tracer.uninstall()
recorded = {tracer.labels[i] for i in tracer.label}
print("paths.verify_no_touching" in recorded, "notouch.analysis" in sys.modules)
"""


def _python(code: str, *args: str, cwd: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_run_and_verify_never_load_numpy(tmp_path):
    out = _python(NUMPY_FREE_STEPS, cwd=tmp_path).splitlines()
    assert out[0] == "[0, 0, 0, 0, 0, 0, 1] False"
    # the first analysis name resolves, loads numpy and works
    assert out[1] == "[(0.0, 0.0, 1.0)] True"


def test_tracer_installs_where_analysis_was_never_imported(tmp_path):
    out = _python(TRACER_WITHOUT_ANALYSIS, str(ROOT / "perfbench" / "tracing.py"), cwd=tmp_path)
    assert out == "True False\n"


def test_star_import_yields_every_public_name():
    namespace: dict = {}
    exec("from notouch import *", namespace)
    assert [name for name in notouch.__all__ if name not in namespace] == []
    assert namespace["correlation_table"] is notouch.analysis.correlation_table


def test_unknown_attributes_raise():
    with pytest.raises(AttributeError, match="no_such_name"):
        notouch.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name
    assert not hasattr(notouch, "no_such_name") and not hasattr(cli, "no_such_name")
