"""numpy stays off the run, verify and synthesize path; the vectorized analysis names load it
lazily, and no Bell pipeline step calls numpy.linalg."""

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

SYNTHESIS_WITHOUT_NUMPY = """
import contextlib, io, sys
from notouch import FERMION, QubitState, anyon, cli, extract_dual_rail, run, synthesize_two_qubit
from notouch.qubits import fidelity
target = QubitState(2, [0.6, 0.0, 0.48j, 0.64])
fidelities = []
for stat in (FERMION, anyon(2.1)):
    c = synthesize_two_qubit(target, stat)
    fidelities.append(fidelity(extract_dual_rail(run(c, stat).accepted, c.target_pairs), target))
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["synthesize", "--target", "0.6,0,0.48j,0.64", "--statistics", "boson",
                     "--out", "synthesized.json"])
print(code, [round(f, 12) for f in fidelities], "numpy" in sys.modules)
"""

LOADS_NUMPY = {
    "correlation_table": "notouch.correlation_table(run(c, BOSON), [0.0], [0.0], c.target_pairs)",
    "chsh_grid_max": "notouch.chsh_grid_max(run(c, BOSON), c.target_pairs, 90.0)",
    "amplitudes": "extract_dual_rail(run(c, BOSON).accepted, c.target_pairs).amplitudes",
}

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


def test_synthesis_and_fidelity_never_load_numpy(tmp_path):
    out = _python(SYNTHESIS_WITHOUT_NUMPY, cwd=tmp_path)
    assert out == "0 [1.0, 1.0] False\n"


@pytest.mark.parametrize("step", sorted(LOADS_NUMPY))
def test_the_vectorized_steps_still_load_numpy(tmp_path, step):
    code = (
        "import sys\nimport notouch\nfrom notouch import BOSON, bell_circuit, "
        "extract_dual_rail, run\nc = bell_circuit()\nbefore = 'numpy' in sys.modules\n"
        f"{LOADS_NUMPY[step]}\nprint(before, 'numpy' in sys.modules)"
    )
    assert _python(code, cwd=tmp_path) == "False True\n"


def test_a_bell_pipeline_calls_no_numpy_linalg_function(monkeypatch):
    import numpy as np

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg was called")

    patched = [name for name in np.linalg.__all__ if callable(getattr(np.linalg, name))]
    patched = [name for name in patched if not isinstance(getattr(np.linalg, name), type)]
    for name in patched:
        monkeypatch.setattr(np.linalg, name, refuse)
    assert "svd" in patched and "eigh" in patched
    with pytest.raises(AssertionError, match="numpy.linalg was called"):
        np.linalg.svd(np.eye(2))
    thetas = [i * 2.0 * np.pi / 37 for i in range(37)]
    for values in ([0.6, 0.0, 0.48j, 0.64], [0.5, 0.5j, -0.5, 0.5j], [1.0, 0.0, 0.0, 0.0]):
        for stat in (notouch.BOSON, notouch.anyon(0.7)):
            target = notouch.QubitState(2, values)
            c = notouch.synthesize_two_qubit(target, stat)
            out = notouch.run(c, stat)
            got = notouch.extract_dual_rail(out.accepted, c.target_pairs)
            assert notouch.fidelity(got, target) >= 1 - 1e-12
            assert len(notouch.correlation_table(out, thetas, thetas, c.target_pairs)) == 37**2
            value, _ = notouch.chsh_grid_max(out, c.target_pairs, 1.0, refine=True)
            assert value <= 2 * np.sqrt(2) + 1e-9


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
