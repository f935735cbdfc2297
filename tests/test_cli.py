import json
import time

import numpy as np
import pytest

import notouch.cli
from notouch.circuit import _ghz_ring, hom_circuit, save_circuit
from notouch.cli import main
from notouch.paths import verify_no_touching


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_ghz_fermion_document(capsys):
    code, out, _ = run_cli(capsys, "run", "--protocol", "ghz", "--statistics", "fermion")
    assert code == 0
    doc = json.loads(out)
    assert doc["protocol"] == "ghz"
    assert doc["statistics"] == "fermion"
    assert doc["probability"] == 0.25
    assert [t["modes"] for t in doc["accepted_terms"]] == [[1, 3, 5], [2, 4, 6]]
    assert doc["metadata"]["tool"] == "notouch"
    assert doc["metadata"]["pruning_tolerance"] == 1e-12


def test_run_w_probability(capsys):
    code, out, _ = run_cli(capsys, "run", "--protocol", "w", "--statistics", "boson")
    assert code == 0
    doc = json.loads(out)
    assert doc["probability"] == 0.15
    amps = np.array([complex(re, im) for re, im in doc["qubit_amplitudes"]])
    expected = np.zeros(8)
    expected[0b010] = expected[0b001] = expected[0b100] = 1 / np.sqrt(3)
    assert np.allclose(amps, expected, atol=1e-9)


def test_run_anyon_zero_matches_boson(capsys):
    code1, out1, _ = run_cli(capsys, "run", "--protocol", "bell", "--statistics", "anyon:0")
    code2, out2, _ = run_cli(capsys, "run", "--protocol", "bell", "--statistics", "boson")
    assert code1 == code2 == 0
    doc1, doc2 = json.loads(out1), json.loads(out2)
    assert doc1["accepted_terms"] == doc2["accepted_terms"]
    assert doc1["probability"] == doc2["probability"]
    assert doc1["qubit_amplitudes"] == doc2["qubit_amplitudes"]


def test_run_documents_are_deterministic(capsys):
    _, first, _ = run_cli(capsys, "run", "--protocol", "w", "--statistics", "anyon:0.7")
    _, second, _ = run_cli(capsys, "run", "--protocol", "w", "--statistics", "anyon:0.7")
    assert first == second


def test_run_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "run", "--protocol", "bell", "--statistics", "anyon:x")
    assert code == 2
    assert "error" in err


def test_run_unknown_protocol_exit_code(capsys):
    code, _, _ = run_cli(capsys, "run", "--protocol", "ww", "--statistics", "boson")
    assert code == 2


def test_run_invalid_circuit_file_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    from notouch.circuit import bell_circuit, circuit_to_dict

    doc = circuit_to_dict(bell_circuit())
    doc["injections"] = [1, 1]
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(
        capsys, "run", "--protocol", f"file:{path}", "--statistics", "boson"
    )
    assert code == 3
    assert "invalid circuit" in err


def _repeated_injection(doc):
    doc["injections"] = [1, 1]


def _non_local_input_gate(doc):
    doc["input_gates"][0]["support"] = [2, 3]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_repeated_injection, "injection 1 is not in input subsystem 2"),
        (
            _non_local_input_gate,
            "non-local input gate: support (2, 3) does not lie inside a single "
            "subsystem; input gate supports overlap at modes [3]",
        ),
    ],
)
@pytest.mark.parametrize(
    "command",
    [
        ["verify", "--statistics", "anyon:0.7", "--file", "{path}"],
        ["verify", "--statistics", "boson", "--accept-all", "--file", "{path}"],
        ["correlate", "--protocol", "file:{path}", "--statistics", "fermion",
         "--theta1", "0,1", "--theta2", "0"],
        ["correlate", "--protocol", "file:{path}", "--distinguishable",
         "--theta1", "0", "--theta2", "0"],
    ],
)
def test_invalid_circuit_file_is_a_validation_failure(tmp_path, capsys, corrupt, message, command):
    from notouch.circuit import bell_circuit, circuit_to_dict

    doc = circuit_to_dict(bell_circuit())
    corrupt(doc)
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *(arg.format(path=path) for arg in command))
    assert code == 3
    assert out == ""
    assert err == f"error: invalid circuit: {message}\n"


def test_correlate_csv_cosine_column(capsys):
    code, out, _ = run_cli(
        capsys,
        "correlate",
        "--protocol",
        "bell",
        "--statistics",
        "boson",
        "--theta1",
        "0,0.5,1.0,2.5",
        "--theta2",
        "0",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta1,theta2,E"
    for line in lines[1:]:
        t1, t2, e = (float(x) for x in line.split(","))
        assert t2 == 0.0
        assert abs(e - np.cos(t1)) < 1e-9


def test_correlate_distinguishable_cell(capsys):
    code, out, _ = run_cli(
        capsys,
        "correlate",
        "--protocol",
        "bell",
        "--distinguishable",
        "--theta1",
        "0.9",
        "--theta2",
        "1.7",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["statistics"] == "distinguishable"
    cell = doc["table"][0]
    assert abs(cell["E"] - np.cos(0.9) * np.cos(1.7)) < 1e-9


def test_correlate_prints_the_parsed_statistics_as_run_does(capsys):
    token = ["--protocol", "bell", "--statistics", "anyon:7e-1"]
    docs = []
    for argv in (["run", *token], ["correlate", *token, "--theta1", "0", "--theta2", "0"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        docs.append(json.loads(out))
    assert [doc["statistics"] for doc in docs] == ["anyon:0.7", "anyon:0.7"]


def test_correlate_single_cell_at_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        "correlate",
        "--protocol",
        "bell",
        "--statistics",
        "fermion",
        "--theta1",
        "0",
        "--theta2",
        "0",
    )
    assert code == 0
    assert json.loads(out)["table"][0]["E"] == 1.0


def test_correlate_grid_spec(capsys):
    code, out, _ = run_cli(
        capsys,
        "correlate",
        "--protocol",
        "bell",
        "--statistics",
        "boson",
        "--theta1",
        "0:6.283185307179586:4",
        "--theta2",
        "0",
    )
    assert code == 0
    doc = json.loads(out)
    thetas = [cell["theta1"] for cell in doc["table"]]
    assert thetas == pytest.approx([0, np.pi / 2, np.pi, 3 * np.pi / 2])


def test_verify_protocols_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--protocol", "w", "--statistics", "boson")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"
    code, out, _ = run_cli(
        capsys, "verify", "--protocol", "ghz", "--statistics", "anyon:0.7"
    )
    assert code == 0


def test_verify_hom_file_fails(tmp_path, capsys):
    path = tmp_path / "hom.json"
    save_circuit(hom_circuit(), path)
    code, out, _ = run_cli(capsys, "verify", "--file", str(path), "--statistics", "boson")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    assert doc["counterexamples"]
    assert "note" in doc  # post-selection accepted nothing, fell back to accept-all


def test_verify_keeps_post_selection_below_the_tolerance(tmp_path, capsys):
    # the 60-particle ring accepts 2 histories of amplitude 2**-30; both are
    # checked, so verify needs no accept-all fallback over 2**60 histories
    path = tmp_path / "ring60.json"
    save_circuit(_ghz_ring(60), path)
    code, out, err = run_cli(capsys, "verify", "--file", str(path), "--statistics", "boson")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["verdict"], doc["post_selection"], "note" in doc) == ("pass", True, False)
    assert doc["histories_checked"] == 2


def test_verify_checks_both_accepted_histories_of_the_64_particle_ring(tmp_path, capsys):
    path = tmp_path / "ring64.json"
    save_circuit(_ghz_ring(64), path)
    code, out, err = run_cli(capsys, "verify", "--file", str(path), "--statistics", "fermion")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["verdict"], doc["post_selection"], "note" in doc) == ("pass", True, False)
    assert (doc["histories_total"], doc["histories_checked"]) == (2**64, 2)


@pytest.mark.parametrize("protocol,walks", [("w", 1), ("hom", 2)])
def test_verify_walks_once_unless_post_selection_accepts_nothing(
    tmp_path, capsys, monkeypatch, protocol, walks
):
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("post_select", True))
        return verify_no_touching(*args, **kwargs)

    monkeypatch.setattr(notouch.cli, "verify_no_touching", counting)
    if protocol == "hom":
        path = tmp_path / "hom.json"
        save_circuit(hom_circuit(), path)
        argv = ("--file", str(path))
    else:
        argv = ("--protocol", protocol)
    run_cli(capsys, "verify", *argv, "--statistics", "boson")
    # post-selection first; the accept-all fallback only when it checked nothing
    assert calls == [True, False][:walks]


def test_verify_accept_all_w_fails(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--protocol", "w", "--statistics", "boson", "--accept-all"
    )
    assert code == 1
    doc = json.loads(out)
    stages = {ev["stage"] for ev in doc["counterexamples"]}
    assert "output" in stages


def test_synthesize_round_trip(tmp_path, capsys):
    target = "0.5,0.5,0.5,0.5"
    path = tmp_path / "circ.json"
    code, out, _ = run_cli(
        capsys,
        "synthesize",
        "--target",
        target,
        "--statistics",
        "fermion",
        "--out",
        str(path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["fidelity"] >= 1 - 1e-9
    assert path.exists()
    code, out, _ = run_cli(
        capsys, "run", "--protocol", f"file:{path}", "--statistics", "fermion"
    )
    assert code == 0
    run_doc = json.loads(out)
    assert abs(run_doc["probability"] - doc["probability"]) < 1e-9
    amps = np.array([complex(re, im) for re, im in run_doc["qubit_amplitudes"]])
    overlap = abs(np.vdot(np.array([0.5, 0.5, 0.5, 0.5]), amps)) ** 2
    assert overlap >= 1 - 1e-9


def test_synthesize_renormalizes_with_warning(tmp_path, capsys):
    path = tmp_path / "c.json"
    code, out, err = run_cli(
        capsys,
        "synthesize",
        "--target",
        "2,0,0,0",
        "--statistics",
        "boson",
        "--out",
        str(path),
    )
    assert code == 0
    assert "renormalizing" in err
    assert json.loads(out)["fidelity"] >= 1 - 1e-9


def test_synthesize_zero_target_exit_code(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "synthesize",
        "--target",
        "0,0,0,0",
        "--statistics",
        "boson",
        "--out",
        str(tmp_path / "c.json"),
    )
    assert code == 2
    assert "zero" in err


def _one_error_line(code, out, err):
    return code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


BELL_CORRELATE = ["correlate", "--protocol", "bell", "--statistics", "boson", "--theta2", "0"]
SYNTHESIZE_BELL = ["synthesize", "--statistics", "boson", "--out", "never.json", "--target"]


@pytest.mark.parametrize(
    "circuit_text, argv, message",
    [
        ("[]", ["run", "--protocol", "file:circuit.json", "--statistics", "boson"],
         "circuit file must hold a JSON object"),
        (None, [*BELL_CORRELATE, "--theta1", "0:1"], "grid '0:1' must be start:stop:count"),
        (None, [*BELL_CORRELATE, "--theta1", "0:1:0"], "grid count must be positive"),
        (None, [*SYNTHESIZE_BELL, "0.6,0,0.8"],
         "target must be four comma-separated complex amplitudes"),
        (None, [*SYNTHESIZE_BELL, "a,b,c,d"], "cannot parse target amplitudes 'a,b,c,d'"),
        (None, [*BELL_CORRELATE, "--theta1", ","], "grid ',' has no angles"),
        (None, [*BELL_CORRELATE, "--theta1", ""], "grid '' has no angles"),
    ],
)
def test_bad_arguments_exit_2_with_one_error_line(
    tmp_path, capsys, monkeypatch, circuit_text, argv, message
):
    monkeypatch.chdir(tmp_path)
    if circuit_text is not None:  # the circuit file the command reads
        (tmp_path / "circuit.json").write_text(circuit_text)
    result = run_cli(capsys, *argv)
    assert _one_error_line(*result)
    assert result[2] == f"error: {message}\n"
    assert not (tmp_path / "never.json").exists()


@pytest.mark.filterwarnings("error")  # a numpy warning on the way fails the test
@pytest.mark.parametrize("target", ["nan,0,0,0", "inf,0,0,0", "0.7071,0,0,1-infj"])
def test_synthesize_rejects_a_non_finite_target(tmp_path, capsys, target):
    path = tmp_path / "c.json"
    result = run_cli(
        capsys, "synthesize", "--target", target, "--statistics", "boson", "--out", str(path)
    )
    assert _one_error_line(*result)
    assert "finite" in result[2]
    assert not path.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("axis", ["--theta1", "--theta2"])
@pytest.mark.parametrize("grid", ["nan", "0,inf", "0:inf:2", "-1e308:1e308:1"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_correlate_rejects_non_finite_angles(capsys, axis, grid, fmt):
    angles = {"--theta1": "0", "--theta2": "0", axis: grid}
    argv = [f"{name}={value}" for name, value in angles.items()]
    result = run_cli(
        capsys, "correlate", "--protocol", "bell", "--statistics", "boson", *argv, "--format", fmt
    )
    assert _one_error_line(*result)
    assert "non-finite" in result[2]


def test_huge_num_modes_fails_validation_without_allocating(tmp_path, capsys):
    from notouch.circuit import bell_circuit, circuit_to_dict

    doc = circuit_to_dict(bell_circuit())
    doc["num_modes"] = 10**12
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "run", "--protocol", f"file:{path}", "--statistics", "boson")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err == "error: invalid circuit: permutation is not a bijection on the modes\n"


def test_run_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--protocol", "bell", "--statistics", "boson", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "field,value"
    assert "probability,0.5" in lines


def _drop_input_subsystems(doc):
    del doc["input_subsystems"]


def _non_square_matrix(doc):
    doc["input_gates"][0]["matrix"] = doc["input_gates"][0]["matrix"][:1]


def _short_matrix_entry(doc):
    doc["input_gates"][0]["matrix"][0][0] = [0.7]


def _fractional_support(doc):
    doc["input_gates"][0]["support"] = [1.0, 2.5]


def _fractional_permutation(doc):
    doc["permutation"] = [1, 4.2, 3, 2]


@pytest.mark.parametrize(
    "corrupt",
    [
        _drop_input_subsystems,
        _non_square_matrix,
        _short_matrix_entry,
        _fractional_support,
        _fractional_permutation,
    ],
)
@pytest.mark.parametrize("command", ["verify", "run"])
def test_malformed_circuit_file_is_an_input_error(tmp_path, capsys, corrupt, command):
    from notouch.circuit import bell_circuit, circuit_to_dict

    doc = circuit_to_dict(bell_circuit())
    corrupt(doc)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    source = ["--file", str(path)] if command == "verify" else ["--protocol", f"file:{path}"]
    code, out, err = run_cli(capsys, command, *source, "--statistics", "boson")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_out_of_memory_is_an_input_error(capsys, monkeypatch):
    # a 100000 x 100000 angle table asks numpy for about 149 GiB
    def exhausted(*args):
        raise MemoryError("Unable to allocate 149. GiB for an array with shape (100000, 100000)")

    monkeypatch.setattr("notouch.analysis.correlation_table", exhausted)
    argv = ["correlate", "--protocol", "bell", "--statistics", "boson"]
    code, out, err = run_cli(capsys, *argv, "--theta1", "0:1:100000", "--theta2", "0:1:100000")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
