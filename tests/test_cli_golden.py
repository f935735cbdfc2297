"""Byte-for-byte CLI golden set: stdout, stderr, exit code and written files.

Each case runs ``notouch.cli.main`` in an empty directory that holds only
``hom.json``, written with ``save_circuit(hom_circuit(), "hom.json")`` as the
README shows.  The expected bytes live in ``tests/golden``: ``<case>.out``
(stdout), ``<case>.err`` (stderr, only when not empty), ``<case>.<file>`` for
every file the case writes, and ``exit_codes.json``; a file over 16 kB is
stored gzip-compressed, with ``.gz`` appended to its name.  After a deliberate
change to the output, rewrite them with ``python tests/test_cli_golden.py``
and review the diff.
"""

import contextlib
import gzip
import io
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
GRID_37 = "0:6.283185307:37"
GRID_7 = "0:6.283185307:7"
SYNTHESIZE = [
    "synthesize", "--target", "0.7071,0,0,0.7071", "--statistics", "boson",
    "--out", "bell_clone.json",
]

# name -> (argv, files the command writes, commands run first, unchecked)
CASES = {
    "readme_run_ghz_fermion": (["run", "--protocol", "ghz", "--statistics", "fermion"], (), ()),
    "readme_run_w_boson_csv": (
        ["run", "--protocol", "w", "--statistics", "boson", "--format", "csv"], (), ()
    ),
    "readme_correlate_bell_boson_37x37_csv": (
        ["correlate", "--protocol", "bell", "--statistics", "boson",
         "--theta1", GRID_37, "--theta2", GRID_37, "--format", "csv"], (), ()
    ),
    "readme_correlate_bell_distinguishable": (
        ["correlate", "--protocol", "bell", "--distinguishable",
         "--theta1", "0,1.57", "--theta2", "0"], (), ()
    ),
    "readme_verify_w_anyon": (["verify", "--protocol", "w", "--statistics", "anyon:0.7"], (), ()),
    "readme_verify_hom_boson": (["verify", "--file", "hom.json", "--statistics", "boson"], (), ()),
    "readme_synthesize_bell_clone": (SYNTHESIZE, ("bell_clone.json",), ()),
    "readme_run_bell_clone": (
        ["run", "--protocol", "file:bell_clone.json", "--statistics", "boson"], (), (SYNTHESIZE,)
    ),
    "verify_hom_anyon": (["verify", "--file", "hom.json", "--statistics", "anyon:0.7"], (), ()),
    "correlate_bell_anyon_7x7_csv": (
        ["correlate", "--protocol", "bell", "--statistics", "anyon:0.7",
         "--theta1", GRID_7, "--theta2", GRID_7, "--format", "csv"], (), ()
    ),
    "run_hom_boson": (["run", "--protocol", "file:hom.json", "--statistics", "boson"], (), ()),
    "run_hom_fermion": (["run", "--protocol", "file:hom.json", "--statistics", "fermion"], (), ()),
    "verify_w_fermion_accept_all": (
        ["verify", "--protocol", "w", "--statistics", "fermion", "--accept-all"], (), ()
    ),
    "verify_hom_boson_accept_all": (
        ["verify", "--file", "hom.json", "--statistics", "boson", "--accept-all"], (), ()
    ),
}
for _protocol in ("bell", "ghz", "w"):
    for _stat in ("boson", "anyon:0.7"):
        _tag = f"{_protocol}_{_stat.split(':')[0]}"
        _base = ["--protocol", _protocol, "--statistics", _stat]
        CASES[f"run_{_tag}"] = (["run", *_base], (), ())
        CASES[f"verify_{_tag}"] = (["verify", *_base], (), ())
        CASES[f"verify_{_tag}_accept_all"] = (["verify", *_base, "--accept-all"], (), ())


def _invoke(name: str, directory: Path) -> dict:
    """Run one case in ``directory``; map each golden file name to its bytes."""
    from notouch.circuit import hom_circuit, save_circuit
    from notouch.cli import main

    argv, written, setup = CASES[name]
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        save_circuit(hom_circuit(), "hom.json")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for command in setup:
                assert main(command) == 0
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        result = {"exit": code, f"{name}.out": out.getvalue().encode()}
        if err.getvalue():
            result[f"{name}.err"] = err.getvalue().encode()
        for file in written:
            result[f"{name}.{file}"] = Path(file).read_bytes()
        return result
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    result = _invoke(name, tmp_path)
    assert result.pop("exit") == json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    expected = {}
    for path in GOLDEN.glob(f"{name}.*"):
        if path.suffix == ".gz":
            expected[path.stem] = gzip.decompress(path.read_bytes())
        else:
            expected[path.name] = path.read_bytes()
    assert result == expected


def test_golden_set_is_small_and_has_no_stray_files():
    names = {path.name for path in GOLDEN.iterdir()}
    stray = {n for n in names if n != "exit_codes.json" and n.split(".")[0] not in CASES}
    assert stray == set()
    assert sum(path.stat().st_size for path in GOLDEN.iterdir()) < 60_000


def _readme_commands() -> str:
    readme = (GOLDEN.parents[1] / "README.md").read_text()
    return readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]


def test_every_readme_command_is_a_golden_case():
    block = _readme_commands()
    commands = [
        shlex.split(line, comments=True)
        for line in block.replace("\\\n", " ").splitlines()
        if not line.startswith("python -c ")
    ]
    assert all(argv[0] == "notouch" for argv in commands)
    readme_cases = [argv for name, (argv, *_) in CASES.items() if name.startswith("readme_")]
    assert sorted(argv[1:] for argv in commands) == sorted(readme_cases)


def test_the_readme_documents_only_what_the_cli_reads():
    # every --option of the command block is one the parser defines, and
    # every environment variable the README names is one cli.py reads
    import argparse

    from notouch import circuit, cli, engine, fock, paths

    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    defined = {
        option
        for command in (parser, *commands.choices.values())
        for action in command._actions
        for option in action.option_strings
    }
    documented = set(re.findall(r"(?<!\S)--[a-z][a-z0-9-]*", _readme_commands()))
    assert "--statistics" in documented and documented <= defined
    readme = (GOLDEN.parents[1] / "README.md").read_text()
    constants = {name for module in (circuit, cli, engine, fock, paths) for name in vars(module)}
    source = Path(cli.__file__).read_text()
    for name in set(re.findall(r"\b[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+\b", readme)) - constants:
        assert re.search(rf"environ\b[^\n]*[\"']{name}[\"']", source), name


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))
    for stale in GOLDEN.glob("*"):
        stale.unlink()
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            outputs = _invoke(case, Path(scratch))
        codes[case] = outputs.pop("exit")
        for file_name, data in outputs.items():
            if len(data) > 16_000:
                file_name, data = f"{file_name}.gz", gzip.compress(data, mtime=0)
            (GOLDEN / file_name).write_bytes(data)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
