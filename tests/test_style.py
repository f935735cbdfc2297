"""Source layout rules for the package."""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "notouch"
MAX_COLUMNS = 99


def test_every_source_line_fits_in_99_columns():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    long_lines = [
        f"{path.name}:{number}: {len(line)} columns"
        for path in sources
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert not long_lines, long_lines
