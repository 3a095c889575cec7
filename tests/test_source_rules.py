"""Source rules: every numerical threshold lives in `tolerances.py`; only `channel.py` forms matrix powers of S;
only `jsonutil.py` writes 17-digit float text."""

import ast
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "channellab"


def exponent_literals(path: Path) -> list[tuple[int, str]]:
    """(line, text) of every float literal written in exponent form, such as ``1e-8``."""
    with path.open("rb") as f:
        return [
            (tok.start[0], tok.string)
            for tok in tokenize.tokenize(f.readline)
            if tok.type == tokenize.NUMBER
            and not tok.string.lower().startswith("0x")
            and "e" in tok.string.lower()
        ]


def test_scanner_finds_the_tolerance_table():
    assert exponent_literals(SRC / "tolerances.py")


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "tolerances.py"),
    ids=lambda p: p.name,
)
def test_no_exponent_literal_outside_tolerances(path):
    assert exponent_literals(path) == []


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name not in ("channel.py", "__init__.py")),
    ids=lambda p: p.name,
)
def test_no_runtime_module_imports_the_superoperator_power(path):
    # the complex S is formed only by `Superoperator.matrix` and by explicit `power` calls
    lines = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "channel" and node.level == 1
        for alias in node.names
        if alias.name == "power"
    ]
    assert lines == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_calls_matrix_power(path):
    # every power of R is a product of the renormalized squares of `channel._squares`
    lines = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "matrix_power"
    ]
    assert lines == []


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "jsonutil.py"), ids=lambda p: p.name)
def test_only_jsonutil_writes_seventeen_digit_floats(path):
    # float text has one writer, so every report formats a double the same way
    lines = [n for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if ".17g" in line]
    assert lines == []


def test_jsonutil_writes_seventeen_digit_floats():
    assert ".17g" in (SRC / "jsonutil.py").read_text(encoding="utf-8")
