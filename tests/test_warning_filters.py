"""No file under tests/ or demos/ ignores warnings without naming a category.

The suite makes every warning an error (``filterwarnings = ["error"]`` in
pyproject.toml), so a warning is either removed at its source or ignored by its
category where a test expects it.  A bare ``simplefilter("ignore")`` or
``filterwarnings("ignore")`` hides every warning, the program's own included.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def blanket_ignores(source: str) -> list[int]:
    """Lines of the calls that ignore warnings of every category.

    `simplefilter(action, category)`, `warnings.filterwarnings(action, message, category)`
    and `pytest.mark.filterwarnings("action:message:category", ...)`: an "ignore" with no
    category given is blanket.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or not isinstance(node.func, (ast.Attribute, ast.Name)):
            continue
        func = node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
        if func not in ("simplefilter", "filterwarnings"):
            continue
        texts = [a.value for a in node.args if isinstance(a, ast.Constant) and isinstance(a.value, str)]
        named = any(k.arg == "category" for k in node.keywords)
        if isinstance(node.func, ast.Attribute) and getattr(node.func.value, "attr", None) == "mark":
            specs = [text.split(":") for text in texts]  # each "action:message:category:..."
            if any(s[0] == "ignore" and not (len(s) > 2 and s[2].strip()) for s in specs):
                lines.append(node.lineno)
        elif texts[:1] == ["ignore"] and not named and len(node.args) <= (1 if func == "simplefilter" else 2):
            lines.append(node.lineno)
    return lines


def test_no_blanket_warning_ignore_in_tests_or_demos():
    found = [
        f"{path.relative_to(REPO)}:{line}"
        for folder in ("tests", "demos")
        for path in sorted((REPO / folder).rglob("*.py"))
        for line in blanket_ignores(path.read_text(encoding="utf-8"))
    ]
    assert not found, f"warnings ignored without a category at {found}"


@pytest.mark.parametrize(
    "source,blanket",
    [
        ('warnings.simplefilter("ignore")', True),
        ('simplefilter("ignore")', True),
        ('warnings.filterwarnings("ignore")', True),
        ('warnings.filterwarnings("ignore", "overflow")', True),
        ('pytest.mark.filterwarnings("ignore")', True),
        ('pytest.mark.filterwarnings("ignore::UserWarning", "ignore:overflow")', True),
        ('warnings.simplefilter("ignore", UserWarning)', False),
        ('warnings.simplefilter("ignore", category=UserWarning)', False),
        ('warnings.simplefilter("error")', False),
        ('warnings.filterwarnings("ignore", "overflow", RuntimeWarning)', False),
        ('warnings.filterwarnings("ignore", category=RuntimeWarning)', False),
        ('pytest.mark.filterwarnings("ignore::RuntimeWarning")', False),
        ('pytest.mark.filterwarnings("error")', False),
    ],
)
def test_the_check_tells_blanket_from_named(source, blanket):
    assert bool(blanket_ignores(source)) is blanket
