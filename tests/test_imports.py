"""Every imported name is used: a small stand-in for pyflakes' F401."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# perfbench/ is left out: it changes only together with the benchmark
CHECKED = [path for folder in ("src/nornet", "tools", "tests")
           for path in sorted((ROOT / folder).glob("*.py"))]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that is neither read anywhere in
    the module nor listed in __all__; an import whose lines carry "# noqa"
    is exempt, and so are __future__ imports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if (getattr(node, "module", None) == "__future__"
                    or any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno])):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                  for t in node.targets):
            used.update(ast.literal_eval(node.value))
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(note) if note is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    # a quoted annotation such as "Tape | None"
                    used.update(n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                                if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_only_unused_names():
    source = ("import os, sys, json\nfrom a import b as c, d  # noqa: F401\nfrom e import (f,\n    g)\n"
              "from h import i\n__all__ = ['i']\nx: 'sys.T' = f\ny = 'json'\n")
    assert unused_imports(source) == [(1, "json"), (1, "os"), (3, "g")]


def test_no_module_imports_a_name_it_never_uses():
    assert len(CHECKED) > 10
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}" for path in CHECKED
              for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not unused, unused
