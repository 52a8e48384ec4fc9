"""No unset knobs: every defaulted constructor parameter of ``adaptivity/``
and ``optimizer/reoptimizer.py`` is one that some ``src/`` call site passes,
by position or by keyword.  A default nobody overrides is a constant, and
belongs in the code as one."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
SCOPE = (*sorted((SRC / "adaptivity").glob("*.py")), SRC / "optimizer" / "reoptimizer.py")


def _defaulted(cls: ast.ClassDef):
    """``(position, name)`` of each defaulted constructor parameter (a
    keyword-only one has no position)."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            params = node.args.args[1:]
            first = len(params) - len(node.args.defaults)
            yield from ((i, p.arg) for i, p in enumerate(params) if i >= first)
            kwonly = zip(node.args.kwonlyargs, node.args.kw_defaults)
            yield from ((None, p.arg) for p, default in kwonly if default is not None)
    if any("dataclass" in ast.unparse(decorator) for decorator in cls.decorator_list):
        fields = [n for n in cls.body if isinstance(n, ast.AnnAssign)]
        yield from ((i, f.target.id) for i, f in enumerate(fields) if f.value is not None)


def test_every_defaulted_constructor_parameter_has_a_src_caller_that_sets_it():
    calls: dict[str, list[ast.Call]] = {}
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                calls.setdefault(name, []).append(node)

    def passed(call: ast.Call, position: int | None, name: str) -> bool:
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            return True
        if position is not None and len(call.args) > position:
            return True
        return any(keyword.arg in (name, None) for keyword in call.keywords)

    unset = [
        f"{path.relative_to(SRC)}: {cls.name}({name}=...)"
        for path in SCOPE
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for position, name in _defaulted(cls)
        if not any(passed(call, position, name) for call in calls.get(cls.name, ()))
    ]
    assert unset == []
