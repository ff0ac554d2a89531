"""Names the docs point at must exist: every backticked private name (`_x`
or `module._x`) and every `Class.attr` in the sblq docstrings and the
README resolves to an attribute of an sblq module, so a deleted helper or
attribute cannot linger in the prose that explains the code."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import sblq

PACKAGE = Path(sblq.__file__).parent
PRIVATE = re.compile(r"(?:([a-z]\w*)\.)?(_\w+)")
CLASS_ATTR = re.compile(r"([A-Z]\w*)\.(\w+)")


def _texts():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node)
                if doc:
                    yield path.name, doc
    yield "README.md", (PACKAGE.parent.parent / "README.md").read_text()


def _resolves(name, modules):
    private = PRIVATE.fullmatch(name)
    if private:
        owner, attr = private.groups()
        if owner:
            return owner in modules and hasattr(modules[owner], attr)
        return any(hasattr(m, attr) for m in modules.values())
    cls_name, attr = CLASS_ATTR.fullmatch(name).groups()
    classes = [getattr(m, cls_name) for m in modules.values()
               if isinstance(getattr(m, cls_name, None), type)]
    return any(hasattr(c, attr) or attr in getattr(c, "__dataclass_fields__", {})
               for c in classes)


def test_backticked_names_in_the_docs_resolve():
    modules = {info.name: importlib.import_module(f"sblq.{info.name}")
               for info in pkgutil.iter_modules(sblq.__path__)}
    named = {(where, tok) for where, text in _texts()
             for tok in re.findall(r"`([^`\n]+)`", text)
             if PRIVATE.fullmatch(tok) or CLASS_ATTR.fullmatch(tok)}
    assert len(named) >= 20
    assert [(where, tok) for where, tok in sorted(named) if not _resolves(tok, modules)] == []
