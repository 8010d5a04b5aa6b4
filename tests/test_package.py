"""Package-level guards on the source tree."""

import ast
import os
import re

import oblique_skorohod as ok

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "oblique_skorohod")


def _sources(*dirs):
    """path -> text of every .py file under the given directories."""
    out = {}
    for top in dirs:
        for base, _, names in os.walk(top):
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    with open(path, encoding="utf-8") as fh:
                        out[path] = fh.read()
    return out


def test_every_public_function_is_exported_or_called():
    # a public module-level function is an entry point (in __all__) or has
    # a use somewhere in the library or the benchmark outside its own body
    texts = _sources(PACKAGE, os.path.join(ROOT, "bench"))
    orphans = []
    for path, text in texts.items():
        if os.path.dirname(path) != PACKAGE:
            continue
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, ast.FunctionDef) \
                    or node.name.startswith("_") or node.name in ok.__all__:
                continue
            word = re.compile(rf"\b{node.name}\b")
            own = lines[:node.lineno - 1] + lines[node.end_lineno:]
            if not any(word.search(other) for p, other in texts.items()
                       if p != path) and not word.search("\n".join(own)):
                orphans.append(f"{os.path.basename(path)}:{node.name}")
    assert orphans == []
