"""Every public function, class and method of the package has a caller outside the tests.

A name is public when `src/`, `bench/`, `demos/` or the CLI uses it; one that only
tests call is either made private or deleted.  The check reads the sources with
`ast`: a use is a `Name`, an `Attribute` or an imported name anywhere in those trees,
and a definition alone is no use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toriclift"


def used_names():
    """Every name that code under src/, bench/ and demos/ reads, imports or calls."""
    names = set()
    for tree in ("src", "bench", "demos"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
    return names


def public_definitions():
    """(file, name) of each top-level public function and class of the package, and (file,
    "Class.name") of each public method or property in the body of a public class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.name, node.name
                for member in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield path.name, f"{node.name}.{member.name}"


def test_every_public_name_has_a_caller_outside_the_tests():
    used = used_names()
    unused = [f"{file}:{name}" for file, name in public_definitions() if name.rpartition(".")[2] not in used]
    assert unused == []


def test_the_check_sees_definitions_and_uses():
    # the package defines public names, methods and properties among them, and the CLI's entry
    # point counts as a use
    defined = list(public_definitions())
    assert len(defined) > 40 and ("cli.py", "main") in defined and "main" in used_names()
    assert ("criterion.py", "LiftVerdict.to_dict") in defined and ("polytope.py", "HPolytope.d") in defined
