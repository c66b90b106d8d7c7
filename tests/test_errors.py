"""The package raises only errors a caller can tell apart: a builtin exception
or one of the four classes in errors.py, which are exactly what the CLI's two
exit codes separate. A new class needs a caller that catches it, and this test
changed to name it."""

import ast
import builtins
from pathlib import Path

import dynexec
from dynexec import errors

ERROR_CLASSES = {"DynexecError", "ParseError", "SchemaError", "MissingSeries"}
BUILTIN_ERRORS = {name for name, value in vars(builtins).items()
                  if isinstance(value, type) and issubclass(value, BaseException)}


def test_errors_defines_exactly_the_classes_the_cli_tells_apart():
    tree = ast.parse(Path(errors.__file__).read_text())
    assert {node.name for node in tree.body if isinstance(node, ast.ClassDef)} == ERROR_CLASSES


def test_every_raise_names_a_builtin_or_an_errors_class():
    sources = sorted(Path(dynexec.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:  # a bare raise re-raises
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = ast.unparse(exc)
                assert name in BUILTIN_ERRORS | ERROR_CLASSES, f"{path.name}:{node.lineno} raises {name}"
