"""List the lines of the ``openjacobi`` package that a pytest run never executes.

A stand-in for a coverage tool, built on the standard library only.  It runs
``pytest.main(argv)`` under ``sys.settrace`` and ``threading.settrace``, line
tracing only frames whose code lives in the package, and then prints every
executable line (read from the code objects' ``co_lines``) that never ran as
``path:line: source``.  Lines of ``def`` and ``class`` statements, decorators,
imports and module-level code are skipped: they run at import or define
rather than compute.  The package comes from ``PYTHONPATH``; arguments go to
pytest unchanged:

    PYTHONPATH=src python3 tools/line_trace.py -q -p no:cacheprovider
    PYTHONPATH=src python3 tools/line_trace.py -q tests/test_cli.py

On a shared 2-vCPU VM the whole suite took 133 s under trace against
96-112 s without.  The exit code is pytest's.
"""

import ast
import importlib.util
import inspect
import sys
import threading
import time
from pathlib import Path

PACKAGE = "openjacobi"


def package_dir() -> Path:
    """The package's directory, found without importing it (an import
    before tracing would hide the lines it runs)."""
    spec = importlib.util.find_spec(PACKAGE)
    if spec is None or spec.origin is None:
        sys.exit(f"cannot find {PACKAGE!r}; put its source directory on PYTHONPATH")
    return Path(spec.origin).parent


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _code_objects(const)


def _skipped_lines(tree) -> set:
    """Lines of def and class headers (signatures included), decorators and
    imports anywhere in the module."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            skip.update(range(node.lineno, node.body[0].lineno))
            for deco in node.decorator_list:
                skip.update(range(deco.lineno, deco.end_lineno + 1))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            skip.update(range(node.lineno, node.end_lineno + 1))
    return skip


def executable_lines(path: Path) -> set:
    """Lines of the file's function bodies that carry bytecode."""
    source = path.read_text()
    module = compile(source, str(path), "exec")
    lines = set()
    for code in _code_objects(module):
        if code.co_flags & inspect.CO_OPTIMIZED:        # functions, not module or class bodies
            lines.update(line for _, _, line in code.co_lines() if line is not None)
    return lines - _skipped_lines(ast.parse(source))


def main(argv) -> int:
    import pytest

    root = str(package_dir())
    executed = set()
    lock = threading.Lock()

    def local(frame, event, arg):
        if event == "line":
            with lock:
                executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(root):
            return local
        return None

    start = time.perf_counter()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    elapsed = time.perf_counter() - start

    missed = 0
    for path in sorted(Path(root).glob("*.py")):
        ran = {line for name, line in executed if name == str(path)}
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran):
            print(f"{path.relative_to(Path(root).parent)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines never ran ({elapsed:.0f} s under trace, "
          f"pytest exit {int(code)})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
