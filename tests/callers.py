"""Every function in the package is run by a command, or README says why not.

    PYTHONPATH=src python tests/callers.py

It needs only the standard library, and it takes no options. In one
process, it imports every module of the package and then runs the fixed
command cases through ``cli.main``, each under one ``sys.settrace`` tracer
that records the code object of every call and returns None, so that no
line events fire:

* every case of ``golden_cases.CASES``;
* ``compare`` on every ordered pair of ``oracles.COMPARE_DESCRIPTORS`` under
  the default fit variant;
* ``compare --organs`` on two fixed organ tuples.

It lists every ``def`` in the package's modules with ``ast``. A function is
entered when a code object of its name starts on the line of its ``def`` or
of its first decorator. README's "Calculus surface without a runtime caller"
lists the functions that no command enters, one bullet each
(``- `module.Qualname`: reason``), so README is the one list. The script
exits 1 if a function is neither entered nor listed, if a listed function is
entered, or if a listed name names no function.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECTION = "## Calculus surface without a runtime caller"

# The paper's two organ tuples (see tests/test_organs.py): an adaptively
# redundant data structure and an adaptive N-version programming system.
PURPOSEFUL = {"class": "purposeful", "figures": {"cardinality": 0}, "social": False}
ORGAN_TUPLES = [
    {"M": PURPOSEFUL, "P": PURPOSEFUL, "E": PURPOSEFUL, "K": None, "k_stateful": False,
     "A": {"class": "proactive", "figures": {"cardinality": 1}, "social": False}},
    {"M": PURPOSEFUL, "P": PURPOSEFUL, "E": PURPOSEFUL, "K": PURPOSEFUL, "k_stateful": True,
     "A": {"class": "proactive", "figures": {"cardinality": 2}, "social": False}},
]

def functions(package: Path) -> dict:
    """``{"module.Qualname": {(path, line, name), ...}}`` for every ``def``
    in the package: the real path of its module, its name, and the line of
    the ``def`` or of its first decorator, where its code object starts."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines = (child.lineno, *(d.lineno for d in child.decorator_list[:1]))
                found[prefix + child.name] = {(path, line, child.name) for line in lines}
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), os.path.realpath(path),
              f"{path.stem}.")
    return found


def listed() -> dict:
    """README's calculus-surface bullets, ``{"module.Qualname": reason}``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    if f"\n{SECTION}\n" not in readme:
        sys.exit(f"README.md has no {SECTION!r} section")
    section = readme.split(f"\n{SECTION}\n", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"^- `([^`]+)`: (.+)$", section, re.MULTILINE))


def run_commands(package: Path) -> set:
    """Import every module of the package, then run the command cases, each
    import and each ``main`` call under the tracer; the ``(file, first line,
    name)`` of every code object called."""
    entered = set()

    def record(frame, event, arg):
        # The global trace function, which sees only ``call`` events.
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    def traced(function, *args):
        sys.settrace(record)
        try:
            return function(*args)
        finally:
            sys.settrace(None)

    for path in sorted(package.glob("*.py")):
        if path.stem != "__main__":  # it would run the command line
            traced(importlib.import_module, f"resilsim.{path.stem}")

    from golden_cases import CASES, run_case
    from oracles import COMPARE_DESCRIPTORS
    from resilsim.cli import main

    home = os.getcwd()
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as directory:
            os.chdir(directory)
            try:
                traced(run_case, name, Path(directory))
            finally:
                os.chdir(home)

    with tempfile.TemporaryDirectory() as directory:
        def write(name, payload):
            path = os.path.join(directory, f"{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            return path

        descriptors = [write(i, d) for i, d in enumerate(COMPARE_DESCRIPTORS)]
        organs = [write(f"organs{i}", c) for i, c in enumerate(ORGAN_TUPLES)]
        commands = [["compare", a, b] for a in descriptors for b in descriptors]
        commands.append(["compare", *organs, "--organs"])
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                status = traced(main, argv)
            if status != 0:
                sys.exit(f"{' '.join(argv)} exited {status}")
    return entered


def main() -> int:
    package = Path(importlib.util.find_spec("resilsim").origin).parent
    entered = run_commands(package)
    paths = {filename: os.path.realpath(filename) for filename, _, _ in entered}
    reached = {(paths[filename], line, name) for filename, line, name in entered}
    defined = functions(package)
    calls = {qualname for qualname, starts in defined.items() if starts & reached}
    exempt = listed()
    problems = [f"{q}: entered by no command and not listed in README"
                for q in sorted(defined.keys() - calls - exempt.keys())]
    problems += [f"{q}: listed in README but entered by a command"
                 for q in sorted(exempt.keys() & calls)]
    problems += [f"{q}: listed in README but defined nowhere in the package"
                 for q in sorted(exempt.keys() - defined.keys())]
    print(f"{len(defined)} functions: {len(calls)} entered by a command, "
          f"{len(exempt)} listed in README")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
