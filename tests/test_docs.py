"""The README's python blocks and the demos import only names the package
has, the README's `virtualsensor` command lines parse, the op list in
`nncore`'s docstring names only what `nncore` has, every public function
of each `src` module has a caller in `src/` or `demos/`, and no `src`
module imports another's private names. Each source is parsed with `ast` or
the CLI's parser; nothing in it runs."""

import ast
import importlib
import inspect
import re
import shlex
from pathlib import Path

import pytest

from virtualsensor import nncore
from virtualsensor.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
BASH_BLOCK = re.compile(r"^```bash\n(.*?)^```", re.MULTILINE | re.DOTALL)
DOCS = ["README.md", *(f"demos/{p.name}" for p in sorted((ROOT / "demos").glob("*.py")))]


def _package_imports(tree: ast.AST):
    """(module, name) for every name imported from the package; the name is
    None for a plain `import virtualsensor...`."""
    def ours(module):
        return module == "virtualsensor" or module.startswith("virtualsensor.")

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and ours(node.module or ""):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if ours(alias.name):
                    yield alias.name, None


@pytest.mark.parametrize("doc", DOCS)
def test_documented_imports_exist(doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    sources = PYTHON_BLOCK.findall(text) if doc.endswith(".md") else [text]
    imports = [pair for source in sources for pair in _package_imports(ast.parse(source))]
    assert imports, f"{doc} imports nothing from virtualsensor"
    missing = []
    for module, name in imports:
        try:
            found = importlib.import_module(module)
        except ImportError:
            missing.append(module)
            continue
        if name not in (None, "*") and not hasattr(found, name):
            missing.append(f"{module}.{name}")
    assert missing == [], f"{doc} imports names the package does not have"


README_COMMANDS = [line for block in BASH_BLOCK.findall((ROOT / "README.md").read_text("utf-8"))
                   for line in block.splitlines() if line.startswith("virtualsensor ")]


def test_readme_shows_every_cli_command():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert {shlex.split(line)[1] for line in README_COMMANDS} == set(sub.choices)


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_command_lines_parse(line):
    # argparse exits (SystemExit) on an unknown command or flag, or a missing one.
    args = build_parser().parse_args(shlex.split(line)[1:])
    assert callable(args.func)


def test_tape_rules_name_only_what_nncore_has():
    # Each backticked name in the "Tape rules" paragraph of nncore's
    # docstring, dotted or not, resolves from `nncore` or from `nncore.Var`.
    paragraph = next(p for p in nncore.__doc__.split("\n\n") if p.startswith("Tape rules."))
    names = [n for n in re.findall(r"`([^`]+)`", paragraph)
             if re.fullmatch(r"[A-Za-z_]\w*(\.\w+)*", n)]
    assert names

    def resolves(owner, dotted):
        for part in dotted.split("."):
            if not hasattr(owner, part):
                return False
            owner = getattr(owner, part)
        return True

    missing = [n for n in names if not (resolves(nncore, n) or resolves(nncore.Var, n))]
    assert missing == [], "the Tape rules paragraph names what nncore does not have"


SRC_MODULES = sorted(p.stem for p in (ROOT / "src" / "virtualsensor").glob("[!_]*.py"))


@pytest.mark.parametrize("module", SRC_MODULES)
def test_every_public_function_is_used(module):
    # No public API that only tests use: each public module-level function
    # of a `src` module is named in `src/` or `demos/` by something other
    # than its definition.
    named = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    mod = importlib.import_module(f"virtualsensor.{module}")
    public = [name for name, f in vars(mod).items() if inspect.isfunction(f)
              and f.__module__ == mod.__name__ and not name.startswith("_")]
    assert module != "nncore" or "affine" in public
    assert [name for name in public if name not in named] == []


def test_no_module_imports_a_private_name():
    # A name one module keeps private is its own decision: no other module of
    # the package imports it (tape nodes, for one, are built only in nncore).
    private = []
    for path in sorted((ROOT / "src" / "virtualsensor").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [f"{path.stem}: {node.module}.{alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []
