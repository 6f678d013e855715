"""Every function and method in src/qgw is reached from src/qgw.

A module-level function or a non-dunder method passes when its name occurs
as a code token (not in a string or comment, not in an import statement)
somewhere in src/qgw outside every definition of that name.  The check works
on names, so a method shares its name with every other use of that name; it
catches API that only tests call, not every unreachable path.  Uses inside a
namesake's body do not count, so two methods of one name that only call
each other (a parser delegating to its entries' parser) are caught too.
"""
import ast
import io
import tokenize
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qgw"

# qualified name -> why it stays although nothing in src/ names it
ALLOWED = {
    "cfact.compatible":
        "the acceptance gate's compatibility-vs-commutation guarantee",
    "fixtures.FiniteGroupoid.cyclic": "cli.FAMILIES reaches it by getattr",
}


def definitions(tree: ast.Module, module: str):
    """(qualified name, bare name, first line, last line) of each
    module-level function and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield (f"{module}.{node.name}", node.name, node.lineno,
                   node.end_lineno)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__")):
                    yield (f"{module}.{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def code_names(text: str, tree: ast.Module):
    """(name, line) of every NAME token outside import statements."""
    imports = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.update(range(node.lineno, node.end_lineno + 1))
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME and tok.start[0] not in imports:
            yield tok.string, tok.start[0]


def parsed():
    """(module, source text, syntax tree) of every module of src/qgw."""
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        yield path.stem, text, ast.parse(text)


def unreferenced(modules=None) -> list:
    """Qualified names of the definitions in modules (module, source text,
    syntax tree; by default src/qgw's) whose bare name occurs only inside
    definitions of that name."""
    modules = list(parsed()) if modules is None else modules
    bodies = defaultdict(list)  # name -> [(module, first, last)] defining it
    uses = defaultdict(list)  # name -> [(module, line)] of its tokens
    for module, text, tree in modules:
        for _, name, first, last in definitions(tree, module):
            bodies[name].append((module, first, last))
        for name, line in code_names(text, tree):
            uses[name].append((module, line))
    return [
        qualname
        for module, _, tree in modules
        for qualname, name, _, _ in definitions(tree, module)
        if all(any(where == home and first <= line <= last
                   for home, first, last in bodies[name])
               for where, line in uses[name])
    ]


def test_every_definition_in_src_is_referenced_from_src():
    missing = [q for q in unreferenced() if q not in ALLOWED]
    assert not missing, (
        "defined in src/qgw but named in src/qgw only inside its namesakes: "
        + ", ".join(missing)
    )


def test_allowlist_names_existing_definitions():
    defined = {entry[0] for module, _, tree in parsed()
               for entry in definitions(tree, module)}
    assert set(ALLOWED) <= defined, set(ALLOWED) - defined


def test_allowlist_entries_are_still_unreferenced():
    stale = set(ALLOWED) - set(unreferenced())
    assert not stale, f"now referenced from src/qgw, drop from ALLOWED: {stale}"


def test_uses_inside_a_namesake_definition_do_not_count():
    # B.load calls A.load and nothing else names load: both are caught;
    # helper is named from run, which run's caller names in turn
    text = """
class A:
    def load(self):
        return 1


class B:
    def load(self):
        return A().load()


def helper():
    return 2


def run():
    return helper()


def main():
    return run()
"""
    modules = [("demo", text, ast.parse(text))]
    assert unreferenced(modules) == ["demo.A.load", "demo.B.load",
                                     "demo.main"]
