"""Every top-level name of src/tempokit is one the package runs.

A module-level def, class or assignment that no other code in the
package names is run only by tests (it belongs in tests/oracles.py) or
by nobody. The walk reads the ASTs, so a name in a comment or docstring
does not count as a use.
"""

import ast
import pathlib

import tempokit

PACKAGE = pathlib.Path(tempokit.__file__).parent

# The library halves of formats a command reads or writes: the tokens
# command reads TTE1 files (write_embeddings) and writes TTC1 files
# (read_condition), and av-align reads PPM frame directories
# (write_video_ppm).
FORMAT_HALVES = {"write_embeddings", "read_condition", "write_video_ppm"}


def top_level_names(tree):
    """(name, node) for each def, class and assigned name at module
    level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def named(node):
    """The names node refers to: a loaded name, an attribute, or a name
    imported from a module."""
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def unused_names():
    """(module, name) for each top-level name that nothing outside its
    own definition names."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    uses = [(name, node) for tree in trees.values()
            for node in ast.walk(tree) for name in named(node)]
    unused = []
    for module, tree in trees.items():
        for name, definition in top_level_names(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if not any(used == name and id(node) not in inside
                       for used, node in uses):
                unused.append((module, name))
    return unused


def test_every_top_level_name_is_named_elsewhere_in_the_package():
    # dunder names (__all__, __version__) are read by Python and by
    # packaging tools, not by code
    unused = [(module, name) for module, name in unused_names()
              if name not in FORMAT_HALVES and not name.startswith("__")]
    assert unused == []


def test_the_format_halves_are_still_defined_and_unused():
    # an exception that the package starts to use, or drops, goes from
    # the list
    assert FORMAT_HALVES <= {name for _, name in unused_names()}
