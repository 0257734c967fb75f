"""Source-level rules for the library package."""

import ast
from collections import Counter
from pathlib import Path

import ptareach

SRC = Path(ptareach.__file__).parent


def test_library_has_no_asserts():
    # Invariants must raise real exceptions: asserts vanish under python -O.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_the_kernel_keeps_a_queue():
    # Searches run on the kernel in semantics (shortest_path, reachable);
    # a module importing a queue or a heap is writing its own.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "semantics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {f"{node.module}.{alias.name}" for alias in node.names} | {node.module}
            else:
                continue
            if names & {"heapq", "collections.deque"}:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_line_over_100_characters():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if len(line) > 100:
                found.append(f"{path.name}:{lineno}")
    assert found == []


def test_no_unused_module_imports():
    # A name imported at module level and read nowhere in the module is a
    # leftover of an edit.  __init__.py imports only to re-export.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used]
    assert found == []


def _referenced_names(tree) -> list:
    return [node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]


def test_every_private_function_is_referenced():
    # A private module-level function or method that no code outside its own
    # body names is dead.  Dunder methods are called by the language.
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    counts = Counter(name for tree in trees.values() for name in _referenced_names(tree))
    found = []
    for module, tree in trees.items():
        defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            defs += [node for node in cls.body if isinstance(node, ast.FunctionDef)]
        for node in defs:
            private = node.name.startswith("_") and not node.name.endswith("__")
            own = Counter(_referenced_names(node))[node.name]
            if private and counts[node.name] == own:
                found.append(f"{module}:{node.lineno} {node.name}")
    assert found == []


def test_only_automata_groups_rules_by_source():
    # The rules leaving a state are read from the automaton's ``leaving``
    # index; a module comparing a rule's source is scanning every rule.
    # The one exception is the stepper's check that a label's rule leaves
    # the configuration's state.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "automata.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "semantics.py":
            stepper = next(node for node in tree.body
                           if isinstance(node, ast.FunctionDef) and node.name == "_label_step")
            allowed = {id(node) for node in ast.walk(stepper)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare) or id(node) in allowed:
                continue
            operands = [node.left, *node.comparators]
            if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) and any(
                isinstance(x, ast.Attribute) and x.attr == "src" for x in operands
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_private_module_constant_is_read():
    # A private module-level name, tuple targets included, that no code in
    # the package reads is a leftover of an edit.
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            names = [name.id for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
            found += [f"{module}:{node.lineno} {name}" for name in names
                      if name.startswith("_") and not name.endswith("__") and name not in read]
    assert found == []
