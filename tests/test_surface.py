"""The production modules carry only what runs outside the tests.

Every public top-level function or class of src/noisylab (oracles.py, which
holds the reference forms, aside) must be referenced by name from non-test
code: the package itself, the demos or the benchmark worker. A form that only
tests or oracles call belongs in oracles.py. Every parameter of a function
defined there is read in its body, and every field of a typed run
configuration is read as an attribute outside its own class: a parameter or
setting nothing reads is a no-op. JSON is written in one place,
util.dumps_deterministic.
"""

import ast
import glob
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = os.path.join(ROOT, "src", "noisylab")
# oracles.py is where reference-only forms go; __init__.py only re-exports
# names for the demos and the README, which count as users themselves
NOT_PRODUCTION = {"oracles.py", "__init__.py"}

# "module.name" -> why it stays although no non-test code refers to it.
# Keep every entry commented; test_allowlist_is_current drops stale ones.
ALLOWLIST: dict = {}


def _production_modules():
    return sorted(p for p in glob.glob(os.path.join(PACKAGE, "*.py"))
                  if os.path.basename(p) not in NOT_PRODUCTION)


def _tree(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _public_definitions():
    for path in _production_modules():
        module = os.path.splitext(os.path.basename(path))[0]
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield "%s.%s" % (module, node.name)


def _referenced_names():
    users = (_production_modules() + sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
             + [os.path.join(ROOT, "perfbench", "worker.py")])
    names = set()
    for path in users:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_public_definitions_are_used_outside_tests():
    referenced = _referenced_names()
    unused = [qual for qual in _public_definitions()
              if qual.split(".")[1] not in referenced and qual not in ALLOWLIST]
    assert unused == [], ("public names only tests or oracles use; move them to "
                          "oracles.py or delete them: %s" % ", ".join(unused))


def test_allowlist_is_current():
    defined = set(_public_definitions())
    referenced = _referenced_names()
    stale = [qual for qual in ALLOWLIST
             if qual not in defined or qual.split(".")[1] in referenced]
    assert stale == []


# "module.function.parameter" -> why it stays although the body never reads it.
UNREAD_ALLOWLIST = {
    # perfbench/worker.py passes eval_mode=True; forward_batch has no
    # train-time-only behaviour for it to switch off
    "net.forward_batch.eval_mode": "passed by the benchmark worker",
}


def _unread_parameters():
    for path in _production_modules():
        module = os.path.splitext(os.path.basename(path))[0]
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)}
            for name in params:
                if name not in read:
                    yield "%s.%s.%s" % (module, node.name, name)


def test_every_parameter_is_read():
    unread = [qual for qual in _unread_parameters() if qual not in UNREAD_ALLOWLIST]
    assert unread == [], "parameters no body reads; delete them: %s" % ", ".join(unread)


def test_unread_allowlist_is_current():
    assert sorted(set(UNREAD_ALLOWLIST) - set(_unread_parameters())) == []


# the typed run configurations: each field is a setting some code must read
CONFIG_CLASSES = ("TrainConfig", "RamConfig", "CdclConfig", "AugmentConfig")


def _config_fields():
    """(class name, "module.Class.field") for every field of CONFIG_CLASSES."""
    for path in _production_modules():
        module = os.path.splitext(os.path.basename(path))[0]
        for node in _tree(path).body:
            if isinstance(node, ast.ClassDef) and node.name in CONFIG_CLASSES:
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        yield node.name, "%s.%s.%s" % (module, node.name, stmt.target.id)


def _attribute_reads():
    """(enclosing config class or None, name) of every x.name read in the
    production modules."""
    reads = set()

    def visit(node, owner):
        if isinstance(node, ast.ClassDef) and node.name in CONFIG_CLASSES:
            owner = node.name
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add((owner, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in _production_modules():
        visit(_tree(path), None)
    return reads


def test_config_classes_found():
    assert sorted({cls for cls, _ in _config_fields()}) == sorted(CONFIG_CLASSES)


def test_every_config_field_is_read():
    reads = _attribute_reads()
    unread = [qual for cls, qual in _config_fields()
              if not any(owner != cls and name == qual.split(".")[-1] for owner, name in reads)]
    assert unread == [], "config fields nothing reads; delete them: %s" % ", ".join(unread)


# the sections of the config file that hold each typed configuration's keys
CONFIG_SECTIONS = {"TrainConfig": ("trainer", "net"), "RamConfig": ("ram",),
                   "CdclConfig": ("cdcl",), "AugmentConfig": ("augment",)}
# the TrainConfig fields config.to_train_config derives from run.seed
DERIVED_FIELDS = {"net1_seed", "net2_seed", "loop_seed"}


def test_every_config_field_has_a_key():
    """A setting is written once, in its dataclass, and reaches the file
    format by its name in one section's key list; a field that holds a nested
    configuration is named like that configuration's section."""
    from noisylab import config

    keyless = []
    for cls, qual in _config_fields():
        named = set(config.SCHEMA).union(*(config.SCHEMA[s] for s in CONFIG_SECTIONS[cls]))
        if qual.split(".")[-1] not in named | DERIVED_FIELDS:
            keyless.append(qual)
    assert keyless == [], "config fields with no config key: %s" % ", ".join(keyless)


def test_one_json_writer():
    # every JSON artifact goes through util.dumps_deterministic, the one
    # place that holds the record format
    calls = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        if os.path.basename(path) == "util.py":
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                calls += ["%s imports json.%s" % (os.path.basename(path), alias.name)
                          for alias in node.names if alias.name in ("dump", "dumps")]
            elif isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps") \
                    and isinstance(node.value, ast.Name) and node.value.id == "json":
                calls.append("%s:%d json.%s" % (os.path.basename(path), node.lineno, node.attr))
    assert calls == []
