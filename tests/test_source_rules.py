"""Rules every module of the package keeps, checked on its source."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import smallpunch
from smallpunch.pipeline import KINDS

SOURCES = sorted(Path(smallpunch.__file__).parent.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _calls(path, names):
    """(line, name, node) of every call of a function or method named in names."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                found.append((node.lineno, name, node))
    return found


def _file_calls_without_encoding(path):
    """(line, call) of every read_text, write_text or open call with no encoding=."""
    return [(line, name) for line, name, node in _calls(path, {"read_text", "write_text", "open"})
            if not any(kw.arg == "encoding" for kw in node.keywords)]


def _tree_class_names(path):
    """(line, name) of every mention of the nested tree classes Split and Leaf."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in ("Split", "Leaf"):
            found.append((node.lineno, name))
    return found


def _imported_packages(path):
    """(line, top-level name) of every absolute import of a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"cli.py", "dataio.py", "modelfile.py"}


def test_every_text_file_is_read_and_written_as_utf8():
    missing = {p.name: calls for p in SOURCES if (calls := _file_calls_without_encoding(p))}
    assert missing == {}


def test_the_package_needs_numpy_and_the_standard_library_alone():
    allowed = {"smallpunch", "numpy"} | set(sys.stdlib_module_names)
    foreign = {p.name: names for p in SOURCES
               if (names := [(line, name) for line, name in _imported_packages(p)
                             if name not in allowed])}
    assert foreign == {}


def test_the_command_line_imports_no_scipy():
    probe = "import sys, smallpunch.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            cwd=Path(smallpunch.__file__).parent.parent, check=True)
    assert result.stdout.strip() == "False"


def test_only_the_forest_module_names_the_nested_tree_classes():
    # the fitted forest is its node table: saving, loading and predicting
    # never go through Split/Leaf trees
    named = {p.name: lines for p in SOURCES
             if p.name != "forest.py" and (lines := _tree_class_names(p))}
    assert named == {}


def test_only_the_curve_module_splits_on_commas():
    # one reader, curves.read_table, knows the table dialect
    splits = {p.name: lines for p in SOURCES if p.name != "curves.py" and (lines := [
        line for line, _, node in _calls(p, {"split"})
        if node.args and isinstance(node.args[0], ast.Constant) and node.args[0].value == ","
    ])}
    assert splits == {}


def test_only_the_curve_module_reads_text_with_numpy_and_always_with_a_separator():
    # np.fromstring without sep= reinterprets raw bytes, a deprecated mode
    reads = {p.name: [(line, any(kw.arg == "sep" for kw in node.keywords))
                      for line, _, node in _calls(p, {"fromstring"})] for p in SOURCES}
    assert {name: lines for name, lines in reads.items() if lines and name != "curves.py"} == {}
    assert reads["curves.py"] and all(has_sep for _, has_sep in reads["curves.py"])


def test_the_command_line_reads_and_writes_no_file_itself():
    # every table goes through dataio, every model file through modelfile
    cli = next(p for p in SOURCES if p.name == "cli.py")
    assert [(line, name) for line, name, _ in _calls(cli, {"read_text", "write_text", "open"})] == []


def test_the_command_line_imports_no_family():
    # each kind builds itself from the flags and gives its own diagnostics
    family = {kind.__name__ for kind in KINDS.values()} | {
        "ForestConfig", "ForestModel", "column_labels"}
    cli = next(p for p in SOURCES if p.name == "cli.py")
    imported = [(node.lineno, alias.name)
                for node in ast.walk(ast.parse(cli.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert [(line, name) for line, name in imported if name in family] == []


def test_the_command_line_asks_no_model_or_kind_its_class():
    cli = next(p for p in SOURCES if p.name == "cli.py")
    asked = [(line, ast.unparse(node)) for line, _, node in _calls(cli, {"isinstance"})]
    assert [(line, call) for line, call in asked
            if "model" in call.lower() or "Kind" in call] == []


def test_only_the_errors_module_raises_an_error_of_the_class_it_caught():
    # errors.prefixed is the one way to name where an error arose
    rebuilt = {p.name: lines for p in SOURCES if p.name != "errors.py" and (lines := [
        node.lineno for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Call)
        and getattr(node.func.func, "id", None) == "type"
    ])}
    assert rebuilt == {}


def test_every_trace_point_of_the_benchmark_exists(monkeypatch):
    # the benchmark's --trace 1 wraps each (module, attribute) by name; a
    # renamed or unbound function would only fail there, at getattr
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    missing = [
        (module.__name__, attr) for module, attr, _ in workloads.TRACE_POINTS
        if not callable(getattr(module, attr, None))
    ]
    assert len(workloads.TRACE_POINTS) > 30
    assert missing == []


def test_every_exported_name_is_bound_once():
    names = smallpunch.__all__
    assert [n for n in names if not hasattr(smallpunch, n)] == []
    assert len(names) == len(set(names))
