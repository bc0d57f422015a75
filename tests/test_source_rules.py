"""Rules every module of the package keeps, checked on its source."""

import ast
import importlib
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import smallpunch
from smallpunch import dataio, pipeline
from smallpunch.curves import GridSpec, parse_curve_csv
from smallpunch.features import Standardizer, assemble, strengths
from smallpunch.forest import ForestConfig, ForestModel, fit_forest, predict_forest
from smallpunch.modelfile import _ARRAYS, _SCALARS, save_model
from smallpunch.pca import PcaModel, fit_pca
from smallpunch.pipeline import KINDS, PcaLmKind, fit_pipeline
from smallpunch.regress import EmpiricalModel, LinearModel
from smallpunch.synth import SynthConfig, generate

SOURCES = sorted(Path(smallpunch.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _calls(path, names):
    """(line, name, node) of every call of a function or method named in names."""
    return _calls_in(ast.parse(path.read_text(encoding="utf-8"), str(path)), names)


def _calls_in(tree, names):
    """_calls of one parsed module or one node of it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                found.append((node.lineno, name, node))
    return found


def _callers(path, names):
    """(line, innermost enclosing function or None) of every call named in names."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    caller = {}
    # ast.walk meets an outer function before the functions inside it
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for line, _, _ in _calls_in(func, names):
                caller[line] = func.name
    return [(line, caller.get(line)) for line, _, _ in _calls_in(tree, names)]


def _file_calls_without_encoding(path):
    """(line, call) of every read_text, write_text or open call with no encoding=."""
    return [(line, name) for line, name, node in _calls(path, {"read_text", "write_text", "open"})
            if not any(kw.arg == "encoding" for kw in node.keywords)]


def _names(path):
    """(line, name) of every name, attribute and imported name the module mentions."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.alias):
            found.append((node.lineno, node.name))
    return found


def _defined_names(node):
    """The names a class-body statement binds: a def's, an assignment's targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _tree_class_names(path):
    """(line, name) of every mention of the nested tree classes Split and Leaf."""
    return [(line, name) for line, name in _names(path) if name in ("Split", "Leaf")]


def _imported_packages(path):
    """(line, top-level name) of every absolute import of a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def _curve_row_fstrings(tree):
    """Line of every f-string of a parsed node where a literal ending 'curve ' precedes a value."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
            and any(isinstance(a, ast.Constant) and a.value.endswith("curve ")
                    and isinstance(b, ast.FormattedValue)
                    for a, b in zip(node.values, node.values[1:]))]


def _unused_imports(path):
    """(line, name) of every name an import binds that the module never reads.

    A name listed in the module's __all__ is read: exporting it is its use.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read |= {item.value for item in node.value.elts}
    return [(node.lineno, bound) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (bound := alias.asname or alias.name.split(".")[0]) not in read]


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


def test_only_the_forest_bags_draw_from_a_tree_stream():
    # forest._bags makes every tree stream and draws the tree's bag first
    # from it, so growth and the out-of-bag error share one draw order
    callers = {(p.name, caller) for p in SOURCES for _, caller in _callers(p, {"_tree_rng"})}
    assert callers == {("forest.py", "_bags")}


def test_only_the_curve_module_shapes_v_star():
    # curves._v_star_rows is the one rule for one value or one per curve
    shaped = {p.name: lines for p in SOURCES if p.name != "curves.py" and (lines := [
        line for line, _, node in _calls(p, {"array", "asarray"})
        if node.args and isinstance(node.args[0], ast.Name) and node.args[0].id == "v_star"
    ])}
    assert shaped == {}


def test_only_the_curve_module_takes_a_v_star_argument():
    # a shared v_star is the empirical kind's field and each curve's v_i its
    # SpecimenMeta's, so no function but the marker code is handed one
    taken = {p.name: [node.lineno for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
                      if isinstance(node, ast.arg) and node.arg == "v_star"]
             for p in SOURCES}
    assert taken.pop("curves.py")
    assert {name: lines for name, lines in taken.items() if lines} == {}


def test_the_command_line_reads_and_writes_no_file_itself():
    # every table goes through dataio, every model file through modelfile
    cli = next(p for p in SOURCES if p.name == "cli.py")
    assert [(line, name) for line, name, _ in _calls(cli, {"read_text", "write_text", "open"})] == []


def test_the_command_line_imports_no_family():
    # the command line fills a kind's fields from the flags of their names,
    # and each kind gives its own diagnostics
    family = {kind.__name__ for kind in KINDS.values()} | {
        "ForestConfig", "ForestModel", "column_labels"}
    cli = next(p for p in SOURCES if p.name == "cli.py")
    imported = [(node.lineno, alias.name)
                for node in ast.walk(ast.parse(cli.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert [(line, name) for line, name in imported if name in family] == []


def test_the_pipeline_flags_state_no_default():
    # a flag left out is absent from args, so each kind's dataclass and
    # GridSpec alone state the default of every field a flag fills
    cli = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(cli.read_text(encoding="utf-8"))
    for name, least in (("_add_pipeline_flags", 11), ("_add_grid_flags", 3)):
        add_flags = next(node for node in ast.walk(tree)
                         if isinstance(node, ast.FunctionDef) and node.name == name)
        calls = _calls_in(add_flags, {"add_argument"})
        assert len(calls) >= least, name
        assert [line for line, _, node in calls
                if any(kw.arg == "default" for kw in node.keywords)] == [], name


def test_only_the_command_line_names_a_flag():
    # a flag's dest is the field it fills: no kind or record knows its option
    named = {p.name: lines for p in SOURCES if p.name != "cli.py" and (lines := [
        node.lineno for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and re.search(r"--[A-Za-z]", node.value)
    ])}
    assert named == {}


def test_no_kind_builds_itself_from_the_flags():
    assert [(kind.__name__, name) for kind in KINDS.values()
            for name in ("from_flags", "flags") if hasattr(kind, name)] == []


def test_a_kind_is_the_whole_pipeline_spec():
    # PipelineSpec is the benchmark's name for a kind; nothing else calls it
    calls = {p.name: lines for p in SOURCES + TESTS
             if (lines := [line for line, _, _ in _calls(p, {"PipelineSpec"})])}
    assert calls == {}
    benchmark_name = pipeline.PipelineSpec
    kinds = [kind() for kind in KINDS.values()]
    assert all(benchmark_name(k) is k for k in kinds)


def test_only_the_model_file_module_knows_the_format_version():
    # modelfile.py upgrades an older file's document before any kind or
    # record reads it, so nothing else branches on the version
    knows = {p.name: lines for p in SOURCES if p.name != "modelfile.py" and (lines := [
        node.lineno for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        if isinstance(node, ast.arg) and node.arg == "version"
    ] + [n for n, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1)
         if "format_version" in line])}
    assert knows == {}


def test_the_command_line_asks_no_model_or_kind_its_class():
    cli = next(p for p in SOURCES if p.name == "cli.py")
    asked = [(line, ast.unparse(node)) for line, _, node in _calls(cli, {"isinstance"})]
    assert [(line, call) for line, call in asked
            if "model" in call.lower() or "Kind" in call] == []


def test_only_raise_first_failure_names_a_failing_curve():
    # curves.raise_first_failure prefixes "curve r: " to the error of a
    # batch's first failing row, so each check it is given states only its fault
    named = {p.name: _curve_row_fstrings(ast.parse(p.read_text(encoding="utf-8"), str(p)))
             for p in SOURCES}
    curves = next(p for p in SOURCES if p.name == "curves.py")
    prefix = next(node for node in ast.walk(ast.parse(curves.read_text(encoding="utf-8")))
                  if isinstance(node, ast.FunctionDef) and node.name == "raise_first_failure")
    prefix_lines = _curve_row_fstrings(prefix)
    named["curves.py"] = [line for line in named["curves.py"] if line not in prefix_lines]
    assert {name: lines for name, lines in named.items() if lines} == {}
    assert len(prefix_lines) == 1


def test_only_the_errors_module_raises_an_error_of_the_class_it_caught():
    # errors.prefixed is the one way to name where an error arose
    rebuilt = {p.name: lines for p in SOURCES if p.name != "errors.py" and (lines := [
        node.lineno for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Call)
        and getattr(node.func.func, "id", None) == "type"
    ])}
    assert rebuilt == {}


def test_every_model_file_field_has_a_type_the_json_check_knows():
    # modelfile.json_value checks a stored value by its field's declared
    # type; a field of a type it does not know would reach its constructor
    # unchecked.  A field whose default is a record of this list is read
    # as that record's block, whose own fields are checked.
    records = [GridSpec, Standardizer, PcaModel, LinearModel, EmpiricalModel, ForestConfig,
               ForestModel, *KINDS.values()]
    names = {r.__name__ for r in records}
    unchecked = [(r.__name__, f.name, f.type) for r in records for f in fields(r)
                 if f.type.removesuffix(" | None") not in {*_SCALARS, *_ARRAYS}
                 and not (f.type in names and is_dataclass(f.default))]
    assert len(records) == 10
    assert unchecked == []


def test_no_kind_holds_model_file_code():
    # each model-file block is its record's fields, written and read by modelfile.py
    pipeline = next(p for p in SOURCES if p.name == "pipeline.py")
    file_code = {"to_doc", "from_doc", "model_to_doc", "model_from_doc", "model_type"}
    defined = [(node.name, item.lineno, name)
               for node in ast.walk(ast.parse(pipeline.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef) for item in node.body
               for name in _defined_names(item) if name in file_code]
    assert defined == []


def test_only_the_model_file_module_reads_and_writes_model_file_values():
    codec = {"json_value", "record_to_doc", "record_from_doc"}
    calls = {p.name: [(line, name) for line, name, _ in _calls(p, codec)] for p in SOURCES}
    assert {name for _, name in calls.pop("modelfile.py")} == codec
    assert {name: lines for name, lines in calls.items() if lines} == {}


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


def test_every_observer_of_the_benchmark_reads_what_its_function_returns(tmp_path,
                                                                       monkeypatch):
    # under --trace 1 each observer reads the real result of the function it
    # wraps (a forest's trees and Leaf nodes, a parsed curve, a model file),
    # which a deletion in the package could break where no trace-point name
    # changes
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("benchlib").Tracer(enabled=True)
    raw, _ = generate(SynthConfig(n_materials=2, curves_per_material=3, noise_sigma_N=2.0,
                                  seed=5))
    names = [f"c{i}.csv" for i in range(len(raw))]
    for name, curve in zip(names, raw):
        dataio.write_curve_csv(tmp_path / name, curve)
    manifest, model_path = tmp_path / "manifest.csv", tmp_path / "model.json"
    dataio.write_manifest(manifest, [(n, c.meta) for n, c in zip(names, raw)])
    loaded = dataio.load_curves(manifest, GridSpec())
    x, y = assemble(loaded[1]), strengths(loaded[1])
    forest = fit_forest(x, y, ForestConfig(n_trees=3, seed=1))
    pca = fit_pca(x)
    text = (tmp_path / names[0]).read_text(encoding="utf-8")
    trained = fit_pipeline(loaded[1], PcaLmKind())
    calls = {
        "forest.fit": ((x, y), forest),
        "forest.predict": ((forest, x), predict_forest(forest, x)),
        "pca.fit": ((x,), pca),
        "curves.parse": ((text, raw[0].meta), parse_curve_csv(text, raw[0].meta)),
        "dataio.load_curves": ((manifest, GridSpec()), loaded),
        "modelfile.save": ((model_path, trained, {}), save_model(model_path, trained, {})),
    }
    observers = workloads._observers(tracer)
    assert observers.keys() == calls.keys()
    for name, (args, result) in calls.items():
        observers[name](args, {}, result)
    read = manifest.stat().st_size + sum((tmp_path / n).stat().st_size for n in names)
    assert tracer.counters == {
        "forest.trees": 3, "forest.nodes": forest.table.count.size,
        "forest.rows_x_trees": 3 * len(raw), "curves.parse_rows": raw[0].force_N.size,
        "dataio.bytes_read": read}
    assert max(tracer.samples.pop("forest.depth")) == forest.table.depth
    assert tracer.samples == {"pca.components": [pca.n_components],
                              "modelfile.bytes": [model_path.stat().st_size]}


def test_no_module_imports_a_name_it_never_uses():
    assert {p.name for p in TESTS} >= {"conftest.py", "test_source_rules.py"}
    unused = {f"{p.parent.name}/{p.name}": names for p in SOURCES + TESTS
              if (names := _unused_imports(p))}
    assert unused == {}


def test_every_exported_name_is_used_by_the_package_itself():
    # a name that only the export list and the tests reach is library code
    # no command runs; a definition alone is no use of it
    used = {name for p in SOURCES if p.name != "__init__.py" for _, name in _names(p)}
    assert [n for n in smallpunch.__all__ if n not in used] == []


def test_every_exported_name_is_bound_once():
    names = smallpunch.__all__
    assert [n for n in names if not hasattr(smallpunch, n)] == []
    assert len(names) == len(set(names))
