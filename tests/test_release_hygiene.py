"""Release-hygiene checks: documentation and structure stay consistent.

These meta-tests keep the repo credible as an open-source release: every
module documented, every benchmark indexed in DESIGN.md, every paper
experiment covered by a bench module.
"""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
BENCHMARKS = ROOT / "benchmarks"


def iter_source_files():
    return sorted(p for p in SRC.rglob("*.py"))


class TestDocumentation:
    def test_every_module_has_a_docstring(self):
        missing = []
        for path in iter_source_files():
            tree = ast.parse(path.read_text())
            if ast.get_docstring(tree) is None:
                missing.append(str(path.relative_to(ROOT)))
        assert missing == []

    def test_every_public_class_documented(self):
        missing = []
        for path in iter_source_files():
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                    if ast.get_docstring(node) is None:
                        missing.append(f"{path.relative_to(ROOT)}:{node.name}")
        assert missing == []

    def test_every_substantial_public_function_documented(self):
        """Public functions with non-trivial bodies carry docstrings;
        two-line accessors may speak for themselves."""
        missing = []
        for path in iter_source_files():
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if node.name.startswith("_"):
                        continue
                    span = (node.end_lineno or node.lineno) - node.lineno
                    if span > 8 and ast.get_docstring(node) is None:
                        missing.append(f"{path.relative_to(ROOT)}:{node.name}")
        assert missing == []

    def test_design_doc_lists_every_benchmark(self):
        design = (ROOT / "DESIGN.md").read_text()
        for bench in sorted(BENCHMARKS.glob("test_*.py")):
            assert bench.name in design, f"DESIGN.md missing {bench.name}"

    def test_experiments_doc_covers_every_paper_item(self):
        experiments = (ROOT / "EXPERIMENTS.md").read_text()
        for item in ["Table II"] + [f"Fig {i}" for i in range(5, 19)]:
            assert item in experiments, f"EXPERIMENTS.md missing {item}"

    def test_readme_examples_exist(self):
        readme = (ROOT / "README.md").read_text()
        for example in (ROOT / "examples").glob("*.py"):
            assert example.name in readme, f"README.md missing {example.name}"

    def test_paper_experiment_ids_have_bench_modules(self):
        names = {p.name for p in BENCHMARKS.glob("test_*.py")}
        expected = {
            "test_table2_lazy_deletion.py",
            "test_cost_model.py",
        } | {
            f"test_fig{i}_" for i in range(5, 19)
        }
        for item in expected:
            if item.endswith(".py"):
                assert item in names
            else:
                assert any(n.startswith(item) for n in names), f"no bench for {item}*"


class TestStructure:
    def test_no_toplevel_prints_in_library(self):
        """The library never prints; only examples/tools/benches do."""
        offenders = []
        for path in iter_source_files():
            if "tools" in path.parts or path.name == "__main__.py":
                continue
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "print"
                ):
                    offenders.append(str(path.relative_to(ROOT)))
                    break
        assert offenders == []

    def test_public_api_all_lists_are_sound(self):
        import importlib

        for module_name in (
            "repro",
            "repro.core",
            "repro.sstable",
            "repro.compaction",
            "repro.storage",
            "repro.cache",
            "repro.bloom",
            "repro.ycsb",
            "repro.metrics",
            "repro.baselines",
            "repro.analysis",
            "repro.experiments",
            "repro.tools",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"

    def test_version_consistent(self):
        import repro

        pyproject = (ROOT / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in pyproject


def _load_benchmark_tracing(monkeypatch):
    """``benchmarks/e2e/tracing.py``, loaded by path, read-only."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "_e2e_tracing", BENCHMARKS / "e2e" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # @dataclass looks it up
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_trace_points_resolve(monkeypatch):
    """``benchmarks/e2e/tracing.py::POINTS`` freezes ``module:attr`` names:
    the recorder swaps ``vars(owner)[attr]``, so each target must be
    defined on that very class or module (an inherited method, or a moved
    or renamed function, breaks the benchmark's per-layer metrics).  A
    refactor that breaks one fails here, not only in the benchmark's own
    ``--selftest``."""
    tracing = _load_benchmark_tracing(monkeypatch)
    unresolved = []
    for point in tracing.POINTS:
        owner, attr = tracing._resolve(point.target)
        if not callable(vars(owner).get(attr)):
            unresolved.append(point.target)
    assert unresolved == []


#: Engine-layer trace points nothing calls today: the engine's own
#: ``SuperVersion.file_for_key`` replaced ``Version.file_for_key`` on the
#: read path, and table writers take whole runs (``BlockCutter.add_run``)
#: instead of the per-entry ``add`` the two adapters keep.
DEAD_TRACE_POINTS = {"Version.file_for_key", "TableBuilder.add", "AppendSession.add"}


def test_benchmark_trace_points_fire(monkeypatch):
    """Every engine-layer point in ``POINTS`` is still *called*, not only
    defined: a call site moved out of the module the benchmark patches
    (``flush_memtable`` and the ``run_*`` compactions are patched as
    ``repro.core.db`` globals) would silently zero that point's per-layer
    metrics.  A small load on the BlockDB preset and on the block style
    under the benchmark's own recorder must fire all of them but exactly
    :data:`DEAD_TRACE_POINTS`."""
    import random

    from repro.baselines.presets import blockdb
    from repro.core.db import DB
    from repro.options import COMPACTION_BLOCK
    from repro.storage.fs import SimulatedFS

    tracing = _load_benchmark_tracing(monkeypatch)
    client_layers = {"serve.client", "serve.protocol", "sharding"}
    engine_points = [p for p in tracing.POINTS if p.layer not in client_layers]
    recorder = tracing.Recorder(tuple(engine_points))
    rng = random.Random(11)
    keys = [b"key%06d" % i for i in range(3000)]
    with recorder:
        for overrides in ({}, {"compaction_style": COMPACTION_BLOCK}):
            db = DB(
                SimulatedFS(),
                blockdb(16 * 1024, 256 * 1024, block_size=1024, **overrides),
            )
            rng.shuffle(keys)
            for key in keys:
                db.put(key, key * 8)
            for key in keys[:1500]:
                db.put(key, key * 9)
            for key in rng.sample(keys, 300):
                db.get(key)
            db.multi_get(rng.sample(keys, 20))
            for key in rng.sample(keys, 20):
                db.scan(key, None, 20)
            db.compact_all()
            db.close()
    fired = {engine_points[index].name for _id, _p, _op, index, *_rest in recorder.spans}
    assert {p.name for p in engine_points} - fired == DEAD_TRACE_POINTS
