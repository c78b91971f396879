"""Perf suites, all run by ``benchmarks/perf/run.py``.

``python benchmarks/perf/run.py SUITE`` measures one suite (``concurrency``,
``read_scaling``, …) and writes ``BENCH_<SUITE>.json`` at the repo root;
``--check`` gates it on its metric table instead.  ``opcodes.py``, the one
CPU meter, counts the bytecodes of the default-path operations and of each
micro path beside its ``oracle.reference`` arm.
"""
