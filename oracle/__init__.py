"""The correctness oracle: everything that decides whether the engine is
right, kept outside the engine package (``src/repro``).

* :mod:`oracle.model` — the acked-state model every checker shares, and
  its recovery and catalog rules;
* :mod:`oracle.reference` — frozen reference implementations of the
  engine's hot paths, for the property tests and the perf harness;
* :mod:`oracle.crashtest` — the crash-point sweep
  (``python -m oracle.crashtest``, DESIGN.md §10);
* :mod:`oracle.servechaos` — composed network + disk fault schedules
  against the serving front end (``python -m oracle.servechaos``,
  DESIGN.md §15).

The repo root must be on ``sys.path`` (pytest's ``pythonpath`` ini key
and the ``benchmarks/perf`` scripts put it there), and ``src`` too.
"""
