"""Crash-point consistency harness: in-suite quick run plus unit coverage
of the harness machinery (full runs: ``python -m oracle.crashtest``)."""

from oracle.crashtest import (
    READ_PHASE_OPS,
    WRITE_PHASE_OPS,
    _apply_op,
    _subsample,
    build_parser,
    build_workload,
    harness_options,
    main,
    run_crash_test,
    tuner_overrides,
    with_read_phases,
)
from repro.core.db import DB
from repro.storage.fs import SimulatedFS


class TestHarnessMachinery:
    def test_workload_is_seed_deterministic(self):
        assert build_workload(50, seed=3) == build_workload(50, seed=3)
        assert build_workload(50, seed=3) != build_workload(50, seed=4)

    def test_workload_covers_all_op_kinds(self):
        kinds = {op[0] for op in build_workload(200, seed=0)}
        assert kinds == {"put", "delete", "batch", "flush"}

    def test_subsample_spreads_and_bounds(self):
        assert _subsample(10, 20) == list(range(10))
        picked = _subsample(1000, 50)
        assert len(picked) == 50
        assert picked[0] == 0 and picked[-1] == 999
        assert picked == sorted(set(picked))

    def test_read_phases_only_add_gets(self):
        ops = build_workload(90, seed=0)
        phased = with_read_phases(ops, seed=0)
        assert [op for op in phased if op[0] != "get"] == ops
        assert len(phased) - len(ops) == READ_PHASE_OPS * (90 // WRITE_PHASE_OPS)

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.ops == 160 and args.points == 96 and not args.quick


class TestCrashRecoveryInvariants:
    def test_every_sampled_crash_point_recovers(self):
        """The tier-1 smoke: a small workload, a spread of crash points,
        zero invariant violations (acked writes survive, in-flight ops stay
        atomic, scans are clean, repair converges)."""
        report = run_crash_test(num_ops=40, max_points=12, seed=0)
        assert report.passed, report.summary()
        assert len(report.points_tested) == 12
        assert report.total_sync_points > 12

    def test_report_shape(self):
        report = run_crash_test(num_ops=25, max_points=6, seed=1, check_repair=False)
        assert report.passed, report.summary()
        payload = report.to_dict()
        assert payload["passed"] is True
        assert payload["points_tested"] == report.points_tested
        assert "sync points" in report.summary()

    def test_cli_quick_exit_code(self, tmp_path, capsys):
        json_path = str(tmp_path / "report.json")
        code = main(
            ["--ops", "25", "--points", "6", "--json", json_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "all invariants held" in out

        import json

        with open(json_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["passed"] is True


class TestTunerLeg:
    def test_quick_tuner_workload_switches_both_ways(self):
        """The ``--quick --tuner`` workload, run without a crash, moves the
        tuner to ``tiered`` and back to ``leveled``: the read phases give
        it read-heavy windows between the write phases, so the crash points
        land around transitions in both directions."""
        ops = with_read_phases(build_workload(90, seed=0), seed=0)
        db = DB(SimulatedFS(), harness_options(**tuner_overrides()))
        policies = [db.picker.policy.name]
        try:
            for op in ops:
                _apply_op(db, op)
                if db.picker.policy.name != policies[-1]:
                    policies.append(db.picker.policy.name)
        finally:
            db.close()
        assert db.stats.policy_switches >= 2
        transitions = set(zip(policies, policies[1:]))
        assert {("leveled", "tiered"), ("tiered", "leveled")} <= transitions

    def test_cli_fails_a_reference_run_below_two_switches(self, capsys):
        """Twenty ops end before the first read phase, so the tuner only
        switches once: the leg must fail, not pass on one transition."""
        assert main(["--ops", "20", "--points", "2", "--tuner"]) == 1
        assert "tuner switches in the reference run: 1" in capsys.readouterr().out
        assert main(["--ops", "50", "--points", "2", "--tuner"]) == 0
