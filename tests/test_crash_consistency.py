"""Crash-point consistency harness: in-suite quick run plus unit coverage
of the harness machinery (full runs: ``python -m oracle.crashtest``)."""

from oracle.crashtest import (
    DEFAULT_OPS,
    DEFAULT_POINTS,
    POLICY_QUICK_OPS,
    _subsample,
    build_parser,
    build_workload,
    main,
    run_crash_test,
)


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

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.ops == DEFAULT_OPS and args.points == DEFAULT_POINTS and not args.quick

    def test_quick_keeps_explicit_ops_and_points(self, tmp_path, capsys):
        """``--quick`` sets defaults only: an explicit ``--ops`` and
        ``--points`` are the run's."""
        import json

        json_path = tmp_path / "report.json"
        assert main(["--quick", "--ops", "120", "--points", "3", "--json", str(json_path)]) == 0
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["num_ops"] == 120 and len(payload["points_tested"]) == 3
        capsys.readouterr()


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
        # Ninety ops: seed 0's first compaction (a shorter single-store run
        # makes none, and fails -- see TestPolicyLeg).
        json_path = str(tmp_path / "report.json")
        code = main(
            ["--ops", "90", "--points", "6", "--json", json_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "all invariants held" in out

        import json

        with open(json_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["passed"] is True


class TestPolicyLeg:
    def test_quick_tiered_leg_crashes_inside_a_tiered_compaction(self, capsys):
        """The ``--quick --policy tiered`` workload is long enough that its
        reference run makes a compaction under ``tiered``, so crash points
        land inside one; the leg passes."""
        assert main(["--ops", str(POLICY_QUICK_OPS), "--points", "12",
                     "--policy", "tiered"]) == 0
        out = capsys.readouterr().out
        assert "tiered compactions in the reference run: 1" in out
        assert "all invariants held" in out

    def test_cli_fails_a_reference_run_without_a_policy_compaction(self, capsys):
        """Ninety ops end before ``tiered`` first compacts: the leg must
        fail rather than pass on a run that never exercised the policy."""
        assert main(["--ops", "90", "--points", "2", "--policy", "tiered"]) == 1
        out = capsys.readouterr().out
        assert "tiered compactions in the reference run: 0" in out
        assert "FAILED" in out

    def test_cli_fails_a_plain_reference_run_without_a_compaction(self, capsys):
        """The rule holds on every single-store leg, not only ``--policy``:
        forty ops of seed 0 end before its first compaction."""
        assert main(["--ops", "40", "--points", "2"]) == 1
        out = capsys.readouterr().out
        assert "leveled compactions in the reference run: 0" in out
        assert "FAILED" in out
