"""The oracle's own checks: :func:`oracle.model.recovery_violations` sees
every fault a recovered store can show — a lost acknowledged delete, a
phantom only a scan returns, a split pending op, a missing live file — and
the serving chaos harness audits every write it acks, by value."""

from oracle.crashtest import KEYS, harness_options
from oracle.model import Model, catalog_violations, recovery_violations
from oracle.servechaos import PIPELINE_KEYS, run_schedule, run_serve_chaos
from repro.core.db import DB
from repro.storage.fs import SimulatedFS


def _store(model: Model) -> DB:
    """A store holding exactly ``model``'s state."""
    db = DB(SimulatedFS(), harness_options(), seed=1)
    for key, value in model.scan():
        db.put(key, value)
    return db


class _Showing:
    """A recovered store whose reads also show ``extra`` pairs it does not
    hold: through ``scan`` always, through ``get`` unless ``scan_only``."""

    def __init__(self, db: DB, extra: dict[bytes, bytes], *, scan_only: bool = False):
        self._db, self._extra, self._scan_only = db, extra, scan_only

    def __getattr__(self, name):
        return getattr(self._db, name)

    def get(self, key):
        if not self._scan_only and key in self._extra:
            return self._extra[key]
        return self._db.get(key)

    def scan(self):
        return sorted({**dict(self._db.scan()), **self._extra}.items())


def _acked(*ops) -> Model:
    model = Model()
    for op in ops:
        model.apply(op)
    return model


def test_lost_acked_delete_is_a_violation():
    """``k0001``'s delete was acked, yet it comes back after recovery."""
    model = _acked(("put", b"k0001", b"v1"), ("put", b"k0002", b"v2"), ("delete", b"k0001"))
    db = _store(model)
    violations = recovery_violations(_Showing(db, {b"k0001": b"v1"}), model, None, KEYS)
    assert any("acked state lost: b'k0001'" in v for v in violations), violations
    assert any("scan disagrees: b'k0001'" in v for v in violations), violations
    assert recovery_violations(db, model, None, KEYS) == []
    db.close()


def test_scan_only_phantom_is_a_violation():
    """Point reads are right; only the scan returns a key never written."""
    model = _acked(("put", b"k0002", b"v2"))
    db = _store(model)
    shown = _Showing(db, {b"k0005": b"ghost"}, scan_only=True)
    assert recovery_violations(shown, model, None, KEYS) == [
        "scan disagrees: b'k0005' expected None got b'ghost'"
    ]
    db.close()


def test_pending_op_is_judged_all_or_nothing():
    model = _acked(("put", b"k0001", b"old"))
    pending = ("batch", [("put", b"k0001", b"new"), ("delete", b"k0001", None), ("put", b"k0002", b"x")])
    assert Model.touched(pending) == [b"k0001", b"k0002"]
    for landed in (model, _acked(("put", b"k0002", b"x"))):
        db = _store(landed)
        assert recovery_violations(db, model, pending, KEYS) == []
        db.close()
    db = _store(_acked(("put", b"k0001", b"old"), ("put", b"k0002", b"x")))
    violations = recovery_violations(db, model, pending, KEYS)
    assert any(v.startswith("pending op split") for v in violations), violations
    db.close()


def test_catalog_rule_sees_a_missing_live_file():
    db = _store(_acked(*(("put", key, b"v" * 40) for key in KEYS)))
    db.flush()
    assert catalog_violations(db) == []
    _level, meta = db.version.all_files()[0]
    db.fs.delete_file(meta.file_name())
    assert catalog_violations(db) == [f"L{_level} file {meta.file_name()} is missing"]


def test_serve_chaos_audits_every_acked_write():
    """Schedules 5 and 6 draw the malformed pipeline, whose first put is
    acked: the audit checks it by value like the workload's own writes."""
    report = run_serve_chaos(8)
    assert report["passed"], report["failures"]
    assert report["acked_writes_audited"] >= 8 * 12
    result = run_schedule(5)
    assert result.network_fault == "malformed_pipeline"
    assert result.passed, result
    assert PIPELINE_KEYS[0] in result.audited
    assert PIPELINE_KEYS[1] not in result.audited  # follows the bad frame
