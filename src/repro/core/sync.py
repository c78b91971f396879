"""The engine's blocking primitives, named in one place (DESIGN.md §7).

Every lock, condition, worker thread, sleep and clock read that the engine
(``core/db.py``, ``core/scheduler.py``, ``sharding/sharded_db.py``,
``compaction/parallel.py``) can wait on is built or called through this
module by attribute lookup — ``sync.Lock()``, ``sync.sleep(s)`` — never
imported by name.  In production each name *is* the ``threading`` /
``time`` / ``concurrent.futures`` object, so nothing runs differently.

The indirection is the seam a test scheduler swaps: ``oracle.interleave
.controlled(seed)`` replaces these names with cooperative twins for the
duration of a block, runs the managed threads one at a time and switches
only at these calls, so any interleaving replays from its seed.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

Lock = threading.Lock
RLock = threading.RLock
Condition = threading.Condition
Thread = threading.Thread
sleep = time.sleep
monotonic = time.monotonic
#: The compaction sub-task pool's constructor
#: (``ThreadPoolExecutor(max_workers=..., thread_name_prefix=...)``).
SubtaskPool = ThreadPoolExecutor
