"""WM state has one writer: the thread that calls ``round()``.

Job bodies run on pool threads but only return their outputs; the
round applies them. The one guard left serves readers on other threads
(``status()``, ``counters_snapshot()``, telemetry) and counts
contentions.
"""

import sys
import threading

from repro.sched.shares import FairShareAdapter
from tests.core.test_wm import make_wm


class TestLockStats:
    def test_lock_stats_exposed(self):
        wm, _ = make_wm()
        stats = wm.lock_stats()
        assert set(stats) == {"acquisitions", "contentions"}
        assert stats["acquisitions"] == 0

    def test_acquisitions_counted_during_rounds(self):
        wm, _ = make_wm()
        wm.round()
        stats = wm.lock_stats()
        # Task 1 enqueues, selections pop, the apply step pushes frames —
        # every write goes through the guard.
        assert stats["acquisitions"] > 3


class TestOwnership:
    def test_every_write_happens_on_the_round_thread(self):
        writers = set()

        def noting(fn):
            def call(*args, **kwargs):
                writers.add(threading.get_ident())
                return fn(*args, **kwargs)
            return call

        class NotedDict(dict):
            __setitem__ = noting(dict.__setitem__)
            update = noting(dict.update)

        class NotedList(list):
            append = noting(list.append)
            extend = noting(list.extend)
            insert = noting(list.insert)
            pop = noting(list.pop)
            remove = noting(list.remove)
            __setitem__ = noting(list.__setitem__)

        pool = FairShareAdapter(max_workers=4)
        wm, _ = make_wm(adapter=pool.view("writer"))
        wm.counters = NotedDict(wm.counters)
        wm.cg_ready, wm.aa_ready = NotedList(), NotedList()
        for selector in (wm.patch_selector, wm.frame_selector):
            for name in ("add", "add_batch", "select", "remove", "discard"):
                if hasattr(selector, name):
                    setattr(selector, name, noting(getattr(selector, name)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the pool threads finely
        try:
            wm.run(nrounds=2)
        finally:
            sys.setswitchinterval(interval)
            wm.close()
            pool.shutdown()
        assert wm.counters["cg_finished"] > 0 and wm.counters["aa_finished"] > 0
        assert writers == {threading.get_ident()}
