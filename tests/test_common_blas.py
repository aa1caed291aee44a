"""The OpenBLAS thread-count context: restore, nesting, threads, absence."""

import os
import subprocess
import sys
import threading

import pytest

from repro.common import blas
from repro.common.blas import available_cores, blas_threads, get_blas_threads
from repro.common.exceptions import ValidationError


class FakeBlas:
    """A thread-count register standing in for the library's symbols."""

    def __init__(self, count=4):
        self.count = count
        self.loads = 0

    def load(self):
        self.loads += 1
        return (lambda: self.count), self.set

    def set(self, n):
        self.count = n


@pytest.fixture
def fake(monkeypatch):
    """Route the module to a fake library, loaded afresh on first use."""
    lib = FakeBlas()
    monkeypatch.setattr(blas, "_handle", blas._UNLOADED)
    monkeypatch.setattr(blas, "_load", lib.load)
    return lib


class TestBlasThreads:
    def test_sets_and_restores_on_normal_exit(self, fake):
        with blas_threads(1) as applied:
            assert applied == 1
            assert fake.count == 1
        assert fake.count == 4

    def test_restores_on_exception(self, fake):
        with pytest.raises(RuntimeError, match="body fails"):
            with blas_threads(1):
                raise RuntimeError("body fails")
        assert fake.count == 4
        assert blas._holders == 0

    def test_nested_holders_restore_when_the_outer_leaves(self, fake):
        with blas_threads(2):
            with blas_threads(1) as inner:
                assert inner == 1
                assert fake.count == 1
            assert blas._holders == 1
        assert fake.count == 4
        assert blas._holders == 0

    @pytest.mark.parametrize("first_out", ("a", "b"))
    def test_interleaved_threads_restore_the_original(self, fake, first_out):
        # a enters, b enters, then one of them leaves while the other
        # still holds the budget: the count stays lowered until the last
        # holder leaves, then comes back to what a found.
        entered = {name: threading.Event() for name in "ab"}
        leave = {name: threading.Event() for name in "ab"}
        seen = {}

        def holder(name):
            with blas_threads(1):
                entered[name].set()
                leave[name].wait(timeout=10.0)
            seen[name] = fake.count

        threads = {name: threading.Thread(target=holder, args=(name,)) for name in "ab"}
        threads["a"].start()
        assert entered["a"].wait(timeout=10.0)
        threads["b"].start()
        assert entered["b"].wait(timeout=10.0)
        last_out = "b" if first_out == "a" else "a"
        leave[first_out].set()
        threads[first_out].join(timeout=10.0)
        assert not threads[first_out].is_alive()
        assert seen[first_out] == 1
        leave[last_out].set()
        threads[last_out].join(timeout=10.0)
        assert not threads[last_out].is_alive()
        assert seen[last_out] == 4
        assert fake.count == 4
        assert blas._holders == 0

    @pytest.mark.parametrize("first_n, second_n", ((1, 2), (2, 1)))
    def test_overlapping_holders_run_at_the_smallest_count(self, fake, first_n,
                                                           second_n):
        # a enters asking first_n, b enters asking second_n while a still
        # holds: both run at the smaller count until both have left, then
        # the count comes back to what a found.
        entered = {name: threading.Event() for name in "ab"}
        leave = threading.Event()
        applied = {}
        seen = {}

        def holder(name, n):
            with blas_threads(n) as count:
                applied[name] = count
                entered[name].set()
                leave.wait(timeout=10.0)
                seen[name] = fake.count

        a = threading.Thread(target=holder, args=("a", first_n))
        b = threading.Thread(target=holder, args=("b", second_n))
        try:
            a.start()
            assert entered["a"].wait(timeout=10.0)
            b.start()
            assert entered["b"].wait(timeout=10.0)
            count_while_both_hold = fake.count
        finally:
            leave.set()
            for thread in (a, b):
                thread.join(timeout=10.0)
        assert not a.is_alive() and not b.is_alive()
        assert count_while_both_hold == 1
        assert applied == {"a": first_n, "b": 1}
        assert seen == {"a": 1, "b": 1}
        assert fake.count == 4
        assert blas._holders == 0

    def test_many_holders_under_fast_switching(self, fake):
        # More holders than cores, entering and leaving at random points
        # of each other's bodies: a lost holder-count update leaves the
        # count lowered, or restores it under a live holder.
        wrong = []

        def holder():
            for _ in range(200):
                with blas_threads(1):
                    if fake.count != 1:
                        wrong.append(fake.count)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=holder) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert fake.count == 4
        assert blas._holders == 0

    def test_rejects_fewer_than_one_thread(self, fake):
        with pytest.raises(ValidationError, match="BLAS threads must be >= 1"):
            with blas_threads(0):
                pass
        assert fake.count == 4

    def test_library_loads_once_on_first_use(self, fake):
        assert fake.loads == 0
        assert get_blas_threads() == 4
        with blas_threads(1):
            pass
        assert fake.loads == 1


class TestAbsentLibrary:
    def test_no_settable_blas_is_a_no_op_reporting_none(self, monkeypatch):
        monkeypatch.setattr(blas, "_handle", blas._UNLOADED)
        monkeypatch.setattr(blas, "_load", lambda: None)
        ran = []
        with blas_threads(1) as applied:
            ran.append(True)
        assert applied is None
        assert ran == [True]
        assert get_blas_threads() is None
        assert blas._holders == 0

    def test_no_mapped_library_loads_nothing(self, monkeypatch):
        monkeypatch.setattr(blas, "_mapped_openblas", lambda: [])
        assert blas._load() is None


class TestLiveLibrary:
    @pytest.fixture
    def live(self):
        before = get_blas_threads()
        if before is None:
            pytest.skip("no OpenBLAS with a thread-count setter is loaded")
        return before

    def test_live_count_is_set_and_restored(self, live):
        with blas_threads(1) as applied:
            assert applied == 1
            assert get_blas_threads() == 1
        assert get_blas_threads() == live

    def test_live_count_restored_after_exception(self, live):
        with pytest.raises(KeyError):
            with blas_threads(1):
                raise KeyError("x")
        assert get_blas_threads() == live


class TestLazyLoad:
    def test_import_does_not_load_the_library(self):
        code = (
            "import repro, repro.exec.sharded\n"
            "from repro.common import blas\n"
            "assert blas._handle is blas._UNLOADED\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestAvailableCores:
    def test_counts_the_affinity_mask(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no affinity mask on this platform")
        assert available_cores() == len(os.sched_getaffinity(0))

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert available_cores() == max(1, os.cpu_count() or 1)
