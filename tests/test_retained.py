"""Bytes a bulk storage transaction keeps and peaks at, under ``tracemalloc``.

An uploaded object and a redeemed payload decode as views of the frame
that carried them, which the transcript keeps anyway.  So a finished
16 x 64 KiB run holds each object about three times: the requester's
config, the upload frame (the provider's stored objects) and the redeem
frames (the requester's retrieved objects).  A decoded copy of any of
them adds another 1 MiB and shows here.
"""
from __future__ import annotations

import gc
import tracemalloc

from gset import ScenarioConfig, run_storage_scenario

_BULK = ScenarioConfig(object_count=16, object_size=65536)
_LIMIT = int(3.25 * 2**20)


def test_bulk_transaction_keeps_and_peaks_at_most_three_copies():
    run_storage_scenario(_BULK)  # warm-up: first-use caches are not the run's
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        report = run_storage_scenario(_BULK)
        gc.collect()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.complete_success()
    assert now - start <= _LIMIT
    assert peak - start <= _LIMIT
