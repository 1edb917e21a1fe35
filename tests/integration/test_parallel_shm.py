"""The pooled decode path, end to end.

Exercises the real multi-process fan-out (2 workers forced via
``oversubscribe``, under both ``fork`` and ``spawn`` start methods)
against real codestreams, and pins the two guarantees the pool must
keep:

* **byte-identity** — pooled decode equals sequential decode bit for
  bit, with identical basic-op counts;
* **no leaks** — no worker process survives ``shutdown_pool()``,
  including after a simulated worker crash mid-decode (the broken-pool
  resume path), and no helper thread of the threaded inline executor
  survives its decode, so a later fork never copies a multi-threaded
  process.
"""

import multiprocessing
import os
import threading
import warnings

import numpy as np
import pytest

from repro import host
from repro.jpeg2000 import (
    CodingParameters,
    DecodeOptions,
    Jpeg2000Decoder,
    encode_image,
    shutdown_pool,
    synthetic_image,
)
from repro.jpeg2000.stages import entropy

START_METHODS = ["fork", "spawn"] if hasattr(os, "fork") else ["spawn"]


@pytest.fixture(scope="module", params=[True, False], ids=["lossless", "lossy"])
def codestream(request):
    lossless = request.param
    image = synthetic_image(96, 96, 3, seed=17)
    params = CodingParameters(
        width=96,
        height=96,
        num_components=3,
        tile_width=48,
        tile_height=48,
        num_levels=3,
        lossless=lossless,
        base_step=1 / 8,
    )
    return encode_image(image, params)


@pytest.fixture(autouse=True)
def _clean_pool():
    shutdown_pool()
    yield
    shutdown_pool()
    assert multiprocessing.active_children() == [], "worker processes leaked"


def _decode(codestream, options):
    decoder = Jpeg2000Decoder(codestream, options=options)
    return decoder.decode(), decoder.ops


@pytest.mark.parametrize("start_method", START_METHODS)
def test_shm_parallel_byte_identical(codestream, start_method):
    """Native-kernel pool workers match the reference kernel in-process."""
    reference, ref_ops = _decode(
        codestream, DecodeOptions(kernel="reference", tier2="reference")
    )
    decoder = Jpeg2000Decoder(codestream, options=DecodeOptions(
        workers=2, chunk_size=4, oversubscribe=True, start_method=start_method,
    ))
    entropy_binding = decoder.plan.stage("entropy")
    assert entropy_binding.impl == "native"
    assert entropy_binding.executor.kind == "pool"
    parallel_image = decoder.decode()
    for ours, theirs in zip(parallel_image.components, reference.components):
        assert np.array_equal(ours, theirs)
    assert decoder.ops.counts == ref_ops.counts


def test_no_segments_survive_shutdown(codestream):
    _decode(
        codestream, DecodeOptions(workers=2, chunk_size=4, oversubscribe=True)
    )
    assert multiprocessing.active_children() != []  # the cached pool
    shutdown_pool()
    assert multiprocessing.active_children() == []


def test_worker_crash_leaves_no_segments_and_correct_output(
    codestream, monkeypatch
):
    """Simulated worker crash mid-decode: the first chunk a worker picks
    up kills the process (fork start method, so the child inherits the
    monkeypatched kernel).  The decode must still produce byte-identical
    output via the resume path, and no worker process may survive."""
    if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only
        pytest.skip("fork start method unavailable")
    sequential, seq_ops = _decode(codestream, DecodeOptions())

    parent_pid = os.getpid()
    real = entropy.decode_codeblock_batch
    state = {"killed": False}

    def crashing_batch(batch, out=None, **options):
        if os.getpid() != parent_pid and not state["killed"]:
            # Fork copies `state` into each worker: the first chunk a
            # worker picks up crashes it; anything else succeeds.
            state["killed"] = True
            os._exit(1)
        return real(batch, out, **options)

    monkeypatch.setattr(entropy, "decode_codeblock_batch", crashing_batch)
    crashed_image, crashed_ops = _decode(
        codestream,
        DecodeOptions(
            workers=2, chunk_size=4, oversubscribe=True, start_method="fork"
        ),
    )
    for ours, theirs in zip(crashed_image.components, sequential.components):
        assert np.array_equal(ours, theirs)
    assert crashed_ops.counts == seq_ops.counts
    shutdown_pool()
    assert multiprocessing.active_children() == []


def test_no_thread_outlives_an_inline_decode(codestream, monkeypatch):
    """The inline executor's helper threads are joined inside each
    kernel call, so none is alive once ``decode()`` returns."""
    monkeypatch.setattr(host, "host_cpus", lambda: 4)
    started = []
    original = threading.Thread.start

    def start(thread):
        started.append(thread)
        original(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    before = threading.active_count()
    decoder = Jpeg2000Decoder(codestream)
    assert decoder.plan.stage("entropy").executor.threads == 4
    decoder.decode()
    assert started, "the inline decode started no helper thread"
    assert not any(thread.is_alive() for thread in started)
    assert threading.active_count() == before


def test_fork_pool_after_threaded_inline_decode(codestream, monkeypatch):
    """A fork-started pool right after a threaded inline decode forks a
    single-threaded process: no fork-with-threads warning, same output."""
    if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only
        pytest.skip("fork start method unavailable")
    monkeypatch.setattr(host, "host_cpus", lambda: 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        inline, inline_ops = _decode(codestream, DecodeOptions())
        pooled, pooled_ops = _decode(codestream, DecodeOptions(
            workers=2, chunk_size=4, oversubscribe=True, start_method="fork",
        ))
    for ours, theirs in zip(pooled.components, inline.components):
        assert np.array_equal(ours, theirs)
    assert pooled_ops.counts == inline_ops.counts
