"""The bench tracer's contract with the package: every name it patches
exists, and `restore` puts each one back."""

import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "bench", "tracing.py")


def test_tracer_patches_every_target_and_restores_it():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        # a patch target missing from the package fails here
        tracing.install(tracer)
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.restore()
    assert tracer._patches == []
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
