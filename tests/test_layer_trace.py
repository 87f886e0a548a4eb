"""The benchmark's per-layer tracer must find, wrap and restore every call
it lists, so a rename or a move to a base class fails here and not only in
a traced benchmark run."""

import importlib.util
from pathlib import Path

PATH = Path(__file__).resolve().parent.parent / "perfbench" / "layer_trace.py"


def load_layer_trace():
    spec = importlib.util.spec_from_file_location("layer_trace", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_attributes(layer_trace):
    for _layer, module, cls, names in layer_trace.WRAPPED:
        owner = getattr(module, cls) if cls else module
        for name in names:
            yield owner, name


def test_install_wraps_and_remove_restores_every_call():
    layer_trace = load_layer_trace()
    originals = [(owner, name, vars(owner)[name])
                 for owner, name in wrapped_attributes(layer_trace)]
    assert len(originals) == len(layer_trace.call_keys())
    tracer = layer_trace.Tracer()
    tracer.install()
    try:
        for owner, name, original in originals:
            assert vars(owner)[name] is not original, f"{owner.__name__}.{name} not wrapped"
    finally:
        tracer.remove()
    for owner, name, original in originals:
        assert vars(owner)[name] is original, f"{owner.__name__}.{name} not restored"
