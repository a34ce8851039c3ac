"""perfbench/spans.py traces the package by rebinding functions it names as
(module, attribute) strings. A renamed function would surface only as an
AttributeError in a traced run, so every name it lists is checked here."""

import importlib
import importlib.util
from pathlib import Path

import patchcert

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = load_spans()
    names = ([(m, a) for m, a, _, _ in spans.WRAPPED]
             + [(m, a) for m, a, _ in spans.COUNTED])
    assert names
    for mod_name, _ in names:
        importlib.import_module(f"patchcert.{mod_name}")
    # resolved as Tracer.recording resolves them
    missing = [f"{m}.{a}" for m, a in names
               if not callable(getattr(getattr(patchcert, m, None), a, None))]
    assert not missing, f"perfbench/spans.py names missing functions: {missing}"
