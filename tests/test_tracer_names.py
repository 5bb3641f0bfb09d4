"""The names perfbench's tracer wraps must exist in the library.

``perfbench/tracing.py`` swaps module globals such as
``markovseq.cli.combine_clusters`` for timing wrappers, looked up by name,
and only ``--trace 1`` runs install it.  So deleting a name that only the
tracer uses breaks no other test; this one loads the tracer's span list
from its file and checks every entry.
"""

import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spans = runpy.run_path(str(TRACING), run_name="perfbench_tracing")["_SPANS"]
    assert spans
    missing = [
        f"{module.__name__}.{attr}" for module, attr, _ in spans if not hasattr(module, attr)
    ]
    assert missing == []
