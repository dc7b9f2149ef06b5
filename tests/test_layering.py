"""Import layering: the documented "analysis never drags in sim" rule."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _modules_after_import(module: str) -> list[str]:
    """``repro.*`` modules loaded by importing ``module`` afresh."""
    code = (
        f"import json, sys; import {module}; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.startswith('repro'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code],
        check=True, capture_output=True, text=True, env=env,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_importing_analysis_loads_no_simulator_module():
    loaded = _modules_after_import("repro.analysis")
    assert "repro.analysis.proposed.response_time" in loaded
    assert [m for m in loaded if m.startswith("repro.sim")] == []


def test_trace_profiler_loads_no_simulator_module():
    loaded = _modules_after_import("repro.obs.profile")
    assert [m for m in loaded if m.startswith("repro.sim")] == []
