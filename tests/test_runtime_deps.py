"""The package runs on numpy alone: scipy is a test oracle, not a dependency."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import netergm

SCRIPT = textwrap.dedent(
    """
    import sys


    class BlockScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"import of {name} is blocked")
            return None


    sys.meta_path.insert(0, BlockScipy())

    import numpy as np

    import netergm.cli
    from netergm import build_graph, fit_mple, parse_terms

    try:
        netergm.cli.main(["--version"])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
    g = build_graph(6, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 4),
                        (4, 2), (5, 0), (0, 5), (3, 1)])
    fit = fit_mple(g, None, parse_terms(("edges", "mutual")))
    assert fit.converged and np.isfinite(fit.p_values).all()
    loaded = sorted(m for m in sys.modules
                    if m == "scipy" or m.startswith("scipy."))
    assert not loaded, loaded
    """
)


def test_cli_and_fit_run_with_scipy_blocked():
    src = str(Path(netergm.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == netergm.__version__
