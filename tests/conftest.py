import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def second_step_species_failure(monkeypatch):
    """The first concentration solve of step 1 (the second step) raises.

    The raised ``NonConvergenceError`` carries residual 1.0 and 7 iterations.
    """
    from pnpfem import gummel, timestepper
    from pnpfem.linalg import NonConvergenceError

    steps = []
    gummel_solve, solve_general = timestepper.gummel_solve, gummel.solve_general

    def counting(*args, **kwargs):
        steps.append(None)
        return gummel_solve(*args, **kwargs)

    def failing(*args, **kwargs):
        if len(steps) == 2:
            raise NonConvergenceError("bicgstab: forced failure", residual=1.0, iterations=7)
        return solve_general(*args, **kwargs)

    monkeypatch.setattr(timestepper, "gummel_solve", counting)
    monkeypatch.setattr(gummel, "solve_general", failing)
