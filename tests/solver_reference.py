"""The assembled sparse normal equations of a fit, for the tests to hold the
banded solver of `ctrend.solver` against.

`normal_equations` forms M = D^T W D + lambda1 P_v^T P_v + lambda2 P_u^T P_u
and D^T W rhs directly from the operators of a `LinearSystem`, without the
Gram bands the solver factors.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ctrend.design import LinearSystem
from ctrend.solver import FitResult


def normal_equations(
    system: LinearSystem, lambda1: float, lambda2: float
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Sparse normal matrix and right-hand side of the fit on the level surface."""
    weighted = system.data.T @ sparse.diags(system.weights)
    gram = (
        weighted @ system.data
        + lambda1 * (system.penalty_v.T @ system.penalty_v)
        + lambda2 * (system.penalty_u.T @ system.penalty_u)
    )
    return gram.tocsr(), weighted @ system.rhs


def normal_residual(system: LinearSystem, fit: FitResult) -> float:
    """Norm of the weighted normal-equation residual; ~0 at the optimum."""
    m, rhs = normal_equations(system, fit.lambda1, fit.lambda2)
    return float(np.linalg.norm(m @ fit.v_hat.ravel() - rhs))
