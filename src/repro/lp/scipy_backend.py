"""SciPy (HiGHS) backend for the linear-programming substrate.

The original paper used ``lp_solve``; this backend plays the same role using
:func:`scipy.optimize.linprog` with the HiGHS dual simplex.  It is the
cross-check backend (``solver="scipy"``): general float LPs built through the
modelling layer, and an independent solver to compare against.  The scenario
kernels of :mod:`repro.core.fast_scenario` and :mod:`repro.core.batch_scenario`
run every campaign and query, and the exact simplex of :mod:`repro.lp.simplex`
is the reference implementation wherever exact vertex solutions are needed.

SciPy is imported inside :meth:`ScipySolver.solve`, so importing this module
(and therefore ``repro``) costs nothing until a HiGHS solve actually runs.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SolverError
from repro.lp.model import LinearProgram
from repro.lp.result import LPResult, LPStatus

__all__ = ["ScipySolver", "solve_scipy"]


class ScipySolver:
    """Solve :class:`~repro.lp.model.LinearProgram` instances with HiGHS.

    Parameters
    ----------
    method:
        Method name forwarded to :func:`scipy.optimize.linprog`.  The
        default ``"highs"`` lets SciPy pick between the simplex and
        interior-point HiGHS codes.
    """

    backend_name = "scipy-highs"

    def __init__(self, method: str = "highs") -> None:
        self.method = method

    def solve(self, program: LinearProgram) -> LPResult:
        """Solve ``program`` (a maximisation) and return an :class:`LPResult`."""
        from scipy.optimize import linprog

        c, a_ub, b_ub, a_eq, b_eq, upper = program.to_dense()
        if c.size == 0:
            raise SolverError(f"program {program.name!r} has no variables")
        if np.isinf(upper).all():
            # Every variable is 0 <= x < inf (the common case for scenario
            # programs): a single broadcast pair avoids rebuilding the
            # per-variable bounds list on every solve of the same program.
            bounds: object = (0.0, None)
        else:
            bounds = [(0.0, None if np.isinf(u) else float(u)) for u in upper]
        result = linprog(
            c=-c,  # linprog minimises
            A_ub=a_ub if a_ub.size else None,
            b_ub=b_ub if b_ub.size else None,
            A_eq=a_eq if a_eq.size else None,
            b_eq=b_eq if b_eq.size else None,
            bounds=bounds,
            method=self.method,
        )
        status = self._translate_status(result.status)
        if status is not LPStatus.OPTIMAL:
            return LPResult(
                status=status,
                objective=float("nan") if status is LPStatus.INFEASIBLE else float("inf"),
                values={},
                backend=self.backend_name,
            )
        names = program.variable_names
        values = {name: float(max(0.0, x)) for name, x in zip(names, result.x)}
        return LPResult(
            status=LPStatus.OPTIMAL,
            objective=float(-result.fun),
            values=values,
            backend=self.backend_name,
            iterations=int(getattr(result, "nit", 0) or 0),
        )

    @staticmethod
    def _translate_status(code: int) -> LPStatus:
        """Map :func:`scipy.optimize.linprog` status codes onto :class:`LPStatus`."""
        if code == 0:
            return LPStatus.OPTIMAL
        if code == 2:
            return LPStatus.INFEASIBLE
        if code == 3:
            return LPStatus.UNBOUNDED
        return LPStatus.ERROR


def solve_scipy(program: LinearProgram, method: str = "highs") -> LPResult:
    """Convenience wrapper: solve ``program`` with :class:`ScipySolver`."""
    return ScipySolver(method=method).solve(program)
