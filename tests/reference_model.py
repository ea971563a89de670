"""Reference unit means: the per-equation compensated loop, kept as a test
oracle for the batched ``eqvec.model.unit_means``.

Each equation's units are summed alone, one row at a time, with a
Neumaier correction term.  The batched kernel must give bitwise the same
vectors, which the property tests check.
"""

import numpy as np


def _compensated_mean(rows: np.ndarray) -> np.ndarray:
    """Neumaier-compensated column means; exact enough to match fsum."""
    total = np.zeros(rows.shape[1])
    comp = np.zeros(rows.shape[1])
    for r in rows:
        t = total + r
        big = np.abs(total) >= np.abs(r)
        comp += np.where(big, (total - t) + r, (r - t) + total)
        total = t
    return (total + comp) / rows.shape[0]


def reference_equation_matrices(eq_units: dict, unit_table, n_equations: int):
    """``(alphas, rhos)`` of a unit model, one equation at a time; NaN rows
    for equations without units."""
    alphas = np.full((n_equations, unit_table.k), np.nan)
    rhos = np.full((n_equations, unit_table.k), np.nan)
    for eq_id, ids in eq_units.items():
        ids = ids[ids >= 0]
        if ids.size:
            alphas[eq_id] = _compensated_mean(unit_table.alpha[ids])
            rhos[eq_id] = _compensated_mean(unit_table.rho[ids])
    return alphas, rhos
