"""Dense reference constructions that the package itself never forms."""

import numpy as np

from framelab.operators import _analysis_factors


def analysis_matrix(fam, support=None) -> np.ndarray:
    """Matrix of all coefficient functionals in weighted coordinates.

    Columns correspond to the orthonormal coordinate fields of the weighted
    space (delta at node i, fiber direction j, scaled by sqrt(N / w_i)).
    Rows are indexed (m, n) m-major, columns (i, j) i-major over the support.

    Column (i, j) is ``lambda_all`` applied to that coordinate field, in
    closed form conj(g_m[j]) * quad[n, i] * sqrt(N / w_i): one outer product
    of the two Kronecker factors that ``frame_spectrum`` takes its SVDs of.
    It is the dense NM x NM reference for that factored route.

    Args:
        support: optional boolean node mask restricting the coordinate
            fields; required when some weights vanish.
    """
    fiber, q = _analysis_factors(fam, support)
    M, (N, S) = fiber.shape[0], q.shape
    return np.einsum("mj,ni->mnij", fiber, q).reshape(M * N, S * M)
