"""Exact one-row Macdonald polynomials of types C and D.

Tableau sums, the generating-series inversion route, a correlation-product
route, principal specializations, terminating basic hypergeometric identity
verification, and the Koornwinder q-difference eigenoperator certificate,
all over the exact field Q(q^(1/2), t^(1/2), T^(1/2)).
"""

from types import ModuleType as _ModuleType

from .errors import NonLaurentResultError, PoleError, UsageError
from .koornwinder import (EigenvalueData, KoornwinderParams, bc_specialize,
                          koornwinder_apply, koornwinder_eigenvalue,
                          triangularity_check)
from .laurent import LaurentPoly
from .macdonald import (T_SPECIAL, g_series, lassalle_expand, lassalle_invert,
                        principal_closed_form, principal_point,
                        principal_specialize, tableau_poly,
                        tableau_poly_C_general, tableau_poly_C_special,
                        tableau_poly_D)
from .poly import Mon, SparsePoly
from .qseries import (HypSeriesSpec, SqrtPair, TransformInstance, is_vwp_balanced,
                      qpoch, qpoch_multi, series_eval, verify_identity,
                      verify_transform_II, verify_transform_III)
from .scalar import FactoredScalar, Scalar, field_sqrt, sum_factored
from .tableaux import (Alphabet, OneRowTableau, count_closed_form,
                       enumerate_tableaux, is_valid)
from .walgebra import (CorrelationSpec, GammaTable, correlation_F,
                       correlation_residual, gamma_base, phi_principal)

__all__ = [name for name, obj in sorted(globals().items())
           if not name.startswith("_") and not isinstance(obj, _ModuleType)]
__version__ = "0.1.0"
