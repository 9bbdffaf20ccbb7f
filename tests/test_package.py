from types import ModuleType

import cdmac


def test_all_is_public_api_only():
    assert not [name for name in cdmac.__all__
                if isinstance(getattr(cdmac, name), ModuleType)]
    oracles = {"g_series_from_product", "eigenvalue_bracket_form", "surviving_tuples"}
    assert not oracles & set(cdmac.__all__)
