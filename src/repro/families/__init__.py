"""Schema families: worst-case blow-ups (Theorems 8, 9), k-suffix
fragment generators (Section 4.4), ``xs:all`` records and ordinary
many-type schemas."""

from repro.families.all_group import all_group_xsd
from repro.families.ehrenfeucht_zeiger import (
    sigma_n,
    split_symbol,
    symbol_name,
    theorem8_size,
    theorem8_xsd,
    zn_contains,
    zn_dfa,
)
from repro.families.ksuffix_family import (
    chain_xsd,
    dtd_like_bxsd,
    layered_ksuffix_bxsd,
)
from repro.families.ordinary import ordinary_xsd
from repro.families.theorem9 import (
    expected_child_of_a,
    theorem9_bxsd,
    theorem9_ename,
)

__all__ = [
    "all_group_xsd",
    "chain_xsd",
    "dtd_like_bxsd",
    "expected_child_of_a",
    "layered_ksuffix_bxsd",
    "ordinary_xsd",
    "sigma_n",
    "split_symbol",
    "symbol_name",
    "theorem8_size",
    "theorem8_xsd",
    "theorem9_bxsd",
    "theorem9_ename",
    "zn_contains",
    "zn_dfa",
]
