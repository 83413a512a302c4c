"""Translation algorithms between XSD and BonXai (Section 4.2), the
k-suffix fragment (Section 4.4), and DTD migration."""

from repro.translation.bxsd_to_dfa import bxsd_to_dfa_based
from repro.translation.dfa_to_bxsd import dfa_based_to_bxsd
from repro.translation.dfa_to_xsd import dfa_based_to_xsd
from repro.translation.dtd import dtd_to_bxsd, dtd_to_xsd
from repro.translation.hybrid import hybrid_dfa_based_to_bxsd
from repro.translation.ksuffix import (
    bxsd_suffix_width,
    check_k_suffix,
    detect_k_suffix,
    detect_semantic_locality,
    is_semantically_k_local,
    ksuffix_bxsd_to_dfa_based,
    ksuffix_dfa_based_to_bxsd,
    pattern_as_suffix,
)
from repro.translation.pipeline import (
    bxsd_core,
    bxsd_to_xsd,
    formal_xsd,
    xsd_to_bxsd,
)
from repro.translation.xsd_to_dfa import xsd_to_dfa_based

__all__ = [
    "bxsd_core",
    "bxsd_suffix_width",
    "bxsd_to_dfa_based",
    "bxsd_to_xsd",
    "check_k_suffix",
    "detect_k_suffix",
    "detect_semantic_locality",
    "dfa_based_to_bxsd",
    "dfa_based_to_xsd",
    "dtd_to_bxsd",
    "dtd_to_xsd",
    "formal_xsd",
    "hybrid_dfa_based_to_bxsd",
    "is_semantically_k_local",
    "ksuffix_bxsd_to_dfa_based",
    "ksuffix_dfa_based_to_bxsd",
    "pattern_as_suffix",
    "xsd_to_bxsd",
    "xsd_to_dfa_based",
]
