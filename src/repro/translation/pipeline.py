"""End-to-end translation conveniences (the tool's two conversion arrows).

``xsd_to_bxsd``  = Algorithm 1 then Algorithm 2  (Lemmas 4 + 5).
``bxsd_to_xsd``  = Algorithm 3 then Algorithm 4  (Lemmas 6 + 7).
``formal_xsd``   = any loaded schema kind (``xsd``, ``dtd``, ``bonxai``) as
a formal XSD, the one arrow the engine's users ride.

When the schema is k-suffix (Section 4.4), callers can ask for the
polynomial fragment translations instead via ``prefer_ksuffix=True``:
detection runs first and the Aho-Corasick / suffix-probing constructions
(Theorems 12 and 13) are used when they apply.
"""

from __future__ import annotations

from repro.observability.tracing import span
from repro.translation.bxsd_to_dfa import bxsd_to_dfa_based
from repro.translation.dfa_to_bxsd import dfa_based_to_bxsd
from repro.translation.dfa_to_xsd import dfa_based_to_xsd
from repro.translation.dtd import dtd_to_bxsd
from repro.translation.xsd_to_dfa import xsd_to_dfa_based


def xsd_to_bxsd(xsd, simplify=True, prefer_ksuffix=False, max_k=3,
                budget=None):
    """Translate a formal XSD into an equivalent BXSD.

    Args:
        xsd: the source :class:`~repro.xsd.model.XSD`.
        simplify: simplify the generated ancestor expressions.
        prefer_ksuffix: when the schema is k-suffix for some ``k <= max_k``,
            use the polynomial Theorem-13 construction.
        max_k: largest ``k`` tried by the detector.
        budget: optional :class:`~repro.observability.ResourceBudget`
            covering both arrows (falls back to the ambient one).
    """
    with span("translation.xsd_to_bxsd"):
        schema = xsd_to_dfa_based(xsd, budget=budget)
        if prefer_ksuffix:
            from repro.translation.ksuffix import (
                detect_k_suffix,
                ksuffix_dfa_based_to_bxsd,
            )

            k = detect_k_suffix(schema, max_k=max_k)
            if k is not None:
                return ksuffix_dfa_based_to_bxsd(schema, k)
        return dfa_based_to_bxsd(schema, simplify=simplify, budget=budget)


def bxsd_to_xsd(bxsd, prefer_ksuffix=False, max_k=3, budget=None):
    """Translate a BXSD into an equivalent formal XSD.

    Args:
        bxsd: the source :class:`~repro.bonxai.bxsd.BXSD`.
        prefer_ksuffix: when every rule is a k-suffix pattern with
            ``k <= max_k``, use the linear Theorem-12 (Aho-Corasick)
            construction.
        max_k: largest ``k`` accepted by the fragment detector.
        budget: optional :class:`~repro.observability.ResourceBudget`
            covering both arrows (falls back to the ambient one); on
            adversarial input (Theorem 9's ``B_n``) the product arrow
            raises :class:`~repro.errors.BudgetExceeded` promptly.
    """
    with span("translation.bxsd_to_xsd"):
        if prefer_ksuffix:
            from repro.translation.ksuffix import (
                bxsd_suffix_width,
                ksuffix_bxsd_to_dfa_based,
            )

            k = bxsd_suffix_width(bxsd)
            if k is not None and k <= max_k:
                return dfa_based_to_xsd(
                    ksuffix_bxsd_to_dfa_based(bxsd), budget=budget
                )
        return dfa_based_to_xsd(
            bxsd_to_dfa_based(bxsd, budget=budget), budget=budget
        )


def bxsd_core(kind, schema):
    """The BXSD behind a loaded schema of ``kind``, or ``None`` for XSDs.

    A BonXai schema (:class:`~repro.bonxai.compile.CompiledSchema`)
    carries its own; a DTD migrates rule per element name
    (:func:`~repro.translation.dtd.dtd_to_bxsd`).
    """
    if kind == "xsd":
        return None
    if kind == "dtd":
        return dtd_to_bxsd(schema)
    return schema.bxsd


def formal_xsd(kind, schema):
    """A loaded schema of ``kind`` (``xsd``, ``dtd`` or ``bonxai``) as a
    formal XSD: an XSD as is, the others through :func:`bxsd_core` and
    :func:`bxsd_to_xsd`'s generic product (for a DTD too, not the
    k-suffix construction of :func:`~repro.translation.dtd.dtd_to_xsd`).
    """
    bxsd = bxsd_core(kind, schema)
    return schema if bxsd is None else bxsd_to_xsd(bxsd)
