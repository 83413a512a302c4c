"""End-to-end translation conveniences (the tool's two conversion arrows).

``xsd_to_bxsd``  = Algorithm 1 then Algorithm 2  (Lemmas 4 + 5).
``bxsd_to_xsd``  = Algorithm 3 then Algorithm 4  (Lemmas 6 + 7).
``formal_xsd``   = any loaded schema kind (``xsd``, ``dtd``, ``bonxai``) as
a formal XSD, the one arrow the engine's users ride.

Each arrow runs under the ambient
:class:`~repro.observability.ResourceBudget`.  The polynomial k-suffix
constructions (Theorems 12 and 13, Section 4.4) are
:mod:`repro.translation.ksuffix`'s own functions.
"""

from __future__ import annotations

from repro.observability.tracing import span
from repro.translation.bxsd_to_dfa import bxsd_to_dfa_based
from repro.translation.dfa_to_bxsd import dfa_based_to_bxsd
from repro.translation.dfa_to_xsd import dfa_based_to_xsd
from repro.translation.dtd import dtd_to_bxsd
from repro.translation.xsd_to_dfa import xsd_to_dfa_based


def xsd_to_bxsd(xsd):
    """Translate a formal XSD (:class:`~repro.xsd.model.XSD`) into an
    equivalent BXSD, simplifying the generated ancestor expressions."""
    with span("translation.xsd_to_bxsd"):
        return dfa_based_to_bxsd(xsd_to_dfa_based(xsd))


def bxsd_to_xsd(bxsd):
    """Translate a BXSD (:class:`~repro.bonxai.bxsd.BXSD`) into an
    equivalent formal XSD.

    On adversarial input (Theorem 9's ``B_n``) the product arrow raises
    :class:`~repro.errors.BudgetExceeded` promptly under an ambient
    budget.
    """
    with span("translation.bxsd_to_xsd"):
        return dfa_based_to_xsd(bxsd_to_dfa_based(bxsd))


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
