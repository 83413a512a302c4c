"""The ``xs:all`` record family: one element whose content is an
all-group of n distinct members.

Under the Section 3.1 restrictions an all-group is an unordered bag.  Its
minimal DFA has up to 2^n states, so the family exercises the compiled
engine's counting check (DESIGN §5k) at sizes no DFA construction reaches.
"""

from __future__ import annotations

#: Member occurrence constraints, taken in turn: plain, optional,
#: unbounded.
OCCURS = ("", ' minOccurs="0"', ' minOccurs="0" maxOccurs="unbounded"')


def all_group_xsd(fields=24, required_id=False):
    """XSD text of a ``record`` element whose content is an ``xs:all``.

    The members are string elements ``f00``, ``f01``, ... whose
    occurrence constraints follow :data:`OCCURS` in turn (``f00`` plain,
    ``f01`` optional, ``f02`` unbounded, ``f03`` plain, ...).

    Args:
        fields: the number of members.
        required_id: declare a required ``id`` attribute on ``record``.
    """
    members = "".join(
        f'<xs:element name="f{i:02d}" type="xs:string"'
        f"{OCCURS[i % len(OCCURS)]}/>"
        for i in range(fields)
    )
    attribute = (
        '<xs:attribute name="id" type="xs:string" use="required"/>'
        if required_id else ""
    )
    return (
        '<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">'
        '<xs:element name="record"><xs:complexType><xs:all>'
        f"{members}</xs:all>{attribute}"
        "</xs:complexType></xs:element></xs:schema>"
    )
