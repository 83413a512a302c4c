"""The ordinary many-type schema: a tree of ``xs:sequence`` types.

Most real schemas look like this rather than like the worst-case
families: many small types, each a sequence of distinct child elements,
over a vocabulary that grows with the type count.  The family sizes what
a schema costs per type (its compile budget charge, and the memory of
its compiled tables, DESIGN §5f) at a realistic shape.
"""

from __future__ import annotations


def ordinary_xsd(levels=3, width=10):
    """A tree of ``1 + width + ... + width**(levels - 1)`` complexTypes
    (111 by default), each a ``width``-element sequence, with a valid
    document.

    Type ``T`` has children ``t_0`` ... ``t_{width-1}`` of types ``T_0``
    ... ``T_{width-1}``, recursively; the last level's children are
    string elements.  Every element name is distinct, so the schema has
    about ``width`` times as many element names as types.

    Returns:
        ``(schema text, document text, number of types)``.
    """
    types, document = [], []

    def build(type_name, depth):
        leaf = depth == levels - 1
        particles = []
        for index in range(width):
            name = f"{type_name.lower()}_{index}"
            if leaf:
                particles.append(f'<xs:element name="{name}" '
                                 'type="xs:string"/>')
                document.append(f"<{name}/>")
            else:
                child = f"{type_name}_{index}"
                particles.append(f'<xs:element name="{child.lower()}" '
                                 f'type="{child}"/>')
                document.append(f"<{child.lower()}>")
                build(child, depth + 1)
                document.append(f"</{child.lower()}>")
        types.append(f'<xs:complexType name="{type_name}"><xs:sequence>'
                     f'{"".join(particles)}</xs:sequence></xs:complexType>')

    build("T", 0)
    schema = (
        '<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">'
        f'<xs:element name="root" type="T"/>{"".join(types)}</xs:schema>'
    )
    return schema, f"<root>{''.join(document)}</root>", len(types)
