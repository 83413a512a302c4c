"""XML substrate: tree model, parser, writer, DTDs, random trees."""

from repro.xmlmodel.dtd import DTD, DTDAttribute, DTDElement, parse_dtd
from repro.xmlmodel.generator import mutate_tree, random_tree
from repro.xmlmodel.patch import (
    AddChild,
    Patch,
    RemoveChild,
    ReplaceChild,
    SetAttribute,
    SetText,
    clone_element,
    parse_patch,
    random_op,
    snapshot_paths,
    write_patch,
)
from repro.xmlmodel.parser import (
    from_etree,
    iter_events,
    parse_document,
    parse_fragment,
)
from repro.xmlmodel.tree import XMLDocument, XMLElement, element
from repro.xmlmodel.writer import write_document, write_element

__all__ = [
    "AddChild",
    "DTD",
    "DTDAttribute",
    "DTDElement",
    "Patch",
    "RemoveChild",
    "ReplaceChild",
    "SetAttribute",
    "SetText",
    "XMLDocument",
    "XMLElement",
    "clone_element",
    "element",
    "from_etree",
    "iter_events",
    "mutate_tree",
    "parse_document",
    "parse_dtd",
    "parse_fragment",
    "parse_patch",
    "random_op",
    "snapshot_paths",
    "random_tree",
    "write_document",
    "write_element",
    "write_patch",
]
