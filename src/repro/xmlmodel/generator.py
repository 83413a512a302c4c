"""Random XML trees (not schema-driven; used for fuzzing validators).

Schema-driven document generation lives in :mod:`repro.xsd.generator`.
"""

from __future__ import annotations

from repro.xmlmodel.patch import clone_element
from repro.xmlmodel.tree import XMLDocument, XMLElement


def random_tree(rng, labels=("a", "b", "c"), max_depth=4, max_width=4,
                attribute_names=(), text_probability=0.0):
    """Generate a random :class:`XMLDocument`.

    Args:
        rng: a ``random.Random``-like source.
        labels: candidate element names.
        max_depth: maximum nesting depth (root counts as depth 1).
        max_width: maximum number of children per node.
        attribute_names: candidate attribute names (each added with
            probability 1/2).
        text_probability: probability of inserting a text run before each
            child slot.
    """
    labels = list(labels)

    def build(depth):
        node = XMLElement(labels[rng.randrange(len(labels))])
        for name in attribute_names:
            if rng.random() < 0.5:
                node.attributes[name] = f"value{rng.randrange(10)}"
        if depth < max_depth:
            width = rng.randrange(max_width + 1)
            for __ in range(width):
                if text_probability and rng.random() < text_probability:
                    node.append_text(f"text{rng.randrange(100)} ")
                node.append(build(depth + 1))
        if text_probability and rng.random() < text_probability:
            node.append_text(f"tail{rng.randrange(100)}")
        return node

    return XMLDocument(build(1))


def mutate_tree(document, rng, labels=("a", "b", "c")):
    """Return a mutated deep copy of ``document`` (for negative tests).

    One random mutation is applied: relabel a node, delete a subtree (never
    the root), or duplicate a child.
    """
    clone = clone_element(document.root)
    nodes = list(clone.iter())
    choice = rng.randrange(3)
    if choice == 0 or len(nodes) == 1:
        victim = nodes[rng.randrange(len(nodes))]
        others = [label for label in labels if label != victim.name]
        if others:
            victim.name = others[rng.randrange(len(others))]
    elif choice == 1:
        candidates = [node for node in nodes if node.parent is not None]
        victim = candidates[rng.randrange(len(candidates))]
        index = victim.parent.children.index(victim)
        del victim.parent.children[index]
        del victim.parent.texts[index + 1]
        victim.parent = None
    else:
        candidates = [node for node in nodes if node.children]
        if candidates:
            parent = candidates[rng.randrange(len(candidates))]
            child = parent.children[rng.randrange(len(parent.children))]
            parent.append(clone_element(child))
        else:
            nodes[0].append(XMLElement(labels[rng.randrange(len(labels))]))
    return XMLDocument(clone)
