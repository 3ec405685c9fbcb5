"""Label moves on plain dicts, for test references that must not share code
with :class:`celltiler.circuit.Occupancy`, the code they check."""

EMPTY = object()  # what ``label_at.pop`` returns for a wire without a label


def occupied(mapping: dict) -> tuple[dict, dict]:
    """``(label_at, wire_of)``: the ``wire -> label`` and ``label -> wire``
    dicts of an injective start mapping."""
    wire_of = dict(mapping)
    label_at = {wire: label for label, wire in wire_of.items()}
    assert len(label_at) == len(wire_of), "two labels start on one wire"
    return label_at, wire_of


def swap_labels(label_at: dict, wire_of: dict, a, b) -> None:
    """Exchange the labels on wires ``a`` and ``b``; either may have none."""
    la = label_at.pop(a, EMPTY)
    lb = label_at.pop(b, EMPTY)
    if lb is not EMPTY:
        label_at[a] = lb
        wire_of[lb] = a
    if la is not EMPTY:
        label_at[b] = la
        wire_of[la] = b
