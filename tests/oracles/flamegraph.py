"""The node tree: flame-graph layout and folded text by a tree walk.

:class:`~repro.core.flamegraph.FlameGraph` lays out and folds straight
from its path table, in name-tuple order.  This module is how this
repository first did both, and the reference they are held to: a tree
of one node per path with time in it, children keyed by name, each
node's total summed from its children, and a depth-first walk that
visits children in name order.  The synthetic root is told apart by
identity, so a real frame named ``all`` is a frame like any other.
"""


class Node:
    __slots__ = ("name", "self_ticks", "total", "children")

    def __init__(self, name, self_ticks):
        self.name = name
        self.self_ticks = self_ticks
        self.total = 0
        self.children = {}

    def settle(self):
        """Sum each node's total from its children, bottom up, and
        drop the subtrees with no time in them."""
        self.total = self.self_ticks + sum(
            child.settle() for child in self.children.values()
        )
        self.children = {
            name: child for name, child in self.children.items()
            if child.total
        }
        return self.total

    def walk(self, level, start):
        """Yield ``(level, start, node)``: this node, then each child's
        subtree in name order, laid out from this node's start."""
        yield level, start, self
        offset = start
        for name in sorted(self.children):
            child = self.children[name]
            yield from child.walk(level + 1, offset)
            offset += child.total


def tree(graph):
    """`graph`'s node tree under the synthetic root ``all``, built from
    its path table (negative ticks count as none)."""
    root = Node("all", 0)
    nodes = []
    for (parent, mid), ticks in zip(graph._paths, graph._ticks):
        node = Node(graph._methods[mid], max(ticks, 0))
        above = nodes[parent] if parent >= 0 else root
        above.children[node.name] = node
        nodes.append(node)
    root.settle()
    return root


def tree_frames(graph):
    """`graph`'s frames as the tree walk lays them out, in the shape of
    :meth:`~repro.core.flamegraph.FlameGraph.frames`."""
    return [
        (level, start, node.name, node.self_ticks, node.total)
        for level, start, node in tree(graph).walk(0, 0)
    ]


def tree_inclusive_totals(graph):
    """Summed inclusive ticks per frame name over the tree's nodes,
    the synthetic root excluded."""
    root = tree(graph)
    totals = {}
    for _, _, node in root.walk(0, 0):
        if node is not root:
            totals[node.name] = totals.get(node.name, 0) + node.total
    return totals


def tree_folded(graph):
    """`graph`'s folded text from its node tree: one line per node with
    self ticks."""
    lines = []

    def fold(node, path):
        if node.self_ticks:
            lines.append(";".join(path) + f" {node.self_ticks}\n")
        for name in sorted(node.children):
            fold(node.children[name], path + [name])

    root = tree(graph)
    for name in sorted(root.children):
        fold(root.children[name], [name])
    return "".join(lines)
