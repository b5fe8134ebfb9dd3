"""The tree fold: folded-stacks text by a walk of the node tree.

:meth:`~repro.core.flamegraph.FlameGraph.to_folded` renders straight
from the graph's path table.  :func:`tree_folded` is how this
repository first rendered it, and the reference it is held to: a
depth-first walk of the laid-out node tree, children in name order,
one line per node with self ticks.  The synthetic root is told apart
by identity, so a real frame named ``all`` folds like any other.
"""


def tree_folded(graph):
    """`graph`'s folded text from its node tree."""
    lines = []

    def fold(node, path):
        if node.self_ticks:
            lines.append(";".join(path) + f" {node.self_ticks}\n")
        for name in sorted(node.children):
            fold(node.children[name], path + [name])

    root = graph.root
    for name in sorted(root.children):
        fold(root.children[name], [name])
    return "".join(lines)
