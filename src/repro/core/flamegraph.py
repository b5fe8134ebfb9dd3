"""Stage 4 — the visualizer.

TEE-Perf integrates with Brendan Gregg's Flame Graphs.  The analyzer
already produces folded stacks (path -> exclusive ticks); this module
renders them either as the standard *folded* text format — directly
consumable by the original ``flamegraph.pl`` — or as a self-contained
SVG with the familiar layout: one rectangle per call-path node, width
proportional to time, warm deterministic colours, and a tooltip with
the exact numbers.  The paper implements this output in 15 LoC on top
of the analyzer; ours is bigger only because it writes the SVG itself.
"""

import html
import zlib

import numpy as _np


class FlameGraph:
    """A renderable flame graph built from folded stacks."""

    def __init__(self, folded, title="TEE-Perf Flame Graph"):
        if not folded:
            raise ValueError("empty profile: nothing to draw")
        self.title = title
        self.palette = None  # optional node -> css colour override
        self._inclusive = None
        self.root = _Node("all")
        for path, ticks in sorted(folded.items()):
            if ticks <= 0:
                continue
            node = self.root
            for name in path:
                node = node.child(name)
            node.self_ticks += ticks
        self.root.finalise()

    @classmethod
    def from_analysis(cls, analysis, title="TEE-Perf Flame Graph"):
        columns = getattr(analysis, "columns", None)
        if columns is not None and len(columns):
            return cls._from_columns(columns, title)
        return cls(analysis.folded(), title=title)

    @classmethod
    def from_path_table(cls, paths, methods, ticks,
                        title="TEE-Perf Flame Graph"):
        """Build the node tree straight from an interned path table.

        ``paths`` is the ``(parent_path_id, method_id)`` node list
        (parents preceding children, ``-1`` the root), ``methods`` the
        method-name table, and ``ticks`` the per-path-id exclusive
        totals.  The path table *is* the tree, so each unique call
        path becomes one node in a single sweep — no path tuples, no
        re-sorting of folded keys (node children render sorted either
        way).  Paths with no positive ticks prune away, matching the
        folded-dict construction exactly.
        """
        self = cls.__new__(cls)
        self.title = title
        self.palette = None
        self._inclusive = None
        self.root = root = _Node("all")
        nodes = []
        for parent, mid in paths:
            parent_node = nodes[parent] if parent >= 0 else root
            nodes.append(parent_node.child(methods[mid]))
        values = ticks.tolist() if hasattr(ticks, "tolist") else ticks
        for pid, t in enumerate(values):
            if t > 0:
                nodes[pid].self_ticks += t
        root.finalise()
        _prune_empty(root)
        return self

    @classmethod
    def _from_columns(cls, cols, title):
        """Columnar analysis -> tree: one scatter-add of per-record
        exclusive ticks onto the path table, then the shared sweep."""
        mask = cols.exclusive > 0
        if not mask.any():
            raise ValueError("empty profile: nothing to draw")
        sums = _np.zeros(len(cols.paths), dtype=_np.int64)
        _np.add.at(sums, cols.path_id[mask], cols.exclusive[mask])
        return cls.from_path_table(cols.paths, cols.methods, sums, title)

    # ------------------------------------------------------------------

    def total_ticks(self):
        return self.root.total

    def frames(self):
        """Iterate (depth, start, node) over the laid-out graph."""
        yield from self.root.walk(0, 0)

    def inclusive_totals(self):
        """Summed inclusive ticks per frame name across the whole
        graph, memoised — the tree is immutable once built, so one
        walk serves every ``share()`` call and the differential
        palette."""
        if self._inclusive is None:
            totals = {}
            for _, _, node in self.frames():
                totals[node.name] = totals.get(node.name, 0) + node.total
            self._inclusive = totals
        return self._inclusive

    def share(self, name):
        """Fraction of total time in frames called `name` (summed)."""
        return self.inclusive_totals().get(name, 0) / self.root.total

    def to_folded(self):
        """The canonical folded-stacks text format."""
        lines = []
        self.root.fold([], lines)
        return "\n".join(lines) + "\n"

    def write_folded(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_folded())

    # ------------------------------------------------------------------

    def to_svg(self, width=1200, frame_height=17, min_width_px=0.3):
        """A standalone SVG rendering of the graph."""
        depth = self.root.depth()
        height = (depth + 1) * frame_height + 60
        scale = (width - 20) / self.root.total
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" font-family="monospace" font-size="12">',
            f'<rect width="{width}" height="{height}" fill="#f8f8f8"/>',
            f'<text x="{width / 2}" y="24" text-anchor="middle" '
            f'font-size="16">{html.escape(self.title)}</text>',
        ]
        for level, start, node in self.frames():
            w = node.total * scale
            if w < min_width_px:
                continue
            x = 10 + start * scale
            y = height - 30 - (level + 1) * frame_height
            color = (
                self.palette(node) if self.palette else _color(node.name)
            )
            pct = 100 * node.total / self.root.total
            label = node.name if w > 8 * len(node.name) * 0.65 else (
                node.name[: max(0, int(w / 7) - 2)] + ".." if w > 30 else ""
            )
            tooltip = (
                f"{node.name}: {node.total} ticks "
                f"({pct:.2f}%), self {node.self_ticks}"
            )
            parts.append(
                f'<g><title>{html.escape(tooltip)}</title>'
                f'<rect x="{x:.2f}" y="{y}" width="{max(w, 0.5):.2f}" '
                f'height="{frame_height - 1}" fill="{color}" rx="1"/>'
                f'<text x="{x + 3:.2f}" y="{y + 12}">'
                f"{html.escape(label)}</text></g>"
            )
        parts.append("</svg>")
        return "\n".join(parts)

    def write_svg(self, path, **kwargs):
        with open(path, "w") as fh:
            fh.write(self.to_svg(**kwargs))


class _Node:
    __slots__ = ("name", "self_ticks", "total", "children")

    def __init__(self, name):
        self.name = name
        self.self_ticks = 0
        self.total = 0
        self.children = {}

    def child(self, name):
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = _Node(name)
        return node

    def finalise(self):
        self.total = self.self_ticks + sum(
            child.finalise() for child in self.children.values()
        )
        return self.total

    def depth(self):
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children.values())

    def walk(self, level, start):
        yield level, start, self
        offset = start
        for name in sorted(self.children):
            child = self.children[name]
            yield from child.walk(level + 1, offset)
            offset += child.total

    def fold(self, prefix, lines):
        path = prefix + [self.name] if prefix or self.name != "all" else []
        if self.self_ticks and path:
            lines.append(";".join(path) + f" {self.self_ticks}")
        for name in sorted(self.children):
            self.children[name].fold(path, lines)


def _prune_empty(node):
    """Drop zero-total subtrees (paths whose every invocation had no
    exclusive time), matching the folded-dict construction exactly."""
    node.children = {
        name: child
        for name, child in node.children.items()
        if child.total > 0
    }
    for child in node.children.values():
        _prune_empty(child)


def _color(name):
    """Deterministic warm colour per frame name (flame palette)."""
    digest = zlib.crc32(name.encode())
    red = 205 + digest % 50
    green = 60 + (digest >> 8) % 130
    blue = (digest >> 16) % 60
    return f"rgb({red},{green},{blue})"


def fold_stacks(analysis):
    """Convenience: analysis -> folded text."""
    return FlameGraph.from_analysis(analysis).to_folded()
