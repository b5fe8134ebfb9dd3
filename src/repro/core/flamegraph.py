"""Stage 4 — the visualizer.

TEE-Perf integrates with Brendan Gregg's Flame Graphs.  The analyzer
already produces folded stacks (path -> exclusive ticks); this module
renders them either as the standard *folded* text format — directly
consumable by the original ``flamegraph.pl`` — or as a self-contained
SVG with the familiar layout: one rectangle per call-path node, width
proportional to time, warm deterministic colours, and a tooltip with
the exact numbers.  The paper implements this output in 15 LoC on top
of the analyzer; ours is bigger only because it writes the SVG itself.

A flame graph *is* a path table: ``(parent, method)`` nodes, parents
before children, the method names, and each path's exclusive ticks —
the shape the analyzer's columns and the fleet's interned tables
already hold.  Folded text and the SVG's layout both walk the paths in
name-tuple order, which is the preorder of a walk that visits children
by name; no node tree is built.
"""

import html
import zlib
from collections import namedtuple

import numpy as _np

#: The folded lines of a path table's first ``len(names)`` paths: each
#: path's name tuple and line stem (``"a;b;c"``), and those path ids in
#: name-tuple order.  Built by :func:`folded_lines`; never mutated.
FoldedLines = namedtuple("FoldedLines", ("names", "stems", "order"))

_NO_LINES = FoldedLines((), (), ())


def folded_lines(paths, methods, n, lines=_NO_LINES):
    """The :class:`FoldedLines` of the first `n` nodes of the path
    table ``(paths, methods)``, extending `lines` — the same table's,
    over its first ``len(lines.names) <= n`` paths.  A prefix of an
    append-only table never changes, so only the new paths get a name
    and a stem, and the order is one merge of the old sorted run with
    them."""
    names, stems = list(lines.names), list(lines.stems)
    start = len(names)
    for parent, mid in paths[start:n]:
        name = methods[mid]
        if parent >= 0:
            names.append(names[parent] + (name,))
            stems.append(f"{stems[parent]};{name}")
        else:
            names.append((name,))
            stems.append(name)
    order = sorted([*lines.order, *range(start, n)], key=names.__getitem__)
    return FoldedLines(names, stems, order)


class FlameGraph:
    """A renderable flame graph over one call-path table."""

    def __init__(self, folded, title="TEE-Perf Flame Graph"):
        """Intern a ``{path tuple: ticks}`` dict: every prefix of each
        path becomes a node, parents first; ticks ``<= 0`` are
        skipped."""
        methods, method_ids = [], {}
        paths, path_ids = [], {}
        ticks = []
        for path, value in folded.items():
            if value <= 0:
                continue
            if not path:
                raise ValueError("cannot draw an empty call path")
            pid = -1
            for name in path:
                node = path_ids.get((pid, name))
                if node is None:
                    mid = method_ids.get(name)
                    if mid is None:
                        mid = method_ids[name] = len(methods)
                        methods.append(name)
                    node = path_ids[(pid, name)] = len(paths)
                    paths.append((pid, mid))
                    ticks.append(0)
                pid = node
            ticks[pid] += value
        self._adopt(paths, methods, ticks, title)

    @classmethod
    def from_analysis(cls, analysis, title="TEE-Perf Flame Graph"):
        columns = getattr(analysis, "columns", None)
        if columns is not None and len(columns):
            return cls._from_columns(columns, title)
        return cls(analysis.folded(), title=title)

    @classmethod
    def from_path_table(cls, paths, methods, ticks,
                        title="TEE-Perf Flame Graph", lines=None):
        """A graph over an interned path table, taken as it is.

        ``paths`` is the ``(parent_path_id, method_id)`` node list
        (parents preceding children, ``-1`` the root, no two children
        of one parent named alike), ``methods`` the method-name table,
        and ``ticks`` the per-path-id exclusive totals.  Paths with no
        positive ticks draw nothing, matching the folded-dict
        construction exactly.  ``lines`` are the table's
        :class:`FoldedLines` over at least ``len(paths)`` paths, when
        the caller keeps them; the folded text and the layout then
        read them instead of building their own.
        """
        self = cls.__new__(cls)
        self._adopt(paths, methods, ticks, title, lines)
        return self

    @classmethod
    def _from_columns(cls, cols, title):
        """Columnar analysis -> graph: one scatter-add of per-record
        exclusive ticks onto the path table."""
        mask = cols.exclusive > 0
        sums = _np.zeros(len(cols.paths), dtype=_np.int64)
        _np.add.at(sums, cols.path_id[mask], cols.exclusive[mask])
        return cls.from_path_table(cols.paths, cols.methods, sums, title)

    def _adopt(self, paths, methods, ticks, title, lines=None):
        ticks = ticks.tolist() if hasattr(ticks, "tolist") else ticks
        total = sum(t for t in ticks if t > 0)
        if not total:
            raise ValueError("empty profile: nothing to draw")
        self.title = title
        self.palette = None  # optional (name, level) -> css colour
        self._paths = paths
        self._methods = methods
        self._ticks = ticks
        self._total = total
        self._totals = None  # each path's inclusive ticks
        self._inclusive = None
        self._lines = lines

    # ------------------------------------------------------------------

    def _path_totals(self):
        """Each path's inclusive ticks, memoised: one backward pass,
        since parents precede children."""
        if self._totals is None:
            paths = self._paths
            totals = [t if t > 0 else 0 for t in self._ticks]
            for pid in range(len(totals) - 1, -1, -1):
                parent = paths[pid][0]
                if parent >= 0:
                    totals[parent] += totals[pid]
            self._totals = totals
        return self._totals

    def _folded_lines(self):
        """The lines handed in, else this graph's own, built once."""
        if self._lines is None:
            self._lines = folded_lines(
                self._paths, self._methods, len(self._ticks)
            )
        return self._lines

    def total_ticks(self):
        return self._total

    def frames(self):
        """Iterate ``(level, start, name, self_ticks, total)`` over the
        laid-out graph: the synthetic root ``all`` first, then every
        path with time in it in name-tuple order.  A frame's level is
        its path's length, and it starts where its parent's next child
        starts (children from the parent's start, self ticks last)."""
        yield 0, 0, "all", 0, self._total
        ticks, totals = self._ticks, self._path_totals()
        paths, methods = self._paths, self._methods
        lines, n = self._folded_lines(), len(ticks)
        # Each path's next child's start; the root's is the last slot,
        # which a top-level path's parent, -1, reads.
        next_start = [0] * (n + 1)
        for pid in lines.order:
            if pid < n and totals[pid]:
                parent, mid = paths[pid]
                start = next_start[pid] = next_start[parent]
                next_start[parent] = start + totals[pid]
                yield (len(lines.names[pid]), start, methods[mid],
                       max(ticks[pid], 0), totals[pid])

    def inclusive_totals(self):
        """Summed inclusive ticks per frame name across the whole
        graph, over the paths with time in them, memoised — one pass
        serves every ``share()`` call and the differential palette.
        The synthetic root is no frame."""
        if self._inclusive is None:
            methods, by_name = self._methods, {}
            for (_, mid), total in zip(self._paths, self._path_totals()):
                if total:
                    name = methods[mid]
                    by_name[name] = by_name.get(name, 0) + total
            self._inclusive = by_name
        return self._inclusive

    def share(self, name):
        """Fraction of total time in frames called `name` (summed)."""
        return self.inclusive_totals().get(name, 0) / self._total

    def to_folded(self):
        """The canonical folded-stacks text: one ``a;b;c ticks`` line
        per path with positive ticks, ordered by name tuple (a prefix
        before its extensions).  Renders from the table's
        :class:`FoldedLines` when it was given them (which may cover
        more paths than this graph's), else from its own."""
        ticks = self._ticks
        n = len(ticks)
        lines = self._folded_lines()
        stems = lines.stems
        return "".join([
            f"{stems[pid]} {ticks[pid]}\n"
            for pid in lines.order if pid < n and ticks[pid] > 0
        ])

    def write_folded(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_folded())

    # ------------------------------------------------------------------

    def to_svg(self, width=1200, frame_height=17, min_width_px=0.3):
        """A standalone SVG rendering of the graph."""
        frames = list(self.frames())
        depth = max(level for level, *_ in frames) + 1
        height = (depth + 1) * frame_height + 60
        scale = (width - 20) / self._total
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" font-family="monospace" font-size="12">',
            f'<rect width="{width}" height="{height}" fill="#f8f8f8"/>',
            f'<text x="{width / 2}" y="24" text-anchor="middle" '
            f'font-size="16">{html.escape(self.title)}</text>',
        ]
        for level, start, name, self_ticks, total in frames:
            w = total * scale
            if w < min_width_px:
                continue
            x = 10 + start * scale
            y = height - 30 - (level + 1) * frame_height
            color = (
                self.palette(name, level) if self.palette else _color(name)
            )
            pct = 100 * total / self._total
            label = name if w > 8 * len(name) * 0.65 else (
                name[: max(0, int(w / 7) - 2)] + ".." if w > 30 else ""
            )
            tooltip = (
                f"{name}: {total} ticks "
                f"({pct:.2f}%), self {self_ticks}"
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
