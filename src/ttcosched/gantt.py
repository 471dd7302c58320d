"""SVG Gantt rendering: one lane per resource over one hyper-period."""

from __future__ import annotations

from .model import Instance
from .validation import Schedule

LANE_H = 34
BAR_H = 24
LABEL_W = 90
TOP = 28
WIDTH = 1000


def _color(act_id: int) -> str:
    hue = (act_id * 137) % 360
    return f"hsl({hue},65%,60%)"


def render_gantt(instance: Instance, schedule: Schedule | None = None) -> str:
    hyper = instance.hyper_period()
    m = instance.platform.resources
    height = TOP + m * LANE_H + 8
    scale = (WIDTH - LABEL_W - 10) / hyper
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<text x="4" y="16">{instance.name}  H={hyper}</text>',
    ]
    for res in range(m):
        y = TOP + res * LANE_H
        kind = "core" if instance.platform.is_core(res) else "port"
        parts.append(f'<text x="4" y="{y + BAR_H - 6}">{kind} {res}</text>')
        parts.append(
            f'<rect x="{LABEL_W}" y="{y}" width="{hyper * scale:.2f}" '
            f'height="{BAR_H}" fill="none" stroke="#888"/>')
    if schedule is not None:
        for a in instance.activities:
            y = TOP + a.resource * LANE_H
            for j, s in enumerate(schedule.starts[a.id], start=1):
                x = LABEL_W + (s % hyper) * scale
                w = max(1.0, a.exec_time * scale)
                parts.append(
                    f'<rect x="{x:.2f}" y="{y + 2}" width="{w:.2f}" '
                    f'height="{BAR_H - 4}" fill="{_color(a.id)}" '
                    f'stroke="#333"><title>a{a.id}^{j} @ {s}</title></rect>')
                if w > 24:
                    parts.append(
                        f'<text x="{x + 2:.2f}" y="{y + BAR_H - 8}">'
                        f'a{a.id}^{j}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
