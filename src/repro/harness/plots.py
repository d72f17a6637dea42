"""Terminal plots: ASCII bar charts for the figure data.

The paper presents Figure 5 as a bar chart; ``python -m repro figure 5
--plot`` renders the measured equivalent directly in the terminal, and
the sweep commands reuse the same renderer.  No plotting dependencies —
the charts are monospace text, sized to fit a standard 80-column view.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

#: Glyph used for filled bar cells.
_BAR = "█"
_HALF = "▌"


def grouped_bar_chart(
    groups: Dict[str, Sequence[Tuple[str, float]]],
    *,
    width: int = 40,
    unit: str = "",
) -> str:
    """Render several series under one shared scale."""
    peak = max(
        (value for series in groups.values() for _, value in series),
        default=1.0,
    ) or 1.0
    blocks: List[str] = []
    for name, series in groups.items():
        label_width = max((len(label) for label, _ in series), default=1)
        lines = [f"[{name}]"]
        for label, value in series:
            cells = value / peak * width
            filled = _BAR * int(cells)
            if cells - int(cells) >= 0.5:
                filled += _HALF
            lines.append(
                f"  {label:<{label_width}s} |{filled:<{width}s}| "
                f"{value:.3f}{unit}"
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def figure5_chart(figure5, *, width: int = 40) -> str:
    """Render a Figure-5 result as the paper's two bar series."""
    compiler_series = [
        (name, values[0]) for name, values in figure5.overheads.items()
    ]
    instr_series = [
        (name, values[1]) for name, values in figure5.overheads.items()
    ]
    chart = grouped_bar_chart(
        {
            "compiler-based P-SSP overhead": compiler_series,
            "instrumentation-based P-SSP overhead": instr_series,
        },
        width=width,
        unit="%",
    )
    return (
        chart
        + f"\n\naverages: compiler {figure5.compiler_average:.3f}%  "
        + f"instrumentation {figure5.instrumentation_average:.3f}%"
    )
