"""Extension studies beyond the paper's evaluation section.

The paper varies one parameter at a time (Figures 9-12).  These
extensions map the design space the way a flight-software team would
actually consume it:

* :func:`optimal_phi_map` — the optimal guarded-operation duration and
  the achievable ``max Y`` over a 2-D grid of parameters (e.g.
  ``mu_new`` x ``theta``), rendered as an ASCII heat map.
* :func:`coverage_threshold` — the minimum acceptance-test coverage
  ``c*`` at which guarding becomes beneficial at all (``max Y > 1``),
  found by bisection; the paper's c = 0.1 / 0.2 studies bracket this
  number but never locate it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.gsu.optimizer import find_optimal_phi
from repro.gsu.parameters import GSUParameters

#: Shades used by the ASCII heat map, light to dark.
_SHADES = " .:-=+*#%@"


@dataclass(frozen=True)
class OptimalPhiMap:
    """Results of a 2-D optimal-duration study.

    Attributes
    ----------
    row_parameter / column_parameter:
        The swept parameter names.
    row_values / column_values:
        The grid coordinates.
    optimal_phi:
        ``optimal_phi[i][j]`` for row value ``i``, column value ``j``.
    max_y:
        The achievable index at that optimum.
    """

    row_parameter: str
    column_parameter: str
    row_values: tuple[float, ...]
    column_values: tuple[float, ...]
    optimal_phi: tuple[tuple[float, ...], ...]
    max_y: tuple[tuple[float, ...], ...]

    def to_table(self) -> str:
        """Rows of ``optimal phi (max Y)`` cells."""
        header = [f"{self.row_parameter} \\ {self.column_parameter}"] + [
            f"{v:g}" for v in self.column_values
        ]
        widths = [max(18, len(header[0]))] + [12] * len(self.column_values)
        lines = [
            "  ".join(h.rjust(w) for h, w in zip(header, widths)),
        ]
        for i, row_value in enumerate(self.row_values):
            cells = [f"{row_value:g}".rjust(widths[0])]
            for j in range(len(self.column_values)):
                cells.append(
                    f"{self.optimal_phi[i][j]:g} ({self.max_y[i][j]:.2f})".rjust(
                        widths[1 + j]
                    )
                )
            lines.append("  ".join(cells))
        return "\n".join(lines)

    def to_heatmap(self, quantity: str = "phi") -> str:
        """An ASCII heat map of ``"phi"`` or ``"y"`` over the grid."""
        grid = self.optimal_phi if quantity == "phi" else self.max_y
        flat = [v for row in grid for v in row]
        lo, hi = min(flat), max(flat)
        span = (hi - lo) or 1.0
        lines = [
            f"heat map of optimal {'phi' if quantity == 'phi' else 'max Y'} "
            f"(light={lo:g}, dark={hi:g}); rows: {self.row_parameter}, "
            f"columns: {self.column_parameter}"
        ]
        for i, row_value in enumerate(self.row_values):
            shades = "".join(
                _SHADES[
                    min(
                        len(_SHADES) - 1,
                        int((grid[i][j] - lo) / span * (len(_SHADES) - 1)),
                    )
                ]
                * 2
                for j in range(len(self.column_values))
            )
            lines.append(f"  {row_value:>12g} |{shades}|")
        lines.append(
            f"  {'':>12} "
            + " ".join(f"{v:g}" for v in self.column_values)
        )
        return "\n".join(lines)


def optimal_phi_map(
    base: GSUParameters,
    row_parameter: str,
    row_values: Sequence[float],
    column_parameter: str,
    column_values: Sequence[float],
    grid_points: int = 20,
) -> OptimalPhiMap:
    """Optimal ``phi`` and ``max Y`` over a 2-D parameter grid.

    ``grid_points`` controls the per-cell ``phi`` sweep resolution
    (``step = theta / grid_points``).
    """
    if row_parameter == column_parameter:
        raise ValueError("row and column parameters must differ")
    phi_rows: list[tuple[float, ...]] = []
    y_rows: list[tuple[float, ...]] = []
    for row_value in row_values:
        phi_cells = []
        y_cells = []
        for column_value in column_values:
            params = base.with_overrides(
                **{row_parameter: row_value, column_parameter: column_value}
            )
            result = find_optimal_phi(
                params, step=params.theta / grid_points
            )
            phi_cells.append(result.phi)
            y_cells.append(result.y)
        phi_rows.append(tuple(phi_cells))
        y_rows.append(tuple(y_cells))
    return OptimalPhiMap(
        row_parameter=row_parameter,
        column_parameter=column_parameter,
        row_values=tuple(row_values),
        column_values=tuple(column_values),
        optimal_phi=tuple(phi_rows),
        max_y=tuple(y_rows),
    )


def coverage_threshold(
    base: GSUParameters,
    tolerance: float = 0.005,
    grid_points: int = 10,
) -> float:
    """Minimum AT coverage at which guarding becomes beneficial.

    Bisects on ``c`` for the smallest coverage whose best guarded
    operation still satisfies ``max Y > 1`` (evaluated on a coarse
    ``phi`` grid).  Returns 1.0 if guarding never pays off and 0.0 if it
    always does.
    """

    def beneficial(coverage: float) -> bool:
        params = base.with_overrides(coverage=coverage)
        result = find_optimal_phi(params, step=params.theta / grid_points)
        return result.y > 1.0 and result.phi > 0.0

    if beneficial(tolerance):
        return 0.0
    if not beneficial(1.0 - 1e-9):
        return 1.0
    lo, hi = tolerance, 1.0 - 1e-9
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if beneficial(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
