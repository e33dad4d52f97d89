"""Catalogue charts written to disk the way ``insidejob watch`` reads them."""

from __future__ import annotations

from pathlib import Path

from repro.helm import dump_values


def write_chart_dir(root: Path, app) -> None:
    """Write ``app``'s chart under ``root/<app name>``: ``Chart.yaml``,
    ``values.yaml`` (both through ``dump_values``) and ``templates/``."""
    chart_dir = root / app.name
    (chart_dir / "templates").mkdir(parents=True)
    (chart_dir / "Chart.yaml").write_text(
        dump_values(app.chart.metadata.to_dict()), encoding="utf-8"
    )
    (chart_dir / "values.yaml").write_text(
        dump_values(app.chart.values), encoding="utf-8"
    )
    for template in app.chart.templates:
        (chart_dir / "templates" / template.name).write_text(
            template.source, encoding="utf-8"
        )
